"""One cluster worker: the NOMAD inner loop over a message transport.

Each worker owns a disjoint user-row shard and communicates **only** by
serialized frames — no memory is shared with any other node.  The loop is
Algorithm 1 verbatim, with the communication layer made explicit:

* pop a ``(j, h_j)`` token from the local inbox, run the SGD updates over
  the local ratings Ω̄^(q)_j through the configured
  :class:`~repro.linalg.backends.base.KernelBackend`, and route the token
  (with its freshly updated ``h_j`` payload) to a uniformly random worker;
* outbound tokens accumulate in per-destination buffers and ship as §3.5
  envelopes of ``batch_size`` tokens; buffers flush early whenever the
  inbox runs dry, so a partial envelope can never strand a token while
  the worker idles;
* on ``Stop`` the worker freezes its model, sends a ``Fin`` drain marker
  down every outbound link, and keeps receiving until it holds a ``Fin``
  from every peer — TCP's per-connection ordering then guarantees every
  token in flight has landed *somewhere*, making token conservation
  checkable by the coordinator;
* finally it reports a :class:`~repro.cluster.wire.ResultShard`: its user
  factors, its update count, and every token at rest locally.

The same function serves the spawned-process TCP path
(:func:`tcp_worker_entry`, which adds the ready/peers bootstrap
handshake) and the in-process loopback path used by tests.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from ..config import HyperParams
from ..datasets.ratings import Shard
from ..errors import ClusterError
from ..linalg.backends import get_backend
from ..rng import derive_pyrandom
from ..runtime.loop import BURST_TOKENS
from ..telemetry import (
    C_BATCHES,
    C_DRAINS,
    C_IDLE_POLLS,
    C_TOKENS,
    C_UPDATES,
    POINT_QUEUE_DEPTH,
    Recorder,
    SPAN_HOP,
    SPAN_IDLE,
    SPAN_KERNEL,
    clock,
    encode_payload,
)
from .transport import COORDINATOR, TcpTransport, Transport
from . import wire

__all__ = ["WorkerSpec", "run_worker", "tcp_worker_entry"]

#: nomadlint NMD001 owner contexts: ``run_worker`` is the Algorithm 1
#: loop — its W block is private to this node and each ``h_j`` arrives
#: as an owned token payload, so every factor write is owner-guarded.
__nomad_owner_contexts__ = ("run_worker",)

#: Receive poll period while the inbox is empty, seconds.
_POLL_SECONDS = 0.02

#: How long a worker keeps draining after ``Stop`` before giving up on
#: missing ``Fin`` markers (a dead peer); its own result still ships.
_DRAIN_TIMEOUT = 10.0


@dataclass
class WorkerSpec:
    """Everything one worker needs, shipped at spawn time.

    The spec crosses the process boundary by serialization (pickle under
    the ``spawn`` start method) — nothing in it is shared state.  Factor
    payloads beyond the worker's own ``W`` shard arrive later as token
    envelopes over the wire.

    ``shard_rows`` holds *local* row positions (indices into the
    worker's ``(len(w_rows), k)`` W block), so each worker allocates
    only its own shard of user factors; ``w_rows`` maps those positions
    back to global user ids when the result ships.
    """

    worker_id: int
    n_workers: int
    n_cols: int
    hyper: HyperParams
    backend_name: str
    seed: int
    batch_size: int
    shard_rows: np.ndarray
    shard_cols: np.ndarray
    shard_vals: np.ndarray
    w_rows: np.ndarray
    w_init: np.ndarray
    #: When true the worker records into a telemetry ring and ships the
    #: snapshot to the coordinator as a payload-bearing ``Fin``.
    telemetry: bool = False


def run_worker(
    spec: WorkerSpec,
    transport: Transport,
    pending: list | None = None,
) -> None:
    """Run Algorithm 1 on ``transport`` until drained; report the result.

    ``pending`` carries decoded messages that arrived interleaved with
    the bootstrap handshake (possible on the TCP path, where a fast peer
    may route tokens — or even stop and send ``Fin`` — before this
    worker finished reading ``Peers``); they are dispatched first,
    exactly as if they had just been received.
    """
    hyper = spec.hyper
    k = hyper.k
    backend = get_backend(spec.backend_name)
    # Only this worker's user factors exist here; shard_rows index into
    # this local block directly (copy: the kernels mutate it in place).
    w = np.array(spec.w_init, dtype=np.float64)
    shard = Shard(
        worker=spec.worker_id,
        n_cols=spec.n_cols,
        rows=spec.shard_rows,
        cols=spec.shard_cols,
        vals=spec.shard_vals,
    )
    counts = np.zeros(shard.nnz, dtype=np.int64)
    routing = derive_pyrandom(spec.seed, f"cluster-route-{spec.worker_id}")
    peers = [q for q in range(spec.n_workers) if q != spec.worker_id]
    inbox: deque[wire.Token] = deque()
    # Telemetry is local-only: tokens are NOT re-stamped on the wire (the
    # token layout stays byte-identical to the simulator's cost model),
    # so a hop span measures local inbox residence — arrival to pop —
    # via this deque of arrival stamps kept parallel to ``inbox``.
    rec = Recorder(spec.worker_id) if spec.telemetry else None
    arrivals: deque[float] = deque()
    buffers: dict[int, list[wire.Token]] = {q: [] for q in peers}
    updates = 0
    stopping = False
    fins: set[int] = set()
    drain_deadline = float("inf")

    def flush(dest: int) -> None:
        batch = buffers[dest]
        if batch:
            transport.send(dest, wire.encode_tokens(batch, k))
            batch.clear()

    def dispatch(message) -> None:
        nonlocal stopping, drain_deadline
        if isinstance(message, wire.TokenEnvelope):
            inbox.extend(message.tokens)
            if rec is not None:
                arrivals.extend([clock()] * len(message.tokens))
        elif isinstance(message, wire.Stop):
            # Idempotent: the coordinator may re-broadcast Stop on its
            # failure path; a second one must not push the drain
            # deadline out or send duplicate Fin markers.
            if not stopping:
                stopping = True
                drain_deadline = time.monotonic() + _DRAIN_TIMEOUT
                for q in peers:
                    transport.send(q, wire.encode_fin(spec.worker_id))
        elif isinstance(message, wire.Fin):
            fins.add(message.worker_id)
        else:
            raise ClusterError(
                f"worker {spec.worker_id} got unexpected "
                f"{type(message).__name__} frame"
            )

    for message in pending or ():
        dispatch(message)

    while True:
        # Drain every frame already delivered; block only when idle.
        timeout = 0.0 if (inbox and not stopping) else _POLL_SECONDS
        if rec is not None and timeout > 0.0:
            poll_start = clock()
            body = transport.recv(timeout=timeout)
            if body is None and not stopping:
                rec.span(SPAN_IDLE, poll_start, clock() - poll_start)
                rec.add(C_IDLE_POLLS)
        else:
            body = transport.recv(timeout=timeout)
        while body is not None:
            dispatch(wire.decode(body))
            body = transport.recv(timeout=0.0)

        if stopping:
            # Tokens received after Stop are held, not processed: the
            # model freezes at the stop signal, matching the other live
            # runtimes' timing contract.
            if fins.issuperset(peers) or time.monotonic() > drain_deadline:
                break
            continue

        # Pop one burst of tokens (capped, so a deep inbox cannot starve
        # stop/drain handling), run them through a single fused kernel
        # call, then route.  The pop count is fixed before any self-hop
        # re-append, so exactly the tokens the unbatched loop would have
        # processed are processed, in the same order; each token's §3.3
        # queue hint is stamped at its pop, when the depth is observed.
        burst: list[wire.Token] = []
        if rec is not None and inbox:
            now = clock()
            rec.point(POINT_QUEUE_DEPTH, len(inbox))
            rec.add(C_DRAINS)
        for _ in range(min(len(inbox), BURST_TOKENS)):
            token = inbox.popleft()
            token.queue_hint = len(inbox)
            if rec is not None:
                arrived = arrivals.popleft()
                rec.span(SPAN_HOP, arrived, now - arrived)
            burst.append(token)
        if rec is not None and burst:
            rec.add(C_TOKENS, len(burst))
        h_cols: list = []
        col_users: list = []
        col_ratings: list = []
        col_counts: list = []
        for token in burst:
            users, ratings = shard.column(token.item)
            if users.size:
                lo, hi = shard.column_bounds(token.item)
                h_cols.append(token.h)
                col_users.append(users)
                col_ratings.append(ratings)
                col_counts.append(counts[lo:hi])
        if h_cols:
            if rec is not None:
                kernel_start = clock()
            applied = backend.process_column_batch(
                w, h_cols, col_users, col_ratings, col_counts,
                hyper.alpha, hyper.beta, hyper.lambda_,
            )
            updates += applied
            if rec is not None:
                rec.span(SPAN_KERNEL, kernel_start, clock() - kernel_start,
                         applied)
                rec.add(C_UPDATES, applied)
                rec.add(C_BATCHES)
        for token in burst:
            dest = routing.randrange(spec.n_workers)
            if dest == spec.worker_id:
                inbox.append(token)  # a self-hop is a local queue push (§3.4)
                if rec is not None:
                    arrivals.append(clock())
            else:
                buffers[dest].append(token)
                if len(buffers[dest]) >= spec.batch_size:
                    flush(dest)
        if not inbox:
            for q in peers:
                flush(q)

    held = list(inbox)
    for batch in buffers.values():
        held.extend(batch)
    if rec is not None:
        # Ship the telemetry snapshot ahead of the result on the same
        # link: TCP per-connection ordering then guarantees the
        # coordinator holds the payload before it counts this worker's
        # ResultShard as collected.
        transport.send(
            COORDINATOR,
            wire.encode_fin(
                spec.worker_id, telemetry=encode_payload(rec.snapshot())
            ),
        )
    transport.send(
        COORDINATOR,
        wire.encode_result(spec.worker_id, updates, spec.w_rows, w, held, k),
    )


def _await_peers(
    transport: TcpTransport, timeout: float
) -> tuple[wire.Peers, list]:
    """Wait for the coordinator's address book during bootstrap.

    Frames from already-bootstrapped peers may arrive first — token
    envelopes, and on a heavily oversubscribed host even a ``Fin`` from
    a peer that raced through a whole short run.  Everything that is
    not the ``Peers`` broadcast is buffered in arrival order and handed
    to :func:`run_worker` for dispatch (the coordinator's own link
    delivers ``Peers`` before any later control frame, so ``Stop``
    cannot overtake it, but peer links are independent).
    """
    deadline = time.monotonic() + timeout
    early: list = []
    while time.monotonic() < deadline:
        body = transport.recv(timeout=_POLL_SECONDS)
        if body is None:
            continue
        message = wire.decode(body)
        if isinstance(message, wire.Peers):
            return message, early
        early.append(message)
    raise ClusterError(
        f"worker {transport.node_id} never received the Peers broadcast"
    )


def tcp_worker_entry(
    spec: WorkerSpec,
    coordinator_port: int,
    host: str = "127.0.0.1",
    bootstrap_timeout: float = 30.0,
) -> None:
    """Process entry point of one TCP worker (module-level for ``spawn``).

    Bootstrap: bind an OS-chosen port, announce it to the coordinator
    with ``Ready``, wait for the ``Peers`` address book, then hand off to
    :func:`run_worker`.
    """
    with TcpTransport(spec.worker_id, host=host) as transport:
        transport.register_peer(COORDINATOR, host, coordinator_port)
        transport.send(
            COORDINATOR, wire.encode_ready(spec.worker_id, transport.port)
        )
        peers, early = _await_peers(transport, bootstrap_timeout)
        for worker_id, port in peers.ports.items():
            if worker_id != spec.worker_id:
                transport.register_peer(worker_id, host, port)
        run_worker(spec, transport, pending=early)
