"""One cluster worker: the live token loop over a message transport.

Each worker owns a disjoint user-row shard and communicates **only** by
serialized frames — no memory is shared with any other node.  It runs
:func:`repro.runtime.loop.run_token_loop`, the loop of every live
engine; :class:`TransportMailbox` puts the wire behind the mailbox
surface that loop calls:

* **inside a worker a token is a bare item id.**  An arriving
  ``(j, h_j)`` is copied into row ``j`` of a worker-local ``(n_cols, k)``
  table, to which the kernel is bound once, and is re-serialized from
  that row when it leaves.  The table costs ``8·k·n_cols`` bytes per
  worker — what ``ClusterNomad._check_shard_frame_sizes`` already
  assumes one worker can hold (``worst_held``: every token at rest on it);
* outbound ids ship as §3.5 envelopes of ``batch_size`` tokens; partial
  envelopes flush whenever the inbox runs dry, so a buffered token can
  never strand while the worker idles (on the loop's 50 µs → 2 ms
  back-off; it used to block 20 ms in ``recv``);
* on ``Stop`` the loop returns with the model frozen, a ``Fin`` drain
  marker goes down every outbound link, and the worker keeps receiving
  until it holds a ``Fin`` from every peer — TCP's per-connection
  ordering then guarantees every token in flight has landed *somewhere*,
  making token conservation checkable by the coordinator;
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
from itertools import chain

import numpy as np

from ..config import HyperParams
from ..errors import ClusterError
from ..linalg.backends import get_backend
from ..rng import derive_rng
from ..runtime.loop import run_token_loop
from ..telemetry import Recorder, clock, encode_payload
from .transport import COORDINATOR, TcpTransport, Transport
from . import wire

__all__ = ["TransportMailbox", "WorkerSpec", "run_worker", "tcp_worker_entry"]

#: nomadlint NMD001 owner contexts: ``TransportMailbox.dispatch`` copies
#: an arriving ``h_j`` into the worker's table.  Receiving the token *is*
#: the ownership transfer — this node owns row ``j`` from then until it
#: serializes the row back out; ``run_token_loop`` does every later write.
__nomad_owner_contexts__ = ("dispatch",)

#: Receive poll period of the bootstrap wait and the drain barrier, seconds.
_POLL_SECONDS = 0.02

#: Bootstrap wait of the coordinator (``Ready``) and a TCP worker (``Peers``), s.
_BOOTSTRAP_TIMEOUT = 30.0

#: How long a worker keeps draining after ``Stop`` before giving up on
#: missing ``Fin`` markers (a dead peer); its own result still ships.
_DRAIN_TIMEOUT = 10.0

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass
class WorkerSpec:
    """Everything one worker needs, shipped at spawn time.

    The spec crosses the process boundary by serialization (pickle under
    the ``spawn`` start method) — nothing in it is shared state.  Factor
    payloads beyond the worker's own ``W`` shard arrive later as token
    envelopes over the wire.

    The shard ships as the CSC arrays ``(indptr, users, ratings)`` cut by
    ``RatingMatrix.shard_by_rows`` (users strictly ascending in every
    column), which the worker binds its kernel on as they arrive.
    ``users`` holds *local* row positions (indices into the worker's
    ``(len(w_rows), k)`` W block), so each worker allocates only its own
    shard of user factors; ``w_rows`` maps those positions back to
    global user ids when the result ships.
    """

    worker_id: int
    n_workers: int
    n_cols: int
    hyper: HyperParams
    backend_name: str
    seed: int
    batch_size: int
    indptr: np.ndarray
    users: np.ndarray
    ratings: np.ndarray
    w_rows: np.ndarray
    w_init: np.ndarray
    #: When true the worker records into a telemetry ring and ships the
    #: snapshot to the coordinator as a payload-bearing ``Fin``.
    telemetry: bool = False


class TransportMailbox:
    """One worker's mailbox over a :class:`Transport`: what the loop
    calls on ``TokenRings`` (``pop_many`` / ``route`` / ``depth``) plus
    ``is_set()``, so the same object is the loop's ``stop``.

    ``h`` is the worker's ``(n_cols, k)`` table; a row is current while
    its id is in the inbox, a burst or an unsent buffer.  ``put_times``
    (``None`` without telemetry) gets each token's arrival stamp: tokens
    are NOT stamped on the wire (the layout stays byte-identical to the
    simulator's cost model), so a hop span is local inbox residence.
    """

    def __init__(
        self, worker_id: int, n_workers: int, batch_size: int,
        transport: Transport, h: np.ndarray, put_times: np.ndarray | None,
    ):
        self._worker = worker_id
        self._batch_size = batch_size
        self._transport = transport
        self._h = h
        self._put_times = put_times
        self._inbox: deque[int] = deque()
        #: Unsent ids, one list per peer.
        self._buffers = {q: [] for q in range(n_workers) if q != worker_id}
        self._stopping = False
        self._fins: set[int] = set()
        self._drain_deadline = float("inf")

    def dispatch(self, message) -> None:
        """Act on one decoded frame: tokens into the table and the
        inbox, ``Stop`` / ``Fin`` into the drain bookkeeping."""
        if isinstance(message, wire.TokenEnvelope):
            # Ids travel as signed int64: a foreign or corrupt frame
            # could address any row.  Check before the first write.
            n_cols, k = self._h.shape
            items = [token.item for token in message.tokens]
            bad = [j for j in items if not 0 <= j < n_cols]
            if message.k != k or bad:
                what = f"item(s) {bad}" if bad else f"k={message.k}"
                raise ClusterError(
                    f"worker {self._worker} got a token envelope with {what}; "
                    f"its table holds k={k}, items [0, {n_cols})"
                )
            for token in message.tokens:
                self._h[token.item] = token.h
            if self._put_times is not None:
                self._put_times[items] = clock()
            self._inbox.extend(items)
        elif isinstance(message, wire.Stop):
            # Idempotent: a re-broadcast Stop (the coordinator's failure
            # path) must not move the deadline or send duplicate Fins.
            if not self._stopping:
                self._stopping = True
                self._drain_deadline = time.monotonic() + _DRAIN_TIMEOUT
                for q in self._buffers:
                    self._transport.send(q, wire.encode_fin(self._worker))
        elif isinstance(message, wire.Fin):
            self._fins.add(message.worker_id)
        else:
            raise ClusterError(
                f"worker {self._worker} got unexpected "
                f"{type(message).__name__} frame"
            )

    def is_set(self) -> bool:
        """Whether ``Stop`` has arrived (the loop's stop signal)."""
        return self._stopping

    def depth(self, worker: int) -> int:
        """Tokens waiting in the inbox right now."""
        return len(self._inbox)

    def pop_many(self, worker: int, limit: int) -> np.ndarray:
        """Dispatch every frame already delivered, without blocking, then
        pop up to ``limit`` of the oldest waiting ids.  Nothing is popped
        once ``Stop`` has been seen — later arrivals are held, the model
        freezes at the stop signal like on the other live runtimes — and
        a dry inbox flushes the partial envelopes."""
        body = self._transport.recv(timeout=0.0)
        while body is not None:
            self.dispatch(wire.decode(body))
            body = self._transport.recv(timeout=0.0)
        if self._stopping:
            return _EMPTY
        inbox = self._inbox
        if not inbox:
            for dest, buffer in self._buffers.items():
                if buffer:
                    self._send(dest, len(buffer))
            return _EMPTY
        pop = inbox.popleft
        return np.array(
            [pop() for _ in range(min(len(inbox), limit))], dtype=np.int64
        )

    def route(self, items: np.ndarray, dests: np.ndarray) -> None:
        """Hand ``items[t]`` to worker ``dests[t]``: a self-hop is a local
        queue push (§3.4), the rest leave in envelopes of ``batch_size``."""
        self._inbox.extend(items[dests == self._worker].tolist())
        for dest, buffer in self._buffers.items():
            buffer.extend(items[dests == dest].tolist())
            while len(buffer) >= self._batch_size:
                self._send(dest, self._batch_size)

    def _send(self, dest: int, count: int) -> None:
        """Ship the oldest ``count`` ids buffered for ``dest`` as one
        envelope, each token carrying its table row and this worker's
        inbox depth (the §3.3 hint)."""
        h, hint, buffer = self._h, len(self._inbox), self._buffers[dest]
        tokens = [wire.Token(j, hint, h[j]) for j in buffer[:count]]
        del buffer[:count]
        self._transport.send(dest, wire.encode_tokens(tokens, h.shape[1]))

    def drain(self) -> None:
        """The drain barrier: receive until every peer's ``Fin`` is in
        (or the deadline set at ``Stop`` passes — a dead peer)."""
        while not (
            self._fins.issuperset(self._buffers)
            or time.monotonic() > self._drain_deadline
        ):
            body = self._transport.recv(timeout=_POLL_SECONDS)
            if body is not None:
                self.dispatch(wire.decode(body))

    def held(self) -> list[wire.Token]:
        """Every token at rest here — inbox ∪ unsent buffers — with its
        ``h`` row read back out of the table."""
        return [
            wire.Token(j, 0, self._h[j])
            for j in chain(self._inbox, *self._buffers.values())
        ]


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
    # Only this worker's user factors exist here; the shard's users index
    # into this local block directly (copy: the kernels mutate it in place).
    w = np.array(spec.w_init, dtype=np.float64)
    h = np.zeros((spec.n_cols, hyper.k))
    kernel = get_backend(spec.backend_name).bind_tokens(
        w, h, spec.indptr, spec.users, spec.ratings,
        np.zeros(spec.users.size, dtype=np.int64),
        hyper.alpha, hyper.beta, hyper.lambda_,
    )
    rec = Recorder(spec.worker_id) if spec.telemetry else None
    put_times = np.zeros(spec.n_cols) if spec.telemetry else None
    mailbox = TransportMailbox(
        spec.worker_id, spec.n_workers, spec.batch_size, transport, h, put_times
    )
    for message in pending or ():
        mailbox.dispatch(message)
    updates = run_token_loop(
        spec.worker_id, spec.n_workers, kernel, mailbox,
        derive_rng(spec.seed, f"cluster-route-{spec.worker_id}"),
        mailbox, rec, put_times,
    )
    mailbox.drain()
    if rec is not None:
        # Ship the telemetry snapshot ahead of the result on the same
        # link: TCP per-connection ordering then guarantees the
        # coordinator holds the payload before it counts this worker's
        # ResultShard as collected.
        payload = encode_payload(rec.snapshot())
        transport.send(COORDINATOR, wire.encode_fin(spec.worker_id, payload))
    transport.send(
        COORDINATOR,
        wire.encode_result(
            spec.worker_id, updates, spec.w_rows, w, mailbox.held(), hyper.k
        ),
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
        peers, early = _await_peers(transport, _BOOTSTRAP_TIMEOUT)
        for worker_id, port in peers.ports.items():
            if worker_id != spec.worker_id:
                transport.register_peer(worker_id, host, port)
        run_worker(spec, transport, pending=early)
