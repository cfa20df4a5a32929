"""The cluster engine's control plane: :class:`ClusterNomad`.

Runs the paper's multi-machine NOMAD on real worker processes that
communicate only by serialized messages over localhost TCP — the
decentralized communication path the algorithm is named for, scaled down
to one host.  The coordinator never touches a factor during the run.
Its run is :meth:`~repro.runtime.result.LiveNomad.run`, the one run of
every live engine, over this engine's launch:

1. **launch** — partition the user rows, start one worker per shard
   (``spawn`` start method — no fork, no inherited state), bootstrap the
   ring (collect each worker's ``Ready(port)``, broadcast the ``Peers``
   address book) and scatter the item tokens (with their ``h_j``
   payloads) as §3.5 envelopes;
2. **wait** — the wall-clock budget, from after the scatter, failing
   fast on a worker that dies;
3. **stop and collect** — broadcast ``Stop`` (the ``wall_seconds``
   stamp), then collect one :class:`~repro.cluster.wire.ResultShard`
   and, under telemetry, one payload-bearing ``Fin`` per worker;
4. **assemble** — ``W`` from the row shards, ``H`` from the union of
   held tokens, verifying **token conservation** (every item exactly
   once) along the way, the Ω-freedom invariant of §4 made into a
   runtime check.

``transport="loopback"`` runs the identical worker loop on in-process
threads over :class:`~repro.cluster.transport.LoopbackHub` — no sockets,
no processes — which is what the unit tests exercise; the message
protocol and worker code path are byte-for-byte the same.
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import threading
import time

import numpy as np

from ..config import HyperParams, RunConfig
from ..datasets.ratings import RatingMatrix
from ..errors import ClusterError, ConfigError
from ..linalg.factors import FactorPair
from ..partition.partitioners import partition_rows_equal_ratings
from ..rng import RngFactory
from ..runtime.result import Launch, LiveNomad
from ..telemetry import decode_payload
from .transport import (
    COORDINATOR,
    MAX_FRAME_BYTES,
    LoopbackHub,
    TcpTransport,
    Transport,
)
from .worker import WorkerSpec, run_worker, tcp_worker_entry
from . import wire

__all__ = ["ClusterNomad", "DEFAULT_BATCH_SIZE"]

#: nomadlint NMD001 owner contexts: ``_assemble`` rebuilds (W, H) from
#: the result shards after every worker has frozen and reported — the
#: coordinator touches no factor while the run is live.
__nomad_owner_contexts__ = ("_assemble",)

#: Tokens per §3.5 envelope.  Smaller than the paper's 100 because a
#: localhost run circulates far fewer items than Netflix has movies; the
#: idle-flush in the worker keeps liveness at any value.
DEFAULT_BATCH_SIZE = 8

_POLL_SECONDS = 0.02
_BOOTSTRAP_TIMEOUT = 30.0
_RESULT_TIMEOUT = 15.0
_JOIN_TIMEOUT = 10.0

_TRANSPORTS = ("tcp", "loopback")


class ClusterNomad(LiveNomad):
    """Message-passing NOMAD over socket-connected worker processes.

    The shared parameters — ``train``, ``test``, ``n_workers``,
    ``hyper``, the required ``run``, ``init_factors`` and ``telemetry``
    — are :class:`~repro.runtime.result.LiveNomad`'s.  Workers
    instantiate ``run.kernel_backend`` by name on their side of the
    process boundary; a warm start seeds their ``W`` blocks and the
    scattered ``h_j`` token payloads; telemetry snapshots ship back as
    payload-bearing ``Fin`` frames (a run without telemetry is
    byte-identical to a pre-telemetry run on the wire).

    Parameters
    ----------
    transport:
        ``"tcp"`` (default) — worker processes over localhost sockets,
        started with the ``spawn`` method (fork-free, so it runs on
        platforms where :class:`~repro.runtime.multiprocess.MultiprocessNomad`
        cannot).  ``"loopback"`` — the same worker loop on in-process
        threads and copied-buffer queues (tests; GIL-bound).
    batch_size:
        Tokens per §3.5 envelope (>= 1).
    """

    def __init__(
        self,
        train: RatingMatrix,
        test: RatingMatrix,
        n_workers: int,
        hyper: HyperParams,
        run: RunConfig,
        init_factors: FactorPair | None = None,
        telemetry: bool = False,
        transport: str = "tcp",
        batch_size: int = DEFAULT_BATCH_SIZE,
    ):
        super().__init__(
            train, test, n_workers, hyper, run, init_factors, telemetry
        )
        if transport not in _TRANSPORTS:
            raise ConfigError(
                f"unknown cluster transport {transport!r}; "
                f"available: {list(_TRANSPORTS)}"
            )
        if batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
        self.transport = transport
        self.batch_size = int(batch_size)

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _worker_specs(self, init: FactorPair) -> list[WorkerSpec]:
        """One serialized-state spec per worker: row shard + W block.

        Shard row indices are remapped from global user ids to positions
        in the worker's own ``(len(w_rows), k)`` W block, so workers
        allocate only their shard of user factors (the global ids travel
        alongside as ``w_rows`` for reassembly).
        """
        train = self.train
        partition = partition_rows_equal_ratings(train, self.n_workers)
        if self.transport == "tcp":
            self._check_shard_frame_sizes(partition)
        local_of = np.empty(train.n_rows, dtype=np.int64)
        specs = []
        for q, shard in enumerate(train.shard_by_rows(partition)):
            indptr, users, ratings = shard.csc()
            # Ascending ranges: the remap keeps users ascending per column.
            local_of[partition[q]] = np.arange(partition[q].size)
            specs.append(
                WorkerSpec(
                    worker_id=q,
                    n_workers=self.n_workers,
                    n_cols=train.n_cols,
                    hyper=self.hyper,
                    backend_name=self.backend.name,
                    seed=self.run_config.seed,
                    batch_size=self.batch_size,
                    indptr=indptr,
                    users=local_of[users],
                    ratings=ratings,
                    w_rows=partition[q],
                    w_init=init.w[partition[q]],
                    telemetry=self.telemetry,
                )
            )
        return specs

    def _check_shard_frame_sizes(
        self, partition: list[np.ndarray]
    ) -> None:
        """Reject shards whose result frame could exceed the TCP limit.

        Failing here, before any process spawns, beats computing for the
        whole wall budget and then dying inside a worker's final
        ``send`` (which the coordinator would only see as a collection
        timeout).
        """
        k = self.hyper.k
        float_bytes = 8
        worst_held = self.train.n_cols * (
            wire.TOKEN_OVERHEAD_BYTES + k * float_bytes
        )
        for q, rows in enumerate(partition):
            worst = (
                wire.RESULT_OVERHEAD_BYTES
                + rows.size * float_bytes * (1 + k)
                + worst_held
            )
            if worst > MAX_FRAME_BYTES:
                raise ConfigError(
                    f"worker {q}'s result shard could reach {worst} bytes, "
                    f"over the {MAX_FRAME_BYTES}-byte frame limit; reduce "
                    "k or the item count — the bound includes one worker "
                    f"holding every item token ({worst_held} bytes), which "
                    "no worker count shrinks (chunked result shards are "
                    "the multi-host fix)"
                )

    def _scatter_tokens(self, transport: Transport, init: FactorPair) -> None:
        """Deal every item token to a seed-determined worker, batched."""
        scatter = RngFactory(self.run_config.seed).pyrandom("cluster-scatter")
        pending: list[list[wire.Token]] = [[] for _ in range(self.n_workers)]
        for j in range(self.train.n_cols):
            dest = scatter.randrange(self.n_workers)
            pending[dest].append(wire.Token(item=j, queue_hint=0, h=init.h[j]))
            if len(pending[dest]) >= self.batch_size:
                transport.send(
                    dest, wire.encode_tokens(pending[dest], self.hyper.k)
                )
                pending[dest].clear()
        for dest, batch in enumerate(pending):
            if batch:
                transport.send(dest, wire.encode_tokens(batch, self.hyper.k))

    # ------------------------------------------------------------------
    # Frame collection
    # ------------------------------------------------------------------
    def _gather(
        self,
        transport: Transport,
        frame_type: type,
        timeout: float,
        what: str,
        workers: list,
        fin_sink: dict[int, bytes] | None = None,
    ) -> dict[int, object]:
        """Collect one ``frame_type`` frame per worker within ``timeout``.

        The one poll loop behind both control-plane barriers (the
        ``Ready`` bootstrap and final result collection).  Frames of
        other kinds are ignored — except that when ``fin_sink`` is
        given, telemetry blobs riding payload-bearing ``Fin`` frames
        are captured into it by worker id (a telemetry-enabled worker
        sends its ``Fin`` just ahead of its ``ResultShard`` on the same
        ordered link).  Missing workers fail with a
        :class:`ClusterError` naming them: at the deadline, or early,
        on an idle poll, when one of ``workers`` that has not reported
        is dead.  One grace poll runs before raising, because a worker
        may enqueue its frame and die in the instant after the idle
        poll.
        """
        collected: dict[int, object] = {}
        deadline = time.monotonic() + timeout
        while len(collected) < self.n_workers:
            if time.monotonic() > deadline:
                missing = sorted(set(range(self.n_workers)) - set(collected))
                raise ClusterError(
                    f"workers {missing} never reported {what} "
                    f"(waited {timeout:.0f}s); a worker likely died"
                )
            body = transport.recv(timeout=_POLL_SECONDS)
            if body is None:
                # A process that exited 0 sent its frame first (it may
                # still be in flight); a thread's is queued before it ends.
                dead = [
                    q
                    for q, worker in enumerate(workers)
                    if q not in collected
                    and not worker.is_alive()
                    and getattr(worker, "exitcode", None) != 0
                ]
                if not dead:
                    continue
                body = transport.recv(timeout=_POLL_SECONDS)
                if body is None:
                    raise ClusterError(
                        f"worker(s) {dead} died before reporting; the "
                        "traceback is on the worker's stderr"
                    )
                # A frame made it out just before the death — keep going;
                # a still-unreported dead worker fails on the next pass.
            message = wire.decode(body)
            if isinstance(message, frame_type):
                collected[message.worker_id] = message
            elif (
                fin_sink is not None
                and isinstance(message, wire.Fin)
                and message.telemetry is not None
            ):
                fin_sink[message.worker_id] = message.telemetry
        return collected

    def _assemble(
        self, init: FactorPair, shards: dict[int, wire.ResultShard]
    ) -> FactorPair:
        """Rebuild (W, H) and verify token conservation."""
        w = np.array(init.w, dtype=np.float64)
        h = np.array(init.h, dtype=np.float64)
        seen = np.zeros(self.train.n_cols, dtype=np.int64)
        for shard in shards.values():
            w[shard.rows] = shard.w
            for token in shard.held:
                seen[token.item] += 1
                h[token.item] = token.h
        if not np.all(seen == 1):
            lost = np.flatnonzero(seen == 0)
            duplicated = np.flatnonzero(seen > 1)
            raise ClusterError(
                "token conservation violated: "
                f"{lost.size} item(s) lost (first: {lost[:5].tolist()}), "
                f"{duplicated.size} duplicated "
                f"(first: {duplicated[:5].tolist()})"
            )
        return FactorPair(w, h)

    # ------------------------------------------------------------------
    # Launch
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def _launch(self):
        """Transport, started workers, the Ready/Peers bootstrap (TCP)
        and the token scatter.  On exit every worker is joined; after a
        failure the survivors are released first, since they stop only
        on the ``Stop`` broadcast: TCP processes are terminated, and a
        loopback thread gets ``Stop`` plus a ``Fin`` from every peer —
        a crashed peer can never send the ``Fin`` its survivors' drain
        barriers wait on (duplicates of genuine ones are harmless: the
        barrier is a set)."""
        init = self.initial_factors
        specs = self._worker_specs(init)
        tcp = self.transport == "tcp"
        if tcp:
            transport = TcpTransport(COORDINATOR)
            context = mp.get_context("spawn")
            workers = [
                context.Process(
                    target=tcp_worker_entry,
                    args=(spec, transport.port),
                    daemon=True,
                )
                for spec in specs
            ]
        else:
            hub = LoopbackHub()
            transport = hub.transport(COORDINATOR)
            workers = [
                threading.Thread(
                    target=run_worker,
                    args=(spec, hub.transport(spec.worker_id)),
                    name=f"cluster-{spec.worker_id}",
                    daemon=True,
                )
                for spec in specs
            ]
        running: list = []
        fin_payloads: dict[int, bytes] = {}

        def stop() -> None:
            for q in range(self.n_workers):
                transport.send(q, wire.encode_stop())

        def assemble(shards: dict[int, wire.ResultShard]):
            # A payload that fails version/magic checks decodes to None
            # and that worker is simply absent from the merge — version
            # skew degrades telemetry, never the run.
            decoded = [decode_payload(blob) for blob in fin_payloads.values()]
            return (
                self._assemble(init, shards),
                [shards[q].updates for q in range(self.n_workers)],
                [worker for worker in decoded if worker is not None],
            )

        with transport:
            try:
                for worker in workers:
                    worker.start()
                    running.append(worker)
                if tcp:
                    self._bootstrap(transport, running)
                # The scatter is bootstrap too: run() stamps the wall
                # clock only once every token is on the wire.
                self._scatter_tokens(transport, init)
                yield Launch(
                    workers=running,
                    unstarted=[],
                    stop=stop,
                    collect=lambda: self._gather(
                        transport, wire.ResultShard, _RESULT_TIMEOUT,
                        "results", running, fin_payloads,
                    ),
                    assemble=assemble,
                )
            except BaseException:
                if tcp:
                    for process in running:
                        process.terminate()
                else:
                    stop()
                    for q in range(self.n_workers):
                        for peer in range(self.n_workers):
                            if peer != q:
                                transport.send(q, wire.encode_fin(peer))
                raise
            finally:
                for worker in running:
                    worker.join(timeout=_JOIN_TIMEOUT)
                    if tcp and worker.is_alive():
                        worker.terminate()
                        worker.join()

    def _bootstrap(self, transport: TcpTransport, workers: list) -> None:
        """Collect ``Ready(port)`` from every worker, then broadcast the
        address book that closes the ring."""
        ready = self._gather(
            transport, wire.Ready, _BOOTSTRAP_TIMEOUT, "ready", workers
        )
        for message in ready.values():
            transport.register_peer(message.worker_id, "127.0.0.1", message.port)
        peers_frame = wire.encode_peers(
            {q: message.port for q, message in ready.items()}
        )
        for q in range(self.n_workers):
            transport.send(q, peers_frame)

