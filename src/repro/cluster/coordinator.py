"""The cluster engine's control plane: :class:`ClusterNomad`.

Runs the paper's multi-machine NOMAD on real worker processes that
communicate only by serialized messages over localhost TCP — the
decentralized communication path the algorithm is named for, scaled down
to one host.  The coordinator never touches a factor during the run; it

1. partitions the user rows, initializes ``(W, H)`` from the shared
   seed scheme every engine uses, and spawns one process per worker
   (``spawn`` start method — no fork, no inherited state);
2. bootstraps the ring: collects each worker's ``Ready(port)``,
   broadcasts the ``Peers`` address book, and scatters the item tokens
   (with their ``h_j`` payloads) as §3.5 envelopes;
3. sleeps for the wall-clock budget, broadcasts ``Stop``, and stamps
   ``wall_seconds`` — exactly the timing contract of the other live
   runtimes (shutdown cost lands in ``join_seconds``);
4. collects one :class:`~repro.cluster.wire.ResultShard` per worker and
   reassembles the model: ``W`` from the row shards, ``H`` from the
   union of held tokens — verifying **token conservation** (every item
   exactly once) along the way, the Ω-freedom invariant of §4 made into
   a runtime check.

``transport="loopback"`` runs the identical worker loop on in-process
threads over :class:`~repro.cluster.transport.LoopbackHub` — no sockets,
no processes — which is what the unit tests exercise; the message
protocol and worker code path are byte-for-byte the same.
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time

import numpy as np

from ..config import HyperParams, RunConfig
from ..datasets.ratings import RatingMatrix
from ..errors import ClusterError, ConfigError
from ..linalg.backends import resolve_backend
from ..linalg.factors import FactorPair, init_factors, validate_init_factors
from ..linalg.objective import test_rmse
from ..partition.partitioners import partition_worker_triplets
from ..rng import RngFactory
from ..runtime.result import (
    RuntimeResult,
    resolve_duration,
    resolve_run_settings,
)
from ..telemetry import RunTelemetry, clock, decode_payload
from .transport import (
    COORDINATOR,
    MAX_FRAME_BYTES,
    LoopbackHub,
    TcpTransport,
    Transport,
)
from .worker import WorkerSpec, run_worker, tcp_worker_entry
from . import wire

__all__ = ["ClusterNomad", "ClusterResult", "DEFAULT_BATCH_SIZE"]

#: nomadlint NMD001 owner contexts: ``_assemble`` rebuilds (W, H) from
#: the result shards after every worker has frozen and reported — the
#: coordinator touches no factor while the run is live.
__nomad_owner_contexts__ = ("_assemble",)

#: Tokens per §3.5 envelope.  Smaller than the paper's 100 because a
#: localhost run circulates far fewer items than Netflix has movies; the
#: idle-flush in the worker keeps liveness at any value.
DEFAULT_BATCH_SIZE = 8

_POLL_SECONDS = 0.02
#: How often the run-phase sleep wakes to check worker liveness.
_HEALTH_POLL_SECONDS = 0.2
_BOOTSTRAP_TIMEOUT = 30.0
_RESULT_TIMEOUT = 15.0
_JOIN_TIMEOUT = 10.0

_TRANSPORTS = ("tcp", "loopback")


class ClusterResult(RuntimeResult):
    """Outcome of a cluster NOMAD run; see
    :class:`~repro.runtime.result.RuntimeResult` for the field contract."""


class ClusterNomad:
    """Message-passing NOMAD over socket-connected worker processes.

    Parameters
    ----------
    train, test:
        Rating matrices of one shape.
    n_workers:
        Number of worker nodes (>= 1).
    hyper:
        Model hyperparameters.
    seed:
        Root seed (initialization, token scattering, per-worker routing).
        ``None`` (default) takes ``run.seed`` when a :class:`RunConfig`
        is given, else 0; an explicit value always wins.
    kernel_backend:
        Kernel backend name (``"auto"``/``"list"``/``"cext"``);
        resolved exactly like the other live runtimes.  Workers
        instantiate the backend by name on their side of the process
        boundary.
    run:
        Optional :class:`~repro.config.RunConfig`; ``duration`` is the
        wall-clock budget of :meth:`run`, ``seed``/``kernel_backend``
        become the defaults above, and ``max_updates`` is rejected
        eagerly like on every live runtime.
    transport:
        ``"tcp"`` (default) — worker processes over localhost sockets,
        started with the ``spawn`` method (fork-free, so it runs on
        platforms where :class:`~repro.runtime.multiprocess.MultiprocessNomad`
        cannot).  ``"loopback"`` — the same worker loop on in-process
        threads and copied-buffer queues (tests; GIL-bound).
    batch_size:
        Tokens per §3.5 envelope (>= 1).
    init_factors:
        Optional warm-start factors (validated against the train shape
        and ``hyper.k``): worker ``W`` blocks and the scattered ``h_j``
        token payloads are seeded from them instead of the
        seed-determined initialization.  The caller's arrays are only
        read.
    telemetry:
        When true each worker records token hops, queue depths, kernel
        batches, and idle polls into a per-worker ring
        (:mod:`repro.telemetry`), ships the snapshot back as a
        payload-bearing ``Fin``, and the result carries a merged
        :class:`~repro.telemetry.RunTelemetry`.  Default off: the run
        is byte-identical to a pre-telemetry run on the wire.
    """

    def __init__(
        self,
        train: RatingMatrix,
        test: RatingMatrix,
        n_workers: int,
        hyper: HyperParams,
        seed: int | None = None,
        kernel_backend: str | None = None,
        run: RunConfig | None = None,
        transport: str = "tcp",
        batch_size: int = DEFAULT_BATCH_SIZE,
        init_factors: FactorPair | None = None,
        telemetry: bool = False,
    ):
        if n_workers < 1:
            raise ConfigError(f"n_workers must be >= 1, got {n_workers}")
        if train.shape != test.shape:
            raise ConfigError("train/test shapes disagree")
        if transport not in _TRANSPORTS:
            raise ConfigError(
                f"unknown cluster transport {transport!r}; "
                f"available: {list(_TRANSPORTS)}"
            )
        if batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
        self.train = train
        self.test = test
        self.n_workers = int(n_workers)
        self.hyper = hyper
        self.run_config = run
        self.transport = transport
        self.batch_size = int(batch_size)
        self.telemetry = bool(telemetry)
        self.seed, kernel_backend = resolve_run_settings(
            seed, kernel_backend, run
        )
        self.backend = resolve_backend(kernel_backend)
        if init_factors is not None:
            validate_init_factors(
                init_factors, train.n_rows, train.n_cols, hyper.k
            )
        self._init_factors = init_factors

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
        partition, triplets = partition_worker_triplets(
            train, self.n_workers
        )
        if self.transport == "tcp":
            self._check_shard_frame_sizes(partition)
        local_of = np.empty(train.n_rows, dtype=np.int64)
        specs = []
        for q in range(self.n_workers):
            shard_rows, shard_cols, shard_vals = triplets[q]
            local_of[partition[q]] = np.arange(partition[q].size)
            specs.append(
                WorkerSpec(
                    worker_id=q,
                    n_workers=self.n_workers,
                    n_cols=train.n_cols,
                    hyper=self.hyper,
                    backend_name=self.backend.name,
                    seed=self.seed,
                    batch_size=self.batch_size,
                    shard_rows=local_of[shard_rows],
                    shard_cols=shard_cols,
                    shard_vals=shard_vals,
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

    def _scatter_tokens(
        self, transport: Transport, init: FactorPair, factory: RngFactory
    ) -> None:
        """Deal every item token to a seed-determined worker, batched."""
        scatter = factory.pyrandom("cluster-scatter")
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
        health_check=None,
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
        :class:`ClusterError` naming them.  ``health_check`` (optional)
        runs on every idle poll with the frames so far and returns a
        failure description (or ``None``) when an unreported worker is
        known dead — failing early instead of waiting out the deadline.
        One grace poll runs before raising, because a worker may enqueue
        its frame and die in the instant after the idle poll.
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
                failure = (
                    health_check(collected) if health_check else None
                )
                if failure is None:
                    continue
                body = transport.recv(timeout=_POLL_SECONDS)
                if body is None:
                    raise ClusterError(failure)
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

    def _collect_results(
        self,
        transport: Transport,
        health_check=None,
        fin_sink: dict[int, bytes] | None = None,
    ) -> dict[int, wire.ResultShard]:
        return self._gather(
            transport, wire.ResultShard, _RESULT_TIMEOUT, "results",
            health_check, fin_sink,
        )

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
    # Run
    # ------------------------------------------------------------------
    def run(self, duration_seconds: float | None = None) -> ClusterResult:
        """Run the cluster for ``duration_seconds`` of wall time.

        ``None`` (default) falls back to the constructor run config's
        ``duration``, or 1 second when no run config was given.
        """
        duration_seconds = resolve_duration(duration_seconds, self.run_config)
        factory = RngFactory(self.seed)
        if self._init_factors is not None:
            init = self._init_factors
        else:
            init = init_factors(
                self.train.n_rows, self.train.n_cols, self.hyper.k,
                factory.stream("init"),
            )
        specs = self._worker_specs(init)
        if self.transport == "tcp":
            return self._run_tcp(duration_seconds, init, specs, factory)
        return self._run_loopback(duration_seconds, init, specs, factory)

    def _drive(
        self,
        transport: Transport,
        init: FactorPair,
        factory: RngFactory,
        duration_seconds: float,
        health_check=None,
        fin_sink: dict[int, bytes] | None = None,
    ) -> tuple[dict[int, wire.ResultShard], float, float]:
        """Scatter → run → stop → collect; returns (shards, wall, stop stamp)."""
        # The scatter is bootstrap, like Ready/Peers: stamp the wall
        # clock only once every token is on the wire, so serializing the
        # initial H never eats into the timed window (the other live
        # runtimes likewise seed tokens before their wall stamp).
        self._scatter_tokens(transport, init, factory)
        started = clock()
        run_deadline = started + duration_seconds
        while True:
            # Sleep in short slices so a worker dying early in a long
            # run fails within _HEALTH_POLL_SECONDS, not at the end of
            # the whole wall budget (no worker exits before Stop, so any
            # death seen here is a crash).
            left = run_deadline - clock()
            if left <= 0:
                break
            time.sleep(min(left, _HEALTH_POLL_SECONDS))
            failure = health_check(()) if health_check else None
            if failure is not None:
                raise ClusterError(failure)
        for q in range(self.n_workers):
            transport.send(q, wire.encode_stop())
        # End of the parallel section: stamp the wall clock at the stop
        # broadcast, so draining, result collection, and joins can never
        # inflate the reported parallel time.
        stopped = clock()
        shards = self._collect_results(transport, health_check, fin_sink)
        return shards, stopped - started, stopped

    def _finish(
        self,
        init: FactorPair,
        shards: dict[int, wire.ResultShard],
        wall: float,
        join_seconds: float,
        fin_payloads: dict[int, bytes] | None = None,
    ) -> ClusterResult:
        final = self._assemble(init, shards)
        per_worker = [shards[q].updates for q in range(self.n_workers)]
        telemetry = None
        if self.telemetry:
            # A payload that fails version/magic checks decodes to None
            # and that worker is simply absent from the merge — version
            # skew degrades telemetry, never the run.
            decoded = [
                decode_payload(blob)
                for blob in (fin_payloads or {}).values()
            ]
            telemetry = RunTelemetry.from_workers(
                [worker for worker in decoded if worker is not None]
            )
        return ClusterResult(
            factors=final,
            updates=sum(per_worker),
            wall_seconds=wall,
            rmse=test_rmse(final, self.test),
            updates_per_worker=per_worker,
            join_seconds=join_seconds,
            telemetry=telemetry,
        )

    def _run_tcp(
        self,
        duration_seconds: float,
        init: FactorPair,
        specs: list[WorkerSpec],
        factory: RngFactory,
    ) -> ClusterResult:
        context = mp.get_context("spawn")
        processes = []

        def health_check(collected: dict) -> str | None:
            """Fail fast, naming the exit code, when a worker that has
            not reported is already dead — instead of letting the crash
            surface as a full collection timeout."""
            dead = [
                (q, processes[q].exitcode)
                for q in range(self.n_workers)
                if q not in collected
                and not processes[q].is_alive()
                and processes[q].exitcode not in (0, None)
            ]
            if not dead:
                return None
            described = ", ".join(
                f"worker {q} (exit code {code})" for q, code in dead
            )
            return (
                f"{described} died before reporting; the traceback is "
                "on the worker process stderr"
            )

        completed = False
        fin_payloads: dict[int, bytes] = {}
        with TcpTransport(COORDINATOR) as transport:
            try:
                for spec in specs:
                    process = context.Process(
                        target=tcp_worker_entry,
                        args=(spec, transport.port),
                        daemon=True,
                    )
                    process.start()
                    processes.append(process)

                # Bootstrap: collect Ready(port) from every worker, then
                # broadcast the address book that closes the ring.
                ready = self._gather(
                    transport, wire.Ready, _BOOTSTRAP_TIMEOUT, "ready",
                    health_check,
                )
                for message in ready.values():
                    transport.register_peer(
                        message.worker_id, "127.0.0.1", message.port
                    )
                peers_frame = wire.encode_peers(
                    {q: message.port for q, message in ready.items()}
                )
                for q in range(self.n_workers):
                    transport.send(q, peers_frame)

                shards, wall, stopped = self._drive(
                    transport, init, factory, duration_seconds, health_check,
                    fin_payloads,
                )
                completed = True
            finally:
                # Reached on success and on any bootstrap/collection
                # failure: no worker process may outlive the run.  After
                # a failure the survivors would never exit on their own
                # (they only stop on the Stop broadcast), so terminate
                # them up front rather than waiting out a join timeout
                # per worker before the error surfaces.
                for process in processes:
                    if not completed and process.is_alive():
                        process.terminate()
                    process.join(timeout=_JOIN_TIMEOUT)
                    if process.is_alive():
                        process.terminate()
                        process.join()
        join_seconds = clock() - stopped
        return self._finish(init, shards, wall, join_seconds, fin_payloads)

    def _run_loopback(
        self,
        duration_seconds: float,
        init: FactorPair,
        specs: list[WorkerSpec],
        factory: RngFactory,
    ) -> ClusterResult:
        hub = LoopbackHub()
        transport = hub.transport(COORDINATOR)
        worker_transports = [hub.transport(spec.worker_id) for spec in specs]
        threads = [
            threading.Thread(
                target=run_worker,
                args=(spec, worker_transport),
                name=f"cluster-{spec.worker_id}",
                daemon=True,
            )
            for spec, worker_transport in zip(specs, worker_transports)
        ]

        def health_check(collected: dict) -> str | None:
            """A dead thread that never reported crashed (its result
            would already be queued otherwise) — fail fast, like the
            TCP path does for dead processes."""
            dead = [
                q
                for q, thread in enumerate(threads)
                if q not in collected and not thread.is_alive()
            ]
            if not dead:
                return None
            return (
                f"loopback worker(s) {dead} died before reporting; "
                "the traceback is on stderr (threading.excepthook)"
            )

        completed = False
        fin_payloads: dict[int, bytes] = {}
        for thread in threads:
            thread.start()
        try:
            shards, wall, stopped = self._drive(
                transport, init, factory, duration_seconds, health_check,
                fin_payloads,
            )
            completed = True
        finally:
            # After a failure the surviving workers have seen no Stop
            # and would poll their queues forever; broadcast it — and,
            # since a crashed peer can never send the Fin its survivors'
            # drain barriers wait on, forge a Fin from every worker id
            # (duplicates of genuine ones are harmless: the barrier is a
            # set) — so survivors exit now instead of waiting out the
            # full drain timeout.
            if not completed:
                for q in range(self.n_workers):
                    transport.send(q, wire.encode_stop())
                    for peer in range(self.n_workers):
                        if peer != q:
                            transport.send(q, wire.encode_fin(peer))
            for thread in threads:
                thread.join(timeout=_JOIN_TIMEOUT)
        join_seconds = clock() - stopped
        return self._finish(init, shards, wall, join_seconds, fin_payloads)
