"""What every real (wall-clock) NOMAD runtime shares: one constructor,
one run and one result.

All live runtimes — threads, shared-memory processes, and the socket
cluster — are one class, :class:`LiveNomad`, with one
:meth:`~LiveNomad.run`; an engine says only how it launches (its
``_launch()`` context manager, yielding a :class:`Launch`).  The run is
one sequence on every engine:

1. **Launch.**  Everything before the timed window, released when the
   context exits: shared blocks or heap arrays, filled rings and
   unstarted workers (ring engines); the transport, started workers,
   the Ready/Peers bootstrap and the token scatter (cluster).
2. **Stamp, then begin.**  ``started`` is stamped, then the ring
   engines start their workers — inside the ``try`` whose ``finally``
   stops them, so a failed start leaks none.
3. **Wait.**  ``time.sleep`` in slices of at most
   :data:`_HEALTH_POLL_SECONDS` up to ``run.duration``.  No worker exits
   before it is stopped, so one that is not alive has crashed: the wait
   ends at once, collection stops waiting for it, and the engine's typed
   error names it (:class:`~repro.errors.WorkerLostError`, or
   :class:`~repro.errors.ClusterError` "… died before reporting").
4. **Stop, stamp, collect** (the ``finally``, reached on an error or
   interrupt too): the engine's stop signal, the ``wall`` stamp, then
   every worker's report under the engine's timeouts.
5. **Assemble.**  The engine's conservation check and final factors;
   once every worker is joined and the launch released, a final ``W``
   or ``H`` holding a non-finite value ends the run in
   :class:`~repro.errors.DivergenceError`, and otherwise one
   :class:`RuntimeResult` and one
   :meth:`~repro.telemetry.RunTelemetry.from_workers` merge.

Timing contract
---------------
``wall_seconds`` covers the parallel section only: from just before the
first ring worker starts (the cluster: from after the scatter) to the
stop signal (``stop.set()``; the cluster's ``Stop`` broadcast), *before*
result collection and joins.  Everything after it — collection, the
conservation check, joins and releasing the launch — lands in
``join_seconds``, so ``updates / wall_seconds`` stays an honest
throughput figure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..config import HyperParams, RunConfig
from ..datasets.ratings import RatingMatrix
from ..errors import ConfigError, DivergenceError
from ..linalg.backends import resolve_backend
from ..linalg.factors import FactorPair, start_factors
from ..linalg.objective import test_rmse
from ..telemetry import RunTelemetry, clock

__all__ = ["Launch", "LiveNomad", "RuntimeResult"]

#: How often the timed wait wakes to poll worker liveness, seconds.
_HEALTH_POLL_SECONDS = 0.2


@dataclass
class Launch:
    """One launched run, as an engine's ``_launch()`` context yields it.

    Attributes
    ----------
    workers:
        The running workers (anything with ``is_alive()``), in worker-id
        order.  :meth:`LiveNomad.run` appends each of ``unstarted`` as
        it starts it.
    unstarted:
        Workers :meth:`LiveNomad.run` starts inside its timed window
        (the ring engines'; the cluster's are running by then).
    stop:
        Raises the workers' stop signal.
    collect:
        Waits, under the engine's timeouts, for the workers' reports.
    assemble:
        Turns the reports into ``(factors, updates per worker,
        [WorkerTelemetry])``, checking token conservation; raises the
        engine's typed error for a worker that never reported.
    """

    workers: list
    unstarted: list
    stop: Callable[[], None]
    collect: Callable[[], object]
    assemble: Callable[[object], tuple[FactorPair, list[int], list]]


class LiveNomad:
    """What every live NOMAD runtime is built from.

    Parameters
    ----------
    train, test:
        Rating matrices of one shape.
    n_workers:
        Number of workers (>= 1).
    hyper:
        Model hyperparameters.
    run:
        The run's :class:`~repro.config.RunConfig`: ``seed`` roots the
        start, the token scatter and every worker's routing stream,
        ``kernel_backend`` names the kernels, and ``duration`` is the
        wall-clock budget of :meth:`run`.  ``eval_interval`` is unused
        (the live runtimes evaluate once, at the end) and
        ``max_updates`` is rejected eagerly: live workers cannot halt at
        an exact global update count, and pretending otherwise would
        corrupt updates-versus-RMSE comparisons.
    init_factors:
        Optional warm-start factors (validated against the train shape
        and ``hyper.k``).  Training starts from them instead of the
        seed's draw; either way the pair is kept as
        :attr:`initial_factors` and only ever read.
    telemetry:
        When true every worker records token hops, queue depths, kernel
        batches and idle polls (:mod:`repro.telemetry`), and the result
        carries a merged :class:`~repro.telemetry.RunTelemetry`.
        Default off; the disabled path costs one ``None`` check per
        instrumentation site.
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
    ):
        if n_workers < 1:
            raise ConfigError(f"n_workers must be >= 1, got {n_workers}")
        if train.shape != test.shape:
            raise ConfigError("train/test shapes disagree")
        if run.max_updates is not None:
            raise ConfigError(
                "max_updates is not supported by the real runtimes (workers "
                "cannot be halted at an exact global update count); use the "
                "simulated engine for update-budget experiments"
            )
        self.train = train
        self.test = test
        self.n_workers = int(n_workers)
        self.hyper = hyper
        self.run_config = run
        self.backend = resolve_backend(run.kernel_backend)
        self.initial_factors = start_factors(
            train.n_rows, train.n_cols, hyper.k, run.seed, init_factors
        )
        self.telemetry = bool(telemetry)

    def _launch(self):
        """Context manager yielding this engine's :class:`Launch`;
        releases everything it made on exit."""
        raise NotImplementedError

    def run(self) -> "RuntimeResult":
        """Run the workers for ``run.duration`` seconds of wall time.

        An error or interrupt anywhere after the launch — a worker that
        fails to start included — still stops and collects every started
        worker before it propagates; a worker that dies ends the run at
        once in the engine's typed error, and a model that diverged in
        :class:`~repro.errors.DivergenceError`.
        """
        with self._launch() as launch:
            started = clock()
            try:
                for worker in launch.unstarted:
                    worker.start()
                    launch.workers.append(worker)
                deadline = started + self.run_config.duration
                while (left := deadline - clock()) > 0 and all(
                    worker.is_alive() for worker in launch.workers
                ):
                    time.sleep(min(left, _HEALTH_POLL_SECONDS))
            finally:
                launch.stop()
                # End of the parallel section: stamp the wall clock now,
                # so collection and joins never inflate it.
                wall = clock() - started
                reports = launch.collect()
            final, per_worker, snapshots = launch.assemble(reports)
        join_seconds = clock() - started - wall
        if not (np.isfinite(final.w).all() and np.isfinite(final.h).all()):
            raise DivergenceError(
                f"final factors diverged after {sum(per_worker)} updates; "
                "reduce alpha or increase beta/lambda"
            )
        return RuntimeResult(
            factors=final,
            updates=sum(per_worker),
            wall_seconds=wall,
            rmse=test_rmse(final, self.test),
            updates_per_worker=per_worker,
            join_seconds=join_seconds,
            telemetry=(
                RunTelemetry.from_workers(snapshots)
                if self.telemetry
                else None
            ),
        )


@dataclass
class RuntimeResult:
    """Outcome of one real-concurrency NOMAD run.

    Attributes
    ----------
    factors:
        Final (W, H) model.
    updates:
        Total SGD updates applied across all workers.
    wall_seconds:
        Real elapsed time of the parallel section only (stamped at the
        stop signal; see the module docstring).
    rmse:
        Test RMSE of the final model.
    updates_per_worker:
        Per-worker update counts (load-balance diagnostics).
    join_seconds:
        Shutdown overhead: result collection, the conservation check
        and worker joins, reported separately from ``wall_seconds``.
    telemetry:
        Merged :class:`~repro.telemetry.RunTelemetry` when the run was
        started with ``telemetry=True``, else ``None`` (typed loosely
        to keep this module import-light).
    """

    factors: FactorPair
    updates: int
    wall_seconds: float
    rmse: float
    updates_per_worker: list[int]
    join_seconds: float = 0.0
    telemetry: object | None = None
