"""Shared machinery of the real (wall-clock) NOMAD runtimes.

All live runtimes — threads, shared-memory processes, and the socket
cluster — take the same constructor and report the same outcome fields;
this module holds both halves once so they can never drift apart:

* :class:`LiveNomad` — the constructor: problem checks, the required
  :class:`~repro.config.RunConfig` (seed, kernel backend, wall budget),
  the resolved backend and the pair the run starts from.
* :class:`RuntimeResult` — the common result dataclass (the
  :func:`repro.fit` facade folds it into the uniform
  :class:`~repro.api.result.FitTiming` block).

Timing contract
---------------
``wall_seconds`` covers the parallel section only: it is stamped the
moment the stop signal is raised, *before* sentinel delivery, result
collection, and joins.  All shutdown overhead lands in ``join_seconds``,
so ``updates / wall_seconds`` stays an honest throughput figure.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import HyperParams, RunConfig
from ..datasets.ratings import RatingMatrix
from ..errors import ConfigError
from ..linalg.backends import resolve_backend
from ..linalg.factors import FactorPair, start_factors

__all__ = ["LiveNomad", "RuntimeResult"]


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
        wall-clock budget of ``run()``.  ``eval_interval`` is unused
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
        Shutdown overhead: sentinel delivery, result collection, and
        worker joins, reported separately from ``wall_seconds``.
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
