"""Shared machinery for the baseline optimizer simulations.

The bulk-synchronous baselines (DSGD, DSGD++, CCD++, ALS) do not need a
discrete-event engine: within an epoch their timing is a closed-form
``max`` over workers plus communication terms, so they advance a scalar
clock.  :class:`ClockedOptimizer` centralizes that clock, the ndarray
factors and the kernel backend selected through
``RunConfig.kernel_backend`` (shared with NOMAD), the trace recording
policy, and the stopping rule, so each baseline module contains only its
scheduling logic and cost accounting.
"""

from __future__ import annotations

import abc

import numpy as np

from ..config import HyperParams, RunConfig
from ..datasets.ratings import RatingMatrix
from ..errors import ConfigError, SimulationError
from ..linalg.backends import resolve_backend
from ..linalg.factors import FactorPair, init_factors, validate_init_factors
from ..linalg.objective import test_rmse
from ..rng import RngFactory
from ..simulator.cluster import Cluster
from ..simulator.trace import Trace

__all__ = ["ClockedOptimizer"]


class ClockedOptimizer(abc.ABC):
    """Base class of the scalar-clock baseline simulations.

    Parameters mirror :class:`~repro.core.nomad.NomadSimulation` so the
    experiment harness can instantiate any optimizer uniformly.

    Subclasses implement :meth:`_run_loop`, calling :meth:`_advance` to
    charge simulated time, and :meth:`_record_if_due` after each unit of
    scheduled work; the base class handles trace bookkeeping, divergence
    detection, and the duration stopping rule (:meth:`_expired`).
    """

    algorithm = "?"

    def __init__(
        self,
        train: RatingMatrix,
        test: RatingMatrix,
        cluster: Cluster,
        hyper: HyperParams,
        run: RunConfig,
        factors: FactorPair | None = None,
    ):
        if train.shape != test.shape:
            raise ConfigError(
                f"train/test shapes disagree: {train.shape} vs {test.shape}"
            )
        self.train = train
        self.test = test
        self.cluster = cluster
        self.hyper = hyper
        self.run_config = run
        self.rng_factory = RngFactory(run.seed)

        if factors is None:
            factors = init_factors(
                train.n_rows, train.n_cols, hyper.k, self.rng_factory.stream("init")
            )
        validate_init_factors(factors, train.n_rows, train.n_cols, hyper.k)
        self._backend = resolve_backend(run.kernel_backend)
        self._w = factors.w.copy()
        self._h = factors.h.copy()

        self._jitter_rng = self.rng_factory.pyrandom(f"jitter-{self.algorithm}")
        self._clock = 0.0
        self._updates = 0
        self._trace = Trace(
            algorithm=self.algorithm,
            n_workers=cluster.n_workers,
            meta={
                "machines": cluster.n_machines,
                "cores": cluster.cores_per_machine,
                "network": cluster.network.name,
                "k": hyper.k,
                "lambda": hyper.lambda_,
            },
        )
        self._last_recorded = -float("inf")

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self) -> Trace:
        """Execute the optimizer until the simulated budget expires."""
        self._record_point(0.0)
        self._run_loop()
        if self._trace.records[-1].time < self.run_config.duration:
            self._record_point(self.run_config.duration)
        return self._trace

    @property
    def factors(self) -> FactorPair:
        """Materialized (W, H) snapshot of the current model state."""
        return FactorPair(self._w.copy(), self._h.copy())

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._clock

    @property
    def total_updates(self) -> int:
        """Work units (SGD updates or equivalent) applied so far."""
        return self._updates

    @property
    def kernel_backend(self) -> str:
        """Resolved kernel backend name (e.g. ``"list"``/``"cext"``)."""
        return self._backend.name

    # ------------------------------------------------------------------
    # Subclass interface
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _run_loop(self) -> None:
        """Scheduling loop: repeat work units until :meth:`_expired`."""

    def _entry_arrays(self) -> tuple:
        """The training set as ``(rows, cols, ratings, counts)`` for the
        entries kernels, once per run: the matrix's own arrays and one
        int64 counter array, which a compiled call takes as they are."""
        train = self.train
        counts = np.zeros(train.nnz, dtype=np.int64)
        return train.rows, train.cols, train.vals, counts

    def _advance(self, dt: float) -> None:
        """Charge ``dt`` simulated seconds of work/communication."""
        if dt < 0:
            raise SimulationError(f"cannot advance clock by {dt}")
        self._clock += dt

    def _advance_to(self, time: float) -> None:
        """Move the clock to an absolute event time (monotone)."""
        if time < self._clock:
            raise SimulationError(
                f"clock would move backwards: {time} < {self._clock}"
            )
        self._clock = time

    def _count_updates(self, n: int) -> None:
        """Account ``n`` applied work units."""
        self._updates += int(n)

    def _expired(self) -> bool:
        """Whether the simulated duration budget has been used up."""
        if self._clock >= self.run_config.duration:
            return True
        maximum = self.run_config.max_updates
        return maximum is not None and self._updates >= maximum

    def _record_if_due(self) -> None:
        """Record a trace point when at least eval_interval has elapsed."""
        if self._clock - self._last_recorded >= self.run_config.eval_interval:
            self._record_point(self._clock)

    def _record_point(self, time: float) -> None:
        rmse = test_rmse(self.factors, self.test)
        if not np.isfinite(rmse):
            raise SimulationError(
                f"{self.algorithm}: test RMSE diverged "
                "(reduce the step size or increase regularization)"
            )
        clamped = min(time, self.run_config.duration)
        if self._trace.records and clamped <= self._trace.records[-1].time:
            return
        self._trace.add(clamped, self._updates, rmse)
        self._last_recorded = clamped
