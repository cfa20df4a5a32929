"""The single result type every execution engine returns.

Before the facade existed each execution path had its own result shape:
``NomadSimulation.run()`` returned a bare :class:`~repro.simulator.trace.Trace`
(with factors left on the simulation object), the real runtimes return a
:class:`~repro.runtime.result.RuntimeResult` (factors and wall timing, no
trace), and the baselines returned traces with their own conventions.
:class:`FitResult` normalizes all of them: one convergence trace, one
trained factor pair, one lazily-built :class:`~repro.model.CompletionModel`,
and one :class:`FitTiming` block whose fields mean the same thing on every
engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..linalg.factors import FactorPair
from ..model import CompletionModel
from ..simulator.trace import Trace
from ..stream.serve import Recommender
from ..stream.snapshots import PrequentialTrace, SnapshotStore

__all__ = ["FitTiming", "FitResult", "StreamResult"]


@dataclass(frozen=True)
class FitTiming:
    """Uniform timing block of one :func:`repro.fit` call.

    Attributes
    ----------
    wall_seconds:
        Real elapsed seconds of the run's parallel/compute section.  On
        the live runtimes this is stamped at the stop signal (shutdown
        overhead lands in ``join_seconds``); on the simulated engine it
        is the real time the simulation took to execute.
    join_seconds:
        Shutdown overhead of the live runtimes (sentinel delivery, result
        collection, worker joins); always 0 on the simulated engine.
    simulated_seconds:
        Simulated cluster time covered by the run — the time axis of the
        convergence trace.  ``None`` on the live runtimes, whose trace
        time axis is real wall time.
    updates:
        Total SGD updates (or equivalent work units) applied.
    updates_per_worker:
        Per-worker update counts where the engine tracks them (the live
        runtimes); ``None`` on the simulated engine.
    """

    wall_seconds: float
    join_seconds: float = 0.0
    simulated_seconds: float | None = None
    updates: int = 0
    updates_per_worker: tuple[int, ...] | None = None

    @property
    def updates_per_second(self) -> float:
        """Throughput against the engine's native clock.

        Uses simulated time when the run was simulated (real wall time of
        a simulation says nothing about the modeled cluster), real wall
        time otherwise.
        """
        denominator = (
            self.simulated_seconds
            if self.simulated_seconds is not None
            else self.wall_seconds
        )
        if denominator <= 0:
            return 0.0
        return self.updates / denominator


@dataclass
class FitResult:
    """Everything one :func:`repro.fit` call produced.

    Attributes
    ----------
    algorithm:
        Canonical algorithm name (e.g. ``"NOMAD"``, ``"DSGD++"``).
    engine:
        Engine name the run executed on (``"simulated"``, ``"threaded"``,
        ``"multiprocess"``).
    trace:
        Convergence trace.  Simulated engines record the full evaluation
        grid; the live runtimes record the endpoints (initialization and
        final model) on a real-seconds axis.
    factors:
        Trained (W, H) factor pair.
    timing:
        Uniform :class:`FitTiming` block.
    raw:
        The underlying low-level object for power users — the simulation
        instance (update logs, hop counters, queue diagnostics) or the
        runtime's :class:`~repro.runtime.result.RuntimeResult`.  Excluded
        from ``repr`` to keep results printable.
    kernel_backend:
        Name of the SGD kernel backend the run actually executed on
        (``"list"``/``"cext"``) — i.e. what ``"auto"``
        resolved to, so a benchmark result records which inner loop
        produced it.  ``None`` for engines that predate the field or
        algorithms with no SGD inner loop.
    telemetry:
        Merged :class:`~repro.telemetry.RunTelemetry` when the run was
        made with ``telemetry=True`` (typed loosely to keep this module
        import-light); ``None`` otherwise.
    """

    algorithm: str
    engine: str
    trace: Trace
    factors: FactorPair
    timing: FitTiming
    raw: object = field(default=None, repr=False)
    kernel_backend: str | None = None
    telemetry: object | None = field(default=None, repr=False)
    _model: CompletionModel | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def model(self) -> CompletionModel:
        """Deployment-facing :class:`~repro.model.CompletionModel`, built
        lazily on first access and cached."""
        if self._model is None:
            self._model = CompletionModel(self.factors)
        return self._model

    def final_rmse(self) -> float:
        """Test RMSE of the final model (last trace record)."""
        return self.trace.final_rmse()

    def summary(self) -> str:
        """One-line human summary (used by the CLI ``fit`` subcommand)."""
        timing = self.timing
        clock = (
            f"{timing.simulated_seconds:.4g} simulated s "
            f"({timing.wall_seconds:.3g} s real)"
            if timing.simulated_seconds is not None
            else f"{timing.wall_seconds:.3g} s wall "
            f"(+{timing.join_seconds:.3g} s shutdown)"
        )
        kernel = (
            f" [{self.kernel_backend} kernels]" if self.kernel_backend else ""
        )
        return (
            f"{self.algorithm} on {self.engine}: {timing.updates:,} updates "
            f"in {clock}, final test RMSE {self.final_rmse():.4f}{kernel}"
        )


@dataclass
class StreamResult:
    """Everything one :func:`repro.fit_stream` call produced.

    Attributes
    ----------
    algorithm, engine:
        Always ``"NOMAD"`` / ``"dynamic"``: the labels of the one
        streaming trainer, :class:`~repro.stream.dynamic.DynamicNomad`.
    snapshots:
        The rotated :class:`~repro.stream.snapshots.SnapshotStore`;
        ``snapshots.latest.model`` is the serving model at end of stream.
    prequential:
        Test-then-train error trace: every arrival scored against the
        then-current snapshot *before* training on it.
    final:
        A normalized :class:`FitResult` for the end-of-stream model —
        same shape as a static fit, so downstream tooling is shared.
        Its trace has one record per snapshot rotation on the stream
        time axis.
    arrivals:
        Ratings ingested from the stream.
    new_users, new_items:
        Entities first seen mid-stream (the §4 fold-in path count).
    ingest_seconds, train_seconds, rotation_seconds:
        Real-time split of the run: the per-arrival hot path
        (prequential scoring + fold-in), warm-start sweeps, and
        snapshot rotation respectively.
    """

    algorithm: str
    engine: str
    snapshots: SnapshotStore
    prequential: PrequentialTrace
    final: FitResult
    arrivals: int
    new_users: int
    new_items: int
    ingest_seconds: float
    train_seconds: float
    rotation_seconds: float

    @property
    def arrivals_per_second(self) -> float:
        """End-to-end ingestion throughput (ingest + train + rotate)."""
        busy = self.ingest_seconds + self.train_seconds + self.rotation_seconds
        if busy <= 0 or self.arrivals == 0:
            return 0.0
        return self.arrivals / busy

    def recommender(self) -> Recommender:
        """A serving :class:`~repro.stream.serve.Recommender` over the
        rotated snapshots."""
        return Recommender(self.snapshots)

    def summary(self) -> str:
        """One-line human summary (used by the CLI ``stream`` subcommand)."""
        prequential = (
            f"{self.prequential.rmse():.4f}" if len(self.prequential) else "n/a"
        )
        return (
            f"{self.algorithm} streaming on {self.engine}: {self.arrivals:,} "
            f"arrivals ({self.new_users} new users, {self.new_items} new "
            f"items), {self.snapshots.rotations} snapshot rotations, "
            f"prequential RMSE {prequential}, "
            f"{self.arrivals_per_second:,.0f} arrivals/s"
        )
