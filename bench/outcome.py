"""What one workload run hands back to the runner."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

__all__ = ["Outcome"]


@dataclass
class Outcome:
    """Metrics, operation counts and failed checks of one workload run.

    ``metrics`` maps name -> (value, samples): ``value`` is the median of
    ``samples`` (the per-trial measurements) unless set directly; units
    live in ``BENCHMARK.json``.  A failed operation or check adds to ``failed`` and keeps
    its text in ``errors``; it never becomes a number.
    """

    workload: str
    input_hash: str = ""
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, list[float]]] = field(default_factory=dict)
    #: count metrics that must repeat exactly across trials and runs
    exact: dict[str, float] = field(default_factory=dict)

    def put(self, name: str, samples, value: float | None = None) -> None:
        samples = [float(s) for s in samples]
        if value is None:
            value = statistics.median(samples)
        self.metrics[name] = (float(value), samples)

    def fail(self, error: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(error)

    def check(self, ok: bool, error: str = "") -> None:
        """Count one attempted operation or output check; a failure
        keeps its reason."""
        self.attempted += 1
        if not ok:
            self.fail(error)

    def check_rmse(self, rmse: float, ceiling: float | None) -> None:
        self.check(
            math.isfinite(rmse) and (ceiling is None or rmse <= ceiling),
            f"rmse {rmse!r} not finite or over ceiling {ceiling}",
        )

    def check_identical(self, name: str, values) -> None:
        """All trials must agree exactly (deterministic workloads)."""
        values = list(values)
        self.check(
            len(set(values)) == 1, f"{name} differs across trials: {values}"
        )
        if values:
            self.exact[name] = values[0]
