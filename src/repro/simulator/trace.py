"""Convergence traces: the (time, updates, RMSE) series every figure plots.

A :class:`Trace` is produced by each optimizer run.  Records are appended in
simulated-time order; helpers expose the series along each of the paper's
x-axes (seconds, updates, seconds × cores) plus the summary statistics
(final/best RMSE, average throughput per worker — Figure 6 right and
Figure 10 right).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

from ..errors import SimulationError

__all__ = ["TraceRecord", "Trace"]


@dataclass(frozen=True)
class TraceRecord:
    """One evaluation point.

    Attributes
    ----------
    time:
        Simulated seconds since the run started.
    updates:
        Cumulative SGD updates (or equivalent work units) applied so far.
    rmse:
        Test RMSE at this instant.
    """

    time: float
    updates: int
    rmse: float


@dataclass
class Trace:
    """An append-only convergence record for one optimizer run.

    Attributes
    ----------
    algorithm:
        Display name, e.g. ``"NOMAD"`` or ``"DSGD"``.
    n_workers:
        Total computation workers of the run (throughput denominator).
    meta:
        Free-form experiment annotations (dataset, machines, cores, ...).
    """

    algorithm: str
    n_workers: int
    meta: dict = field(default_factory=dict)
    records: list[TraceRecord] = field(default_factory=list)

    def add(self, time: float, updates: int, rmse: float) -> None:
        """Append one evaluation point (must be in non-decreasing time)."""
        if self.records and time < self.records[-1].time:
            raise SimulationError(
                f"trace time went backwards: {time} after {self.records[-1].time}"
            )
        self.records.append(TraceRecord(time, int(updates), float(rmse)))

    # ------------------------------------------------------------------
    # Series accessors (one per paper x-axis)
    # ------------------------------------------------------------------
    def times(self) -> list[float]:
        """Simulated seconds of each record."""
        return [r.time for r in self.records]

    def updates(self) -> list[int]:
        """Cumulative update counts of each record."""
        return [r.updates for r in self.records]

    def rmses(self) -> list[float]:
        """Test RMSE of each record."""
        return [r.rmse for r in self.records]

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def final_rmse(self) -> float:
        """RMSE of the last record."""
        self._require_records()
        return self.records[-1].rmse

    def best_rmse(self) -> float:
        """Minimum RMSE over the run."""
        self._require_records()
        return min(r.rmse for r in self.records)

    def total_updates(self) -> int:
        """Updates applied by the end of the run."""
        self._require_records()
        return self.records[-1].updates

    def duration(self) -> float:
        """Simulated seconds covered by the trace."""
        self._require_records()
        return self.records[-1].time

    def throughput_per_worker(self) -> float:
        """Average updates per worker per simulated second (Fig 6/10 right)."""
        self._require_records()
        elapsed = self.records[-1].time
        if elapsed <= 0:
            return 0.0
        return self.records[-1].updates / elapsed / self.n_workers

    def time_to_rmse(self, threshold: float) -> float | None:
        """First simulated time at which RMSE <= threshold, else None."""
        for record in self.records:
            if record.rmse <= threshold:
                return record.time
        return None

    def updates_to_rmse(self, threshold: float) -> int | None:
        """First cumulative update count at which RMSE <= threshold."""
        for record in self.records:
            if record.rmse <= threshold:
                return record.updates
        return None

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_csv(self) -> str:
        """Render the trace as CSV text (time,updates,rmse)."""
        buffer = io.StringIO()
        buffer.write("time,updates,rmse\n")
        for r in self.records:
            buffer.write(f"{r.time!r},{r.updates},{r.rmse!r}\n")
        return buffer.getvalue()

    def _require_records(self) -> None:
        if not self.records:
            raise SimulationError(
                f"trace for {self.algorithm!r} has no records"
            )

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        if not self.records:
            return f"Trace({self.algorithm!r}, empty)"
        return (
            f"Trace({self.algorithm!r}, n={len(self.records)}, "
            f"final_rmse={self.final_rmse():.4f})"
        )
