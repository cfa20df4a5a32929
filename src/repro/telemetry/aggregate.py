"""Cross-worker aggregation: histograms and the merged run summary.

The recorder side (:mod:`repro.telemetry.recorder`) is deliberately
dumb — flat span logs and counters per worker.  Everything statistical
lives here, after collection, where cost no longer matters:

* :class:`Histogram` — fixed-bin log-scale histogram with exact
  ``count``/``total`` and quantile estimates read from bucket upper
  bounds.  Mergeable across workers (same geometry), renderable to
  Prometheus summaries.
* :class:`RunTelemetry` — the per-worker telemetry of one run plus a
  cached merged summary: hop-latency and queue-depth histograms,
  idle fraction, an updates/sec time series, summed counters and the
  mean burst (tokens and updates per kernel batch) they imply.
  This is what lands on ``FitResult.telemetry``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .recorder import (
    C_BATCHES,
    C_TOKENS,
    C_UPDATES,
    COUNTER_NAMES,
    POINT_QUEUE_DEPTH,
    SPAN_HOP,
    SPAN_IDLE,
    SPAN_INGEST,
    SPAN_KERNEL,
    SPAN_SWEEP,
    WorkerTelemetry,
)

__all__ = ["Histogram", "RunTelemetry", "QUANTILES"]

#: The quantiles every surface reports (``/stats``, ``/metrics``,
#: ``RunTelemetry.summary()``).
QUANTILES = (0.5, 0.95, 0.99)


class Histogram:
    """Log-bucketed histogram over ``(0, +inf)`` with exact moments.

    ``bins`` buckets span ``[lo, hi]`` geometrically; values below
    ``lo`` land in the first bucket, values at or above ``hi`` in the
    last.  Bucket geometry is part of identity: :meth:`merge` refuses
    mismatched histograms rather than silently rebinning.
    """

    __slots__ = ("lo", "hi", "bins", "counts", "count", "total", "max")

    def __init__(self, lo: float = 1e-6, hi: float = 100.0, bins: int = 64):
        if not (0 < lo < hi) or bins < 2:
            raise ValueError(f"bad histogram geometry lo={lo} hi={hi} bins={bins}")
        self.lo = float(lo)
        self.hi = float(hi)
        self.bins = int(bins)
        self.counts = [0] * self.bins
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def _bucket(self, value: float) -> int:
        if value <= self.lo:
            return 0
        if value >= self.hi:
            return self.bins - 1
        scale = (self.bins - 1) / math.log(self.hi / self.lo)
        return int(math.log(value / self.lo) * scale)

    def upper_bound(self, bucket: int) -> float:
        """Upper edge of ``bucket`` (the quantile read-out value)."""
        if bucket >= self.bins - 1:
            return self.hi
        return self.lo * (self.hi / self.lo) ** ((bucket + 1) / (self.bins - 1))

    def add(self, value: float, n: int = 1) -> None:
        self.counts[self._bucket(value)] += n
        self.count += n
        self.total += value * n
        if value > self.max:
            self.max = value

    def merge(self, other: "Histogram") -> None:
        if (self.lo, self.hi, self.bins) != (other.lo, other.hi, other.bins):
            raise ValueError("cannot merge histograms with different geometry")
        for bucket, n in enumerate(other.counts):
            self.counts[bucket] += n
        self.count += other.count
        self.total += other.total
        if other.max > self.max:
            self.max = other.max

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the ``q``-quantile (0 if empty)."""
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = math.ceil(q * self.count)
        seen = 0
        for bucket, n in enumerate(self.counts):
            seen += n
            if seen >= rank:
                return min(self.upper_bound(bucket), self.max)
        return self.max

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantiles(self) -> dict[str, float]:
        """The standard report: ``{"p50": ..., "p95": ..., "p99": ...}``."""
        return {f"p{int(q * 100)}": self.quantile(q) for q in QUANTILES}

    def to_dict(self) -> dict:
        return {
            "lo": self.lo,
            "hi": self.hi,
            "bins": self.bins,
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Histogram":
        hist = cls(payload["lo"], payload["hi"], payload["bins"])
        hist.counts = [int(n) for n in payload["counts"]]
        hist.count = int(payload["count"])
        hist.total = float(payload["total"])
        hist.max = float(payload["max"])
        return hist


#: Queue depths are small integers; a tighter geometry keeps single-token
#: resolution at the low end while still covering pathological backlogs.
_DEPTH_LO = 1.0
_DEPTH_HI = 1 << 20

#: Updates/sec time-series resolution (bins across the run window).
_RATE_BINS = 20

#: Span kinds whose ``value`` is an applied-updates count (the
#: throughput series sums these).
_UPDATE_SPANS = frozenset({SPAN_KERNEL, SPAN_SWEEP, SPAN_INGEST})


@dataclass
class RunTelemetry:
    """Telemetry of one full run: per-worker logs + merged summary."""

    workers: list[WorkerTelemetry] = field(default_factory=list)
    _summary: dict | None = field(default=None, repr=False, compare=False)

    def hop_histogram(self) -> Histogram:
        """Token mailbox-residence latency across all workers, seconds."""
        hist = Histogram()
        for worker in self.workers:
            for kind, _start, duration, _value in worker.events:
                if kind == SPAN_HOP:
                    hist.add(duration)
        return hist

    def queue_depth_histogram(self) -> Histogram:
        """Queue depths observed at drain time across all workers."""
        hist = Histogram(lo=_DEPTH_LO, hi=_DEPTH_HI, bins=41)
        for worker in self.workers:
            for kind, _start, _duration, value in worker.events:
                if kind == POINT_QUEUE_DEPTH:
                    hist.add(value)
        return hist

    def counters(self) -> dict[str, int]:
        """Counter totals summed across workers."""
        merged: dict[str, int] = {}
        for worker in self.workers:
            for name, count in worker.counters.items():
                merged[name] = merged.get(name, 0) + count
        return merged

    def idle_fraction(self) -> float:
        """Fraction of the observed span window workers spent idle."""
        idle = 0.0
        lo = math.inf
        hi = -math.inf
        for worker in self.workers:
            for kind, start, duration, _value in worker.events:
                lo = min(lo, start)
                hi = max(hi, start + duration)
                if kind == SPAN_IDLE:
                    idle += duration
        if not self.workers or hi <= lo:
            return 0.0
        return min(1.0, idle / ((hi - lo) * len(self.workers)))

    def updates_per_second(self) -> list[tuple[float, float]]:
        """Merged throughput series: ``(window_start_offset, rate)``.

        Kernel/sweep/ingest span values (applied-update counts) are
        bucketed into :data:`_RATE_BINS` windows across the run; offsets
        are seconds from the first observed span.
        """
        spans = [
            (start, value)
            for worker in self.workers
            for kind, start, _duration, value in worker.events
            if kind in _UPDATE_SPANS
        ]
        if not spans:
            return []
        lo = min(start for start, _ in spans)
        hi = max(start for start, _ in spans)
        width = max((hi - lo) / _RATE_BINS, 1e-9)
        totals = [0] * _RATE_BINS
        for start, value in spans:
            bucket = min(int((start - lo) / width), _RATE_BINS - 1)
            totals[bucket] += value
        return [
            (bucket * width, totals[bucket] / width)
            for bucket in range(_RATE_BINS)
        ]

    def summary(self) -> dict:
        """Merged run summary (cached; see the class docstring)."""
        if self._summary is None:
            hop = self.hop_histogram()
            depth = self.queue_depth_histogram()
            counters = self.counters()
            batches = counters.get(COUNTER_NAMES[C_BATCHES], 0)

            def per_batch(slot: int) -> float:
                """Mean of a counter per kernel batch (0.0 on engines
                that record no batches)."""
                total = counters.get(COUNTER_NAMES[slot], 0)
                return total / batches if batches else 0.0

            self._summary = {
                "n_workers": len(self.workers),
                "counters": counters,
                "tokens_per_batch": per_batch(C_TOKENS),
                "updates_per_batch": per_batch(C_UPDATES),
                "hop_latency": {
                    "count": hop.count,
                    "mean": hop.mean,
                    **hop.quantiles(),
                },
                "queue_depth": {
                    "count": depth.count,
                    "mean": depth.mean,
                    **depth.quantiles(),
                },
                "idle_fraction": self.idle_fraction(),
                "updates_per_second": self.updates_per_second(),
                "events_dropped": sum(w.dropped for w in self.workers),
            }
        return self._summary

    def to_dict(self) -> dict:
        return {
            "workers": [worker.to_dict() for worker in self.workers],
            "summary": self.summary(),
        }

    @classmethod
    def from_workers(cls, workers: list[WorkerTelemetry]) -> "RunTelemetry":
        return cls(workers=sorted(workers, key=lambda w: w.worker_id))
