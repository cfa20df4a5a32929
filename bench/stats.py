"""Sample statistics the benchmark reports: percentiles that state what
they can support, and the n / median / min / max / IQR block."""

from __future__ import annotations

import math
import statistics

__all__ = [
    "percentile",
    "fast_quantile",
    "samples_beyond",
    "highest_supported_percentile",
    "summarize",
]

#: A percentile is reported only with at least this many samples past it.
MIN_SAMPLES_BEYOND = 10


def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q <= 100) of ``values``."""
    if not 0 < q <= 100:
        raise ValueError(f"q must be in (0, 100], got {q}")
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[max(_rank(len(ordered), q), 1) - 1]


def fast_quantile(values, better: str, share: float) -> float:
    """The value a ``share`` of repeated measurements of one quantity are
    at least as good as: for ``share=0.25`` the 25th percentile of times
    (``better="lower"``) or the 75th of rates (``"higher"``).

    On a shared host a neighbour's burst only ever slows a slice, for
    seconds at a time, and how many slices of a run it hits changes from
    run to run: the median moves with that share, a quantile on the fast
    side stays on the undisturbed slices as long as ``share`` of them
    are.  It is not the single best slice, which one lucky slice would
    set."""
    if not 0 < share <= 0.5:
        raise ValueError(f"share must be in (0, 0.5], got {share}")
    if better == "lower":
        return percentile(values, 100 * share)
    if better != "higher":
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    return -percentile([-v for v in values], 100 * share)


def _rank(n: int, q: float) -> int:
    # Rounded first: 99.9 / 100 * 10000 is 9990.000000000002 in floats.
    return math.ceil(round(q * n / 100.0, 9))


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly past the ``q``-th percentile."""
    return n - _rank(n, q)


def highest_supported_percentile(
    n: int, candidates=(99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
) -> float | None:
    """The highest candidate percentile that still has at least
    :data:`MIN_SAMPLES_BEYOND` samples beyond it; ``None`` when no
    candidate does (too few samples to state any tail)."""
    for q in sorted(candidates, reverse=True):
        if samples_beyond(n, q) >= MIN_SAMPLES_BEYOND:
            return q
    return None


def summarize(values) -> dict:
    """n, median, min, max and IQR (``statistics.quantiles(n=4)``: Q3-Q1;
    0 with fewer than two values) of a metric's repeated measurements."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("summarize of no values")
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = q3 - q1
    else:
        iqr = 0.0
    return {
        "n": len(values),
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "iqr": iqr,
    }
