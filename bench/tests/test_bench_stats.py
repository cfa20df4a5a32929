"""The percentile picker only states a tail it has the samples for."""

import pytest

from bench.stats import (
    fast_quantile,
    highest_supported_percentile,
    percentile,
    samples_beyond,
    summarize,
)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


@pytest.mark.parametrize(
    "n, expected",
    [
        (19, None),       # 9 beyond the median: nothing can be stated
        (20, 50.0),       # exactly 10 beyond p50
        (100, 90.0),      # 10 beyond p90, only 5 beyond p95
        (199, 90.0),      # 9 beyond p95
        (200, 95.0),
        (999, 95.0),      # 9 beyond p99
        (1000, 99.0),     # exactly 10 beyond p99
        (2600, 99.0),     # serve-mixed's open-loop read count
        (9999, 99.0),     # 9 beyond p99.9
        (10000, 99.9),
    ],
)
def test_highest_percentile_needs_ten_samples_beyond(n, expected):
    assert highest_supported_percentile(n) == expected
    if expected is not None:
        assert samples_beyond(n, expected) >= 10


def test_summary_block():
    block = summarize([3.0, 1.0, 2.0, 4.0])
    assert block["n"] == 4
    assert block["median"] == 2.5
    assert (block["min"], block["max"]) == (1.0, 4.0)
    assert block["iqr"] == pytest.approx(2.5)  # statistics.quantiles, n=4
    assert summarize([5.0])["iqr"] == 0.0


def test_fast_quantile_stays_on_the_undisturbed_slices():
    # 12 windows at ~100 ops/s; a neighbour's burst slows 7 of them.
    rates = [100, 101, 99, 100, 102] + [60, 70, 55, 80, 75, 65, 50]
    assert fast_quantile(rates, "higher", 0.25) == 100
    assert fast_quantile([1 / r for r in rates], "lower", 0.25) == 1 / 100
    # ...and one lucky slice does not set it.
    assert fast_quantile([100] * 19 + [150], "higher", 0.1) == 100
    with pytest.raises(ValueError):
        fast_quantile(rates, "faster", 0.25)
    with pytest.raises(ValueError):
        fast_quantile(rates, "higher", 0.75)
