"""Tests for metrics summaries."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.metrics.summary import (
    speedup_efficiency,
    throughput_by_config,
    time_to_threshold_table,
    trace_summary,
)
from repro.simulator.trace import Trace


def make_trace(algorithm="X", workers=2, times=(0.0, 1.0, 2.0),
               updates=(0, 100, 200), rmses=(2.0, 1.0, 0.5)):
    trace = Trace(algorithm=algorithm, n_workers=workers)
    for t, u, r in zip(times, updates, rmses):
        trace.add(t, u, r)
    return trace


class TestTraceSummary:
    def test_fields(self):
        summary = trace_summary(make_trace())
        assert summary["algorithm"] == "X"
        assert summary["workers"] == 2
        assert summary["updates"] == 200
        assert summary["final_rmse"] == 0.5
        assert summary["updates_per_worker_per_sec"] == 50.0


class TestThroughputByConfig:
    def test_rows(self):
        rows = throughput_by_config({2: make_trace(workers=2),
                                     4: make_trace(workers=4)})
        assert len(rows) == 2
        assert rows[0]["workers"] == 2


class TestSpeedupEfficiency:
    def test_linear_scaling_efficiency_one(self):
        # 2 workers reach in 1.0; 4 workers reach in 0.5 — perfect scaling.
        traces = {
            2: make_trace(workers=2, times=(0.0, 1.0), updates=(0, 10),
                          rmses=(2.0, 0.5)),
            4: make_trace(workers=4, times=(0.0, 0.5), updates=(0, 10),
                          rmses=(2.0, 0.5)),
        }
        rows = speedup_efficiency(traces, threshold=0.6)
        by_workers = {row["workers"]: row for row in rows}
        assert by_workers[2]["speedup"] == 1.0
        assert by_workers[4]["speedup"] == 2.0
        assert by_workers[4]["efficiency"] == 1.0

    def test_unreached_threshold_is_none(self):
        traces = {1: make_trace(workers=1, rmses=(2.0, 1.9, 1.8))}
        rows = speedup_efficiency(traces, threshold=0.1)
        assert rows[0]["time_to_threshold"] is None
        assert rows[0]["speedup"] is None

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            speedup_efficiency({}, threshold=0.5)


class TestTimeToThresholdTable:
    def test_ordering_readable(self):
        rows = time_to_threshold_table(
            {"A": make_trace(), "B": make_trace(rmses=(2.0, 1.8, 1.7))},
            threshold=1.0,
        )
        by_name = {row["algorithm"]: row for row in rows}
        assert by_name["A"]["time_to_threshold"] == 1.0
        assert by_name["B"]["time_to_threshold"] is None
