"""Tests for the telemetry subsystem: recorder, aggregation, payload,
Chrome trace export, and the ``telemetry=`` surface on every engine.

The recorder/histogram layers are tested as units; the engine surface is
tested through :func:`repro.fit` / :func:`repro.fit_stream` so the tests
pin the public contract (``FitResult.telemetry`` carries a merged
:class:`~repro.telemetry.RunTelemetry`, ``None`` when disabled).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro import fit, fit_stream
from repro.cli import main as cli_main
from repro.config import HyperParams, RunConfig
from repro.errors import ClusterError, ConfigError
from repro.stream.sources import ReplayStream
from repro.telemetry import (
    C_TOKENS,
    C_UPDATES,
    COUNTER_NAMES,
    MAX_PAYLOAD_EVENTS,
    PAYLOAD_MAGIC,
    PAYLOAD_VERSION,
    POINT_QUEUE_DEPTH,
    SPAN_HOP,
    SPAN_IDLE,
    SPAN_KERNEL,
    SPAN_ROTATION,
    SPAN_SWEEP,
    Histogram,
    Recorder,
    RunTelemetry,
    WorkerTelemetry,
    chrome_trace,
    clock,
    decode_payload,
    encode_payload,
)

SRC_ROOT = Path(__file__).resolve().parents[1] / "src"


# ----------------------------------------------------------------------
# Repo hygiene
# ----------------------------------------------------------------------
class TestRepoHygiene:
    def test_no_ghost_packages(self):
        """No source directory may contain only ``__pycache__``.

        Stale bytecode with no source alongside it is a ghost package:
        it can shadow imports and silently serve deleted code.  (The
        telemetry package itself was found in exactly this state before
        its sources landed.)
        """
        ghosts = []
        for directory in SRC_ROOT.rglob("*/"):
            if not directory.is_dir() or directory.name == "__pycache__":
                continue
            entries = list(directory.iterdir())
            visible = [entry for entry in entries if entry.name != "__pycache__"]
            if entries and not visible:
                ghosts.append(str(directory.relative_to(SRC_ROOT)))
        assert ghosts == []


# ----------------------------------------------------------------------
# Recorder
# ----------------------------------------------------------------------
class TestRecorder:
    def test_span_and_counter_round_trip(self):
        recorder = Recorder(worker_id=3, capacity=16)
        start = clock()
        recorder.span(SPAN_HOP, start, 0.25, 7)
        recorder.add(C_UPDATES, 10)
        recorder.add(C_TOKENS)
        snapshot = recorder.snapshot()
        assert snapshot.worker_id == 3
        assert snapshot.events == [(SPAN_HOP, start, 0.25, 7)]
        assert snapshot.counters["updates"] == 10
        assert snapshot.counters["tokens"] == 1
        assert set(snapshot.counters) == set(COUNTER_NAMES)
        assert snapshot.dropped == 0

    def test_capacity_rounds_to_power_of_two(self):
        assert Recorder(capacity=5).capacity == 8
        assert Recorder(capacity=8).capacity == 8
        with pytest.raises(ValueError):
            Recorder(capacity=0)

    def test_ring_wrap_keeps_newest_and_counts_drops(self):
        recorder = Recorder(capacity=8)
        for index in range(20):
            recorder.span(SPAN_KERNEL, float(index), 0.0, index)
        snapshot = recorder.snapshot()
        assert len(snapshot.events) == 8
        assert snapshot.dropped == 12
        # Chronological, and exactly the newest 8.
        assert [event[3] for event in snapshot.events] == list(range(12, 20))

    def test_spans_equals_a_loop_of_span(self):
        """The per-burst vectorised call records exactly what one span()
        per element would, across ring wrap and a batch wider than the
        ring."""
        batched, looped = Recorder(capacity=8), Recorder(capacity=8)
        rng = np.random.default_rng(0)
        for n in (3, 5, 7, 0, 20, 1):
            starts, durations = rng.random(n), rng.random(n)
            batched.spans(SPAN_HOP, starts, durations)
            for start, duration in zip(starts.tolist(), durations.tolist()):
                looped.span(SPAN_HOP, start, duration)
            looped.span(SPAN_KERNEL, 1.0, 2.0, n)
            batched.span(SPAN_KERNEL, 1.0, 2.0, n)
        assert batched.snapshot() == looped.snapshot()
        assert batched.snapshot().dropped == 36 + 6 - 8

    def test_point_records_zero_duration_span(self):
        recorder = Recorder(capacity=8)
        recorder.point(POINT_QUEUE_DEPTH, 42)
        ((kind, _start, duration, value),) = recorder.snapshot().events
        assert (kind, duration, value) == (POINT_QUEUE_DEPTH, 0.0, 42)

    def test_worker_telemetry_dict_round_trip(self):
        original = WorkerTelemetry(
            worker_id=2,
            counters={"updates": 5},
            events=[(SPAN_HOP, 1.0, 0.5, 3)],
            dropped=4,
        )
        assert WorkerTelemetry.from_dict(original.to_dict()) == original


# ----------------------------------------------------------------------
# Histogram / RunTelemetry
# ----------------------------------------------------------------------
class TestHistogram:
    def test_quantiles_bracket_inserted_values(self):
        hist = Histogram()
        for _ in range(99):
            hist.add(1e-3)
        hist.add(1.0)
        assert hist.count == 100
        assert 1e-3 <= hist.quantile(0.5) < 2e-3
        assert hist.quantile(0.99) <= 1.0
        assert hist.quantiles().keys() == {"p50", "p95", "p99"}

    def test_out_of_range_values_clamp_to_edge_buckets(self):
        hist = Histogram(lo=1e-3, hi=1.0, bins=8)
        hist.add(1e-9)
        hist.add(50.0)
        assert hist.counts[0] == 1
        assert hist.counts[-1] == 1
        assert hist.max == 50.0

    def test_empty_histogram_reports_zero(self):
        assert Histogram().quantile(0.5) == 0.0
        assert Histogram().mean == 0.0


class TestRunTelemetry:
    def _workers(self):
        return [
            WorkerTelemetry(
                worker_id=1,
                counters={"updates": 30},
                events=[
                    (SPAN_HOP, 0.1, 0.01, 0),
                    (SPAN_KERNEL, 0.2, 0.05, 30),
                    (POINT_QUEUE_DEPTH, 0.2, 0.0, 4),
                ],
            ),
            WorkerTelemetry(
                worker_id=0,
                counters={"updates": 10},
                events=[
                    (SPAN_HOP, 0.0, 0.02, 0),
                    (SPAN_IDLE, 0.3, 0.1, 0),
                ],
                dropped=2,
            ),
        ]

    def test_from_workers_sorts_and_merges(self):
        telemetry = RunTelemetry.from_workers(self._workers())
        assert [worker.worker_id for worker in telemetry.workers] == [0, 1]
        summary = telemetry.summary()
        assert summary["n_workers"] == 2
        assert summary["counters"]["updates"] == 40
        assert summary["hop_latency"]["count"] == 2
        assert summary["queue_depth"]["count"] == 1
        assert summary["events_dropped"] == 2
        assert 0.0 < summary["idle_fraction"] <= 1.0
        # Span window is [0.0, 0.4] across 2 workers; one 0.1s idle span.
        assert summary["idle_fraction"] == pytest.approx(0.1 / (0.4 * 2))

    def test_mean_burst_comes_from_the_counters(self):
        workers = [
            WorkerTelemetry(
                worker_id=q,
                counters={"updates": updates, "tokens": tokens, "batches": 4},
            )
            for q, (updates, tokens) in enumerate([(9000, 300), (7000, 340)])
        ]
        summary = RunTelemetry.from_workers(workers).summary()
        assert summary["tokens_per_batch"] == 640 / 8
        assert summary["updates_per_batch"] == 16000 / 8
        # An engine that records no batches (simulated, dynamic).
        summary = RunTelemetry.from_workers(self._workers()).summary()
        assert summary["tokens_per_batch"] == 0.0
        assert summary["updates_per_batch"] == 0.0

    def test_updates_per_second_series_sums_kernel_values(self):
        telemetry = RunTelemetry.from_workers(self._workers())
        series = telemetry.summary()["updates_per_second"]
        assert series, "kernel spans must produce a throughput series"
        total_rate_seconds = sum(rate for _offset, rate in series)
        assert total_rate_seconds > 0

    def test_empty_run_is_well_defined(self):
        telemetry = RunTelemetry.from_workers([])
        summary = telemetry.summary()
        assert summary["n_workers"] == 0
        assert summary["idle_fraction"] == 0.0
        assert summary["updates_per_second"] == []


# ----------------------------------------------------------------------
# Fin payload (versioned blob)
# ----------------------------------------------------------------------
class TestPayload:
    def test_round_trip(self):
        original = WorkerTelemetry(
            worker_id=5,
            counters={"updates": 123, "tokens": 45},
            events=[(SPAN_HOP, 1.5, 0.25, 0), (POINT_QUEUE_DEPTH, 1.6, 0.0, 9)],
            dropped=1,
        )
        blob = encode_payload(original)
        assert blob[:2] == PAYLOAD_MAGIC
        assert blob[2] == PAYLOAD_VERSION
        assert decode_payload(blob) == original

    def test_event_cap_keeps_tail_and_counts_drops(self):
        events = [(SPAN_HOP, float(i), 0.0, i) for i in range(MAX_PAYLOAD_EVENTS + 10)]
        decoded = decode_payload(
            encode_payload(WorkerTelemetry(worker_id=0, events=events))
        )
        assert len(decoded.events) == MAX_PAYLOAD_EVENTS
        assert decoded.events[-1][3] == MAX_PAYLOAD_EVENTS + 9
        assert decoded.dropped == 10

    def test_unknown_magic_or_version_degrades_to_none(self):
        """Version skew must degrade telemetry, never fail the run."""
        blob = encode_payload(WorkerTelemetry(worker_id=0))
        assert decode_payload(b"XX" + blob[2:]) is None
        assert decode_payload(bytes([blob[0], blob[1], PAYLOAD_VERSION + 1]) + blob[3:]) is None
        assert decode_payload(b"") is None

    def test_corrupt_known_version_raises(self):
        """Bad JSON under a version we claim to speak is frame damage."""
        with pytest.raises(ClusterError, match="corrupt"):
            decode_payload(PAYLOAD_MAGIC + bytes([PAYLOAD_VERSION]) + b"{nope")


# ----------------------------------------------------------------------
# Chrome trace export
# ----------------------------------------------------------------------
class TestChromeTrace:
    def test_events_carry_required_keys_and_json_round_trip(self):
        telemetry = RunTelemetry.from_workers(
            [
                WorkerTelemetry(
                    worker_id=0,
                    events=[
                        (SPAN_KERNEL, 10.0, 0.5, 100),
                        (POINT_QUEUE_DEPTH, 10.5, 0.0, 3),
                    ],
                )
            ]
        )
        trace = json.loads(json.dumps(chrome_trace(telemetry)))
        events = trace["traceEvents"]
        assert trace["displayTimeUnit"] == "ms"
        for event in events:
            assert {"name", "ph", "ts", "pid", "tid"} <= set(event)
        phases = [event["ph"] for event in events]
        assert phases == ["M", "X", "C"]
        span = events[1]
        assert span["ts"] == 0.0  # rebased to the first observed span
        assert span["dur"] == pytest.approx(0.5e6)
        assert span["args"]["updates"] == 100
        counter = events[2]
        assert counter["args"]["depth"] == 3
        assert counter["ts"] == pytest.approx(0.5e6)


# ----------------------------------------------------------------------
# Engine surface: fit(..., telemetry=True) on every substrate
# ----------------------------------------------------------------------
LIVE_RUN = RunConfig(duration=0.15, eval_interval=0.15, seed=3)


class TestEngineTelemetry:
    def test_disabled_by_default(self, tiny_split, hyper):
        train, test = tiny_split
        result = fit(
            train, test, engine="simulated", hyper=hyper,
            run=RunConfig(duration=0.05, eval_interval=0.05),
        )
        assert result.telemetry is None

    def test_simulated_reports_virtual_counters(self, tiny_split, hyper):
        train, test = tiny_split
        result = fit(
            train, test, engine="simulated", hyper=hyper,
            run=RunConfig(duration=0.05, eval_interval=0.05, seed=1),
            telemetry=True,
        )
        summary = result.telemetry.summary()
        assert summary["n_workers"] == 1
        assert summary["counters"]["updates"] == result.timing.updates
        assert "network_hops" in summary["counters"]
        assert "local_hops" in summary["counters"]
        # Virtual clock: queue depths only, no wall-clock spans.
        assert summary["hop_latency"]["count"] == 0
        assert summary["queue_depth"]["count"] > 0

    def test_simulated_baseline_without_hook_fails_eagerly(
        self, tiny_split, hyper
    ):
        train, test = tiny_split
        with pytest.raises(ConfigError, match="telemetry_counters"):
            fit(
                train, test, algorithm="dsgd", engine="simulated",
                hyper=hyper,
                run=RunConfig(duration=0.05, eval_interval=0.05, seed=1),
                telemetry=True,
            )

    def test_threaded_records_hops_and_kernels(self, small_split, hyper):
        train, test = small_split
        result = fit(
            train, test, engine="threaded", hyper=hyper, run=LIVE_RUN,
            n_workers=2, telemetry=True,
        )
        telemetry = result.telemetry
        assert isinstance(telemetry, RunTelemetry)
        assert [worker.worker_id for worker in telemetry.workers] == [0, 1]
        summary = telemetry.summary()
        assert summary["counters"]["updates"] == result.timing.updates
        assert summary["hop_latency"]["count"] > 0
        assert summary["queue_depth"]["count"] > 0
        assert summary["hop_latency"]["p50"] <= summary["hop_latency"]["p99"]

    def test_multiprocess_ships_telemetry_through_result_queue(
        self, small_split, hyper
    ):
        train, test = small_split
        result = fit(
            train, test, engine="multiprocess", hyper=hyper, run=LIVE_RUN,
            n_workers=2, telemetry=True,
        )
        telemetry = result.telemetry
        assert len(telemetry.workers) == 2
        summary = telemetry.summary()
        assert summary["counters"]["updates"] == result.timing.updates
        assert summary["hop_latency"]["count"] > 0


class TestClusterTelemetry:
    def test_merged_run_telemetry_with_histograms(self, small_split):
        """Acceptance: a cluster fit with telemetry yields a merged
        RunTelemetry with per-worker hop-latency and queue-depth data."""
        train, test = small_split
        hyper = HyperParams(k=4, lambda_=0.01, alpha=0.1, beta=0.01)
        result = fit(
            train, test, engine="cluster", hyper=hyper,
            run=RunConfig(duration=0.3, eval_interval=0.3, seed=2),
            n_workers=3, telemetry=True, transport="loopback",
        )
        telemetry = result.telemetry
        assert isinstance(telemetry, RunTelemetry)
        assert [worker.worker_id for worker in telemetry.workers] == [0, 1, 2]
        for worker in telemetry.workers:
            kinds = {event[0] for event in worker.events}
            assert SPAN_HOP in kinds
            assert POINT_QUEUE_DEPTH in kinds
        hop = telemetry.hop_histogram()
        depth = telemetry.queue_depth_histogram()
        assert hop.count > 0 and hop.quantile(0.5) > 0
        assert depth.count > 0
        assert telemetry.summary()["counters"]["updates"] == result.timing.updates

    def test_cluster_without_telemetry_has_none(self, tiny_split):
        train, test = tiny_split
        hyper = HyperParams(k=4, lambda_=0.01, alpha=0.1, beta=0.01)
        result = fit(
            train, test, engine="cluster", hyper=hyper,
            run=RunConfig(duration=0.1, eval_interval=0.1, seed=2),
            n_workers=2, transport="loopback",
        )
        assert result.telemetry is None


class TestStreamTelemetry:
    def test_fit_stream_records_rotations(self, small_matrix, hyper):
        stream = ReplayStream(small_matrix, warmup_fraction=0.6, seed=4)
        result = fit_stream(
            stream, hyper=hyper, n_workers=2, train_every=50,
            snapshot_every=150, warmup_epochs=2, final_epochs=1,
            telemetry=True,
        )
        telemetry = result.final.telemetry
        assert isinstance(telemetry, RunTelemetry)
        kinds = {
            event[0]
            for worker in telemetry.workers
            for event in worker.events
        }
        assert SPAN_ROTATION in kinds
        rotations = [
            event
            for worker in telemetry.workers
            for event in worker.events
            if event[0] == SPAN_ROTATION
        ]
        assert len(rotations) == result.snapshots.rotations
        assert result.final.telemetry.summary()["counters"]["updates"] > 0

    def test_fit_stream_records_sweeps(self, tiny_matrix, hyper):
        stream = ReplayStream(tiny_matrix, warmup_fraction=0.6, seed=4)
        result = fit_stream(
            stream, hyper=hyper, n_workers=2, warmup_epochs=2,
            final_epochs=1, telemetry=True,
        )
        final = result.final
        summary = final.telemetry.summary()
        assert summary["counters"]["updates"] == final.timing.updates
        kinds = {
            event[0]
            for worker in final.telemetry.workers
            for event in worker.events
        }
        # The dynamic trainer times whole warm-start sweeps, not
        # per-column kernel batches.
        assert SPAN_SWEEP in kinds

    def test_fit_stream_disabled_by_default(self, tiny_matrix, hyper):
        stream = ReplayStream(tiny_matrix, warmup_fraction=0.6, seed=4)
        result = fit_stream(
            stream, hyper=hyper, n_workers=2, warmup_epochs=1,
            final_epochs=0,
        )
        assert result.final.telemetry is None


# ----------------------------------------------------------------------
# CLI trace export
# ----------------------------------------------------------------------
class TestTraceCli:
    def test_trace_subcommand_writes_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        exit_code = cli_main(
            [
                "trace", "--engine", "threaded", "--duration", "0.1",
                "--workers", "2", "--out", str(out),
            ]
        )
        assert exit_code == 0
        trace = json.loads(out.read_text())
        events = trace["traceEvents"]
        assert events
        for event in events:
            assert {"ph", "ts", "pid", "tid"} <= set(event)
        assert any(event["ph"] == "X" for event in events)
        stdout = capsys.readouterr().out
        assert "telemetry:" in stdout
        assert str(out) in stdout
