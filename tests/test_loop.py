"""Single-threaded unit suite for the one live worker loop
(``runtime/loop.py::run_token_loop``): in-process rings, a recording fake
kernel, and stop objects the test controls."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.runtime import loop as loop_module
from repro.runtime.loop import (
    BURST_TOKENS,
    IDLE_SLEEP_MAX,
    IDLE_SLEEP_MIN,
    run_token_loop,
)
from repro.runtime.mailbox import TokenRings
from repro.telemetry import (
    POINT_QUEUE_DEPTH,
    Recorder,
    SPAN_HOP,
    SPAN_IDLE,
    SPAN_KERNEL,
)


class RecordingRings(TokenRings):
    """Heap-backed rings that remember every ``route`` call."""

    def __init__(self, n_workers: int, n_items: int):
        super().__init__(
            bytearray(TokenRings.nbytes(n_workers, n_items)), n_workers,
            n_items, [threading.Lock() for _ in range(n_workers)],
        )
        self.routed: list[tuple[list[int], list[int]]] = []

    def route(self, items, dests):
        self.routed.append((items.tolist(), dests.tolist()))
        super().route(items, dests)


class FakeKernel:
    """Records each burst; claims two updates per token."""

    def __init__(self, on_burst=None):
        self.bursts: list[list[int]] = []
        self._on_burst = on_burst

    def process_tokens(self, burst):
        self.bursts.append(burst.tolist())
        if self._on_burst is not None:
            self._on_burst(len(self.bursts))
        return 2 * burst.size


class StopAfter:
    """``is_set()`` turns true on poll number ``polls + 1``."""

    def __init__(self, polls: int):
        self.left = polls

    def is_set(self) -> bool:
        self.left -= 1
        return self.left < 0


class CountingRouting:
    """A destination stream that records the size of every draw."""

    def __init__(self):
        self._rng = np.random.default_rng(0)
        self.draws: list[int] = []

    def integers(self, high, size):
        self.draws.append(size)
        return self._rng.integers(high, size=size)


class AlwaysToPeer:
    """A destination stream that sends everything to worker 1."""

    def integers(self, high, size):
        return np.ones(size, dtype=np.int64)


def filled(n_workers: int, n_items: int) -> RecordingRings:
    """Rings with every item waiting, in id order, at worker 0."""
    rings = RecordingRings(n_workers, n_items)
    rings.push_many(0, np.arange(n_items, dtype=np.int64))
    return rings


def test_bursts_are_capped_and_fifo():
    rings = filled(1, 100)
    kernel = FakeKernel()
    updates = run_token_loop(
        0, 1, kernel, rings, CountingRouting(), StopAfter(4), None, None
    )
    # One worker: every token routes back behind the ones still waiting.
    order = list(range(100))
    assert kernel.bursts == [
        order[0:32], order[32:64], order[64:96], order[96:100] + order[0:28],
        order[28:60],
    ]
    assert max(map(len, kernel.bursts)) == BURST_TOKENS
    assert updates == 2 * sum(map(len, kernel.bursts))
    rings.check_conserved(100)


def test_stop_landing_mid_burst_still_routes_the_burst():
    rings = filled(2, 50)
    stop = threading.Event()
    kernel = FakeKernel(on_burst=lambda n: stop.set() if n == 1 else None)
    run_token_loop(0, 2, kernel, rings, CountingRouting(), stop, None, None)
    assert len(kernel.bursts) == 1  # returned right after routing it
    assert [items for items, _ in rings.routed] == kernel.bursts
    assert rings.depth(0) + rings.depth(1) == 50
    rings.check_conserved(50)


def test_backoff_doubles_to_the_cap_and_resets_on_work(monkeypatch):
    rings = RecordingRings(2, 8)
    sleeps: list[float] = []

    def fake_sleep(seconds):
        sleeps.append(seconds)
        if len(sleeps) == 8:  # work arrives during the 8th nap
            rings.push_many(0, np.array([5], dtype=np.int64))

    monkeypatch.setattr(loop_module.time, "sleep", fake_sleep)
    kernel = FakeKernel()

    # Polls: 8 empty, 1 after the burst, 2 more empty, then stop.
    run_token_loop(
        0, 2, kernel, rings, AlwaysToPeer(), StopAfter(11), None, None
    )
    assert kernel.bursts == [[5]]
    doubling = [IDLE_SLEEP_MIN * 2**n for n in range(8)]
    assert sleeps[:8] == [min(nap, IDLE_SLEEP_MAX) for nap in doubling]
    assert sleeps[5] < IDLE_SLEEP_MAX == sleeps[6] == sleeps[7]
    assert sleeps[8:] == [IDLE_SLEEP_MIN, 2 * IDLE_SLEEP_MIN]


def test_each_telemetry_site_fires_once_per_burst(monkeypatch):
    monkeypatch.setattr(loop_module.time, "sleep", lambda seconds: None)
    rings = filled(2, 40)
    rec = Recorder(0)
    put_times = np.zeros(40)

    # Two bursts (32 + 8) drain ring 0, then three idle polls.
    updates = run_token_loop(
        0, 2, FakeKernel(), rings, AlwaysToPeer(), StopAfter(5), rec, put_times
    )
    snapshot = rec.snapshot()
    assert snapshot.counters == {
        "updates": updates, "tokens": 40, "batches": 2, "drains": 2,
        "idle_polls": 3,
    }
    kinds = [event[0] for event in snapshot.events]
    assert kinds.count(SPAN_KERNEL) == 2
    assert kinds.count(POINT_QUEUE_DEPTH) == 2
    assert kinds.count(SPAN_HOP) == 40  # one per token, one call per burst
    assert kinds.count(SPAN_IDLE) == 3
    kernel_spans = [e for e in snapshot.events if e[0] == SPAN_KERNEL]
    assert [e[3] for e in kernel_spans] == [64, 16]
    depths = [e[3] for e in snapshot.events if e[0] == POINT_QUEUE_DEPTH]
    assert depths == [8, 0]
    # Every routed token was restamped with its burst's route time.
    assert np.all(put_times > 0)
    assert len(set(put_times[:32])) == 1 and len(set(put_times[32:])) == 1


@pytest.mark.parametrize("n_workers", [1, 3])
def test_block_drawn_destinations_survive_a_refill(monkeypatch, n_workers):
    monkeypatch.setattr(loop_module, "_ROUTE_BLOCK", 40)
    rings = filled(n_workers, 100)
    routing = CountingRouting()
    run_token_loop(
        0, n_workers, FakeKernel(), rings, routing, StopAfter(3), None, None
    )
    # Destinations are drawn a block at a time, never per burst: the
    # second 32-token burst does not fit in what is left of the first
    # block of 40, so it forces exactly one refill per burst from there.
    assert routing.draws == [40] * len(routing.draws)
    assert len(routing.draws) == len(rings.routed)
    for items, dests in rings.routed:
        assert len(dests) == len(items)  # a slice is never cut short
        assert all(0 <= dst < n_workers for dst in dests)
    rings.check_conserved(100)
