"""Unit suite for the one live worker loop
(``runtime/loop.py::run_token_loop``): in-process rings, a recording fake
kernel, and stop objects the test controls — single-threaded up to the
``TestLiveBursts`` rows at the end, which run the ring engines."""

from __future__ import annotations

import threading
from types import SimpleNamespace

import numpy as np
import pytest

from repro.config import HyperParams, RunConfig
from repro.datasets.ratings import RatingMatrix, Shard, train_test_split
from repro.datasets.synthetic import SyntheticSpec, make_low_rank
from repro.linalg.backends import cext_available, get_backend
from repro.linalg.backends.cext_backend import CextTokenKernel
from repro.runtime import loop as loop_module
from repro.runtime.loop import (
    IDLE_SLEEP_MAX,
    IDLE_SLEEP_MIN,
    run_token_loop,
)
from repro.runtime.mailbox import TokenRings
from repro.runtime.multiprocess import MultiprocessNomad
from repro.runtime.threaded import ThreadedNomad
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
    """Records each burst; claims two updates per token.  Poses as a
    kernel whose budget is ``limit`` mean columns of its shard, so the
    loop asks its mailbox for ``limit`` tokens a pop."""

    burst_updates = 65536

    def __init__(self, on_burst=None, limit=32):
        self.bursts: list[list[int]] = []
        self._on_burst = on_burst
        self.n_items, self.nnz = limit, self.burst_updates

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
    assert max(map(len, kernel.bursts)) == 32
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


# ----------------------------------------------------------------------
# The burst limit: a work budget read off the bound shard
# ----------------------------------------------------------------------
COMPILED, INTERPRETED = 65536, 4096  # the two kernels' budgets


@pytest.mark.parametrize(
    "n_items, nnz, budget, limit",
    [
        # the mp-dense shard, 2 880 ratings a column
        (60, 172_800, COMPILED, 22),
        (60, 172_800, INTERPRETED, 2),
        # the mp-sparse shard: more than its ring holds
        (1000, 24_000, COMPILED, 2730),
        (1000, 24_000, INTERPRETED, 170),
        # floor: the compiled burst pairs columns
        (60, 10_000_000, COMPILED, 2),
        (1, 1_000_000, COMPILED, 2),
        # ceiling: one destination block — also a shard with no ratings
        # at all, and a 1-item matrix
        (1000, 1000, COMPILED, loop_module._ROUTE_BLOCK),
        (4, 0, INTERPRETED, loop_module._ROUTE_BLOCK),
        (1, 5, COMPILED, loop_module._ROUTE_BLOCK),
    ],
)
def test_burst_limit_is_the_budget_over_the_mean_column(
    n_items, nnz, budget, limit
):
    kernel = SimpleNamespace(n_items=n_items, nnz=nnz, burst_updates=budget)
    assert loop_module._burst_limit(kernel) == limit


def bound_kernel(n_rows: int, n_cols: int, rows, cols, backend="list"):
    """A real kernel of ``backend`` over a one-worker shard of ones."""
    shard = Shard(
        worker=0, n_cols=n_cols, rows=np.asarray(rows, dtype=np.int64),
        cols=np.asarray(cols, dtype=np.int64), vals=np.ones(len(rows)),
    )
    return get_backend(backend).bind_tokens(
        np.ones((n_rows, 2)), np.ones((n_cols, 2)), *shard.csc(),
        np.zeros(shard.nnz, dtype=np.int64), 0.1, 0.01, 0.01,
    )


@pytest.mark.parametrize(
    "backend, budget, limit",
    [
        ("list", INTERPRETED, 2),
        pytest.param(
            "cext", COMPILED, 22,
            marks=pytest.mark.skipif(
                not cext_available(), reason="no C toolchain"
            ),
        ),
    ],
)
def test_burst_limit_reads_a_bound_kernel(backend, budget, limit):
    kernel = bound_kernel(
        2880, 60, np.repeat(np.arange(2880), 60), np.tile(np.arange(60), 2880),
        backend,
    )
    assert (kernel.n_items, kernel.nnz) == (60, 172_800)
    assert kernel.burst_updates == budget
    assert loop_module._burst_limit(kernel) == limit


def test_a_burst_larger_than_the_ring_holds_returns_what_is_there():
    rings = filled(1, 50)
    kernel = FakeKernel(limit=4096)
    run_token_loop(0, 1, kernel, rings, CountingRouting(), StopAfter(1), None, None)
    assert kernel.bursts == [list(range(50))] * 2
    rings.check_conserved(50)


def test_stop_landing_mid_burst_still_routes_a_ring_sized_burst():
    rings = filled(3, 3000)
    stop = threading.Event()
    kernel = FakeKernel(on_burst=lambda n: stop.set(), limit=4096)
    run_token_loop(0, 3, kernel, rings, CountingRouting(), stop, None, None)
    assert kernel.bursts == [list(range(3000))]
    assert [items for items, _ in rings.routed] == kernel.bursts
    rings.check_conserved(3000)


class ScriptedMailbox:
    """Hands over one scripted burst per pop, whatever limit it is asked
    for, and remembers what was routed."""

    def __init__(self, bursts):
        self._bursts = list(bursts)
        self.routed: list[tuple[np.ndarray, np.ndarray]] = []

    def pop_many(self, worker, limit):
        return self._bursts.pop(0) if self._bursts else np.empty(0, np.int64)

    def route(self, items, dests):
        self.routed.append((items, dests))


def test_a_burst_longer_than_a_destination_block_is_routed_whole():
    """The refill used to draw one block whatever the burst's length, so
    the slice for a longer burst came up short and ``items[dests == q]``
    mis-indexed."""
    ids = np.arange(5010, dtype=np.int64)
    assert ids.size - 10 > loop_module._ROUTE_BLOCK
    # Ten ids first, so the long burst meets a part-used block.
    mailbox = ScriptedMailbox([ids[:10], ids[10:]])
    run_token_loop(
        0, 3, FakeKernel(), mailbox, CountingRouting(), StopAfter(1), None, None
    )
    assert [items.size for items, _ in mailbox.routed] == [10, 5000]
    for items, dests in mailbox.routed:
        assert dests.shape == items.shape
        assert np.all((0 <= dests) & (dests < 3))
    routed = np.concatenate([items for items, _ in mailbox.routed])
    assert np.array_equal(routed, ids)  # every id exactly once


# ----------------------------------------------------------------------
# Degenerate shards
# ----------------------------------------------------------------------
def test_a_worker_with_no_ratings_keeps_forwarding_tokens():
    rings = filled(2, 40)
    updates = run_token_loop(
        0, 2, bound_kernel(3, 40, [], []), rings, AlwaysToPeer(), StopAfter(2),
        None, None,
    )
    assert updates == 0
    assert [items for items, _ in rings.routed] == [list(range(40))]
    assert rings.depth(1) == 40


def test_a_one_item_matrix_does_not_spin(monkeypatch):
    sleeps: list[float] = []
    monkeypatch.setattr(loop_module.time, "sleep", sleeps.append)
    rings = filled(2, 1)
    updates = run_token_loop(
        0, 2, bound_kernel(3, 1, [0, 1, 2], [0, 0, 0]), rings, AlwaysToPeer(),
        StopAfter(4), None, None,
    )
    # One visit, then the token is the peer's: every later poll sleeps.
    assert updates == 3 and len(rings.routed) == 1
    assert len(sleeps) == 3
    rings.check_conserved(1)


# ----------------------------------------------------------------------
# Live engines: same loop, shard-sized bursts
# ----------------------------------------------------------------------
SPARSE_HYPER = HyperParams(k=4, lambda_=0.02, alpha=0.08, beta=0.01)
ENGINES = [ThreadedNomad, MultiprocessNomad]


def wall(duration, **fields):
    """A live run's config: ``duration`` seconds of wall time."""
    return RunConfig(duration=duration, eval_interval=duration, **fields)


@pytest.fixture(scope="module")
def sparse_split():
    """400x400 at 10%: ~18 ratings per column per worker, the mp-sparse
    regime, where a burst is whatever the ring holds.  With these
    hyperparameters the test RMSE is flat (0.0897-0.0902) from half a
    million updates on, so two runs compare wherever they stop."""
    rng = np.random.default_rng(23)
    spec = SyntheticSpec(n_rows=400, n_cols=400, rank=4, density=0.10, noise=0.05)
    return train_test_split(make_low_rank(spec, rng), 0.1, rng)


class TestLiveBursts:
    def test_three_workers_on_a_6x4_matrix_conserve_tokens(self):
        """Rows 2-5 are empty, so worker 2's shard holds no ratings; four
        items over three rings leave a ring empty most of the time."""
        train = RatingMatrix(
            6, 4, np.array([0, 0, 0, 0, 1]), np.array([0, 1, 2, 3, 0]),
            np.ones(5),
        )
        runner = ThreadedNomad(
            train, train, n_workers=3, hyper=HyperParams(k=2),
            run=wall(0.1, seed=0),
        )
        result = runner.run()  # checks conservation
        assert result.updates > 0
        assert result.updates_per_worker[2] == 0

    @pytest.mark.skipif(
        not cext_available(),
        reason="the interpreted kernels do not reach the RMSE plateau in 0.3 s",
    )
    @pytest.mark.parametrize("engine", ENGINES)
    def test_ring_sized_bursts_balance_and_converge_like_32_token_ones(
        self, engine, sparse_split, monkeypatch
    ):
        train, test = sparse_split

        def run(seconds, telemetry=False):
            runner = engine(
                train, test, n_workers=2, hyper=SPARSE_HYPER,
                telemetry=telemetry, run=wall(seconds, seed=3),
            )
            return runner.run()

        result = run(0.3, telemetry=True)
        assert result.telemetry.summary()["tokens_per_batch"] > 32
        low, high = sorted(result.updates_per_worker)
        assert high / low < 1.2
        # The parent's regime on the same loop: a budget that comes to
        # 32 tokens a pop on this shard.
        per_column = train.nnz / 2 / train.n_cols
        with monkeypatch.context() as patch:
            patch.setattr(
                CextTokenKernel, "burst_updates", int(32 * per_column) + 1
            )
            parent = run(0.3)
        # Same model at equal updates: the step schedule depends on how
        # often a rating was visited, not on how visits were batched.
        rate = result.updates / result.wall_seconds
        matched = run(parent.updates / rate)
        assert matched.rmse == pytest.approx(parent.rmse, rel=0.02)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_interpreted_workers_see_a_stop_within_a_burst(self, engine):
        """A stop check is deferred by one burst, and a burst is the
        kernel's budget: ~1 ms compiled, tens of ms interpreted.  (At the
        compiled budget the interpreted kernels took 0.25-0.6 s to join
        on a dense shape, which is why they carry their own.)"""
        rng = np.random.default_rng(5)
        spec = SyntheticSpec(n_rows=3000, n_cols=40, rank=4, density=0.6, noise=0.05)
        train, test = train_test_split(make_low_rank(spec, rng), 0.1, rng)
        runner = engine(
            train, test, n_workers=2,
            hyper=HyperParams(k=8, lambda_=0.01, alpha=0.02, beta=0.01),
            run=wall(0.3, seed=0, kernel_backend="list"),
        )
        result = runner.run()
        assert all(count > 0 for count in result.updates_per_worker)
        assert result.join_seconds < 0.3
