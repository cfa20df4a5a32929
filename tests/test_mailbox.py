"""Unit suite for the shared-memory token rings (``runtime/mailbox.py``)."""

from __future__ import annotations

import multiprocessing as mp

import numpy as np
import pytest

from repro.errors import ReproError, TokenConservationError
from repro.runtime import mailbox
from repro.runtime.mailbox import TokenRings

if "fork" not in mp.get_all_start_methods():
    pytest.skip("token rings need fork-inherited locks", allow_module_level=True)
CONTEXT = mp.get_context("fork")


def make_rings(n_workers: int, n_items: int) -> TokenRings:
    """Rings over anonymous shared memory (inherited by forked children)."""
    import mmap

    buffer = mmap.mmap(-1, TokenRings.nbytes(n_workers, n_items))
    locks = [CONTEXT.Lock() for _ in range(n_workers)]
    return TokenRings(buffer, n_workers, n_items, locks)


def ids(*values: int) -> np.ndarray:
    return np.array(values, dtype=np.int64)


class TestGeometry:
    @pytest.mark.parametrize(
        "n_items, capacity",
        [(1, 1), (2, 2), (3, 4), (8, 8), (9, 16), (1000, 1024)],
    )
    def test_capacity_is_next_power_of_two(self, n_items, capacity):
        assert TokenRings.capacity_for(n_items) == capacity
        assert make_rings(2, n_items).capacity == capacity

    def test_nbytes_covers_every_ring(self):
        assert TokenRings.nbytes(3, 5) == 3 * (8 + 8) * 8


class TestFifo:
    def test_pop_on_empty_returns_empty_array(self):
        rings = make_rings(2, 5)
        popped = rings.pop_many(0, 32)
        assert isinstance(popped, np.ndarray)
        assert popped.dtype == np.int64 and popped.size == 0
        assert rings.depth(0) == 0

    def test_order_and_limit(self):
        rings = make_rings(2, 8)
        rings.push_many(1, ids(4, 2, 7))
        rings.push_many(1, ids(0))
        assert rings.depth(1) == 4 and rings.depth(0) == 0
        assert rings.pop_many(1, 3).tolist() == [4, 2, 7]
        assert rings.pop_many(1, 3).tolist() == [0]
        assert rings.pop_many(1, 3).size == 0

    def test_wraps_around_at_capacity(self):
        """Counters run past capacity; slots are reused in FIFO order,
        including a push and a pop that each straddle the end."""
        rings = make_rings(1, 8)
        rings.push_many(0, ids(0, 1, 2, 3, 4, 5))
        assert rings.pop_many(0, 5).tolist() == [0, 1, 2, 3, 4]
        rings.push_many(0, ids(10, 11, 12, 13, 14, 15, 16))  # straddles
        assert rings.depth(0) == 8  # full, exactly at capacity
        assert rings.pop_many(0, 32).tolist() == [
            5, 10, 11, 12, 13, 14, 15, 16,
        ]
        for lap in range(5):  # several more laps around the ring
            batch = np.arange(7, dtype=np.int64) + 100 * lap
            rings.push_many(0, batch)
            assert rings.pop_many(0, 7).tolist() == batch.tolist()

    def test_route_splits_by_destination(self):
        rings = make_rings(3, 6)
        rings.route(ids(0, 1, 2, 3, 4, 5), ids(2, 0, 2, 2, 0, 2))
        assert rings.pop_many(0, 32).tolist() == [1, 4]
        assert rings.pop_many(1, 32).size == 0
        assert rings.pop_many(2, 32).tolist() == [0, 2, 3, 5]


class TestConservation:
    def test_overflow_is_a_typed_error_never_a_wrap(self):
        rings = make_rings(1, 4)
        rings.push_many(0, ids(0, 1, 2))
        with pytest.raises(TokenConservationError, match="overflow"):
            rings.push_many(0, ids(3, 0))
        assert issubclass(TokenConservationError, ReproError)
        # the refused push wrote nothing
        assert rings.pop_many(0, 32).tolist() == [0, 1, 2]

    def test_conserved_rings_pass(self):
        rings = make_rings(2, 5)
        rings.route(ids(0, 1, 2, 3, 4), ids(0, 1, 1, 0, 1))
        rings.push_many(0, rings.pop_many(1, 2))  # moving is fine
        rings.check_conserved(5)

    def test_lost_and_duplicated_items_are_named(self):
        rings = make_rings(2, 5)
        rings.push_many(0, ids(0, 1, 3))
        rings.push_many(1, ids(3, 4))
        with pytest.raises(TokenConservationError) as caught:
            rings.check_conserved(5)
        message = str(caught.value)
        assert "1 item(s) lost (first: [2])" in message
        assert "1 duplicated (first: [3])" in message

    def test_out_of_range_id_is_reported(self):
        rings = make_rings(1, 3)
        rings.push_many(0, ids(0, 1, 7))
        with pytest.raises(TokenConservationError, match="1 id"):
            rings.check_conserved(3)


class HeldLock:
    """A lock somebody else holds for the first ``busy_tries`` tries."""

    def __init__(self, busy_tries: int):
        self.busy_tries = busy_tries
        self.calls: list[bool] = []  # the ``blocking`` argument of each
        self.held = False

    def acquire(self, blocking: bool = True) -> bool:
        self.calls.append(blocking)
        if not blocking and len(self.calls) <= self.busy_tries:
            return False
        self.held = True
        return True

    def release(self) -> None:
        self.held = False


class TestLocking:
    def test_briefly_held_lock_is_retried_not_slept_on(self):
        lock = HeldLock(busy_tries=3)
        rings = TokenRings(bytearray(TokenRings.nbytes(1, 4)), 1, 4, [lock])
        rings.push_many(0, ids(2, 1))
        assert lock.calls == [False] * 4 and not lock.held
        assert rings.pop_many(0, 8).tolist() == [2, 1]

    def test_lock_held_past_the_spin_is_blocked_on(self):
        lock = HeldLock(busy_tries=10**9)
        rings = TokenRings(bytearray(TokenRings.nbytes(1, 4)), 1, 4, [lock])
        assert rings.depth(0) == 0
        assert lock.calls == [False] * mailbox._SPIN_TRIES + [True]
        assert not lock.held


def _shuffle_tokens(rings: TokenRings, me: int, rounds: int, seed: int) -> None:
    """Child: pop small bursts from the own ring, route them at random."""
    rng = np.random.default_rng(seed)
    for _ in range(rounds):
        burst = rings.pop_many(me, int(rng.integers(1, 6)))
        if burst.size:
            rings.route(burst, rng.integers(2, size=burst.size))


class TestTwoProcesses:
    def test_interleaved_push_pop_conserves_the_multiset(self):
        """Two real processes popping and pushing across both rings at
        once (many wrap-arounds: 20k rounds over 16 slots) end with
        exactly the tokens they started with."""
        n_items = 13
        rings = make_rings(2, n_items)
        rings.route(
            np.arange(n_items, dtype=np.int64),
            np.arange(n_items) % 2,
        )
        children = [
            CONTEXT.Process(
                target=_shuffle_tokens, args=(rings, me, 20_000, 40 + me)
            )
            for me in range(2)
        ]
        for child in children:
            child.start()
        for child in children:
            child.join(timeout=60)
            assert not child.is_alive()
            assert child.exitcode == 0
        rings.check_conserved(n_items)
        held = np.concatenate([rings.pop_many(q, 32) for q in range(2)])
        assert sorted(held.tolist()) == list(range(n_items))
