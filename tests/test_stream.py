"""Tests for the streaming subsystem (sources, DynamicNomad, snapshots,
serving, and the repro.fit_stream facade)."""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.config import HyperParams, RunConfig
from repro.datasets.ratings import RatingMatrix
from repro.errors import (
    ConfigError, DataError, DivergenceError, SimulationError,
)
from repro.linalg import cext_available
from repro.linalg.backends import get_backend
from repro.linalg.objective import test_rmse as rmse_of
from repro.rng import RngFactory
from repro.stream import (
    Arrivals,
    DriftStream,
    DynamicNomad,
    PrequentialTrace,
    RatingStream,
    Recommender,
    ReplayStream,
    SnapshotStore,
)
from repro.stream.colstore import ColumnStore
from repro.stream.dynamic import RatedCells

HYPER = HyperParams(k=4, lambda_=0.01, alpha=0.1, beta=0.01)

needs_cext = pytest.mark.skipif(
    not cext_available(), reason="no usable C toolchain (cext unavailable)"
)
KERNEL_BACKENDS = ["list", pytest.param("cext", marks=needs_cext)]


@pytest.fixture
def replay(tiny_matrix):
    return ReplayStream(
        tiny_matrix, warmup_fraction=0.5, holdout_rows=4, holdout_cols=2,
        seed=11,
    )


def _arrivals(stream):
    """Every arrival of ``stream``, its blocks joined into one."""
    return Arrivals(*map(np.concatenate, zip(*stream.blocks())))


def _all_ratings(stream):
    """The warm-up plus every arrival: the matrix ``stream`` ends on."""
    arrivals = _arrivals(stream)
    return stream.warmup.with_appended(
        arrivals.users, arrivals.items, arrivals.values
    )


class Reblocked:
    """``stream``'s arrivals handed out again in blocks of ``size`` (all
    in one block for ``None``)."""

    def __init__(self, stream, size):
        self.warmup, self.n_events = stream.warmup, stream.n_events
        self._arrivals, self._size = _arrivals(stream), size

    def blocks(self):
        size = self._size or self.n_events
        for start in range(0, self.n_events, size):
            yield Arrivals(
                *(column[start:start + size] for column in self._arrivals)
            )


@pytest.fixture
def warm_dynamic(replay):
    dynamic = DynamicNomad(
        replay.warmup, n_workers=2, hyper=HYPER, run=RunConfig(seed=5)
    )
    dynamic.train(2)
    return dynamic


# ----------------------------------------------------------------------
# Sources
# ----------------------------------------------------------------------
class TestReplayStream:
    def test_partition_covers_everything(self, tiny_matrix, replay):
        assert replay.warmup.nnz + replay.n_events == tiny_matrix.nnz

    def test_holdout_entities_absent_from_warmup(self, tiny_matrix, replay):
        assert replay.warmup.n_rows <= tiny_matrix.n_rows - 4
        assert replay.warmup.n_cols <= tiny_matrix.n_cols - 2
        users = _arrivals(replay).users
        held_users = set(users[users >= replay.warmup.n_rows].tolist())
        assert held_users  # the stream really introduces unseen users

    def test_events_are_timestamped_in_order(self, replay):
        times = _arrivals(replay).times.tolist()
        assert times == sorted(times)
        assert times[0] == 0.0

    def test_union_of_warmup_and_events_is_the_full_matrix(
        self, tiny_matrix, replay
    ):
        arrivals = _arrivals(replay)
        combined = replay.warmup.with_appended(
            arrivals.users,
            arrivals.items,
            arrivals.values,
            n_rows=tiny_matrix.n_rows,
            n_cols=tiny_matrix.n_cols,
        )
        assert combined == tiny_matrix

    def test_deterministic_for_one_seed(self, tiny_matrix):
        a = ReplayStream(tiny_matrix, seed=3)
        b = ReplayStream(tiny_matrix, seed=3)
        assert a.warmup == b.warmup
        for column_a, column_b in zip(_arrivals(a), _arrivals(b)):
            assert np.array_equal(column_a, column_b)

    def test_satisfies_protocol(self, replay):
        assert isinstance(replay, RatingStream)

    def test_validation(self, tiny_matrix):
        with pytest.raises(DataError, match="warmup_fraction"):
            ReplayStream(tiny_matrix, warmup_fraction=1.5)
        with pytest.raises(DataError, match="holdout_rows"):
            ReplayStream(tiny_matrix, holdout_rows=tiny_matrix.n_rows)


class TestDriftStream:
    def test_deterministic_and_duplicate_free(self):
        a = DriftStream(n_events=300, seed=4)
        b = DriftStream(n_events=300, seed=4)
        assert a.warmup == b.warmup
        arrivals_a = _arrivals(a)
        for column_a, column_b in zip(arrivals_a, _arrivals(b)):
            assert np.array_equal(column_a, column_b)
        pairs = set(zip(arrivals_a.users.tolist(), arrivals_a.items.tolist()))
        assert len(pairs) == len(arrivals_a.users)

    def test_new_entities_appear(self):
        stream = DriftStream(n_events=500, seed=1)
        assert stream.final_users > stream.warmup.n_rows
        assert stream.final_items > stream.warmup.n_cols

    def test_union_forms_a_valid_matrix(self):
        stream = DriftStream(n_events=200, seed=2)
        arrivals = _arrivals(stream)
        combined = stream.warmup.with_appended(
            arrivals.users, arrivals.items, arrivals.values
        )
        assert combined.nnz == stream.warmup.nnz + len(arrivals.users)


# ----------------------------------------------------------------------
# RatedCells (the duplicate check)
# ----------------------------------------------------------------------
class TestRatedCells:
    def test_duplicates_detected_against_base_and_added(self, tiny_matrix):
        """A base cell is rated from the start; a fresh cell is not until
        it is added, and then is: the two ways an arrival duplicates."""
        cells = RatedCells(tiny_matrix)
        user = int(tiny_matrix.rows[0])
        item = int(tiny_matrix.cols[0])
        assert cells.contains(user, item)
        free_item = tiny_matrix.n_cols  # brand-new column: surely unrated
        assert not cells.contains(user, free_item)
        cells.add(user, free_item)
        assert cells.contains(user, free_item)
        assert len(cells) == 1
        # A block: a repeat inside it is a duplicate of its first
        # occurrence, which is not (until added).
        fresh = tiny_matrix.n_cols + 1
        assert cells.contains(
            [user, user, 0, user], [fresh, item, fresh + 1, fresh]
        ).tolist() == [False, True, False, True]

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), density=st.floats(0.0, 0.9))
    def test_contains_matches_a_search_of_the_users_items(self, seed, density):
        """Every cell of a grid wider and taller than the base — users
        with no base rating, users and items past the base shape, cells
        only added since — answers what ``items_of_user`` plus
        ``searchsorted`` answered."""
        rng = np.random.default_rng(seed)
        n_rows, n_cols = 12, 7
        rated = rng.random((n_rows, n_cols)) < density
        rated[rng.integers(0, n_rows, 3)] = False  # users with no ratings
        rated[rng.integers(0, n_rows), rng.integers(0, n_cols)] = True
        rows, cols = np.nonzero(rated)
        base = RatingMatrix(n_rows, n_cols, rows, cols, np.ones(rows.size))
        cells = RatedCells(base)
        unrated = list(zip(*np.nonzero(~rated)))
        picks = rng.permutation(len(unrated))[:4]
        fresh = [tuple(map(int, unrated[t])) for t in picks]
        fresh += [(n_rows + 1, 0), (0, n_cols + 2), (n_rows, n_cols)]
        for user, item in fresh:
            cells.add(user, item)
        assert len(cells) == len(fresh)

        def searched(user, item):
            if (user, item) in fresh:
                return True
            if user < n_rows and item < n_cols:
                items, _ = base.items_of_user(user)
                pos = int(np.searchsorted(items, item))
                return pos < items.size and items[pos] == item
            return False

        for user in range(n_rows + 3):
            for item in range(n_cols + 3):
                assert cells.contains(user, item) == searched(user, item)


# ----------------------------------------------------------------------
# DynamicNomad
# ----------------------------------------------------------------------
class TestDynamicNomad:
    def test_sweep_updates_every_rating_once(self, replay):
        dynamic = DynamicNomad(replay.warmup, 2, HYPER, RunConfig(seed=5))
        assert dynamic.sweep() == replay.warmup.nnz
        assert dynamic.total_updates == replay.warmup.nnz
        assert sum(dynamic.updates_per_worker) == dynamic.total_updates

    def test_training_reduces_rmse(self, replay):
        dynamic = DynamicNomad(replay.warmup, 2, HYPER, RunConfig(seed=5))
        before = rmse_of(dynamic.factors, replay.warmup)
        dynamic.train(4)
        after = rmse_of(dynamic.factors, replay.warmup)
        assert after < before

    def test_deterministic_given_seed(self, replay):
        a = DynamicNomad(replay.warmup, 2, HYPER, RunConfig(seed=5))
        b = DynamicNomad(replay.warmup, 2, HYPER, RunConfig(seed=5))
        a.train(2)
        b.train(2)
        assert np.array_equal(a.factors.w, b.factors.w)
        assert np.array_equal(a.factors.h, b.factors.h)

    @pytest.mark.parametrize("fault", ["duplicated", "dropped"])
    def test_a_token_duplicated_or_dropped_stops_the_sweep(
        self, replay, fault
    ):
        """The sweep's one check of its resting tokens: they must be a
        permutation of the items.  One item's token twice (another's
        missing), or one token dropped, raises before any factor or
        counter moves."""
        dynamic = DynamicNomad(replay.warmup, 2, HYPER, RunConfig(seed=5))
        dynamic.sweep()
        items, at = dynamic._rest_items.copy(), dynamic._rest_at.copy()
        if fault == "duplicated":
            items[1] = items[0]
        else:
            items, at = items[1:], at[1:]
        dynamic._rest_items, dynamic._rest_at = items, at
        before = dynamic.factors
        counts = [store.counts for store in dynamic._stores]
        with pytest.raises(SimulationError, match="not one per item"):
            dynamic.sweep()
        after = dynamic.factors
        assert np.array_equal(after.w, before.w)
        assert np.array_equal(after.h, before.h)
        for store, held in zip(dynamic._stores, counts):
            assert np.array_equal(store.counts, held)
        assert dynamic.total_updates == replay.warmup.nnz

    def test_ingest_routes_to_owner_without_repartition(self, warm_dynamic):
        owners_before = warm_dynamic._owner_of_user.tolist()
        user = 0
        item = warm_dynamic.n_items  # new item
        warm_dynamic.ingest(user, item, 2.0)
        # Existing users keep their owner: no re-partitioning happened.
        assert warm_dynamic._owner_of_user.tolist() == owners_before
        assert warm_dynamic.arrivals == 1

    def test_new_entities_grow_factors_and_tokens(self, warm_dynamic):
        users0, items0 = warm_dynamic.n_users, warm_dynamic.n_items
        warm_dynamic.ingest(users0 + 2, items0, 1.5)
        assert warm_dynamic.n_users == users0 + 3
        assert warm_dynamic.n_items == items0 + 1
        assert warm_dynamic.new_users == 3
        assert warm_dynamic.new_items == 1
        factors = warm_dynamic.factors
        assert factors.n_rows == users0 + 3
        assert factors.n_cols == items0 + 1
        # Token conservation: every item rests in exactly one queue.
        assert sum(warm_dynamic.queue_sizes()) == warm_dynamic.n_items

    def test_arrivals_train_on_next_sweep(self, replay, warm_dynamic):
        """A fold-in rating actually changes its new user's factor row."""
        user = warm_dynamic.n_users  # brand-new user
        item = 0
        warm_dynamic.ingest(user, item, 4.0)
        row_before = warm_dynamic.factors.w[user].copy()
        applied = warm_dynamic.sweep()
        assert applied == replay.warmup.nnz + 1
        assert not np.array_equal(warm_dynamic.factors.w[user], row_before)

    def test_triplets_hold_every_rating_once(self, replay, warm_dynamic):
        """The stores are the one copy of each rating: base, folded-in
        and still-pending arrivals, each once."""
        arrivals = _arrivals(replay)
        events = list(zip(
            *(column[:40].tolist() for column in arrivals[1:])
        ))
        for user, item, value in events[:20]:
            warm_dynamic.ingest(user, item, value)
        warm_dynamic.sweep()
        for user, item, value in events[20:]:
            warm_dynamic.ingest(user, item, value)
        held = [
            cell
            for users, items, ratings in warm_dynamic.triplets()
            for cell in zip(users.tolist(), items.tolist(), ratings.tolist())
        ]
        base = replay.warmup
        expected = list(
            zip(base.rows.tolist(), base.cols.tolist(), base.vals.tolist())
        ) + events
        assert sorted(held) == sorted(expected)

    def test_warm_start_and_validation(self, replay):
        warm = repro.init_factors(
            replay.warmup.n_rows, replay.warmup.n_cols, HYPER.k,
            RngFactory(9).stream("warm"),
        )
        dynamic = DynamicNomad(
            replay.warmup, 2, HYPER, RunConfig(seed=5), init_factors=warm
        )
        assert np.array_equal(dynamic.factors.w, warm.w)
        bad = repro.init_factors(2, 2, HYPER.k, RngFactory(9).stream("warm"))
        with pytest.raises(ConfigError, match="init factors"):
            DynamicNomad(replay.warmup, 2, HYPER, RunConfig(), init_factors=bad)

    def test_duplicate_arrival_rejected(self, replay, warm_dynamic):
        """A cell rated in the base, or by an earlier arrival, is refused
        before anything grows."""
        base = replay.warmup
        user = int(base.rows[0])
        item = int(base.cols[0])
        with pytest.raises(DataError, match="duplicate"):
            warm_dynamic.ingest(user, item, 9.9)
        free_item = base.n_cols  # brand-new column: surely unrated
        warm_dynamic.ingest(user, free_item, 1.0)
        with pytest.raises(DataError, match="duplicate"):
            warm_dynamic.ingest(user, free_item, 2.0)
        assert warm_dynamic.arrivals == 1
        assert warm_dynamic.n_items == free_item + 1

    def test_rejected_arrival_leaves_trainer_untouched(self, warm_dynamic):
        """Validation happens before growth: a bad event must not leave
        phantom users, items, or tokens behind."""
        users0, items0 = warm_dynamic.n_users, warm_dynamic.n_items
        queues0 = sum(warm_dynamic.queue_sizes())
        with pytest.raises(DataError, match="finite"):
            warm_dynamic.ingest(users0 + 50, items0 + 50, float("nan"))
        assert warm_dynamic.n_users == users0
        assert warm_dynamic.n_items == items0
        assert warm_dynamic.new_users == 0 and warm_dynamic.new_items == 0
        assert sum(warm_dynamic.queue_sizes()) == queues0
        assert warm_dynamic.arrivals == 0
        assert warm_dynamic.factors.n_rows == users0


    def test_a_refused_block_leaves_the_trainer_untouched(self, warm_dynamic):
        """A block is validated whole: new users and items before the
        offender do not grow, and the first offender's message is the
        one raised — here a repeat inside the block."""
        users0, items0 = warm_dynamic.n_users, warm_dynamic.n_items
        queues0 = warm_dynamic.queue_sizes()
        held0 = [store.nnz for store in warm_dynamic._stores]
        users = [users0 + 3, 0, users0 + 3, -1]
        items = [0, items0 + 2, 0, 0]
        with pytest.raises(DataError, match=rf"duplicate.*\({users0 + 3}, 0\)"):
            warm_dynamic.ingest(users, items, [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(DataError, match="out of range"):
            warm_dynamic.ingest(users[:2] + [-1], items[:2] + [0], [1.0] * 3)
        assert (warm_dynamic.n_users, warm_dynamic.n_items) == (users0, items0)
        assert warm_dynamic.queue_sizes() == queues0
        assert warm_dynamic.arrivals == 0
        assert [store.nnz for store in warm_dynamic._stores] == held0

    @pytest.mark.parametrize("block", [1, 7, 1000])
    def test_blocks_ingest_what_their_arrivals_would_one_by_one(
        self, replay, block
    ):
        """Growth in arrival order, each new user on the worker least
        loaded at its arrival (the block's earlier arrivals counted), the
        growth draws interleaved as one by one: after two sweeps the
        factors, owners and loads are those of single-arrival blocks."""
        arrivals = _arrivals(replay)
        runs = []
        for size in (1, block):
            dynamic = DynamicNomad(
                replay.warmup, 3, HYPER, RunConfig(seed=5)
            )
            dynamic.sweep()
            for start in range(0, len(arrivals.users), size):
                dynamic.ingest(
                    *(column[start:start + size] for column in arrivals[1:])
                )
            dynamic.train(2)
            runs.append(dynamic)
        one, blocked = runs
        assert one.new_users > 1 and one.new_items > 1
        assert np.array_equal(one.factors.w, blocked.factors.w)
        assert np.array_equal(one.factors.h, blocked.factors.h)
        assert np.array_equal(one._owner_of_user, blocked._owner_of_user)
        assert np.array_equal(one._worker_load, blocked._worker_load)
        assert one.queue_sizes() == blocked.queue_sizes()

# ----------------------------------------------------------------------
# ColumnStore (the per-worker growable CSC)
# ----------------------------------------------------------------------
_STORE_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("append"), st.integers(0, 10**6), st.integers(0, 50),
            st.floats(-5, 5),
        ),
        st.tuples(st.just("grow"), st.integers(1, 3)),
        st.tuples(st.just("bump"), st.integers(0, 10**6)),
        st.tuples(st.just("flush")),
    ),
    max_size=40,
)


class TestColumnStore:
    @staticmethod
    def _check(store, model):
        """``model[j]`` is column j as a list of [user, rating, count]."""
        assert store.n_items == len(model)
        indptr, users, ratings, counts, ends = store.kernel_arrays()
        assert indptr.size == ends.size + 1 == store.n_items + 1
        assert ratings.shape == counts.shape == users.shape
        starts = indptr[:-1]
        assert np.all(starts <= ends) and np.all(ends <= indptr[-1])
        assert indptr[-1] <= users.size
        slots = np.concatenate(
            [np.arange(lo, hi) for lo, hi in zip(starts, ends)] + [[]]
        )
        assert slots.size == np.unique(slots).size == store.nnz
        for j, column in enumerate(model):
            users, ratings, counts = store.column(j)
            assert users.tolist() == [entry[0] for entry in column]
            assert ratings.tolist() == [entry[1] for entry in column]
            assert counts.tolist() == [entry[2] for entry in column]

    @settings(max_examples=150, deadline=None)
    @given(
        base=st.lists(
            st.lists(st.tuples(st.integers(0, 50), st.floats(-5, 5)),
                     max_size=4),
            min_size=1, max_size=5,
        ),
        ops=_STORE_OPS,
    )
    def test_any_interleaving_equals_list_of_lists(self, base, ops):
        """Append / new-item growth / flush in any order: in-column order
        is base order then arrival order, counters stay with their
        rating across a flush and new ones start at 0."""
        indptr = np.cumsum([0] + [len(column) for column in base])
        flat = [pair for column in base for pair in column]
        store = ColumnStore(
            indptr, [user for user, _ in flat], [rating for _, rating in flat]
        )
        model = [[[u, r, 0] for u, r in column] for column in base]
        self._check(store, model)
        pending: list[tuple[int, list]] = []
        n_items = len(model)
        for op in ops:
            if op[0] == "append":
                item = op[1] % n_items
                store.append(item, op[2], op[3])
                pending.append((item, [op[2], op[3], 0]))
            elif op[0] == "grow":
                n_items += op[1]
            elif op[0] == "bump":  # a kernel advancing one flushed column
                item = op[1] % store.n_items
                store.column(item)[2][:] += 1
                for entry in model[item]:
                    entry[2] += 1
            else:
                arrays = store.kernel_arrays()
                grown = n_items > len(model)
                rebind = store.flush(n_items)
                assert rebind or not grown
                # A rebind is asked for exactly when the flush replaced an
                # array a bound kernel holds: the buffers grew or columns
                # were added.  Anything else is written in place, in any
                # user order, and bound kernels stay valid.
                assert rebind == any(
                    a is not b for a, b in zip(arrays, store.kernel_arrays())
                )
                model.extend([] for _ in range(n_items - len(model)))
                for item, entry in pending:
                    model[item].append(entry)
                pending.clear()
                self._check(store, model)
            assert store.nnz == sum(map(len, model)) + len(pending)

    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    def test_an_arrival_below_its_columns_last_user_is_written_in_place(
        self, backend
    ):
        """An arrival lands in its column's slack whatever its user —
        above the column's last user, below it, a repeat inside the
        column, one the next column shares — and asks for no rebind: a
        kernel bound before it trains it bit for bit as the ``list``
        kernel does.  Only a column past its slack (new buffers) asks
        for a rebind."""
        store = ColumnStore([0, 2, 3], [1, 4, 2], [1.0, 2.0, 3.0])
        rng = np.random.default_rng(3)
        w, h = rng.random((20, 2)), rng.random((2, 2))

        def bound(backend, w, h, counts):
            indptr, users, ratings, _, ends = store.kernel_arrays()
            return get_backend(backend).bind_tokens(
                w, h, indptr, users, ratings, counts, 0.1, 0.1, 0.1,
                ends=ends,
            )

        kernel = bound(backend, w, h, store.kernel_arrays()[3])
        arrays = store.kernel_arrays()
        store.append([0, 1, 0, 1, 1], [2, 3, 0, 2, 0], [4.0, 5.0, 6.0, 7.0, 8.0])
        assert not store.flush(2)
        assert all(a is b for a, b in zip(arrays, store.kernel_arrays()))
        assert store.column(0)[0].tolist() == [1, 4, 2, 0]
        # Paired after column 1, column 0's rating of user 2 must wait
        # for column 1's second one, not its first.
        assert store.column(1)[0].tolist() == [2, 3, 2, 0]
        w_ref, h_ref = w.copy(), h.copy()
        counts_ref = store.kernel_arrays()[3].copy()
        reference = bound("list", w_ref, h_ref, counts_ref)
        burst = np.array([0, 1, 1, 0])
        assert kernel.process_tokens(burst) == reference.process_tokens(burst)
        assert np.array_equal(w, w_ref) and np.array_equal(h, h_ref)
        assert np.array_equal(store.kernel_arrays()[3], counts_ref)
        store.append([0] * 11, range(8, 19), [1.0] * 11)
        assert store.flush(2)  # column 0 outgrew its slack
        assert store.column(0)[0].tolist() == [1, 4, 2, 0, *range(8, 19)]
        assert store.column(0)[2].tolist() == [2] * 4 + [0] * 11

    def test_flush_cannot_shrink(self):
        store = ColumnStore([0, 1, 1], [3], [1.0])
        with pytest.raises(ValueError, match="shrink"):
            store.flush(1)

    def test_flush_rejects_an_item_outside_its_columns(self):
        """A pending item the flush does not cover is a typed error
        naming it, raised before any array is replaced."""
        store = ColumnStore([0, 1, 1], [3], [1.0])
        store.append(1, 5, 2.0)
        store.append(6, 4, 2.5)
        arrays = store.kernel_arrays()
        with pytest.raises(ValueError, match="item 6"):
            store.flush(3)
        assert all(a is b for a, b in zip(arrays, store.kernel_arrays()))
        assert store.n_items == 2 and store.nnz == 3
        assert store.flush(7)
        assert store.column(1)[0].tolist() == [5]
        assert store.column(6)[0].tolist() == [4]
        store.append(-1, 2, 1.0)
        with pytest.raises(ValueError, match="item -1"):
            store.flush(7)

    def test_triplets_read_pending_arrivals_without_a_flush(self):
        """Flushed columns in column order, then pending arrivals in
        arrival order — and no array replaced, so a bound kernel stays
        valid."""
        store = ColumnStore([0, 2, 3], [4, 1, 0], [1.0, 2.0, 3.0])
        store.append(3, 7, 4.0)
        store.append(0, 5, 5.0)
        arrays = store.kernel_arrays()
        users, items, ratings = store.triplets()
        assert users.tolist() == [4, 1, 0, 7, 5]
        assert items.tolist() == [0, 0, 1, 3, 0]
        assert ratings.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert all(a is b for a, b in zip(arrays, store.kernel_arrays()))
        assert store.flush(4)
        users, items, ratings = store.triplets()
        assert users.tolist() == [4, 1, 5, 0, 7]
        assert items.tolist() == [0, 0, 0, 1, 3]
        assert ratings.tolist() == [1.0, 2.0, 5.0, 3.0, 4.0]

    def test_base_arrays_are_copied(self):
        indptr, users = np.array([0, 1]), np.array([2])
        store = ColumnStore(indptr, users, np.array([1.0]))
        store.kernel_arrays()[1][0] = 9
        assert users[0] == 2 and store.counts.tolist() == [0]


# ----------------------------------------------------------------------
# DynamicNomad against a reference loop over Python lists
# ----------------------------------------------------------------------
class ListReference:
    """The trainer the list-of-lists stores implemented: per (worker,
    item) Python lists, one ``process_column`` per column, rounds
    interleaved in plan order, a per-column counter clamp."""

    def __init__(self, dynamic, base):
        self.backend = dynamic.backend
        factors = dynamic.factors
        self.w, self.h = factors.w, factors.h
        self.columns: dict[tuple[int, int], tuple[list, list, list]] = {}
        for user, item, value in zip(
            base.rows.tolist(), base.cols.tolist(), base.vals.tolist()
        ):
            self.add(dynamic, user, item, value)

    def add(self, dynamic, user, item, value):
        key = (dynamic._owner_of_user[user], item)
        users, ratings, counts = self.columns.setdefault(key, ([], [], []))
        users.append(user)
        ratings.append(value)
        counts.append(0)

    def grow(self, dynamic):
        """Adopt the rows ``dynamic`` initialized for new users/items."""
        factors = dynamic.factors
        self.w = np.vstack([self.w, factors.w[self.w.shape[0]:]])
        self.h = np.vstack([self.h, factors.h[self.h.shape[0]:]])

    def sweep(self, dynamic, cap=None):
        """Mirror the sweep ``dynamic`` is about to run (call first)."""
        p = dynamic.n_workers
        rng = random.Random()
        rng.setstate(dynamic._route_rng.getstate())
        plan = []
        order = np.argsort(dynamic._rest_at, kind="stable")
        for j, q in zip(
            dynamic._rest_items[order].tolist(), dynamic._rest_at[order].tolist()
        ):
            others = [w for w in range(p) if w != q]
            rng.shuffle(others)
            plan.append((j, [q, *others]))
        applied = 0
        hyper = dynamic.hyper
        for r in range(p):
            for j, stops in plan:
                column = self.columns.get((stops[r], j))
                if column is None:
                    continue
                users, ratings, counts = column
                applied += self.backend.process_column(
                    self.w, self.h[j], users, ratings, counts,
                    hyper.alpha, hyper.beta, hyper.lambda_,
                )
                if cap is not None:
                    counts[:] = [min(count, cap) for count in counts]
        return applied

    def assert_matches(self, dynamic, atol=1e-10):
        factors = dynamic.factors
        np.testing.assert_allclose(factors.w, self.w, rtol=0, atol=atol)
        np.testing.assert_allclose(factors.h, self.h, rtol=0, atol=atol)
        for q, store in enumerate(dynamic._stores):
            for j in range(dynamic.n_items):
                users, ratings, counts = store.column(j)
                expected = self.columns.get((q, j), ([], [], []))
                assert users.tolist() == expected[0]
                assert ratings.tolist() == expected[1]
                assert counts.tolist() == expected[2]


class TestDynamicNomadAgainstReference:
    def _pair(self, replay, backend, **kwargs):
        dynamic = DynamicNomad(
            replay.warmup, 3, HYPER, RunConfig(seed=5, kernel_backend=backend),
            **kwargs,
        )
        return dynamic, ListReference(dynamic, replay.warmup)

    @staticmethod
    def _fold_in(dynamic, reference, users, items, values):
        cells = list(zip(users, items, values))
        for cell in cells:
            dynamic.ingest(*cell)
        reference.grow(dynamic)
        for cell in cells:
            reference.add(dynamic, *cell)

    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    def test_sweep_after_factor_reallocation(self, replay, backend):
        """First-seen users and items reallocate ``_w`` and ``_h`` under
        kernels an earlier sweep bound; the next sweep must train the
        live rows (a stale pointer would leave them as initialized, and
        send the other workers' updates to the old block) exactly as the
        list reference does."""
        dynamic, reference = self._pair(replay, backend)
        assert reference.sweep(dynamic) == dynamic.sweep()
        w_bound, h_bound = dynamic._w, dynamic._h
        user, item = dynamic.n_users, dynamic.n_items

        # A new user alone: one store gets the rating, every kernel
        # must still move to the reallocated W.
        self._fold_in(dynamic, reference, [user], [0], [4.0])
        assert dynamic._w is not w_bound and dynamic._h is h_bound
        fresh = dynamic.factors
        assert reference.sweep(dynamic) == dynamic.sweep()
        assert not np.array_equal(dynamic.factors.w[user], fresh.w[user])
        reference.assert_matches(dynamic)

        # A new item, rated by an old user and by another new one.
        self._fold_in(
            dynamic, reference, [0, user + 1], [item, item], [2.0, 3.0]
        )
        assert dynamic._h is not h_bound
        fresh = dynamic.factors
        assert reference.sweep(dynamic) == dynamic.sweep()
        trained = dynamic.factors
        assert not np.array_equal(trained.w[user + 1], fresh.w[user + 1])
        assert not np.array_equal(trained.h[item], fresh.h[item])
        reference.assert_matches(dynamic)

        # No growth, no arrival: the next sweep reuses the bound kernels.
        kernels = list(dynamic._kernels)
        assert reference.sweep(dynamic) == dynamic.sweep()
        assert all(a is b for a, b in zip(kernels, dynamic._kernels))
        reference.assert_matches(dynamic)

    def test_count_cap_floor_and_lift_match_per_column_clamp(self, replay):
        """One clamp per store per sweep leaves the counters the
        per-column clamp did — under the cap, for arrivals that join
        below it, and after ``final_epochs`` lifts it."""
        dynamic, reference = self._pair(replay, "list", count_cap=2)
        for _ in range(3):
            reference.sweep(dynamic, cap=2)
            dynamic.sweep()
        assert all(store.counts.max() == 2 for store in dynamic._stores)
        self._fold_in(dynamic, reference, *(
            column[:30].tolist() for column in _arrivals(replay)[1:]
        ))
        reference.sweep(dynamic, cap=2)
        dynamic.sweep()
        reference.assert_matches(dynamic)
        counts = np.concatenate([s.counts for s in dynamic._stores])
        assert sorted(set(counts.tolist())) == [1, 2]
        dynamic.count_cap = None  # what fit_stream's final_epochs does
        for _ in range(2):
            reference.sweep(dynamic)
            dynamic.sweep()
        reference.assert_matches(dynamic)
        counts = np.concatenate([s.counts for s in dynamic._stores])
        assert sorted(set(counts.tolist())) == [3, 4]


# ----------------------------------------------------------------------
# Snapshots + prequential trace
# ----------------------------------------------------------------------
class TestSnapshotStore:
    def _factors(self, seed=0):
        return repro.init_factors(6, 4, 3, RngFactory(seed).stream("s"))

    def test_rotation_sequence_and_latest(self):
        store = SnapshotStore()
        first = store.rotate(self._factors(0), 0.0, 0, 0)
        second = store.rotate(self._factors(1), 1.0, 10, 100)
        assert (first.seq, second.seq) == (0, 1)
        assert store.latest is second
        assert store.rotations == 2

    def test_snapshots_are_immutable_and_decoupled(self):
        store = SnapshotStore()
        factors = self._factors()
        snapshot = store.rotate(factors, 0.0, 0, 0)
        factors.w[0, 0] = 123.0  # later training must not leak in
        assert snapshot.model.factors.w[0, 0] != 123.0
        with pytest.raises(ValueError):
            snapshot.model.factors.w[0, 0] = 1.0

    def test_eviction_keeps_newest(self):
        store = SnapshotStore(max_keep=2)
        for i in range(5):
            store.rotate(self._factors(i), float(i), i, i)
        assert len(store) == 2
        assert [s.seq for s in store.snapshots] == [3, 4]
        assert store.latest.seq == 4

    def test_empty_store_raises(self):
        with pytest.raises(DataError, match="empty"):
            SnapshotStore().latest

    def test_validation(self):
        with pytest.raises(ConfigError):
            SnapshotStore(max_keep=0)


class TestPrequentialTrace:
    def test_rmse_and_window(self):
        trace = PrequentialTrace()
        for i, (predicted, actual) in enumerate(
            [(1.0, 0.0), (2.0, 2.0), (3.0, 2.0)]
        ):
            trace.score(float(i), i + 1, predicted, actual)
        assert trace.rmse() == pytest.approx(np.sqrt((1 + 0 + 1) / 3))
        assert trace.windowed_rmse(2) == pytest.approx(np.sqrt(0.5))

    def test_cold_counting(self):
        trace = PrequentialTrace()
        trace.score([0.0, 1.0], [1, 2], [0.0, 0.0], [3.0, 4.0], [True, True])
        assert trace.cold == 2 and trace.scored == 0
        trace.score([2.0, 3.0], [3, 4], [9.0, 2.5], [1.0, 2.0], [True, False])
        assert trace.cold == 3 and trace.scored == 1
        assert trace.predicted.tolist() == [2.5]
        assert trace.arrivals.tolist() == [4]

    def test_empty_trace_raises(self):
        with pytest.raises(DataError):
            PrequentialTrace().rmse()


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
class TestRecommender:
    def _store(self):
        store = SnapshotStore()
        store.rotate(
            repro.init_factors(6, 4, 3, RngFactory(0).stream("s")), 0.0, 0, 0
        )
        return store

    def test_serves_and_caches(self):
        recommender = Recommender(self._store())
        first = recommender.recommend(1, top_n=2)
        second = recommender.recommend(1, top_n=2)
        assert first == second
        best = first[0][0]
        masked = recommender.recommend(1, top_n=2, exclude=np.array([best]))
        assert best not in [item for item, _ in masked]

    def test_rotation_invalidates_cache(self):
        store = self._store()
        recommender = Recommender(store)
        stale = recommender.recommend(1, top_n=2)
        store.rotate(
            repro.init_factors(6, 4, 3, RngFactory(9).stream("s")), 1.0, 5, 50
        )
        fresh = recommender.recommend(1, top_n=2)
        assert recommender.serving_seq == 1
        assert stale != fresh  # different factors, different ranking/scores

    def test_cold_start_means_are_lazy_and_per_snapshot(self):
        store = self._store()
        snapshot = store.latest
        assert "mean_rows" not in vars(snapshot)  # rotate() computed nothing
        recommender = Recommender(store)
        recommender.predict(99, 99)
        w_mean, h_mean = vars(snapshot)["mean_rows"]
        assert np.array_equal(w_mean, snapshot.model.factors.w.mean(axis=0))
        assert np.array_equal(h_mean, snapshot.model.factors.h.mean(axis=0))
        recommender.recommend(99, top_n=2)
        assert vars(snapshot)["mean_rows"][0] is w_mean  # memoised, not redone

    def test_cold_user_and_item_mean_fallback(self):
        recommender = Recommender(self._store())
        result = recommender.recommend(99, top_n=2)
        assert len(result) == 2
        assert np.isfinite(recommender.predict(99, 0))
        assert np.isfinite(recommender.predict(0, 99))

    def test_validation(self):
        with pytest.raises(ConfigError, match="top_n"):
            Recommender(self._store()).recommend(0, top_n=0)


# ----------------------------------------------------------------------
# fit_stream facade
# ----------------------------------------------------------------------
class TestFitStream:
    def _run(self, replay, **kwargs):
        defaults = dict(
            hyper=HYPER,
            run=RunConfig(seed=5),
            warmup_epochs=3,
            train_every=25,
            epochs_per_train=1,
            snapshot_every=100,
        )
        defaults.update(kwargs)
        return repro.fit_stream(replay, **defaults)

    def test_stream_result_shape(self, replay):
        result = self._run(replay)
        assert result.algorithm == "NOMAD" and result.engine == "dynamic"
        assert result.arrivals == replay.n_events
        assert result.new_users > 0 and result.new_items > 0
        assert result.snapshots.rotations >= 2
        assert result.prequential.scored + result.prequential.cold == (
            result.arrivals
        )
        assert result.arrivals_per_second > 0
        assert len(result.final.trace) == result.snapshots.rotations
        assert result.final.timing.updates == result.final.raw.total_updates
        summary = result.summary()
        assert "arrivals" in summary and "dynamic" in summary

    def test_stream_learns(self, replay):
        """The per-rotation RMSE against the growing dataset improves."""
        result = self._run(replay)
        records = result.final.trace.records
        assert records[-1].rmse < records[0].rmse

    def test_streamed_model_close_to_static_retrain(self, tiny_matrix):
        """Acceptance: the streamed model lands within 5% of a static
        retrain (the standard paper-schedule recipe) given the same
        total data and sweep budget, without ever re-partitioning."""
        stream = ReplayStream(
            tiny_matrix, warmup_fraction=0.5, holdout_rows=4, holdout_cols=2,
            seed=11,
        )
        warmup_epochs, train_every, final_epochs = 4, 10, 30
        result = repro.fit_stream(
            stream, hyper=HYPER, run=RunConfig(seed=5),
            warmup_epochs=warmup_epochs, train_every=train_every,
            epochs_per_train=1, final_epochs=final_epochs,
            snapshot_every=100,
        )
        combined = _all_ratings(stream)
        dynamic_rmse = rmse_of(result.final.factors, combined)
        # Static retrain: the same worker count and total sweep count,
        # cold-started on the full data with the standard (uncapped)
        # paper schedule — the recipe every static engine runs.
        sweeps = (
            warmup_epochs + stream.n_events // train_every + final_epochs
        )
        static = DynamicNomad(combined, 2, HYPER, RunConfig(seed=5))
        static.train(sweeps)
        static_rmse = rmse_of(static.factors, combined)
        assert dynamic_rmse <= static_rmse * 1.05

    def test_count_cap_keeps_warm_rows_plastic(self, tiny_matrix):
        """The streaming step-size floor is what lets arrivals train in:
        with the paper's unbounded decay the streamed model ends up
        measurably worse on the grown dataset."""
        def run(count_cap):
            stream = ReplayStream(
                tiny_matrix, warmup_fraction=0.5, holdout_rows=4,
                holdout_cols=2, seed=11,
            )
            result = repro.fit_stream(
                stream, hyper=HYPER, run=RunConfig(seed=5), warmup_epochs=4,
                train_every=10, epochs_per_train=1, final_epochs=10,
                snapshot_every=100, count_cap=count_cap,
            )
            return rmse_of(result.final.factors, _all_ratings(stream))

        assert run(8) < run(None)

    def test_final_factors_digest_is_pinned(self, replay):
        """Bit-identity across the column-store rewrite: this digest was
        taken on the list-of-lists trainer (commit a2392b5).  A change
        that reorders updates or routing draws moves it; one that only
        makes the same updates faster does not.  The interpreted
        reference trains the same bits as the compiled kernel, so both
        backends are held to it (``cext`` where a toolchain exists)."""
        for backend in ["list"] + (["cext"] if cext_available() else []):
            result = self._run(
                replay, run=RunConfig(seed=5, kernel_backend=backend),
                n_workers=3, final_epochs=2, count_cap=3,
            )
            factors = result.final.factors
            digest = hashlib.sha256(
                factors.w.tobytes() + factors.h.tobytes()
            ).hexdigest()
            assert result.final.timing.updates == 8030, backend
            assert result.prequential.rmse() == 1.1192242970653934, backend
            assert digest == (
                "77d5df21bdfa73e15a313a14b4baa06e"
                "5619006e58a53bbcc702a85a01ab4cfe"
            ), backend

    def test_durable_prequential_file_is_pinned(self, replay, tmp_path):
        """The ``prequential.jsonl`` a durable trace writes over a stream
        with cold arrivals: scored lines and ``{"cold": 1}`` markers in
        arrival order, byte for byte, on both backends."""
        from repro.serve import DurablePrequentialTrace

        for backend in ["list"] + (["cext"] if cext_available() else []):
            root = tmp_path / backend
            trace = DurablePrequentialTrace(str(root))
            result = self._run(
                replay, run=RunConfig(seed=5, kernel_backend=backend),
                n_workers=3, final_epochs=2, count_cap=3, prequential=trace,
            )
            trace.close()
            assert result.prequential.cold > 0, backend
            data = (root / "prequential.jsonl").read_bytes()
            assert data.count(b'{"cold": 1}\n') == result.prequential.cold
            assert hashlib.sha256(data).hexdigest() == (
                "17597d223baf58573ba398461a54502e"
                "fc33eb86472b46cb266da8a0375c1d9e"
            ), backend

    @pytest.mark.parametrize("backend", KERNEL_BACKENDS)
    def test_result_does_not_depend_on_where_blocks_are_cut(
        self, replay, backend
    ):
        """fit_stream cuts each block at its train and snapshot points,
        so the same arrivals in blocks of any size train the same bits,
        score the same prequential trace and rotate at the same
        arrivals."""
        outcomes = []
        for size in (None, 1, 7, 37):
            store = SnapshotStore(max_keep=64)
            result = self._run(
                Reblocked(replay, size),
                run=RunConfig(seed=5, kernel_backend=backend),
                train_every=10, snapshot_every=45, store=store,
            )
            assert len(store) == store.rotations > 5
            factors = result.final.factors
            trace = result.prequential
            outcomes.append((
                factors.w.tobytes() + factors.h.tobytes(),
                [column.tobytes() for column in (
                    trace.times, trace.arrivals, trace.predicted,
                    trace.actual,
                )],
                trace.cold,
                [snapshot.arrivals_seen for snapshot in store.snapshots],
            ))
        assert outcomes[0][2] > 0
        assert all(outcome == outcomes[0] for outcome in outcomes[1:])

    def test_final_epochs_zero_trains_the_last_arrivals(self, replay):
        """With no convergence phase, a stream that ends off the
        ``train_every`` cadence still trains its last arrivals before
        the closing rotation: every rating held has been updated."""
        result = self._run(replay, train_every=60, final_epochs=0)
        assert result.arrivals % 60 != 0
        dynamic = result.final.raw
        counts = np.concatenate([store.counts for store in dynamic._stores])
        assert counts.size == replay.warmup.nnz + result.arrivals
        assert counts.min() > 0
        assert result.snapshots.latest.arrivals_seen == result.arrivals

    def test_recommender_round_trip(self, replay):
        result = self._run(replay)
        recommender = result.recommender()
        recs = recommender.recommend(0, top_n=3)
        assert len(recs) == 3
        assert recommender.serving_seq == result.snapshots.latest.seq

    def test_final_model_covers_new_entities(self, replay):
        result = self._run(replay)
        model = result.snapshots.latest.model
        assert model.n_users == result.final.raw.n_users
        assert model.n_users > replay.warmup.n_rows

    def test_test_matrix_drives_trace(self, tiny_matrix, replay):
        result = self._run(replay, test=tiny_matrix)
        assert np.isfinite(result.final.trace.final_rmse())

    def test_unsupported_pairs_rejected(self, replay):
        """fit_stream runs one trainer; there is no pair to choose."""
        with pytest.raises(TypeError, match="algorithm"):
            repro.fit_stream(replay, algorithm="dsgd")
        with pytest.raises(TypeError, match="engine"):
            repro.fit_stream(replay, engine="threaded")

    def test_bad_stream_rejected(self, tiny_matrix):
        with pytest.raises(ConfigError, match="stream"):
            repro.fit_stream(tiny_matrix)

    def test_bad_cadence_rejected(self, replay):
        with pytest.raises(ConfigError, match="train_every"):
            self._run(replay, train_every=0)
        with pytest.raises(ConfigError, match="warmup_epochs"):
            self._run(replay, warmup_epochs=-1)

    def test_unknown_engine_kwargs_rejected(self, replay):
        with pytest.raises(TypeError, match="transport"):
            self._run(replay, transport="tcp")

    def test_max_updates_rejected(self, replay):
        """Regression: a budget was silently ignored (a 10-update budget
        applied every update the cadence asked for)."""
        with pytest.raises(ConfigError, match="max_updates"):
            self._run(replay, run=RunConfig(max_updates=10, seed=1))

    def test_diverged_stream_stops_at_the_last_finite_snapshot(self, replay):
        """Regression: one finite but absurd arrival drove the factors to
        inf/NaN, and every later snapshot served ``nan`` predictions and
        empty recommendations with no error.  Now the rotation that
        would publish them raises, and the store keeps serving the last
        finite snapshot."""
        poisoned_at = 150

        class Poisoned:
            warmup = replay.warmup
            n_events = replay.n_events

            def blocks(self):
                (block,) = replay.blocks()
                values = block.values.copy()
                values[poisoned_at - 1] = 1e300
                yield block._replace(values=values)

        store = SnapshotStore()
        with pytest.raises(DivergenceError, match="diverged"):
            self._run(Poisoned(), store=store)
        # Rotations at warm-up end and at arrival 100; the one at 200,
        # after the poisoned arrival trained in, was refused.
        assert store.latest.seq == store.rotations - 1 == 1
        assert store.latest.arrivals_seen == 100
        for snapshot in store.snapshots:
            factors = snapshot.model.factors
            assert np.isfinite(factors.w).all()
            assert np.isfinite(factors.h).all()
        recommender = Recommender(store)
        assert np.isfinite(recommender.predict(0, 0))
        assert len(recommender.recommend(0, top_n=3)) == 3

    def test_diverged_warm_up_publishes_nothing(self, replay):
        """A step size that diverges during warm-up leaves the store
        empty: no snapshot ever held the non-finite model."""
        store = SnapshotStore()
        with pytest.raises(DivergenceError, match="diverged"):
            self._run(replay, hyper=HYPER.with_(alpha=5.0), store=store)
        assert len(store) == 0 and store.rotations == 0
