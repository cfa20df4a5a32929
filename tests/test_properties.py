"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.serializability import UpdateEvent, is_serializable
from repro.datasets.distributions import degrees_to_pair_sample
from repro.datasets.ratings import RatingMatrix, train_test_split
from repro.linalg.backends import ListBackend
from repro.partition.partitioners import (
    partition_rows_equal_count,
    partition_rows_equal_ratings,
)
from repro.rng import RngFactory
from repro.schedules.step_size import NomadSchedule
from repro.simulator.engine import Simulator

LIST = ListBackend()

# Simulation-heavy modules draw from seeded numpy generators inside the
# strategies; function-scoped fixtures are not reused across examples.
RELAXED = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def rating_matrices(draw):
    """Random small rating matrices with at least one entry per row/col."""
    n_rows = draw(st.integers(min_value=2, max_value=20))
    n_cols = draw(st.integers(min_value=2, max_value=20))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = np.random.default_rng(seed)
    density = draw(st.floats(min_value=0.1, max_value=0.6))
    dense = rng.random((n_rows, n_cols))
    mask = rng.random((n_rows, n_cols)) < density
    # guarantee coverage
    for i in range(n_rows):
        mask[i, rng.integers(0, n_cols)] = True
    for j in range(n_cols):
        mask[rng.integers(0, n_rows), j] = True
    rows, cols = np.nonzero(mask)
    return RatingMatrix(n_rows, n_cols, rows, cols, dense[rows, cols])


class TestPartitionProperties:
    @RELAXED
    @given(
        n_rows=st.integers(min_value=1, max_value=500),
        p=st.integers(min_value=1, max_value=32),
    )
    def test_equal_count_partition_is_exact(self, n_rows, p):
        if n_rows < p:
            return
        sets = partition_rows_equal_count(n_rows, p)
        combined = np.concatenate(sets)
        assert len(sets) == p
        assert sorted(combined.tolist()) == list(range(n_rows))
        sizes = [s.size for s in sets]
        assert max(sizes) - min(sizes) <= 1

    @RELAXED
    @given(matrix=rating_matrices(), p=st.integers(min_value=1, max_value=8))
    def test_equal_ratings_partition_covers(self, matrix, p):
        if matrix.n_rows < p:
            return
        sets = partition_rows_equal_ratings(matrix, p)
        combined = np.concatenate(sets)
        assert sorted(combined.tolist()) == list(range(matrix.n_rows))
        assert all(s.size >= 1 for s in sets)


class TestShardProperties:
    @RELAXED
    @given(matrix=rating_matrices(), p=st.integers(min_value=1, max_value=6))
    def test_shards_preserve_every_rating(self, matrix, p):
        if matrix.n_rows < p:
            return
        partition = partition_rows_equal_count(matrix.n_rows, p)
        shards = matrix.shard_by_rows(partition)
        assert sum(shard.nnz for shard in shards) == matrix.nnz
        for j in range(matrix.n_cols):
            users_global = set(matrix.users_of_item(j)[0].tolist())
            users_sharded = set()
            for shard in shards:
                users_sharded |= set(shard.column(j)[0].tolist())
            assert users_sharded == users_global


class TestSplitProperties:
    @RELAXED
    @given(
        matrix=rating_matrices(),
        fraction=st.floats(min_value=0.1, max_value=0.5),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_split_partitions_ratings(self, matrix, fraction, seed):
        expected_test = int(round(matrix.nnz * fraction))
        if expected_test == 0 or expected_test == matrix.nnz:
            return
        rng = RngFactory(seed).stream("prop-split")
        train, test = train_test_split(matrix, fraction, rng)
        assert train.nnz + test.nnz == matrix.nnz
        train_pairs = set(zip(train.rows.tolist(), train.cols.tolist()))
        test_pairs = set(zip(test.rows.tolist(), test.cols.tolist()))
        assert not train_pairs & test_pairs
        all_pairs = set(zip(matrix.rows.tolist(), matrix.cols.tolist()))
        assert train_pairs | test_pairs == all_pairs


class TestScheduleProperties:
    @RELAXED
    @given(
        alpha=st.floats(min_value=1e-6, max_value=10.0),
        beta=st.floats(min_value=0.0, max_value=10.0),
        t=st.integers(min_value=0, max_value=10**6),
    )
    def test_nomad_schedule_positive_and_bounded(self, alpha, beta, t):
        step = NomadSchedule(alpha, beta).step(t)
        assert 0 < step <= alpha

    @RELAXED
    @given(
        alpha=st.floats(min_value=1e-6, max_value=10.0),
        beta=st.floats(min_value=1e-6, max_value=10.0),
    )
    def test_nomad_schedule_strictly_decreasing(self, alpha, beta):
        schedule = NomadSchedule(alpha, beta)
        previous = schedule.step(0)
        for t in (1, 2, 5, 10, 100):
            current = schedule.step(t)
            assert current < previous
            previous = current


class TestKernelProperties:
    @RELAXED
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        k=st.integers(min_value=1, max_value=12),
        n=st.integers(min_value=1, max_value=30),
    )
    def test_fast_and_ndarray_kernels_agree(self, seed, k, n):
        """The reference over ndarray factors and over nested lists:
        the same bits."""
        rng = np.random.default_rng(seed)
        m = 10
        w0 = rng.random((m, k))
        h0 = rng.random(k)
        rows = rng.integers(0, m, size=n)
        vals = rng.random(n)

        w_nd, h_nd = w0.copy(), h0.copy()
        counts_nd = np.zeros(n, dtype=np.int64)
        LIST.process_column(w_nd, h_nd, rows, vals, counts_nd, 0.1, 0.05, 0.02)

        w_l, h_l = w0.tolist(), h0.tolist()
        counts_l = [0] * n
        LIST.process_column(
            w_l, h_l, rows.tolist(), vals.tolist(), counts_l, 0.1, 0.05, 0.02
        )
        assert np.array_equal(np.asarray(w_l), w_nd)
        assert np.array_equal(np.asarray(h_l), h_nd)

    @RELAXED
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_update_norm_bounded_with_regularization(self, seed):
        """With lambda > 0 and bounded data, factors cannot blow up in one
        well-conditioned pass."""
        rng = np.random.default_rng(seed)
        w = rng.random((5, 3)).tolist()
        h = rng.random(3).tolist()
        rows = rng.integers(0, 5, size=20).tolist()
        vals = (rng.random(20) * 2 - 1).tolist()
        LIST.process_column(w, h, rows, vals, [0] * 20, 0.01, 0.0, 0.1)
        assert np.abs(np.asarray(w)).max() < 10
        assert np.abs(np.asarray(h)).max() < 10


class TestEventQueueProperties:
    @RELAXED
    @given(times=st.lists(st.floats(min_value=0, max_value=100), min_size=1,
                          max_size=50))
    def test_pops_in_nondecreasing_time(self, times):
        sim = Simulator()
        fired = []
        for t in times:
            sim.schedule_at(t, lambda: fired.append(sim.now))
        sim.run()
        assert fired == sorted(times)
        assert sim.events_fired == len(times)

    @RELAXED
    @given(n=st.integers(min_value=1, max_value=50))
    def test_equal_times_fifo(self, n):
        sim = Simulator()
        fired = []
        for index in range(n):
            sim.schedule_at(1.0, fired.append, index)
        sim.run()
        assert fired == list(range(n))


class TestSerializabilityProperties:
    @RELAXED
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        n_events=st.integers(min_value=1, max_value=200),
        n_rows=st.integers(min_value=1, max_value=10),
        n_cols=st.integers(min_value=1, max_value=10),
    )
    def test_fresh_logs_always_serializable(self, seed, n_events, n_rows, n_cols):
        """Any log of fresh (owner-computes) reads admits a serial order —
        commit order itself is one."""
        rng = np.random.default_rng(seed)
        events = [
            UpdateEvent(
                seq=i,
                worker=int(rng.integers(0, 4)),
                row=int(rng.integers(0, n_rows)),
                col=int(rng.integers(0, n_cols)),
                count=i,
            )
            for i in range(n_events)
        ]
        assert is_serializable(events)


class TestPairSampleProperties:
    @RELAXED
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        n_rows=st.integers(min_value=1, max_value=30),
        n_cols=st.integers(min_value=1, max_value=30),
    )
    def test_pairs_unique_and_in_range(self, seed, n_rows, n_cols):
        rng = np.random.default_rng(seed)
        row_degrees = rng.integers(1, 5, size=n_rows)
        col_degrees = rng.integers(1, 5, size=n_cols)
        rows, cols = degrees_to_pair_sample(row_degrees, col_degrees, rng)
        assert rows.size == cols.size > 0
        assert rows.min() >= 0 and rows.max() < n_rows
        assert cols.min() >= 0 and cols.max() < n_cols
        assert len(set(zip(rows.tolist(), cols.tolist()))) == rows.size
