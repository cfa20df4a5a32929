"""Tests for partitioners, block grids, and the ownership ledger."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.synthetic import SyntheticSpec, make_low_rank
from repro.errors import ConfigError, DataError, SimulationError
from repro.partition.assignments import OwnershipLedger
from repro.partition.partitioners import (
    BlockGrid,
    partition_range_blocks,
    partition_rows_equal_count,
    partition_rows_equal_ratings,
)
from repro.rng import RngFactory


@pytest.fixture
def matrix():
    spec = SyntheticSpec(n_rows=100, n_cols=40, rank=2, density=0.15)
    return make_low_rank(spec, RngFactory(3).stream("partition"))


class TestEqualCount:
    def test_covers_disjointly(self):
        sets = partition_rows_equal_count(100, 7)
        combined = np.concatenate(sets)
        assert sorted(combined.tolist()) == list(range(100))

    def test_balanced_sizes(self):
        sets = partition_rows_equal_count(100, 7)
        sizes = [s.size for s in sets]
        assert max(sizes) - min(sizes) <= 1

    def test_single_set(self):
        (only,) = partition_rows_equal_count(10, 1)
        assert only.tolist() == list(range(10))

    def test_too_many_sets(self):
        with pytest.raises(ConfigError):
            partition_rows_equal_count(3, 5)

    def test_bad_p(self):
        with pytest.raises(ConfigError):
            partition_rows_equal_count(10, 0)


class TestEqualRatings:
    def test_covers_disjointly(self, matrix):
        sets = partition_rows_equal_ratings(matrix, 4)
        combined = np.concatenate(sets)
        assert sorted(combined.tolist()) == list(range(matrix.n_rows))

    def test_rating_balance_better_than_naive_worst_case(self, matrix):
        sets = partition_rows_equal_ratings(matrix, 4)
        counts = matrix.row_counts()
        loads = [counts[s].sum() for s in sets]
        average = matrix.nnz / 4
        assert max(loads) < 1.5 * average

    def test_all_sets_nonempty(self, matrix):
        sets = partition_rows_equal_ratings(matrix, 10)
        assert all(s.size > 0 for s in sets)

    def test_p_equals_rows(self, matrix):
        sets = partition_rows_equal_ratings(matrix, matrix.n_rows)
        assert all(s.size == 1 for s in sets)


class TestBlockGrid:
    def test_cells_partition_the_ratings(self, matrix):
        grid = BlockGrid(
            matrix,
            partition_range_blocks(matrix.n_rows, 3),
            partition_range_blocks(matrix.n_cols, 4),
        )
        total = sum(
            grid.cell_indices(r, c).size for r in range(3) for c in range(4)
        )
        assert total == matrix.nnz

    def test_cell_indices_consistent(self, matrix):
        grid = BlockGrid(
            matrix,
            partition_range_blocks(matrix.n_rows, 3),
            partition_range_blocks(matrix.n_cols, 4),
        )
        indices = grid.cell_indices(1, 2)
        rows = matrix.rows[indices]
        cols = matrix.cols[indices]
        assert set(rows.tolist()) <= set(grid.row_sets[1].tolist())
        assert set(cols.tolist()) <= set(grid.col_sets[2].tolist())

    def test_out_of_range_cell(self, matrix):
        grid = BlockGrid(
            matrix,
            partition_range_blocks(matrix.n_rows, 2),
            partition_range_blocks(matrix.n_cols, 2),
        )
        with pytest.raises(ConfigError):
            grid.cell_indices(2, 0)
        with pytest.raises(ConfigError):
            grid.cell_indices(0, -1)

    def test_overlapping_sets_rejected(self, matrix):
        with pytest.raises(DataError):
            BlockGrid(
                matrix,
                [np.arange(60), np.arange(50, matrix.n_rows)],
                partition_range_blocks(matrix.n_cols, 2),
            )

    def test_incomplete_sets_rejected(self, matrix):
        with pytest.raises(DataError):
            BlockGrid(
                matrix,
                [np.arange(10)],
                partition_range_blocks(matrix.n_cols, 2),
            )

    def test_empty_set_rejected(self, matrix):
        with pytest.raises(DataError):
            BlockGrid(
                matrix,
                [np.arange(matrix.n_rows), np.array([], dtype=np.int64)],
                partition_range_blocks(matrix.n_cols, 2),
            )


    @pytest.mark.parametrize("axis", ["row", "col"])
    @pytest.mark.parametrize(
        "bad_sets",
        [
            lambda n: [np.arange(n - 1), np.array([-1])],
            lambda n: [np.arange(n // 2) + 0.2, np.arange(n // 2, n)],
            lambda n: [np.arange(n // 2), np.arange(n // 2, n + 1)],
        ],
        ids=["negative", "float", "out-of-range"],
    )
    def test_bad_ids_rejected(self, matrix, axis, bad_sets):
        rows = partition_range_blocks(matrix.n_rows, 2)
        cols = partition_range_blocks(matrix.n_cols, 2)
        if axis == "row":
            rows = bad_sets(matrix.n_rows)
        else:
            cols = bad_sets(matrix.n_cols)
        with pytest.raises(DataError):
            BlockGrid(matrix, rows, cols)


class TestOwnershipLedger:
    def test_acquire_release_cycle(self):
        ledger = OwnershipLedger(n_items=3, n_workers=2)
        ledger.acquire(0, 1)
        assert ledger.owner_of(0) == 1
        ledger.release(0, 1)
        assert ledger.owner_of(0) is None
        assert ledger.transfers == 1

    def test_double_acquire_rejected(self):
        ledger = OwnershipLedger(3, 2)
        ledger.acquire(0, 0)
        with pytest.raises(SimulationError, match="acquired"):
            ledger.acquire(0, 1)

    def test_foreign_release_rejected(self):
        ledger = OwnershipLedger(3, 2)
        ledger.acquire(0, 0)
        with pytest.raises(SimulationError, match="released"):
            ledger.release(0, 1)

    def test_release_in_flight_rejected(self):
        ledger = OwnershipLedger(3, 2)
        with pytest.raises(SimulationError):
            ledger.release(1, 0)

    @staticmethod
    def _resting(owners, n_workers=3):
        ledger = OwnershipLedger(len(owners), n_workers)
        for item, worker in enumerate(owners):
            ledger.acquire(item, worker)
        return ledger

    def test_transfer_many_equals_release_acquire_loop(self):
        items, sources, dests = [3, 0, 2], [1, 0, 2], [0, 0, 1]
        batched = self._resting([0, 1, 2, 1])
        looped = self._resting([0, 1, 2, 1])
        batched.transfer_many(items, sources, dests)
        for item, source, dest in zip(items, sources, dests):
            looped.release(item, source)
            looped.acquire(item, dest)
        assert [batched.owner_of(j) for j in range(4)] == [0, 1, 1, 0]
        assert [looped.owner_of(j) for j in range(4)] == [0, 1, 1, 0]
        assert batched.transfers == looped.transfers == 7
        batched.transfer_many([], [], [])
        assert batched.transfers == 7

    def test_transfer_many_foreign_release_names_first_offender(self):
        ledger = self._resting([0, 1, 2, 1])
        with pytest.raises(
            SimulationError, match="worker 2 released item 1 owned by 1"
        ):
            ledger.transfer_many([0, 1, 3], [0, 2, 0], [1, 0, 2])
        # Nothing was recorded: item 0's valid move did not happen.
        assert ledger.owner_of(0) == 0 and ledger.transfers == 4
        ledger.release(2, 2)
        with pytest.raises(
            SimulationError, match="worker 2 released item 2 owned by None"
        ):
            ledger.transfer_many([2], [2], [0])

    def test_transfer_many_double_acquire_rejected(self):
        ledger = self._resting([0, 1, 2, 1])
        with pytest.raises(
            SimulationError,
            match="item 3 acquired by worker 0 while owned by worker 2",
        ):
            ledger.transfer_many([3, 0, 3], [1, 0, 1], [2, 1, 0])
        assert ledger.owner_of(3) == 1

    def test_transfer_many_worker_out_of_range(self):
        ledger = self._resting([0, 1])
        with pytest.raises(SimulationError, match="worker 3 out of range"):
            ledger.transfer_many([0, 1], [0, 1], [1, 3])
        with pytest.raises(SimulationError, match="worker -1 out of range"):
            ledger.transfer_many([0], [0], [-1])

    def test_worker_out_of_range(self):
        ledger = OwnershipLedger(2, 2)
        with pytest.raises(SimulationError):
            ledger.acquire(0, 5)

    def test_conservation_check_passes(self):
        ledger = OwnershipLedger(2, 2)
        ledger.acquire(0, 0)
        ledger.assert_conserved()

    def test_grow_mints_in_flight_tokens(self):
        ledger = OwnershipLedger(2, 2)
        ledger.acquire(0, 0)
        ledger.grow(4)
        assert ledger.n_items == 4
        assert ledger.owner_of(0) == 0  # existing state preserved
        assert ledger.owner_of(2) is None and ledger.owner_of(3) is None
        ledger.acquire(3, 1)  # new items acquirable like any token
        assert ledger.owner_of(3) == 1
        ledger.assert_conserved()

    def test_grow_is_idempotent_at_same_size(self):
        ledger = OwnershipLedger(3, 2)
        ledger.acquire(1, 0)
        ledger.grow(3)
        assert ledger.n_items == 3
        assert ledger.owner_of(1) == 0

    def test_grow_cannot_shrink(self):
        ledger = OwnershipLedger(3, 2)
        with pytest.raises(SimulationError, match="shrink"):
            ledger.grow(2)

    def test_bad_construction(self):
        with pytest.raises(SimulationError):
            OwnershipLedger(0, 1)
        with pytest.raises(SimulationError):
            OwnershipLedger(1, 0)
