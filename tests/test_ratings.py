"""Tests for the RatingMatrix data structure and shards."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.ratings import RatingMatrix, Shard, train_test_split
from repro.errors import DataError
from repro.rng import RngFactory


def make_matrix():
    #     c0   c1   c2
    # r0  1.0       3.0
    # r1       2.0
    # r2  4.0  5.0
    return RatingMatrix(
        3, 3,
        rows=np.array([0, 0, 1, 2, 2]),
        cols=np.array([0, 2, 1, 0, 1]),
        vals=np.array([1.0, 3.0, 2.0, 4.0, 5.0]),
    )


class TestConstruction:
    def test_basic_properties(self):
        matrix = make_matrix()
        assert matrix.shape == (3, 3)
        assert matrix.nnz == 5
        assert 0 < matrix.density < 1

    def test_sorted_canonical_order(self):
        matrix = RatingMatrix(
            2, 2,
            rows=np.array([1, 0]),
            cols=np.array([0, 1]),
            vals=np.array([9.0, 8.0]),
        )
        assert matrix.rows.tolist() == [0, 1]
        assert matrix.vals.tolist() == [8.0, 9.0]

    def test_rejects_duplicates(self):
        with pytest.raises(DataError, match="duplicate"):
            RatingMatrix(
                2, 2,
                rows=np.array([0, 0]),
                cols=np.array([1, 1]),
                vals=np.array([1.0, 2.0]),
            )

    def test_rejects_out_of_range(self):
        with pytest.raises(DataError):
            RatingMatrix(2, 2, np.array([2]), np.array([0]), np.array([1.0]))
        with pytest.raises(DataError):
            RatingMatrix(2, 2, np.array([0]), np.array([5]), np.array([1.0]))

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            RatingMatrix(2, 2, np.array([]), np.array([]), np.array([]))

    def test_rejects_nonfinite(self):
        with pytest.raises(DataError):
            RatingMatrix(
                2, 2, np.array([0]), np.array([0]), np.array([np.nan])
            )

    def test_rejects_bad_shape(self):
        with pytest.raises(DataError):
            RatingMatrix(0, 2, np.array([0]), np.array([0]), np.array([1.0]))

    def test_arrays_read_only(self):
        matrix = make_matrix()
        with pytest.raises(ValueError):
            matrix.vals[0] = 99.0

    def test_equality(self):
        assert make_matrix() == make_matrix()
        other = RatingMatrix(3, 3, np.array([0]), np.array([0]), np.array([7.0]))
        assert make_matrix() != other


class TestViews:
    def test_items_of_user(self):
        matrix = make_matrix()
        items, vals = matrix.items_of_user(0)
        assert items.tolist() == [0, 2]
        assert vals.tolist() == [1.0, 3.0]

    def test_users_of_item(self):
        matrix = make_matrix()
        users, vals = matrix.users_of_item(1)
        assert users.tolist() == [1, 2]
        assert vals.tolist() == [2.0, 5.0]

    def test_empty_row_allowed_after_select(self):
        matrix = make_matrix()
        items, vals = matrix.items_of_user(1)
        assert items.tolist() == [1]

    def test_counts(self):
        matrix = make_matrix()
        assert matrix.row_counts().tolist() == [2, 1, 2]
        assert matrix.col_counts().tolist() == [2, 2, 1]

    def test_counts_sum_to_nnz(self):
        matrix = make_matrix()
        assert matrix.row_counts().sum() == matrix.nnz
        assert matrix.col_counts().sum() == matrix.nnz


class TestSelect:
    def test_select_subset(self):
        matrix = make_matrix()
        mask = np.zeros(matrix.nnz, dtype=bool)
        mask[:2] = True
        subset = matrix.select(mask)
        assert subset.nnz == 2
        assert subset.shape == matrix.shape

    def test_select_empty_rejected(self):
        matrix = make_matrix()
        with pytest.raises(DataError):
            matrix.select(np.zeros(matrix.nnz, dtype=bool))

    def test_select_wrong_length(self):
        matrix = make_matrix()
        with pytest.raises(DataError):
            matrix.select(np.ones(3, dtype=bool))


class TestWithAppended:
    """Delta composition: appended arrivals must be indistinguishable
    from building the combined matrix from scratch."""

    def _scratch(self, matrix, rows, cols, vals, n_rows=None, n_cols=None):
        all_rows = np.concatenate([matrix.rows, np.asarray(rows)])
        all_cols = np.concatenate([matrix.cols, np.asarray(cols)])
        all_vals = np.concatenate([matrix.vals, np.asarray(vals)])
        if n_rows is None:
            n_rows = max(matrix.n_rows, int(all_rows.max()) + 1)
        if n_cols is None:
            n_cols = max(matrix.n_cols, int(all_cols.max()) + 1)
        return RatingMatrix(n_rows, n_cols, all_rows, all_cols, all_vals)

    def _assert_views_equal(self, a, b):
        assert a.shape == b.shape and a.nnz == b.nnz
        assert a == b  # canonical COO triplets
        for i in range(a.n_rows):  # CSR view
            items_a, vals_a = a.items_of_user(i)
            items_b, vals_b = b.items_of_user(i)
            assert np.array_equal(items_a, items_b)
            assert np.array_equal(vals_a, vals_b)
        for j in range(a.n_cols):  # CSC view
            users_a, vals_a = a.users_of_item(j)
            users_b, vals_b = b.users_of_item(j)
            assert np.array_equal(users_a, users_b)
            assert np.array_equal(vals_a, vals_b)

    def test_append_within_shape(self):
        matrix = make_matrix()
        rows, cols, vals = [1, 2], [0, 2], [7.0, 8.0]
        combined = matrix.with_appended(rows, cols, vals)
        assert combined.shape == matrix.shape
        self._assert_views_equal(
            combined, self._scratch(matrix, rows, cols, vals)
        )

    def test_append_brand_new_row_and_col(self):
        matrix = make_matrix()
        # User 4 (skipping 3) and item 3 did not exist before.
        rows, cols, vals = [4, 0], [1, 3], [2.5, 9.0]
        combined = matrix.with_appended(rows, cols, vals)
        assert combined.shape == (5, 4)
        self._assert_views_equal(
            combined, self._scratch(matrix, rows, cols, vals)
        )
        # The never-rated row 3 exists with an empty CSR slice.
        items, vals_ = combined.items_of_user(3)
        assert items.size == 0 and vals_.size == 0

    def test_append_empty_is_identity(self):
        matrix = make_matrix()
        combined = matrix.with_appended([], [], [])
        self._assert_views_equal(combined, matrix)

    def test_explicit_shape_grows_further(self):
        matrix = make_matrix()
        combined = matrix.with_appended([1], [2], [1.5], n_rows=10, n_cols=7)
        assert combined.shape == (10, 7)
        assert combined.col_counts().size == 7
        assert combined.row_counts().size == 10

    def test_explicit_shape_too_small_rejected(self):
        matrix = make_matrix()
        with pytest.raises(DataError, match="n_rows"):
            matrix.with_appended([5], [0], [1.0], n_rows=4)
        with pytest.raises(DataError, match="n_cols"):
            matrix.with_appended([0], [5], [1.0], n_cols=4)

    def test_duplicate_against_existing_rejected(self):
        matrix = make_matrix()
        with pytest.raises(DataError, match="duplicate"):
            matrix.with_appended([0], [0], [9.0])

    def test_duplicate_within_arrivals_rejected(self):
        matrix = make_matrix()
        with pytest.raises(DataError, match="duplicate"):
            matrix.with_appended([1, 1], [2, 2], [1.0, 2.0])

    def test_negative_indices_rejected(self):
        matrix = make_matrix()
        with pytest.raises(DataError):
            matrix.with_appended([-1], [0], [1.0])
        with pytest.raises(DataError):
            matrix.with_appended([0], [-1], [1.0])

    def test_randomized_composition_matches_scratch(self):
        """Random split of a random matrix: base + delta == whole."""
        rng = RngFactory(7).stream("append")
        n_rows, n_cols = 12, 9
        dense = rng.random((n_rows, n_cols))
        dense[dense < 0.6] = 0.0
        rows, cols = np.nonzero(dense)
        whole = RatingMatrix(n_rows, n_cols, rows, cols, dense[rows, cols])
        keep = rng.random(whole.nnz) < 0.5
        keep[0] = True  # base must be non-empty
        base_rows = whole.rows[keep]
        base_cols = whole.cols[keep]
        base = RatingMatrix(
            n_rows, n_cols, base_rows, base_cols, whole.vals[keep]
        )
        combined = base.with_appended(
            whole.rows[~keep], whole.cols[~keep], whole.vals[~keep]
        )
        self._assert_views_equal(combined, whole)


class TestShards:
    def test_shard_partition(self):
        matrix = make_matrix()
        partition = [np.array([0, 1]), np.array([2])]
        shards = matrix.shard_by_rows(partition)
        assert len(shards) == 2
        assert shards[0].nnz + shards[1].nnz == matrix.nnz

    def test_shard_columns(self):
        matrix = make_matrix()
        shards = matrix.shard_by_rows([np.array([0, 1]), np.array([2])])
        users, vals = shards[0].column(0)
        assert users.tolist() == [0]
        users, vals = shards[1].column(0)
        assert users.tolist() == [2]
        assert vals.tolist() == [4.0]

    def test_shard_column_nnz_consistency(self):
        matrix = make_matrix()
        shards = matrix.shard_by_rows([np.array([0, 1]), np.array([2])])
        counts = sum(np.diff(shard.csc()[0]) for shard in shards)
        for j in range(matrix.n_cols):
            assert counts[j] == matrix.users_of_item(j)[0].size

    def test_shard_column_bounds_align(self):
        matrix = make_matrix()
        (shard,) = matrix.shard_by_rows([np.arange(3)])
        counts = np.diff(shard.csc()[0])
        for j in range(matrix.n_cols):
            lo, hi = shard.column_bounds(j)
            assert hi - lo == counts[j]

    @pytest.mark.parametrize("nnz", [0, 1, 40, 400])
    def test_csc_matches_counted_pointers(self, nnz):
        """csc() is (indptr, users, ratings) views over the shard's own
        storage, and indptr equals pointers counted one rating at a time
        (the np.add.at construction it replaced) — empty columns, a
        trailing run of them, and an empty shard included."""
        rng = np.random.default_rng(nnz)
        n_rows, n_cols = 30, 25
        cells = rng.choice(n_rows * (n_cols - 5), size=nnz, replace=False)
        rows, cols = cells // (n_cols - 5), cells % (n_cols - 5)
        vals = rng.random(nnz)
        shard = Shard(0, n_cols, rows, cols, vals)
        indptr, users, ratings = shard.csc()
        expected = np.zeros(n_cols + 1, dtype=np.int64)
        np.add.at(expected, cols + 1, 1)
        np.cumsum(expected, out=expected)
        assert indptr.dtype == np.int64
        assert indptr.tolist() == expected.tolist()
        assert users.size == ratings.size == shard.nnz == nnz
        for j in range(n_cols):
            col_users, col_ratings = shard.column(j)
            lo, hi = shard.column_bounds(j)
            assert np.shares_memory(col_users, users) or lo == hi
            assert users[lo:hi].tolist() == col_users.tolist()
            assert ratings[lo:hi].tolist() == col_ratings.tolist()
            order = np.argsort(rows[cols == j])
            assert col_users.tolist() == rows[cols == j][order].tolist()
            assert col_ratings.tolist() == vals[cols == j][order].tolist()

    def test_overlapping_partition_rejected(self):
        matrix = make_matrix()
        with pytest.raises(DataError, match="overlap"):
            matrix.shard_by_rows([np.array([0, 1]), np.array([1, 2])])

    def test_incomplete_partition_rejected(self):
        matrix = make_matrix()
        with pytest.raises(DataError, match="cover"):
            matrix.shard_by_rows([np.array([0]), np.array([2])])

    @pytest.mark.parametrize(
        "partition",
        [
            [np.array([0, 1]), np.array([-1])],
            [np.array([0.7, 1.2]), np.array([2])],
            [np.array([0, 1]), np.array([2, 3])],
        ],
        ids=["negative", "float", "out-of-range"],
    )
    def test_bad_partition_ids_rejected(self, partition):
        matrix = make_matrix()
        with pytest.raises(DataError):
            matrix.shard_by_rows(partition)


class TestTrainTestSplit:
    def test_split_sizes(self, rng_factory=None):
        matrix = make_matrix()
        rng = RngFactory(0).stream("split")
        train, test = train_test_split(matrix, 0.4, rng)
        assert train.nnz + test.nnz == matrix.nnz
        assert test.nnz == 2

    def test_split_disjoint(self):
        matrix = make_matrix()
        rng = RngFactory(0).stream("split")
        train, test = train_test_split(matrix, 0.4, rng)
        train_pairs = set(zip(train.rows.tolist(), train.cols.tolist()))
        test_pairs = set(zip(test.rows.tolist(), test.cols.tolist()))
        assert not train_pairs & test_pairs

    def test_split_deterministic(self):
        matrix = make_matrix()
        a = train_test_split(matrix, 0.4, RngFactory(1).stream("s"))
        b = train_test_split(matrix, 0.4, RngFactory(1).stream("s"))
        assert a[0] == b[0]
        assert a[1] == b[1]

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.5, 2.0])
    def test_bad_fraction(self, fraction):
        with pytest.raises(DataError):
            train_test_split(make_matrix(), fraction, RngFactory(0).stream("s"))

    def test_degenerate_split_rejected(self):
        tiny = RatingMatrix(
            2, 2, np.array([0, 1]), np.array([0, 1]), np.array([1.0, 2.0])
        )
        with pytest.raises(DataError):
            train_test_split(tiny, 0.01, RngFactory(0).stream("s"))
