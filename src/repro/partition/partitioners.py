"""Row partitions and block grids.

§3.1 of the paper: "the users {1..m} are split into p disjoint sets
I_1..I_p which are of approximately equal size", with a footnote offering
the alternative of equalizing *ratings* instead of rows.  Both strategies
are implemented.  The block grids reproduce Figure 4's comparison of the
partitioning schemes of DSGD (p×p), DSGD++ (p×2p), FPSGD** (p'×p' with
p' > p) and NOMAD (p×n, i.e. single-column blocks).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, DataError
from ..datasets.ratings import RatingMatrix, partition_owner

__all__ = [
    "partition_rows_equal_count",
    "partition_rows_equal_ratings",
    "partition_worker_triplets",
    "partition_range_blocks",
    "BlockGrid",
]


def partition_rows_equal_count(n_rows: int, p: int) -> list[np.ndarray]:
    """Split ``range(n_rows)`` into ``p`` contiguous, near-equal index sets."""
    if p < 1:
        raise ConfigError(f"p must be >= 1, got {p}")
    if n_rows < p:
        raise ConfigError(f"cannot split {n_rows} rows into {p} non-empty sets")
    boundaries = np.linspace(0, n_rows, p + 1).round().astype(np.int64)
    return [np.arange(boundaries[q], boundaries[q + 1]) for q in range(p)]


def partition_rows_equal_ratings(matrix: RatingMatrix, p: int) -> list[np.ndarray]:
    """Split rows into ``p`` contiguous sets of near-equal *rating* counts.

    The alternative strategy of the paper's footnote 1: greedily advance the
    boundary until each set holds ≈ nnz/p ratings.  Contiguity is kept so
    the partition stays cache- and shard-friendly.
    """
    if p < 1:
        raise ConfigError(f"p must be >= 1, got {p}")
    if matrix.n_rows < p:
        raise ConfigError(
            f"cannot split {matrix.n_rows} rows into {p} non-empty sets"
        )
    counts = matrix.row_counts()
    cumulative = np.concatenate([[0], np.cumsum(counts)])
    total = cumulative[-1]
    sets: list[np.ndarray] = []
    start = 0
    for q in range(p):
        if q == p - 1:
            end = matrix.n_rows
        else:
            target = total * (q + 1) / p
            end = int(np.searchsorted(cumulative, target, side="left"))
            # Keep at least one row per set and enough rows for the rest.
            end = max(end, start + 1)
            end = min(end, matrix.n_rows - (p - 1 - q))
        sets.append(np.arange(start, end))
        start = end
    return sets


def partition_worker_triplets(
    matrix: RatingMatrix, p: int
) -> tuple[list[np.ndarray], list[tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """Partition rows by equal ratings and return each worker's COO triplets.

    ``partition[q]`` is worker ``q``'s row set I_q and ``triplets[q]``
    its local ``(rows, cols, vals)`` arrays in CSC order: the shard
    :meth:`RatingMatrix.shard_by_rows` cuts, its column ids expanded.
    The engines take the shards themselves; this COO form feeds
    :class:`~repro.datasets.ratings.Shard`'s triplet constructor.
    """
    partition = partition_rows_equal_ratings(matrix, p)
    triplets = []
    for shard in matrix.shard_by_rows(partition):
        indptr, users, ratings = shard.csc()
        cols = np.repeat(np.arange(matrix.n_cols), np.diff(indptr))
        triplets.append((users, cols, ratings))
    return partition, triplets


def partition_range_blocks(n: int, blocks: int) -> list[np.ndarray]:
    """Split ``range(n)`` into ``blocks`` contiguous near-equal pieces."""
    return partition_rows_equal_count(n, blocks)


class BlockGrid:
    """A row-blocks × col-blocks grid over a rating matrix (Figure 4).

    Materializes, for every (row-block, col-block) cell, the triplet indices
    of the ratings falling inside it.  DSGD uses a p×p grid, DSGD++ p×2p,
    FPSGD** p'×p'; NOMAD's p×n case is handled by
    :meth:`repro.datasets.ratings.RatingMatrix.shard_by_rows` instead since
    single-column blocks collapse to the shard layout.
    """

    def __init__(
        self,
        matrix: RatingMatrix,
        row_sets: list[np.ndarray],
        col_sets: list[np.ndarray],
    ):
        self.matrix = matrix
        row_of = partition_owner(row_sets, matrix.n_rows, "row")
        col_of = partition_owner(col_sets, matrix.n_cols, "col")
        self.row_sets = [np.asarray(s, dtype=np.int64) for s in row_sets]
        self.col_sets = [np.asarray(s, dtype=np.int64) for s in col_sets]
        for kind, sets in (("row", self.row_sets), ("col", self.col_sets)):
            if any(members.size == 0 for members in sets):
                raise DataError(f"{kind} partition contains an empty set")
        self._row_block_of_rating = row_of[matrix.rows]
        self._col_block_of_rating = col_of[matrix.cols]

        # Bucket triplet indices per cell once; lookups are then O(1).
        n_row_blocks, n_col_blocks = len(row_sets), len(col_sets)
        cell_key = (
            self._row_block_of_rating * n_col_blocks + self._col_block_of_rating
        )
        order = np.argsort(cell_key, kind="stable")
        sorted_keys = cell_key[order]
        boundaries = np.searchsorted(
            sorted_keys, np.arange(n_row_blocks * n_col_blocks + 1)
        )
        self._cell_order = order
        self._cell_boundaries = boundaries

    @property
    def n_row_blocks(self) -> int:
        """Number of row blocks."""
        return len(self.row_sets)

    @property
    def n_col_blocks(self) -> int:
        """Number of column blocks."""
        return len(self.col_sets)

    def cell_indices(self, row_block: int, col_block: int) -> np.ndarray:
        """Triplet indices (into the matrix's COO arrays) of one grid cell."""
        if not 0 <= row_block < self.n_row_blocks:
            raise ConfigError(f"row_block {row_block} out of range")
        if not 0 <= col_block < self.n_col_blocks:
            raise ConfigError(f"col_block {col_block} out of range")
        key = row_block * self.n_col_blocks + col_block
        lo = self._cell_boundaries[key]
        hi = self._cell_boundaries[key + 1]
        return self._cell_order[lo:hi]
