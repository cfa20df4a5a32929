"""Sparse rating matrices and the per-worker shard layout used by NOMAD.

The central type is :class:`RatingMatrix`, an immutable COO triplet store
with lazily built CSR (by-user) and CSC (by-item) index views.  NOMAD and the
block-based baselines never iterate the raw triplets: they work from

* :meth:`RatingMatrix.items_of_user` / :meth:`RatingMatrix.users_of_item` —
  the Ω_i / Ω̄_j sets of the paper's §2, and
* :meth:`RatingMatrix.shard_by_rows` — the Ω̄^(q)_j layout of §3.1: worker
  ``q`` stores, for every item ``j``, the ratings of ``j`` by users in its
  row partition I_q.

All index arrays are ``int64`` and all values ``float64`` to keep downstream
arithmetic free of silent up-casts.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import DataError

__all__ = ["RatingMatrix", "Shard", "partition_owner", "train_test_split"]


class RatingMatrix:
    """An immutable sparse matrix of observed ratings.

    Parameters
    ----------
    n_rows, n_cols:
        Matrix dimensions (users × items).
    rows, cols, vals:
        Parallel COO arrays of equal length.  Duplicate (row, col) pairs are
        rejected because the objective (1) sums each observed entry once.
    """

    def __init__(
        self,
        n_rows: int,
        n_cols: int,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
    ):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if n_rows < 1 or n_cols < 1:
            raise DataError(f"matrix shape must be positive, got {n_rows}x{n_cols}")
        if not (rows.shape == cols.shape == vals.shape) or rows.ndim != 1:
            raise DataError("rows, cols, vals must be 1-D arrays of equal length")
        if rows.size == 0:
            raise DataError("a rating matrix must contain at least one rating")
        if rows.min() < 0 or rows.max() >= n_rows:
            raise DataError("row index out of range")
        if cols.min() < 0 or cols.max() >= n_cols:
            raise DataError("column index out of range")
        if not np.all(np.isfinite(vals)):
            raise DataError("ratings must be finite")

        # Canonical order: sort by (row, col); this makes equality and
        # duplicate detection deterministic regardless of input order.
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if rows.size > 1:
            same = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
            if same.any():
                where = int(np.flatnonzero(same)[0])
                raise DataError(
                    f"duplicate rating at ({rows[where]}, {cols[where]})"
                )

        self._n_rows = int(n_rows)
        self._n_cols = int(n_cols)
        self._rows = rows
        self._cols = cols
        self._vals = vals
        self._rows.setflags(write=False)
        self._cols.setflags(write=False)
        self._vals.setflags(write=False)
        self._csr: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._csc: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        """Number of users (rows)."""
        return self._n_rows

    @property
    def n_cols(self) -> int:
        """Number of items (columns)."""
        return self._n_cols

    @property
    def nnz(self) -> int:
        """Number of observed ratings |Ω|."""
        return int(self._rows.size)

    @property
    def rows(self) -> np.ndarray:
        """COO row indices, sorted by (row, col).  Read-only view."""
        return self._rows

    @property
    def cols(self) -> np.ndarray:
        """COO column indices, aligned with :attr:`rows`.  Read-only view."""
        return self._cols

    @property
    def vals(self) -> np.ndarray:
        """COO rating values, aligned with :attr:`rows`.  Read-only view."""
        return self._vals

    @property
    def shape(self) -> tuple[int, int]:
        """(n_rows, n_cols)."""
        return (self._n_rows, self._n_cols)

    @property
    def density(self) -> float:
        """Fraction of cells observed."""
        return self.nnz / (self._n_rows * self._n_cols)

    def __repr__(self) -> str:
        return (
            f"RatingMatrix({self._n_rows}x{self._n_cols}, nnz={self.nnz}, "
            f"density={self.density:.2e})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RatingMatrix):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self._rows, other._rows)
            and np.array_equal(self._cols, other._cols)
            and np.array_equal(self._vals, other._vals)
        )

    __hash__ = None  # mutable-sized payload; identity hashing would mislead

    # ------------------------------------------------------------------
    # Index views
    # ------------------------------------------------------------------
    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The matrix as compressed sparse rows: ``(indptr, items, ratings)``.

        User ``i``'s items are ``items[indptr[i]:indptr[i + 1]]``, in
        ascending order.  Built once and cached; do not write to them.
        """
        if self._csr is None:
            # Triplets are already sorted by (row, col): CSR order is direct.
            self._csr = (
                _pointers(self._rows, self._n_rows), self._cols, self._vals
            )
        return self._csr

    def _build_csc(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._csc is None:
            self._csc = _by_item(
                self._n_cols, self._rows, self._cols, self._vals
            )
        return self._csc

    def items_of_user(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Return (item indices, ratings) of user ``i`` — the set Ω_i."""
        ptr, idx, vals = self.csr()
        lo, hi = ptr[i], ptr[i + 1]
        return idx[lo:hi], vals[lo:hi]

    def users_of_item(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Return (user indices, ratings) of item ``j`` — the set Ω̄_j."""
        ptr, idx, vals = self._build_csc()
        lo, hi = ptr[j], ptr[j + 1]
        return idx[lo:hi], vals[lo:hi]

    def row_counts(self) -> np.ndarray:
        """|Ω_i| for every user ``i``."""
        ptr, _, _ = self.csr()
        return np.diff(ptr)

    def col_counts(self) -> np.ndarray:
        """|Ω̄_j| for every item ``j``."""
        ptr, _, _ = self._build_csc()
        return np.diff(ptr)

    # ------------------------------------------------------------------
    # Worker shards (the Ω̄^(q)_j layout of §3.1)
    # ------------------------------------------------------------------
    def shard_by_rows(self, partition: Sequence[np.ndarray]) -> list["Shard"]:
        """Split the ratings into per-worker shards by a row partition.

        Parameters
        ----------
        partition:
            Sequence of ``p`` arrays of user indices; must be disjoint and
            cover ``range(n_rows)`` (validated by :func:`partition_owner`).

        Returns
        -------
        list of :class:`Shard`, one per worker: the matrix's cached CSC
        restricted to the worker's rows, so users stay strictly ascending
        inside every column and processing a nomadic token ``(j, h_j)``
        is a contiguous slice.  Nothing is sorted here — a subsequence of
        CSC order is still CSC order.
        """
        indptr, users, ratings = self._build_csc()
        rating_owner = partition_owner(partition, self._n_rows)[users]
        items = np.repeat(np.arange(self._n_cols), np.diff(indptr))
        masks = [rating_owner == q for q in range(len(partition))]
        return [
            Shard._from_csc(q, _pointers(items[m], self._n_cols), users[m], ratings[m])
            for q, m in enumerate(masks)
        ]

    # ------------------------------------------------------------------
    # Constructors / exports
    # ------------------------------------------------------------------
    def with_appended(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        n_rows: int | None = None,
        n_cols: int | None = None,
    ) -> "RatingMatrix":
        """Return a new matrix with extra ratings appended.

        A stream's warm-up and its arrivals compose back into one plain
        matrix through this method: the result holds the union of the
        existing triplets and the arrivals, with the shape grown to
        cover any brand-new row/column index.  Duplicates —
        within the arrivals or against existing ratings — are rejected
        exactly as the constructor rejects them.

        Parameters
        ----------
        rows, cols, vals:
            Parallel COO arrays of the arriving ratings (may be empty).
        n_rows, n_cols:
            Optional explicit result shape; each must cover both the
            current shape and every appended index.  ``None`` (default)
            grows each dimension just enough to fit the arrivals.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not (rows.shape == cols.shape == vals.shape) or rows.ndim != 1:
            raise DataError("rows, cols, vals must be 1-D arrays of equal length")
        if rows.size and rows.min() < 0:
            raise DataError("row index out of range")
        if cols.size and cols.min() < 0:
            raise DataError("column index out of range")
        need_rows = max(self._n_rows, int(rows.max()) + 1 if rows.size else 0)
        need_cols = max(self._n_cols, int(cols.max()) + 1 if cols.size else 0)
        if n_rows is None:
            n_rows = need_rows
        elif n_rows < need_rows:
            raise DataError(
                f"n_rows={n_rows} cannot hold existing and appended rows "
                f"(need >= {need_rows})"
            )
        if n_cols is None:
            n_cols = need_cols
        elif n_cols < need_cols:
            raise DataError(
                f"n_cols={n_cols} cannot hold existing and appended columns "
                f"(need >= {need_cols})"
            )
        return RatingMatrix(
            n_rows,
            n_cols,
            np.concatenate([self._rows, rows]),
            np.concatenate([self._cols, cols]),
            np.concatenate([self._vals, vals]),
        )

    def select(self, mask: np.ndarray) -> "RatingMatrix":
        """Return a new matrix keeping only triplets where ``mask`` is True."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self._rows.shape:
            raise DataError("mask length must equal nnz")
        if not mask.any():
            raise DataError("selection would produce an empty matrix")
        return RatingMatrix(
            self._n_rows,
            self._n_cols,
            self._rows[mask],
            self._cols[mask],
            self._vals[mask],
        )


class Shard:
    """One worker's local ratings, stored by column.

    This is the materialization of the paper's Ω̄^(q)_j: for every item
    ``j``, :meth:`column` returns the (user, rating) pairs of ``j`` whose
    users belong to this worker's row partition, strictly ascending (CSC
    order).  :meth:`RatingMatrix.shard_by_rows` cuts shards from the
    matrix's CSC; this constructor takes COO triplets and sorts them.
    """

    def __init__(
        self,
        worker: int,
        n_cols: int,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
    ):
        self.worker = int(worker)
        self.n_cols = int(n_cols)
        self._ptr, self._users, self._ratings = _by_item(
            self.n_cols, rows, cols, vals
        )

    @classmethod
    def _from_csc(cls, worker: int, indptr, users, ratings) -> "Shard":
        """A shard over arrays already in CSC order; nothing is sorted."""
        shard = cls.__new__(cls)
        shard.worker = int(worker)
        shard.n_cols = indptr.size - 1
        shard._ptr, shard._users, shard._ratings = indptr, users, ratings
        return shard

    @property
    def nnz(self) -> int:
        """Number of ratings stored on this worker."""
        return int(self._users.size)

    def csc(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The shard as compressed sparse columns: ``(indptr, users, ratings)``.

        Item ``j``'s local ratings are ``users[indptr[j]:indptr[j + 1]]`` /
        ``ratings[...]`` — the arrays :meth:`column` slices, returned as
        views (no copy) so a kernel can bind them once and take tokens
        as bare item ids (``KernelBackend.bind_tokens``).
        """
        return self._ptr, self._users, self._ratings

    def column(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Return (user indices, ratings) of item ``j`` local to this worker."""
        lo, hi = self._ptr[j], self._ptr[j + 1]
        return self._users[lo:hi], self._ratings[lo:hi]

    def column_bounds(self, j: int) -> tuple[int, int]:
        """Half-open range of item ``j`` inside this shard's storage order.

        Lets callers maintain per-rating side arrays (e.g. the step-size
        update counters of equation 11) aligned with the shard and slice
        them per column without copies.
        """
        return int(self._ptr[j]), int(self._ptr[j + 1])

    def __repr__(self) -> str:
        return f"Shard(worker={self.worker}, nnz={self.nnz})"


def partition_owner(
    sets: Sequence[np.ndarray], n: int, kind: str = "row"
) -> np.ndarray:
    """The ``int64`` owner array of a partition of ``range(n)``: ``owner[i]``
    is the position in ``sets`` of the set holding ``i``.  Sets may be
    empty; ids must be integers in ``[0, n)``, the sets disjoint and
    covering, or :class:`DataError` names the ``kind`` of partition."""
    owner = np.full(n, -1, dtype=np.int64)
    for q, members in enumerate(sets):
        members = np.asarray(members)
        if members.size == 0:
            continue
        if members.dtype.kind not in "iu" or members.min() < 0 or members.max() >= n:
            raise DataError(f"{kind} partition set {q} holds ids not in range({n})")
        if (owner[members] != -1).any():
            raise DataError(f"{kind} partition sets overlap")
        owner[members] = q
    if (owner == -1).any():
        missing = int(np.flatnonzero(owner == -1)[0])
        raise DataError(f"{kind} partition does not cover index {missing}")
    return owner


def _pointers(ids: np.ndarray, n: int) -> np.ndarray:
    """Compressed pointers over ``range(n)``: ``ptr[i]`` counts ids below ``i``."""
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(ids, minlength=n), out=ptr[1:])
    return ptr


def _by_item(
    n_cols: int, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """COO triplets in CSC order: ``(indptr, users, ratings)``.

    The one place ratings are ordered by item: a stable sort by
    (col, row), so users ascend inside every column.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    order = np.lexsort((rows, cols))
    return _pointers(cols, n_cols), rows[order], vals[order]


def train_test_split(
    matrix: RatingMatrix,
    test_fraction: float,
    rng: np.random.Generator,
) -> tuple[RatingMatrix, RatingMatrix]:
    """Split observed ratings uniformly at random into train and test sets.

    The same (train, test) partition should be reused across all algorithms
    in one experiment, exactly as the paper does (§5.1: "The same training
    and test dataset partition is used consistently for all algorithms").

    Parameters
    ----------
    matrix:
        The full rating matrix.
    test_fraction:
        Fraction of ratings held out for testing, in (0, 1).
    rng:
        Random generator that decides the split.

    Returns
    -------
    (train, test) pair of :class:`RatingMatrix` over the same shape.
    """
    if not 0.0 < test_fraction < 1.0:
        raise DataError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n_test = int(round(matrix.nnz * test_fraction))
    if n_test == 0 or n_test == matrix.nnz:
        raise DataError(
            f"test_fraction={test_fraction} leaves an empty split "
            f"for nnz={matrix.nnz}"
        )
    picks = rng.choice(matrix.nnz, size=n_test, replace=False)
    mask = np.zeros(matrix.nnz, dtype=bool)
    mask[picks] = True
    return matrix.select(~mask), matrix.select(mask)
