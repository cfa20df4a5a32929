"""Growable compressed-sparse-column store for one dynamic worker.

:class:`~repro.stream.dynamic.DynamicNomad` keeps each worker's local
ratings Ω̄^(q) in one :class:`ColumnStore`: the ``(indptr, users,
ratings)`` arrays of :meth:`repro.datasets.ratings.Shard.csc` plus the
per-rating update counters of equation (11), all plain ``int64`` /
``float64`` ndarrays — exactly what
:meth:`~repro.linalg.backends.base.KernelBackend.bind_tokens` takes, so
a sweep hands the kernels bare item ids and converts nothing.

Arrivals do not touch the arrays: :meth:`ColumnStore.append` parks them
in a pending list (the §4 fold-in stays one append), and
:meth:`ColumnStore.flush` folds the whole list in at the start of the
next sweep.  A flush *replaces* the arrays it changes, so any kernel
bound to the old ones must be rebound — :meth:`flush` says when.

The store never reads or writes factors, so it declares no nomadlint
owner context.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ColumnStore"]


class ColumnStore:
    """One worker's ratings as a CSC over items, with update counters.

    Column ``j`` is ``users[indptr[j]:indptr[j + 1]]`` with ``ratings``
    and ``counts`` aligned; inside a column the base ratings come first
    (in the order they were given), then arrivals in arrival order.

    Parameters
    ----------
    indptr, users, ratings:
        The base shard's CSC arrays (copied; the shard stays immutable).
    """

    def __init__(
        self, indptr: np.ndarray, users: np.ndarray, ratings: np.ndarray
    ):
        self.indptr = np.array(indptr, dtype=np.int64)
        self.users = np.array(users, dtype=np.int64)
        self.ratings = np.array(ratings, dtype=np.float64)
        self.counts = np.zeros(self.users.size, dtype=np.int64)
        self._pending: list[tuple[int, int, float]] = []

    @property
    def n_items(self) -> int:
        """Columns the arrays cover (pending growth not included)."""
        return self.indptr.size - 1

    @property
    def nnz(self) -> int:
        """Ratings held, folded in or still pending."""
        return self.users.size + len(self._pending)

    def append(self, item: int, user: int, rating: float) -> None:
        """Park one arrival for the next :meth:`flush`.  ``item`` may lie
        beyond :attr:`n_items`; the flush that folds it in must cover it."""
        self._pending.append((item, user, rating))

    def flush(self, n_items: int) -> bool:
        """Fold pending arrivals in and cover ``n_items`` columns.

        Arrivals are sorted by item (stably, so arrival order survives
        inside a column) and land at the end of their columns with a
        zero counter; existing counters keep their rating.  Columns
        beyond the old :attr:`n_items` start empty.  Returns whether any
        array was replaced — a kernel bound to this store must then be
        rebound.  A shrink or a pending item outside ``[0, n_items)``
        raises :class:`ValueError` and changes nothing.
        """
        grown = n_items - self.n_items
        if grown < 0:
            raise ValueError(
                f"column store cannot shrink from {self.n_items} to "
                f"{n_items} items"
            )
        if not (grown or self._pending):
            return False
        indptr = np.concatenate(
            [self.indptr, np.full(grown, self.indptr[-1], dtype=np.int64)]
        )
        if self._pending:
            items, users, ratings = zip(*self._pending)
            items = np.asarray(items, dtype=np.int64)
            order = np.argsort(items, kind="stable")
            items = items[order]
            if items[0] < 0 or items[-1] >= n_items:
                bad = items[0] if items[0] < 0 else items[-1]
                raise ValueError(
                    f"pending item {bad} is outside the {n_items} columns "
                    f"being flushed"
                )
            # The t-th arrival in item order lands after the t arrivals
            # before it and every old rating up to its column's end; the
            # old ratings fill the remaining slots in their own order.
            at = indptr[items + 1] + np.arange(items.size)
            old = np.ones(self.users.size + items.size, dtype=bool)
            old[at] = False
            self.users = self._merged(
                self.users, at, old, np.asarray(users, dtype=np.int64)[order]
            )
            self.ratings = self._merged(
                self.ratings, at, old,
                np.asarray(ratings, dtype=np.float64)[order],
            )
            self.counts = self._merged(self.counts, at, old, 0)
            indptr[1:] += np.cumsum(np.bincount(items, minlength=n_items))
            self._pending.clear()
        self.indptr = indptr
        return True

    @staticmethod
    def _merged(array, at, old, arrivals) -> np.ndarray:
        out = np.empty(old.size, dtype=array.dtype)
        out[old] = array
        out[at] = arrivals
        return out

    def column(self, item: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Live ``(users, ratings, counts)`` views of one flushed column."""
        lo, hi = self.indptr[item], self.indptr[item + 1]
        return self.users[lo:hi], self.ratings[lo:hi], self.counts[lo:hi]

    def triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every rating held as COO ``(users, items, ratings)`` arrays:
        the flushed columns in column order, then the pending arrivals.
        Nothing is folded in — a flush here would replace arrays a bound
        kernel still points at."""
        items = np.repeat(np.arange(self.n_items), np.diff(self.indptr))
        if not self._pending:
            return self.users, items, self.ratings
        pending_items, pending_users, pending_ratings = zip(*self._pending)
        return (
            np.concatenate([self.users, pending_users]),
            np.concatenate([items, pending_items]),
            np.concatenate([self.ratings, pending_ratings]),
        )

    def clamp_counts(self, cap: int) -> None:
        """Floor the eq-(11) decay: no counter stays above ``cap``."""
        np.minimum(self.counts, cap, out=self.counts)

    def __repr__(self) -> str:
        return f"ColumnStore(items={self.n_items}, nnz={self.nnz})"
