"""Growable compressed-sparse-column store with slack, for one dynamic worker.

:class:`~repro.stream.dynamic.DynamicNomad` keeps each worker's local
ratings Ω̄^(q) in one :class:`ColumnStore`: ``users``, ``ratings`` and
the per-rating update counters of equation (11) in plain ``int64`` /
``float64`` buffers, column ``j`` being ``users[indptr[j]:ends[j]]`` —
exactly what :meth:`~repro.linalg.backends.base.KernelBackend.bind_tokens`
takes with its ``ends`` argument, so a sweep hands the kernels bare item
ids and converts nothing.

A column owns the slots up to its capacity; the ones past ``ends[j]``
are its slack.  :meth:`ColumnStore.append` parks a block of arrivals
(the §4 fold-in stays one call), and :meth:`ColumnStore.flush` writes
them into their columns' slack, in place, at the start of the next
sweep: a kernel bound to the store reads the new ``ends`` and the new
ratings without being rebound.  A column whose slack runs out is copied
to the free tail of the buffers with twice the room it needs, and the
buffers themselves grow geometrically; only that growth or new columns
make :meth:`flush` ask for a rebind.  An arrival lands after its
column's last rating whatever its user: the kernels need no order
inside a column.

The store never reads or writes factors, so it declares no nomadlint
owner context.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ColumnStore"]


def _spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The slot indices of every span ``[starts[c], starts[c] + lengths[c])``,
    span after span."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(lengths.sum())


def _room(needed: np.ndarray) -> np.ndarray:
    """The slots a column is given when it needs ``needed``: geometric
    growth, so a column is copied O(log n) times over n arrivals."""
    return 2 * needed + 8


class ColumnStore:
    """One worker's ratings as columns with slack, with update counters.

    Column ``j`` is ``users[indptr[j]:ends[j]]`` with ``ratings`` and
    ``counts`` aligned (the buffers of :meth:`kernel_arrays`); inside a
    column the base ratings come first (in the order they were given),
    then arrivals in arrival order.  ``indptr[n_items]`` is the top of
    the buffers: the first slot no column owns.  A base column of ``n``
    ratings starts with the room :func:`_room` gives ``n + 1``.

    Parameters
    ----------
    indptr, users, ratings:
        The base shard's CSC arrays (copied; the shard stays immutable).
    """

    def __init__(
        self, indptr: np.ndarray, users: np.ndarray, ratings: np.ndarray
    ):
        indptr = np.asarray(indptr, dtype=np.int64)
        lengths = np.diff(indptr)
        room = _room(lengths + 1)
        self.indptr = np.concatenate([[0], np.cumsum(room)])
        starts = self.indptr[:-1]
        self.ends = starts + lengths
        self._caps = self.indptr[1:].copy()  # the end of each column's slots
        self._held = int(lengths.sum())
        slots = _spans(starts, lengths)
        self._users = np.zeros(self.indptr[-1], dtype=np.int64)
        self._users[slots] = users
        self._ratings = np.zeros(self.indptr[-1], dtype=np.float64)
        self._ratings[slots] = ratings
        self._counts = np.zeros(self.indptr[-1], dtype=np.int64)
        self._pending: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self._pending_n = 0

    @property
    def n_items(self) -> int:
        """Columns the arrays cover (pending growth not included)."""
        return self.indptr.size - 1

    @property
    def nnz(self) -> int:
        """Ratings held, folded in or still pending."""
        return self._held + self._pending_n

    def kernel_arrays(self):
        """``(indptr, users, ratings, counts, ends)``: what a token kernel
        binds (``bind_tokens(w, h, indptr, users, ratings, counts, ...,
        ends=ends)``)."""
        return self.indptr, self._users, self._ratings, self._counts, self.ends

    def append(self, items, users, ratings) -> None:
        """Park a block of arrivals, in arrival order, for the next
        :meth:`flush` (ndarrays of the right dtype are kept, not copied,
        until then).  An item may lie beyond :attr:`n_items`; the flush
        that folds it in must cover it."""
        block = (
            np.asarray(items, dtype=np.int64).reshape(-1),
            np.asarray(users, dtype=np.int64).reshape(-1),
            np.asarray(ratings, dtype=np.float64).reshape(-1),
        )
        self._pending.append(block)
        self._pending_n += block[0].size

    def flush(self, n_items: int) -> bool:
        """Write pending arrivals into their columns and cover ``n_items``
        columns.

        Each arrival lands after its column's last rating, in arrival
        order, with a zero counter; nothing else moves unless a column's
        slack runs out (then that column alone is copied) or the buffers
        must grow.  Columns beyond the old :attr:`n_items` start empty.
        Returns whether a kernel bound to this store must be rebound: an
        array was replaced or columns were added.  A shrink or a pending
        item outside ``[0, n_items)`` raises :class:`ValueError` and
        changes nothing.
        """
        grown = n_items - self.n_items
        if grown < 0:
            raise ValueError(
                f"column store cannot shrink from {self.n_items} to "
                f"{n_items} items"
            )
        pending = self._pending
        if not (grown or pending):
            return False
        if pending:
            items, users, ratings = (
                pending[0] if len(pending) == 1
                else [np.concatenate(column) for column in zip(*pending)]
            )
            order = np.argsort(items, kind="stable")
            items = items[order]
            low, high = items[0], items[-1]
            if low < 0 or high >= n_items:
                raise ValueError(
                    f"pending item {low if low < 0 else high} is outside "
                    f"the {n_items} columns being flushed"
                )
        rebind = grown > 0
        if grown:
            top = self.indptr[-1]
            empty = np.full(grown, top, dtype=np.int64)
            self.indptr = np.concatenate([self.indptr[:-1], empty, [top]])
            self.ends = np.concatenate([self.ends, empty])
            self._caps = np.concatenate([self._caps, empty])
        if pending:
            # The t-th arrival of a column lands t slots past its end.
            rank = np.arange(items.size) - items.searchsorted(items)
            at = self.ends[items] + rank
            if np.count_nonzero(at >= self._caps[items]):
                rebind |= self._make_room(np.bincount(items, minlength=n_items))
                at = self.ends[items] + rank
            self._users[at] = users[order]
            self._ratings[at] = ratings[order]
            self._counts[at] = 0
            np.add.at(self.ends, items, 1)
            self._held += items.size
            pending.clear()
            self._pending_n = 0
        return rebind

    def _make_room(self, added: np.ndarray) -> bool:
        """Give every column the slots for ``added[j]`` more ratings (some
        lack them): a column without them is copied to the top with
        twice the room it needs.  Returns whether the buffers were
        replaced."""
        short = np.flatnonzero(self.ends + added > self._caps)
        starts = self.indptr[short]
        lengths = self.ends[short] - starts
        room = _room(lengths + added[short])
        top = int(self.indptr[-1])
        new_starts = top + np.cumsum(room) - room
        new_top = top + int(room.sum())
        replaced = new_top > self._users.size
        if replaced:
            size = max(new_top, 2 * self._users.size)
            for name in ("_users", "_ratings", "_counts"):
                old = getattr(self, name)
                new = np.zeros(size, dtype=old.dtype)
                new[:top] = old[:top]
                setattr(self, name, new)
        # Few columns run out at once: copy each as three slices.
        buffers = (self._users, self._ratings, self._counts)
        for start, length, new_start in zip(
            starts.tolist(), lengths.tolist(), new_starts.tolist()
        ):
            for buffer in buffers:
                buffer[new_start:new_start + length] = (
                    buffer[start:start + length]
                )
        self.indptr[short] = new_starts
        self.ends[short] = new_starts + lengths
        self._caps[short] = new_starts + room
        self.indptr[-1] = new_top
        return replaced

    def column(self, item: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Live ``(users, ratings, counts)`` views of one flushed column."""
        lo, hi = self.indptr[item], self.ends[item]
        return self._users[lo:hi], self._ratings[lo:hi], self._counts[lo:hi]

    def _held_slots(self) -> np.ndarray:
        """The slot of every flushed rating, column by column."""
        starts = self.indptr[:-1]
        return _spans(starts, self.ends - starts)

    @property
    def counts(self) -> np.ndarray:
        """Every flushed rating's counter, column by column (a copy)."""
        return self._counts[self._held_slots()]

    def triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every rating held as COO ``(users, items, ratings)`` arrays:
        the flushed columns in column order, then the pending arrivals
        in arrival order.  Nothing is folded in."""
        slots = self._held_slots()
        items = np.repeat(
            np.arange(self.n_items), self.ends - self.indptr[:-1]
        )
        held = (self._users[slots], items, self._ratings[slots])
        if not self._pending:
            return held
        pending_items, pending_users, pending_ratings = zip(*self._pending)
        return (
            np.concatenate([held[0], *pending_users]),
            np.concatenate([held[1], *pending_items]),
            np.concatenate([held[2], *pending_ratings]),
        )

    def clamp_counts(self, cap: int) -> None:
        """Floor the eq-(11) decay: no counter stays above ``cap``."""
        held = self._counts[: self.indptr[-1]]
        np.minimum(held, cap, out=held)

    def __repr__(self) -> str:
        return f"ColumnStore(items={self.n_items}, nnz={self.nnz})"
