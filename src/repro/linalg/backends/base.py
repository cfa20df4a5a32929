"""The pluggable SGD kernel-backend interface.

Every optimizer in the library ultimately runs one of four SGD inner-loop
variants:

* **column** — all local ratings of one item against a shared ``h_j``
  vector (NOMAD's token work, Algorithm 1 lines 16–21);
* **column with a generic loss** — the §6 extension of the column loop to
  an arbitrary separable :class:`~repro.linalg.losses.Loss`;
* **entries** — an arbitrary list of observed ``(i, j)`` entries visited in
  a given order with the per-rating step-size schedule of equation (11)
  (serial SGD, FPSGD** block passes);
* **entries with a constant step** — the same sweep with one scalar step
  size per call (DSGD/DSGD++ epochs under the bold driver).

The live shared-memory runtimes, the dynamic trainer and the simulator
run the first variant a burst of tokens at a time through
:meth:`KernelBackend.bind_tokens`, which binds a worker's factors and
CSC shard once and then takes bare item ids.

Historically each variant existed twice (a list-based scalar loop and an
ndarray loop), six near-identical copies in total.  A
:class:`KernelBackend` packages all four behind one interface so the
mathematics lives in exactly one place per backend and new execution
strategies (numba, Cython, GPU) can be added without touching any
optimizer.

Because updates are sequential-dependent (every update to a row feeds the
next prediction involving that row), all backends preserve the exact
visit order and the per-rating counter schedule, and the arithmetic too:
the interpreted reference (:class:`~repro.linalg.backends.list_backend.ListBackend`)
and the compiled backend produce the same bits (``tests/test_backends.py``
holds them together with ``np.array_equal``).

Factors are ``float64`` ndarrays: every kernel mutates the caller's
``w`` / ``h`` (or ``h_col`` row) in place, so the shared-memory runtimes
call the kernels on their shared blocks directly (see
:mod:`repro.runtime.multiprocess`).
"""

from __future__ import annotations

import abc
from typing import Any, ClassVar, Sequence

import numpy as np

from ..losses import Loss

__all__ = ["KernelBackend", "TokenKernel"]


class KernelBackend(abc.ABC):
    """Interface of one SGD kernel execution strategy.

    Kernels mutate ``float64`` ndarray factors and the counters in place
    and return the number of updates applied.
    """

    #: Registry key and ``NOMAD_KERNEL_BACKEND`` value selecting this backend.
    name: ClassVar[str] = "?"

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def process_column(
        self,
        w: Any,
        h_col: Any,
        user_rows: Sequence[int],
        ratings: Sequence[float],
        counts: Sequence[int],
        alpha: float,
        beta: float,
        lambda_: float,
    ) -> int:
        """Sequential SGD over one item's local ratings (square loss).

        NOMAD's token work (§3.1; Algorithm 1 lines 16–21 over Ω̄^(q)_j):
        the ``w`` rows listed in ``user_rows`` and ``h_col`` are updated
        in place, each rating's step size follows equation (11) from its
        entry of ``counts`` (incremented here), and the number of updates
        applied (``len(user_rows)``) is returned.
        """

    @abc.abstractmethod
    def process_column_loss(
        self,
        w: Any,
        h_col: Any,
        user_rows: Sequence[int],
        ratings: Sequence[float],
        counts: Sequence[int],
        alpha: float,
        beta: float,
        lambda_: float,
        loss: Loss,
    ) -> int:
        """Column variant under an arbitrary separable loss (§6)."""

    def process_column_batch(
        self,
        w: Any,
        h_cols: Sequence[Any],
        col_users: Sequence[Sequence[int]],
        col_ratings: Sequence[Sequence[float]],
        col_counts: Sequence[Sequence[int]],
        alpha: float,
        beta: float,
        lambda_: float,
    ) -> int:
        """Fused batch of :meth:`process_column` calls (square loss).

        ``h_cols[c]``, ``col_users[c]``, ``col_ratings[c]`` and
        ``col_counts[c]`` describe one column's token work; columns are
        processed strictly in sequence, so the result is defined to be
        identical to looping :meth:`process_column` — which is exactly
        what this default does, keeping every backend conformant.
        Compiled backends override it to amortize per-call overhead
        across a whole burst of tokens in one native call.
        """
        applied = 0
        for index, h_col in enumerate(h_cols):
            applied += self.process_column(
                w, h_col, col_users[index], col_ratings[index],
                col_counts[index], alpha, beta, lambda_,
            )
        return applied

    def bind_tokens(
        self,
        w: np.ndarray,
        h: np.ndarray,
        indptr: np.ndarray,
        users: np.ndarray,
        ratings: np.ndarray,
        counts: np.ndarray,
        alpha: float,
        beta: float,
        lambda_: float,
    ) -> "TokenKernel":
        """Bind a worker's factors and CSC shard once, for bursts of tokens.

        For the substrates whose ``h_j`` lives in one matrix (threads,
        shared-memory processes, the simulator) a token is a bare item
        id: item ``j`` works row ``h[j]`` against the shard column
        ``users[indptr[j]:indptr[j + 1]]`` (``ratings`` and the
        per-rating ``counts`` aligned with it — the arrays of
        :meth:`repro.datasets.ratings.Shard.csc`).  The four shard
        arrays must be ndarrays: ``counts`` is mutated through slices,
        which only alias for ndarrays.

        Any ``users`` inside ``w``'s rows are accepted, in any order and
        with repeats inside a column (a
        :class:`~repro.stream.colstore.ColumnStore` keeps arrival
        order).  Columns whose users ascend strictly are what
        ``Shard.csc()`` delivers, and a property a backend may observe
        here and exploit — never one it may assume.

        The returned kernel's :meth:`TokenKernel.process_tokens` is
        defined to be identical to looping :meth:`process_column` over
        the burst — which is what this default does.  Compiled backends
        override this to resolve every pointer here and run a burst in
        one native call.
        """
        return TokenKernel(
            self, w, h, indptr, users, ratings, counts, alpha, beta, lambda_
        )

    @abc.abstractmethod
    def process_entries(
        self,
        w: Any,
        h: Any,
        entry_rows: Sequence[int],
        entry_cols: Sequence[int],
        ratings: Sequence[float],
        counts: Sequence[int],
        alpha: float,
        beta: float,
        lambda_: float,
        order: Sequence[int],
    ) -> int:
        """Sequential SGD over entries in ``order`` (scheduled step)."""

    @abc.abstractmethod
    def process_entries_const(
        self,
        w: Any,
        h: Any,
        entry_rows: Sequence[int],
        entry_cols: Sequence[int],
        ratings: Sequence[float],
        step: float,
        lambda_: float,
        order: Sequence[int],
    ) -> int:
        """Sequential SGD over entries with one constant step size."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class TokenKernel:
    """A worker's factors and CSC shard, bound by
    :meth:`KernelBackend.bind_tokens`; holds the arrays for as long as
    it lives.  ``n_items`` and ``nnz`` are the bound shard's columns and
    ratings; with :attr:`burst_updates` they are what the live loop
    sizes a burst from."""

    #: SGD updates worth handing :meth:`process_tokens` in one call: what
    #: amortises a caller's per-call costs without holding its tokens
    #: (and deferring its stop check) for long.  At the 4.5-82 µs an
    #: update of the interpreted reference over ndarray factors (k = 4 to
    #: 100; 7.7 µs at k = 8) this is 18-330 ms; a compiled subclass
    #: raises it.  A property of the kernel, not a setting.
    burst_updates: ClassVar[int] = 4096

    def __init__(
        self, backend, w, h, indptr, users, ratings, counts,
        alpha, beta, lambda_,
    ):
        self._process_column = backend.process_column
        self._arrays = (w, h, indptr, users, ratings, counts)
        self._step = (alpha, beta, lambda_)
        self.n_items = len(indptr) - 1
        self.nnz = len(users)

    def process_tokens(self, items: np.ndarray) -> int:
        """Run the token work of every item id in ``items`` (one int64
        array per burst), strictly in order — a repeated id is visited
        twice — and return the number of updates applied.  An id outside
        ``[0, n_items)`` raises :class:`IndexError` before anything is
        applied."""
        items = np.asarray(items, dtype=np.int64)
        if items.size and not 0 <= items.min() <= items.max() < self.n_items:
            raise IndexError(f"token item id outside [0, {self.n_items})")
        w, h, indptr, users, ratings, counts = self._arrays
        applied = 0
        for j in items.tolist():
            lo, hi = indptr[j], indptr[j + 1]
            if hi > lo:
                applied += self._process_column(
                    w, h[j], users[lo:hi], ratings[lo:hi], counts[lo:hi],
                    *self._step,
                )
        return applied

    def process_token(self, item: int) -> int:
        """A burst of one: :meth:`process_tokens` on ``[item]`` by
        definition, which is what this default does.  It is what a
        substrate that finishes one token at a time (the simulator, a
        budgeted sweep) calls; compiled backends override it to skip
        the array."""
        return self.process_tokens(np.array([item], dtype=np.int64))
