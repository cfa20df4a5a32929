"""The pluggable SGD kernel-backend interface.

Every optimizer in the library ultimately runs one of three SGD
inner-loop variants:

* **column** — all local ratings of one item against a shared ``h_j``
  vector (NOMAD's token work, Algorithm 1 lines 16–21), under the square
  loss or, bound into a token kernel, any separable
  :class:`~repro.linalg.losses.Loss` (the §6 extension);
* **entries** — an arbitrary list of observed ``(i, j)`` entries visited in
  a given order with the per-rating step-size schedule of equation (11)
  (serial SGD, FPSGD** block passes);
* **entries with a constant step** — the same sweep with one scalar step
  size per call (DSGD/DSGD++ epochs under the bold driver).

The live shared-memory runtimes, the dynamic trainer and the simulator
run the first variant a burst of tokens at a time through
:meth:`KernelBackend.bind_tokens`, which binds a worker's factors, CSC
shard and loss once and then takes bare item ids.

Historically each variant existed twice (a list-based scalar loop and an
ndarray loop), six near-identical copies in total.  A
:class:`KernelBackend` packages all three behind one interface so the
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
import random
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
        what this, the one implementation, does.  Legacy: a burst is
        :meth:`bind_tokens`' ``process_tokens``.
        """
        applied = 0
        for index, h_col in enumerate(h_cols):
            applied += self.process_column(
                w, h_col, col_users[index], col_ratings[index],
                col_counts[index], alpha, beta, lambda_,
            )
        return applied

    @abc.abstractmethod
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
        loss: Loss | None = None,
        ends: np.ndarray | None = None,
    ) -> "TokenKernel":
        """Bind a worker's factors, CSC shard and loss once, for bursts
        of tokens.

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
        order); no backend may assume an order, and the compiled one
        needs none.

        ``loss`` is the separable :class:`~repro.linalg.losses.Loss`
        every column runs under; ``None`` is the square loss.  The
        returned kernel's :meth:`TokenKernel.process_tokens` is defined
        to be identical to looping the reference column core over the
        burst: :func:`~repro.linalg.backends.list_backend.column_on_lists`
        with ``loss.dloss_dpred`` (``None`` for the square loss, which
        is looping ``ListBackend.process_column``).  A compiled backend
        resolves every pointer here and runs a burst in one native call.

        ``ends`` gives a shard with slack (the stream's
        :class:`~repro.stream.colstore.ColumnStore`): column ``j`` is
        then ``users[indptr[j]:ends[j]]``, and the kernel reads ``ends``
        and the columns at every call, so a caller may append to a
        column inside its slack after binding, in any order.  Such a
        caller must keep every user it writes inside ``w``'s rows.
        ``None`` is ``indptr[1:]``: a plain CSC.
        """

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

    @abc.abstractmethod
    def rng_stream(self, rng: random.Random) -> Any:
        """A draw stream started from ``rng``'s state (``rng`` itself is
        not advanced).

        The stream makes exactly the draws ``rng`` would make from that
        state: ``randrange(n)``, ``randbelow_many(n, count)`` (an int64
        array of ``count`` ``randrange(n)`` draws), ``shuffle(buffer)``
        (``random.shuffle`` over a writable C-contiguous int64 buffer, in
        place) and ``getstate()`` in ``random.Random``'s format.  Every
        bound lies in ``[1, 2**32)`` (``ValueError`` otherwise) and a
        buffer of another dtype or layout is a ``TypeError``.  The
        interpreted stream
        (:class:`~repro.linalg.backends.list_backend.PyRandomStream`)
        calls :mod:`random` itself and is the specification a compiled
        one is held to.
        """

    def bind_schedule(
        self, kernels: Sequence["TokenKernel"], visit_time: np.ndarray,
        cores: int, local_delay: float, network_delay: float,
        routing: Any, jitter: Any, sigma: float, policy: int,
        circulate: bool, budget: int | None,
        visits: list[tuple[int, int]] | None,
    ) -> Any:
        """The simulator's event loop in native code over ``kernels``
        (one per worker), or ``None``, which is this default: the
        simulator then runs its Python handlers.

        ``routing`` and ``jitter`` are this backend's draw streams
        (:meth:`rng_stream`); ``visit_time`` is the ``(workers, items)``
        cost table; ``policy`` numbers the shipped recipient policy
        (uniform 0, least-queue 1, power-of-two 2).  See
        :class:`~repro.core.nomad.NomadSimulation` for the contract.
        """
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class TokenKernel(abc.ABC):
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
        self, w, h, indptr, users, ratings, counts, alpha, beta, lambda_
    ):
        self._arrays = (w, h, indptr, users, ratings, counts)
        self._step = (alpha, beta, lambda_)
        self.n_items = len(indptr) - 1
        self.nnz = len(users)

    @abc.abstractmethod
    def process_tokens(self, items: np.ndarray) -> int:
        """Run the token work of every item id in ``items`` (one int64
        array per burst), strictly in order — a repeated id is visited
        twice — and return the number of updates applied.  An id outside
        ``[0, n_items)`` raises :class:`IndexError` before anything is
        applied."""

    def process_token(self, item: int) -> int:
        """A burst of one: :meth:`process_tokens` on ``[item]`` by
        definition, which is what this default does.  It is what a
        substrate that finishes one token at a time (the simulator, a
        budgeted sweep) calls; compiled backends override it to skip
        the array."""
        return self.process_tokens(np.array([item], dtype=np.int64))
