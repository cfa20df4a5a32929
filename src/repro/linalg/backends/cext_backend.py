"""Compiled SGD backend — C inner loops over ndarray factors via ctypes.

The interpreted reference pays Python-interpreter overhead *per
rating*; this backend runs the whole inner loop in C (``nomad_kernels.c``,
built on demand by :mod:`.cext_build`), so the per-update cost drops to
the raw arithmetic.  Factors are plain ``float64`` ndarrays, which the
shared-memory runtimes and cluster workers hand straight to the C
functions with **zero copies**; an array of another dtype or layout is
converted on the way in and written back on the way out.

Two properties worth knowing:

* **Bit-compatibility** — the C loops replicate the reference core
  operation for operation and are compiled with ``-ffp-contract=off``,
  so they equal the list reference bit for bit
  (``tests/test_backends.py::TestBitForBit``).
* **True parallelism** — :mod:`ctypes` releases the GIL for the duration
  of each foreign call.  NOMAD's owner-computes rule makes concurrent
  kernel calls touch disjoint rows, so the threaded runtime gets genuine
  multi-core scaling out of this backend, not just a faster serial loop.

The burst path is :meth:`CextBackend.bind_tokens`: a
:class:`CextTokenKernel` validates the worker's factors and CSC shard
once, resolves their addresses into one ``nomad_bound`` struct together
with the loss (``_loss_id``'s ``(loss_id, param)``: square, absolute or
Huber), and from then on a burst of item ids is one
``nomad_process_tokens`` call (a single token, ``nomad_process_token``).
A :class:`~repro.linalg.losses.Loss` C has no id for is bound to the
interpreted ``list`` kernel instead.  A burst is *defined* as its
columns run one after another; the C gets there faster without changing
a bit.  It asks libm for the equation-(11) step only when a rating's
counter differs from the previous rating's (the ratings of a column
almost always share one), and under the square loss, over a shard whose
users ascend strictly inside every column — observed here at bind time,
true of ``Shard.csc()`` — it runs two columns at a time in the §4.3
conflict order: column B's rating of user ``u`` waits until column A's cursor has
passed ``u``, so every ``w`` row and every ``h`` row sees its updates in
burst order while the two dot-product chains overlap.  No sum is
reassociated and nothing is contracted, which is why both are
IEEE-identical to the serial loop.  :meth:`process_column_batch` is the
legacy burst entry (per-column pointer lists); nothing in ``src/`` calls
it any more.
"""

from __future__ import annotations

import ctypes
from typing import Any, Sequence

import numpy as np

from ...errors import ConfigError
from ..losses import AbsoluteLoss, HuberLoss, Loss, SquaredLoss
from . import cext_build
from .base import KernelBackend, TokenKernel

__all__ = ["CextBackend", "CextTokenKernel"]

_F8 = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
_I8 = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
_PTRS = ctypes.POINTER(ctypes.c_void_p)
_i64 = ctypes.c_int64
_f64 = ctypes.c_double

#: counts placeholder for the constant-step entries call (never read: the
#: C loop only dereferences counts when scheduled != 0).
_NO_COUNTS = np.zeros(1, dtype=np.int64)


class _Bound(ctypes.Structure):
    """``nomad_bound`` of ``nomad_kernels.c``, field for field."""

    _fields_ = [
        *[(name, ctypes.c_void_p) for name in
          ("w", "h", "indptr", "users", "ratings", "counts")],
        *[(name, _i64) for name in ("n_items", "k", "ascending", "loss_id")],
        *[(name, _f64) for name in ("alpha", "beta", "lambda_", "loss_param")],
    ]


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    lib.nomad_process_column.restype = _i64
    lib.nomad_process_column.argtypes = [
        _F8, _F8, _I8, _F8, _I8, _i64, _i64, _f64, _f64, _f64,
    ]
    lib.nomad_process_column_batch.restype = _i64
    lib.nomad_process_column_batch.argtypes = [
        _F8, _PTRS, _PTRS, _PTRS, _PTRS, _I8, _i64, _i64, _f64, _f64, _f64,
    ]
    # Raw addresses: bind_tokens validates the arrays and resolves their
    # pointers once into a _Bound, so a call pays no ndpointer check.
    lib.nomad_bound_size.restype = _i64
    lib.nomad_bound_size.argtypes = []
    lib.nomad_bound_offset.restype = _i64
    lib.nomad_bound_offset.argtypes = [_i64]
    lib.nomad_process_tokens.restype = _i64
    lib.nomad_process_tokens.argtypes = [ctypes.c_void_p, ctypes.c_void_p, _i64]
    lib.nomad_process_token.restype = _i64
    lib.nomad_process_token.argtypes = [ctypes.c_void_p, _i64]
    lib.nomad_process_entries.restype = _i64
    lib.nomad_process_entries.argtypes = [
        _F8, _F8, _I8, _I8, _F8, _I8, _I8, _i64, _i64, _f64, _f64, _f64,
        _f64, _i64,
    ]
    return lib


def _conform(x: Any, dtype, writebacks: list | None) -> np.ndarray:
    """Contiguous ``dtype`` array for ``x``; no copy when already conformant.

    When a copy *was* made and ``writebacks`` is given, the (original,
    copy) pair is recorded so mutations can be propagated back — kernels
    mutate ``w``/``h_col``/``counts`` in place by contract, and a caller
    holding its counters in a list must observe them.
    """
    arr = np.ascontiguousarray(x, dtype=dtype)
    if arr is not x and writebacks is not None:
        writebacks.append((x, arr))
    return arr


def _write_back(writebacks: list) -> None:
    for original, arr in writebacks:
        if isinstance(original, np.ndarray):
            original[...] = arr
        else:  # a list of counters
            original[:] = arr.tolist()


def _loss_id(loss: Loss) -> tuple[int, float] | None:
    """(loss_id, param) for the losses ``loss_gradient`` in C knows; None
    otherwise."""
    if type(loss) is SquaredLoss:
        return 0, 0.0
    if type(loss) is AbsoluteLoss:
        return 1, 0.0
    if type(loss) is HuberLoss:
        return 2, loss.delta
    return None


class CextBackend(KernelBackend):
    """The reference loop compiled to C, called through ctypes."""

    name = "cext"

    @classmethod
    def ensure_available(cls) -> None:
        """Raise :class:`ConfigError` when the toolchain can't serve us.

        Called by the registry before every hand-out, so an explicit
        ``kernel_backend="cext"`` on a toolchain-less box fails at
        configuration time with the fallback spelled out — never midway
        through a fit.
        """
        reason = cext_build.cext_unavailable_reason()
        if reason is not None:
            raise ConfigError(
                f"kernel backend 'cext' is unavailable: {reason}. "
                "Use kernel_backend='auto' (or unset $NOMAD_KERNEL_BACKEND) "
                "to fall back to the interpreted 'list' backend."
            )

    def __init__(self) -> None:
        type(self).ensure_available()
        self._lib = _bind(cext_build.load_library())

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def process_column(
        self, w, h_col, user_rows, ratings, counts, alpha, beta, lambda_
    ) -> int:
        n = len(user_rows)
        if n == 0:
            return 0
        writebacks: list = []
        w_arr = _conform(w, np.float64, writebacks)
        h_arr = _conform(h_col, np.float64, writebacks)
        counts_arr = _conform(counts, np.int64, writebacks)
        users_arr = _conform(user_rows, np.int64, None)
        ratings_arr = _conform(ratings, np.float64, None)
        applied = self._lib.nomad_process_column(
            w_arr, h_arr, users_arr, ratings_arr, counts_arr,
            n, h_arr.shape[0], alpha, beta, lambda_,
        )
        _write_back(writebacks)
        return applied

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
        n_cols = len(h_cols)
        if n_cols == 0:
            return 0
        writebacks: list = []
        w_arr = _conform(w, np.float64, writebacks)
        h_arrs = [_conform(col, np.float64, writebacks) for col in h_cols]
        counts_arrs = [_conform(c, np.int64, writebacks) for c in col_counts]
        users_arrs = [_conform(u, np.int64, None) for u in col_users]
        ratings_arrs = [_conform(r, np.float64, None) for r in col_ratings]
        lens = np.array([a.shape[0] for a in users_arrs], dtype=np.int64)
        h_ptrs = (ctypes.c_void_p * n_cols)(*[a.ctypes.data for a in h_arrs])
        u_ptrs = (ctypes.c_void_p * n_cols)(*[a.ctypes.data for a in users_arrs])
        r_ptrs = (ctypes.c_void_p * n_cols)(*[a.ctypes.data for a in ratings_arrs])
        c_ptrs = (ctypes.c_void_p * n_cols)(*[a.ctypes.data for a in counts_arrs])
        applied = self._lib.nomad_process_column_batch(
            w_arr, h_ptrs, u_ptrs, r_ptrs, c_ptrs, lens, n_cols,
            h_arrs[0].shape[0], alpha, beta, lambda_,
        )
        _write_back(writebacks)
        return applied

    def bind_tokens(
        self, w, h, indptr, users, ratings, counts, alpha, beta, lambda_,
        loss: Loss | None = None,
    ) -> TokenKernel:
        dispatch = (0, 0.0) if loss is None else _loss_id(loss)
        if dispatch is None:
            # A Loss C has no id for: its gradient is Python code, which
            # the interpreted reference kernel runs.
            from . import get_backend

            return get_backend("list").bind_tokens(
                w, h, indptr, users, ratings, counts, alpha, beta, lambda_,
                loss,
            )
        return CextTokenKernel(
            self, w, h, indptr, users, ratings, counts, alpha, beta, lambda_,
            *dispatch,
        )

    def _entries_call(
        self, w, h, entry_rows, entry_cols, ratings, counts, order,
        alpha, beta, lambda_, step, scheduled: int,
    ) -> int:
        if len(entry_rows) == 0:
            return 0
        writebacks: list = []
        w_arr = _conform(w, np.float64, writebacks)
        h_arr = _conform(h, np.float64, writebacks)
        counts_arr = (
            _conform(counts, np.int64, writebacks) if scheduled else _NO_COUNTS
        )
        rows_arr = _conform(entry_rows, np.int64, None)
        cols_arr = _conform(entry_cols, np.int64, None)
        ratings_arr = _conform(ratings, np.float64, None)
        order_arr = _conform(order, np.int64, None)
        applied = self._lib.nomad_process_entries(
            w_arr, h_arr, rows_arr, cols_arr, ratings_arr, counts_arr,
            order_arr, order_arr.shape[0], w_arr.shape[1],
            alpha, beta, lambda_, step, scheduled,
        )
        _write_back(writebacks)
        return applied

    def process_entries(
        self, w, h, entry_rows, entry_cols, ratings, counts, alpha, beta,
        lambda_, order,
    ) -> int:
        return self._entries_call(
            w, h, entry_rows, entry_cols, ratings, counts, order,
            alpha, beta, lambda_, 0.0, 1,
        )

    def process_entries_const(
        self, w, h, entry_rows, entry_cols, ratings, step, lambda_, order
    ) -> int:
        return self._entries_call(
            w, h, entry_rows, entry_cols, ratings, None, order,
            0.0, 0.0, lambda_, step, 0,
        )


class CextTokenKernel(TokenKernel):
    """One native call per burst or per token: the arrays are validated
    and their addresses resolved once, here, into a ``nomad_bound`` this
    object owns (the base class keeps the arrays alive), beside the
    ``(loss_id, param)`` of the loss every column runs under."""

    _DTYPES = (np.float64, np.float64, np.int64, np.int64, np.float64, np.int64)
    #: 1-2.4 ms of native code at 16-37 ns an update: long enough that
    #: the caller's ≈20 µs of interpreter per burst stop showing and
    #: that a dense shard's bursts are tens of columns, so the paired
    #: walk seldom has an odd one out (half this budget, 11 columns on
    #: the mp-dense shard, measured 4% slower there); short enough that
    #: a stop is seen at once.
    burst_updates = 65536

    def __init__(
        self, backend, w, h, indptr, users, ratings, counts,
        alpha, beta, lambda_, loss_id, loss_param,
    ):
        super().__init__(
            w, h, indptr, users, ratings, counts, alpha, beta, lambda_
        )
        for arr, dtype in zip(self._arrays, self._DTYPES):
            if not (
                isinstance(arr, np.ndarray)
                and arr.dtype == dtype
                and arr.flags.c_contiguous
            ):
                raise TypeError(
                    "bind_tokens needs C-contiguous float64 w/h/ratings "
                    "and int64 indptr/users/counts ndarrays"
                )
        n_items, k = h.shape
        nnz = users.shape[0]
        if not (
            w.ndim == 2
            and w.shape[1] == k
            and indptr.shape == (n_items + 1,)
            and ratings.shape == counts.shape == (nnz,)
            and indptr[0] == 0
            and indptr[-1] == nnz
            and np.all(indptr[1:] >= indptr[:-1])
            and (nnz == 0 or 0 <= users.min() <= users.max() < w.shape[0])
        ):
            raise ValueError(
                "bind_tokens: shard arrays do not describe a CSC over w/h"
            )
        # Users strictly ascending inside every column (what Shard.csc()
        # delivers, not what a ColumnStore in arrival order holds) is what
        # lets the C walk a burst two columns at a time.
        rising = users[1:] > users[:-1]
        starts = indptr[1:-1]
        rising[starts[(starts > 0) & (starts < nnz)] - 1] = True
        self._bound = _Bound(
            *[arr.ctypes.data for arr in self._arrays],
            n_items, k, bool(rising.all()), loss_id,
            alpha, beta, lambda_, loss_param,
        )
        self._bound_at = ctypes.addressof(self._bound)
        self._native_burst = backend._lib.nomad_process_tokens
        self._native_token = backend._lib.nomad_process_token

    def process_tokens(self, items: np.ndarray) -> int:
        items = np.ascontiguousarray(items, dtype=np.int64)
        applied = self._native_burst(
            self._bound_at, items.ctypes.data, items.size
        )
        if applied < 0:
            raise IndexError(f"token item id outside [0, {self.n_items})")
        return applied

    def process_token(self, item: int) -> int:
        applied = self._native_token(self._bound_at, item)
        if applied < 0:
            raise IndexError(f"token item id outside [0, {self.n_items})")
        return applied
