"""The interpreted reference backend: one scalar Python SGD loop.

Every kernel variant funnels into one parameterized core,
:func:`sgd_core`, so the update mathematics exists exactly once::

    s      = α / (1 + β·t^1.5)          (or the constant step)
    g      = dℓ/dp(a, ⟨w, h⟩)           (p − a for the square loss)
    w[d]   ← (1 − s·λ)·w[d] − s·g·h[d]
    h[d]   ← (1 − s·λ)·h[d] − s·g·w_old[d]

with both updates computed from the *old* row values — a simultaneous
gradient step on the sampled term of equation (1), and the algebraically
expanded form of ``w ← w − s·(g·h + λ·w)``.

The core runs over ``float64`` ndarray factors (it only relies on
``rows[i]`` returning a mutable row and scalar ``row[d]`` indexing).
Every operation is one IEEE double operation in a fixed order, which is
what the compiled backend replicates bit for bit; this backend is the
specification it is held to, and the fallback where no C toolchain is
usable.  The registry name ``"list"`` is historical: factors were once
nested lists here.
"""

from __future__ import annotations

import operator
import random
from array import array
from typing import Any, Sequence

import numpy as np

from ..losses import Loss
from .base import KernelBackend, TokenKernel

__all__ = [
    "ListBackend",
    "ListTokenKernel",
    "PyRandomStream",
    "column_on_lists",
    "sgd_core",
]


def sgd_core(
    w_rows: Any,
    h_rows: Any,
    h_col: Any,
    entry_rows: Sequence[int],
    entry_cols: Sequence[int] | None,
    ratings: Sequence[float],
    counts: Sequence[int] | None,
    order: Sequence[int],
    alpha: float,
    beta: float,
    lambda_: float,
    step: float,
    dloss,
) -> int:
    """The one sequential SGD inner loop behind every list-kernel variant.

    Parameters
    ----------
    w_rows:
        Row-indexable user factors; ``w_rows[i]`` is mutated in place.
    h_rows, h_col:
        Exactly one is used: ``h_col`` (non-``None``) pins every visit to
        one shared item vector (column variants); otherwise the item row
        is looked up as ``h_rows[entry_cols[idx]]`` (entries variants).
    entry_rows, entry_cols, ratings:
        Per-visit user index, item index (ignored when ``h_col`` is
        given), and rating value, indexed by elements of ``order``.
    counts:
        Per-rating update counters driving the equation (11) schedule,
        mutated in place; ``None`` selects the constant ``step`` instead.
    order:
        Visit order (``range(n)`` for the column variants).
    dloss:
        ``loss.dloss_dpred`` for a generic separable loss, or ``None``
        for the inlined square loss.

    Returns the number of updates applied.
    """
    fixed_h = h_col is not None
    k = len(h_col) if fixed_h else (len(w_rows[0]) if len(w_rows) else 0)
    dims = range(k)
    scheduled = counts is not None
    if not scheduled:
        decay = 1.0 - step * lambda_
        scaled_step = step
    applied = 0
    for idx in order:
        w_row = w_rows[entry_rows[idx]]
        h_row = h_col if fixed_h else h_rows[entry_cols[idx]]
        if scheduled:
            # int(): an ndarray counter is an np.int64, whose ``** 1.5``
            # differs from a Python int's in the last ulp.
            t = int(counts[idx])
            scaled_step = alpha / (1.0 + beta * t ** 1.5)
            counts[idx] = t + 1
            decay = 1.0 - scaled_step * lambda_
        prediction = 0.0
        for d in dims:
            prediction += w_row[d] * h_row[d]
        if dloss is None:
            gradient = prediction - ratings[idx]
        else:
            gradient = dloss(ratings[idx], prediction)
        scaled_error = scaled_step * gradient
        for d in dims:
            w_value = w_row[d]
            w_row[d] = decay * w_value - scaled_error * h_row[d]
            h_row[d] = decay * h_row[d] - scaled_error * w_value
        applied += 1
    return applied


def _as_list(values: Any) -> Any:
    return values.tolist() if isinstance(values, np.ndarray) else values


def column_on_lists(
    w, h_col, user_rows, ratings, counts, alpha, beta, lambda_, dloss
) -> int:
    """One column through :func:`sgd_core`, with the column's own arrays
    as lists whatever came in.

    Bound token kernels hand in ndarray slices of a worker's CSC arrays
    and an ndarray ``h`` row.  Element access on those yields NumPy
    scalars, which a Python-level loop is several times slower on, so
    each is converted once per call (the values, and so the bits, are the
    same) and ``h_col`` and the counters are written back into the
    caller's arrays afterwards.
    """
    users = _as_list(user_rows)
    h_list = _as_list(h_col)
    counts_list = _as_list(counts)
    applied = sgd_core(
        w, None, h_list, users, None, _as_list(ratings), counts_list,
        range(len(users)), alpha, beta, lambda_, 0.0, dloss,
    )
    if h_list is not h_col:
        h_col[:] = h_list
    if counts_list is not counts:
        counts[:] = counts_list
    return applied


#: Every draw is ``randrange(n)`` with ``n`` below this.
_BOUND = 1 << 32
_OUT_OF_BOUND = "draw bound must lie in [1, 2**32)"


def _bound(n: int) -> int:
    n = operator.index(n)
    if not 0 < n < _BOUND:
        raise ValueError(_OUT_OF_BOUND)
    return n


class PyRandomStream:
    """The interpreted draw stream: a copy of a :class:`random.Random`
    whose methods are the :mod:`random` calls they are named after.

    This is the specification the compiled ``MTStream`` is held to
    (``tests/test_backends.py::TestDrawStream``), and it makes the C's
    checks on bounds and buffers.
    """

    def __init__(self, rng: random.Random):
        self._rng = random.Random()
        self._rng.setstate(rng.getstate())

    def randrange(self, n: int) -> int:
        return self._rng.randrange(_bound(n))

    def randbelow_many(self, n: int, count: int) -> np.ndarray:
        randrange, n = self._rng.randrange, _bound(n)
        if count < 0:
            raise ValueError("count must be >= 0")
        return np.array([randrange(n) for _ in range(count)], dtype=np.int64)

    def shuffle(self, buffer: Any) -> None:
        try:
            view = memoryview(buffer)
        except TypeError:
            view = None
        if (view is None or view.readonly or not view.c_contiguous
                or view.itemsize != 8
                or view.format.lstrip("<=@") not in ("q", "l")):
            raise TypeError(
                "buffer must be a writable C-contiguous int64 array"
            )
        view = view.cast("B").cast("q")
        if len(view) >= _BOUND:
            raise ValueError(_OUT_OF_BOUND)
        values = view.tolist()
        self._rng.shuffle(values)
        view[:] = array("q", values)

    def sample(self, population: Sequence, k: int) -> list:
        if len(population) >= _BOUND:
            raise ValueError(_OUT_OF_BOUND)
        return self._rng.sample(population, k)

    def getstate(self) -> tuple:
        return self._rng.getstate()


class ListBackend(KernelBackend):
    """The interpreted reference: :func:`sgd_core` behind every kernel."""

    name = "list"

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def process_column(
        self, w, h_col, user_rows, ratings, counts, alpha, beta, lambda_
    ) -> int:
        return column_on_lists(
            w, h_col, user_rows, ratings, counts,
            alpha, beta, lambda_, None,
        )

    def bind_tokens(
        self, w, h, indptr, users, ratings, counts, alpha, beta, lambda_,
        loss: Loss | None = None, ends: np.ndarray | None = None,
    ) -> "ListTokenKernel":
        return ListTokenKernel(
            w, h, indptr, users, ratings, counts, alpha, beta, lambda_,
            None if loss is None else loss.dloss_dpred,
            indptr[1:] if ends is None else ends,
        )

    def rng_stream(self, rng: random.Random) -> PyRandomStream:
        return PyRandomStream(rng)

    def process_entries(
        self, w, h, entry_rows, entry_cols, ratings, counts, alpha, beta,
        lambda_, order,
    ) -> int:
        if len(entry_rows) == 0:
            return 0
        return sgd_core(
            w, h, None, entry_rows, entry_cols, ratings, counts,
            _as_list(order), alpha, beta, lambda_, 0.0, None,
        )

    def process_entries_const(
        self, w, h, entry_rows, entry_cols, ratings, step, lambda_, order
    ) -> int:
        if len(entry_rows) == 0:
            return 0
        return sgd_core(
            w, h, None, entry_rows, entry_cols, ratings, None,
            _as_list(order), 0.0, 0.0, lambda_, step, None,
        )


class ListTokenKernel(TokenKernel):
    """The interpreted bound kernel: :func:`column_on_lists` over each
    token's column ``indptr[j]:ends[j]`` in turn, under the bound loss's
    gradient (``dloss``; ``None`` for the inlined square loss)."""

    def __init__(
        self, w, h, indptr, users, ratings, counts, alpha, beta, lambda_,
        dloss, ends,
    ):
        super().__init__(
            w, h, indptr, users, ratings, counts, alpha, beta, lambda_
        )
        self._dloss = dloss
        self._ends = ends

    def process_tokens(self, items: np.ndarray) -> int:
        items = np.asarray(items, dtype=np.int64)
        if items.size and not 0 <= items.min() <= items.max() < self.n_items:
            raise IndexError(f"token item id outside [0, {self.n_items})")
        w, h, indptr, users, ratings, counts = self._arrays
        ends = self._ends
        applied = 0
        for j in items.tolist():
            lo, hi = indptr[j], ends[j]
            if hi > lo:
                applied += column_on_lists(
                    w, h[j], users[lo:hi], ratings[lo:hi], counts[lo:hi],
                    *self._step, self._dloss,
                )
        return applied
