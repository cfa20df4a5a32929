"""ndarray SGD backend — the large-``k`` fast path.

Each update's latent-dimension arithmetic runs as vectorized ``float64``
ndarray expressions (one fused dot product and two elementwise row
updates) instead of a scalar Python loop, so the per-update cost grows
sub-linearly in ``k`` and overtakes the list backend at large latent
dimensions (k ≳ 64; see ``AUTO_NUMPY_MIN_K``).

The *ratings* dimension deliberately stays sequential: every SGD update
feeds the very next prediction through the shared ``h_j`` (column
variants) or any shared row (entries variants), so batching across
ratings would change the mathematics.  Sequential-equivalent semantics —
identical visit order and identical per-rating counter schedule — are
preserved exactly; only last-ulp float rounding may differ from the list
backend (the dot-product reduction order), which the cross-backend
equivalence suite bounds at ``atol=1e-10``.

This backend's storage is the plain ndarray pair, which makes it the
natural choice for the shared-memory runtimes whose factors live in
:mod:`multiprocessing.shared_memory` blocks.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..factors import FactorPair
from ..losses import Loss
from .base import KernelBackend
from .list_backend import column_on_lists

__all__ = ["NumpyBackend"]


def _sgd_core_ndarray(
    w: np.ndarray,
    h: np.ndarray | None,
    h_col: np.ndarray | None,
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
    """Shared ndarray inner loop; argument contract mirrors
    :func:`repro.linalg.backends.list_backend.sgd_core`."""
    fixed_h = h_col is not None
    scheduled = counts is not None
    if not scheduled:
        scaled_step = step
        decay = 1.0 - step * lambda_
    applied = 0
    for idx in order:
        w_row = w[entry_rows[idx]]
        h_row = h_col if fixed_h else h[entry_cols[idx]]
        if scheduled:
            # int(): an ndarray counter is an np.int64 scalar, and
            # ``** 1.5`` on one costs several times the Python int's.
            t = int(counts[idx])
            scaled_step = alpha / (1.0 + beta * t ** 1.5)
            counts[idx] = t + 1
            decay = 1.0 - scaled_step * lambda_
        prediction = float(w_row @ h_row)
        if dloss is None:
            gradient = prediction - ratings[idx]
        else:
            gradient = dloss(ratings[idx], prediction)
        scaled_error = scaled_step * gradient
        # Same elementwise expansion as the list core; h is updated from
        # the *old* w row (w_row is overwritten only afterwards).
        w_new = decay * w_row - scaled_error * h_row
        h_row *= decay
        h_row -= scaled_error * w_row
        w_row[:] = w_new
        applied += 1
    return applied


class NumpyBackend(KernelBackend):
    """ndarray factor storage with k-vectorized sequential kernels."""

    name = "numpy"

    # ------------------------------------------------------------------
    # Factor storage
    # ------------------------------------------------------------------
    def make_store(self, factors: FactorPair) -> tuple[np.ndarray, np.ndarray]:
        return factors.w.copy(), factors.h.copy()

    def export(self, w: Any, h: Any) -> FactorPair:
        return FactorPair(np.array(w, dtype=np.float64), np.array(h, dtype=np.float64))

    def row(self, store: Any, index: int) -> np.ndarray:
        return store[index]

    def copy_rows(self, store: Any) -> np.ndarray:
        return np.array(store, dtype=np.float64)

    def restore_rows(self, store: Any, snapshot: Any) -> None:
        for index, row in enumerate(snapshot):
            store[index][:] = row

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def process_column(
        self, w, h_col, user_rows, ratings, counts, alpha, beta, lambda_
    ) -> int:
        return column_on_lists(
            _sgd_core_ndarray, w, h_col, user_rows, ratings, counts,
            alpha, beta, lambda_, None,
        )

    def process_column_loss(
        self, w, h_col, user_rows, ratings, counts, alpha, beta, lambda_, loss: Loss
    ) -> int:
        return column_on_lists(
            _sgd_core_ndarray, w, h_col, user_rows, ratings, counts,
            alpha, beta, lambda_, loss.dloss_dpred,
        )

    def process_entries(
        self, w, h, entry_rows, entry_cols, ratings, counts, alpha, beta,
        lambda_, order,
    ) -> int:
        if len(entry_rows) == 0:
            return 0
        return _sgd_core_ndarray(
            w, h, None, entry_rows, entry_cols, ratings, counts, order,
            alpha, beta, lambda_, 0.0, None,
        )

    def process_entries_const(
        self, w, h, entry_rows, entry_cols, ratings, step, lambda_, order
    ) -> int:
        if len(entry_rows) == 0:
            return 0
        return _sgd_core_ndarray(
            w, h, None, entry_rows, entry_cols, ratings, None, order,
            0.0, 0.0, lambda_, step, None,
        )
