"""Objective and error evaluation.

The quantities here match the paper exactly:

* :func:`regularized_objective` — J(W, H) of equation (1) with the weighted
  L2 regularizer.
* :func:`test_rmse` — the held-out root-mean-square error of §5.1, the
  y-axis of every convergence figure.
* :func:`predict` — vectorized ``⟨w_i, h_j⟩`` for arbitrary index pairs.

All evaluations are vectorized over the full triplet arrays; they never
mutate the factors.
"""

from __future__ import annotations

import numpy as np

from ..datasets.ratings import RatingMatrix
from .factors import FactorPair
from .losses import Loss, SquaredLoss
from .regularizers import Regularizer, WeightedL2

__all__ = ["predict", "test_rmse", "regularized_objective"]


def predict(factors: FactorPair, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Model predictions ``⟨w_i, h_j⟩`` for paired index arrays."""
    return np.einsum("ij,ij->i", factors.w[rows], factors.h[cols])


def test_rmse(factors: FactorPair, test: RatingMatrix) -> float:
    """Root-mean-square error over held-out ratings (§5.1)."""
    predictions = predict(factors, test.rows, test.cols)
    diff = test.vals - predictions
    return float(np.sqrt(np.mean(diff * diff)))


def regularized_objective(
    factors: FactorPair,
    train: RatingMatrix,
    regularizer: Regularizer | None = None,
    loss: Loss | None = None,
    lambda_: float | None = None,
) -> float:
    """Evaluate J(W, H) of equation (1).

    Parameters
    ----------
    factors:
        Current model.
    train:
        Observed ratings Ω.
    regularizer:
        Penalty term; defaults to the paper's :class:`WeightedL2` built from
        ``lambda_``.
    loss:
        Per-entry loss; defaults to :class:`SquaredLoss`.
    lambda_:
        Convenience shortcut — used only when ``regularizer`` is None.
    """
    if regularizer is None:
        regularizer = WeightedL2(0.0 if lambda_ is None else lambda_)
    if loss is None:
        loss = SquaredLoss()
    predictions = predict(factors, train.rows, train.cols)
    data_term = float(np.sum(loss.value(train.vals, predictions)))
    penalty = regularizer.penalty(
        factors.w, factors.h, train.row_counts(), train.col_counts()
    )
    return data_term + penalty
