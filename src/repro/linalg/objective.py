"""Objective and error evaluation.

The quantities here match the paper exactly:

* :func:`regularized_objective` — J(W, H) of equation (1): the square loss
  plus the weighted L2 penalty.
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
    factors: FactorPair, train: RatingMatrix, lambda_: float
) -> float:
    """J(W, H) of equation (1): the square loss ``(a - p)² / 2`` over the
    observed ratings Ω plus the weighted penalty
    ``(λ/2) Σ_i |Ω_i|·‖w_i‖² + (λ/2) Σ_j |Ω̄_j|·‖h_j‖²``.

    The weighting by rating counts is what makes the per-rating SGD
    penalty a plain ``λ w_i`` term (equations 9–10): each of user ``i``'s
    ``|Ω_i|`` sampled ratings contributes one ``λ w_i`` pull, which sums
    to the full weighted penalty over an epoch.
    """
    diff = train.vals - predict(factors, train.rows, train.cols)
    data_term = float(np.sum(0.5 * diff * diff))
    w, h = factors.w, factors.h
    row_norms = np.einsum("ij,ij->i", w, w)
    col_norms = np.einsum("ij,ij->i", h, h)
    penalty = 0.5 * lambda_ * (
        float(np.dot(train.row_counts(), row_norms))
        + float(np.dot(train.col_counts(), col_norms))
    )
    return data_term + penalty
