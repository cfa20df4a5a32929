"""Regularizers for the factorization objective.

The paper uses the *weighted* square-norm regularizer of equation (1):
``(λ/2) Σ_i |Ω_i|·‖w_i‖² + (λ/2) Σ_j |Ω̄_j|·‖h_j‖²``.  The weighting by
rating counts is what makes the per-rating SGD penalty a plain ``λ w_i``
term (equations 9–10): each of user ``i``'s ``|Ω_i|`` sampled ratings
contributes a ``λ w_i`` pull, which sums to the full weighted penalty over
an epoch.
"""

from __future__ import annotations

import abc

import numpy as np

__all__ = ["Regularizer", "WeightedL2"]


class Regularizer(abc.ABC):
    """Interface: full penalty value plus the per-update SGD coefficient."""

    @abc.abstractmethod
    def penalty(
        self,
        w: np.ndarray,
        h: np.ndarray,
        row_counts: np.ndarray,
        col_counts: np.ndarray,
    ) -> float:
        """Total regularization term of the objective."""

    @abc.abstractmethod
    def sgd_coefficient_row(self, row_count: int) -> float:
        """Multiplier of ``w_i`` inside one SGD update touching user ``i``."""

    @abc.abstractmethod
    def sgd_coefficient_col(self, col_count: int) -> float:
        """Multiplier of ``h_j`` inside one SGD update touching item ``j``."""


class WeightedL2(Regularizer):
    """The paper's λ·|Ω_i|-weighted L2 regularizer."""

    def __init__(self, lambda_: float):
        if lambda_ < 0:
            raise ValueError(f"lambda_ must be >= 0, got {lambda_}")
        self.lambda_ = float(lambda_)

    def penalty(self, w, h, row_counts, col_counts) -> float:
        row_norms = np.einsum("ij,ij->i", w, w)
        col_norms = np.einsum("ij,ij->i", h, h)
        return 0.5 * self.lambda_ * (
            float(np.dot(row_counts, row_norms))
            + float(np.dot(col_counts, col_norms))
        )

    def sgd_coefficient_row(self, row_count: int) -> float:
        # Each sampled rating of user i contributes λ·w_i (eq. 9): the
        # |Ω_i| weighting is realized by sampling frequency, not here.
        return self.lambda_

    def sgd_coefficient_col(self, col_count: int) -> float:
        return self.lambda_

    def __repr__(self) -> str:
        return f"WeightedL2(lambda_={self.lambda_})"
