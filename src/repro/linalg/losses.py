"""Separable loss functions.

The paper's optimizer "can work with an arbitrary separable loss" (§2) but
evaluates only the square loss.  This module keeps that generality: every
loss exposes per-entry value and gradient-factor methods so the SGD kernels
remain loss-agnostic, and the square loss is the concrete instance used by
all experiments.
"""

from __future__ import annotations

import abc

import numpy as np

__all__ = ["Loss", "SquaredLoss", "AbsoluteLoss", "HuberLoss"]


class Loss(abc.ABC):
    """Interface of a separable per-entry loss ℓ(a, p).

    ``a`` is the observed rating and ``p = ⟨w_i, h_j⟩`` the model prediction.
    """

    @abc.abstractmethod
    def value(self, ratings: np.ndarray, predictions: np.ndarray) -> np.ndarray:
        """Per-entry loss values (vectorized)."""

    @abc.abstractmethod
    def dloss_dpred(self, rating: float, prediction: float) -> float:
        """Derivative of the loss with respect to the prediction.

        SGD kernels multiply this scalar by ``h_j`` (resp. ``w_i``) to obtain
        the gradient with respect to ``w_i`` (resp. ``h_j``).
        """


class SquaredLoss(Loss):
    """The paper's loss: ``(a - p)² / 2``."""

    def value(self, ratings: np.ndarray, predictions: np.ndarray) -> np.ndarray:
        diff = np.asarray(ratings) - np.asarray(predictions)
        return 0.5 * diff * diff

    def dloss_dpred(self, rating: float, prediction: float) -> float:
        return prediction - rating

    def __repr__(self) -> str:
        return "SquaredLoss()"


class AbsoluteLoss(Loss):
    """Robust L1 loss ``|a - p|`` (extension; not used in paper figures).

    The subgradient at zero residual is taken to be 0.
    """

    def value(self, ratings: np.ndarray, predictions: np.ndarray) -> np.ndarray:
        return np.abs(np.asarray(ratings) - np.asarray(predictions))

    def dloss_dpred(self, rating: float, prediction: float) -> float:
        residual = prediction - rating
        if residual > 0:
            return 1.0
        if residual < 0:
            return -1.0
        return 0.0

    def __repr__(self) -> str:
        return "AbsoluteLoss()"


class HuberLoss(Loss):
    """Huber loss: quadratic near zero, linear in the tails (extension).

    Parameters
    ----------
    delta:
        Residual magnitude at which the loss switches from quadratic to
        linear.  Must be positive.
    """

    def __init__(self, delta: float = 1.0):
        if not delta > 0:  # NaN too: it would clip nothing
            raise ValueError(f"delta must be > 0, got {delta}")
        self.delta = float(delta)

    def value(self, ratings: np.ndarray, predictions: np.ndarray) -> np.ndarray:
        residual = np.asarray(ratings) - np.asarray(predictions)
        absres = np.abs(residual)
        quadratic = 0.5 * residual * residual
        linear = self.delta * (absres - 0.5 * self.delta)
        return np.where(absres <= self.delta, quadratic, linear)

    def dloss_dpred(self, rating: float, prediction: float) -> float:
        residual = prediction - rating
        if residual > self.delta:
            return self.delta
        if residual < -self.delta:
            return -self.delta
        return residual

    def __repr__(self) -> str:
        return f"HuberLoss(delta={self.delta})"
