"""Per-update step-size schedules.

NOMAD's schedule (equation 11 of the paper) decays with the number of
updates *already applied to the particular rating* being processed::

    s_t = alpha / (1 + beta * t**1.5)

Because ``t`` is a per-rating counter rather than a global clock, the decay
is immune to the asynchrony of the algorithm: a rating that happens to be
visited less often keeps a correspondingly larger step.
"""

from __future__ import annotations

from ..errors import ConfigError

__all__ = ["NomadSchedule"]


class NomadSchedule:
    """Equation (11): ``s_t = alpha / (1 + beta * t**1.5)``, mapping a
    per-rating update count ``t`` (0-based) to a step size."""

    def __init__(self, alpha: float, beta: float):
        if alpha <= 0:
            raise ConfigError(f"alpha must be > 0, got {alpha}")
        if beta < 0:
            raise ConfigError(f"beta must be >= 0, got {beta}")
        self.alpha = float(alpha)
        self.beta = float(beta)

    def step(self, t: int) -> float:
        """Step size for the (t+1)-th update of a rating."""
        if t < 0:
            raise ConfigError(f"update count must be >= 0, got {t}")
        return self.alpha / (1.0 + self.beta * t ** 1.5)

    def __call__(self, t: int) -> float:
        return self.step(t)

    def __repr__(self) -> str:
        return f"NomadSchedule(alpha={self.alpha}, beta={self.beta})"
