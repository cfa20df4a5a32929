"""Run configuration dataclasses shared by every optimizer.

Two layers of configuration exist:

* :class:`HyperParams` — the *model* parameters of objective (1) in the
  paper: latent dimension ``k``, regularization ``lambda_``, and the step
  size schedule constants ``alpha``/``beta`` of equation (11).
* :class:`RunConfig` — the *execution* parameters: how long to run, how
  often to evaluate, and the root random seed.

Both validate eagerly (raising :class:`~repro.errors.ConfigError`) so that a
mistyped value fails at construction, not minutes into a simulation.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass, field

from .errors import ConfigError

__all__ = ["HyperParams", "RunConfig"]


def _valid_kernel_backends() -> tuple[str, ...]:
    """Registered backend names plus the auto sentinel.

    Imported lazily: the backend registry in :mod:`repro.linalg.backends`
    is the single source of truth, but importing it at module level would
    close the cycle config → linalg → datasets → config.
    """
    from .linalg.backends import BACKENDS

    return ("auto", *sorted(BACKENDS))


def _default_kernel_backend() -> str:
    """Session default: the ``NOMAD_KERNEL_BACKEND`` env var, else auto."""
    from .linalg.backends import ENV_VAR

    return os.environ.get(ENV_VAR, "auto")


@dataclass(frozen=True)
class HyperParams:
    """Model hyperparameters of the regularized factorization objective.

    Attributes
    ----------
    k:
        Latent dimension of the factors ``W`` (m×k) and ``H`` (n×k).
    lambda_:
        Regularization constant λ of equation (1).  The library implements
        the paper's *weighted* L2 regularizer λ·|Ω_i|·‖w_i‖².
    alpha, beta:
        Constants of the NOMAD step-size schedule, equation (11):
        ``s_t = alpha / (1 + beta * t**1.5)`` where ``t`` counts the updates
        already applied to a given rating.
    """

    k: int = 16
    lambda_: float = 0.05
    alpha: float = 0.012
    beta: float = 0.05

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigError(f"latent dimension k must be >= 1, got {self.k}")
        if self.lambda_ < 0:
            raise ConfigError(f"lambda_ must be >= 0, got {self.lambda_}")
        if self.alpha <= 0:
            raise ConfigError(f"alpha must be > 0, got {self.alpha}")
        if self.beta < 0:
            raise ConfigError(f"beta must be >= 0, got {self.beta}")

    def with_(self, **changes) -> "HyperParams":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)


@dataclass(frozen=True)
class RunConfig:
    """Execution parameters for one optimizer run.

    Attributes
    ----------
    duration:
        Simulated wall-clock budget in seconds.  All optimizers stop once
        the simulated clock passes this point.
    eval_interval:
        Period, in simulated seconds, between test-RMSE evaluations recorded
        in the trace.  Evaluation is free in simulated time (the paper also
        excludes evaluation from its timings).
    seed:
        Root seed; see :class:`repro.rng.RngFactory`.
    max_updates:
        Optional cap on the number of SGD updates (used by
        RMSE-versus-updates experiments); ``None`` means unlimited.
    kernel_backend:
        SGD kernel execution strategy: ``"list"`` (the interpreted
        reference, one scalar Python loop), ``"cext"`` (the same loop as
        C compiled at first use, bit-identical to ``"list"``; requires a
        C toolchain and raises :class:`~repro.errors.ConfigError` at
        configuration time without one), or ``"auto"`` (``cext`` when
        usable, else ``list``; see
        :func:`repro.linalg.backends.resolve_backend`).  Defaults to the
        ``NOMAD_KERNEL_BACKEND`` environment variable when set, else
        ``"auto"``.
    """

    duration: float = 10.0
    eval_interval: float = 0.5
    seed: int = 0
    max_updates: int | None = None
    kernel_backend: str = field(default_factory=_default_kernel_backend)

    def __post_init__(self) -> None:
        if not math.isfinite(self.duration) or self.duration <= 0:
            raise ConfigError(f"duration must be positive, got {self.duration}")
        if not math.isfinite(self.eval_interval) or self.eval_interval <= 0:
            raise ConfigError(
                f"eval_interval must be positive, got {self.eval_interval}"
            )
        if self.eval_interval > self.duration:
            raise ConfigError(
                "eval_interval must not exceed duration "
                f"({self.eval_interval} > {self.duration})"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.max_updates is not None and self.max_updates < 1:
            raise ConfigError(
                f"max_updates must be >= 1 or None, got {self.max_updates}"
            )
        valid = _valid_kernel_backends()
        if self.kernel_backend not in valid:
            raise ConfigError(
                f"kernel_backend must be one of {valid}, got "
                f"{self.kernel_backend!r} (also settable via "
                "$NOMAD_KERNEL_BACKEND)"
            )

    def with_(self, **changes) -> "RunConfig":
        """Return a copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)
