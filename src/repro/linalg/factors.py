"""Factor matrices ``W`` (users × k) and ``H`` (items × k).

Initialization follows the paper's §5.1 exactly: every entry is an
independent ``Uniform(0, 1/sqrt(k))`` draw, the convention of Yu et al. [26]
and Zhuang et al. [28].  With this scale, an initial prediction
``⟨w_i, h_j⟩`` has expectation ``k · (1/(2·sqrt(k)))² = 1/4``, independent of
``k``, which keeps early step sizes comparable across latent dimensions.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ..rng import derive_rng

__all__ = [
    "FactorPair",
    "init_factors",
    "start_factors",
    "validate_init_factors",
]


class FactorPair:
    """A mutable (W, H) pair owned by one optimizer run.

    The arrays are plain ``float64`` ndarrays; optimizers mutate rows in
    place.  :meth:`snapshot` produces a decoupled copy for evaluation so
    that trace RMSE values are not perturbed by later updates.
    """

    def __init__(self, w: np.ndarray, h: np.ndarray):
        w = np.ascontiguousarray(w, dtype=np.float64)
        h = np.ascontiguousarray(h, dtype=np.float64)
        if w.ndim != 2 or h.ndim != 2:
            raise ConfigError("factors must be 2-D arrays")
        if w.shape[1] != h.shape[1]:
            raise ConfigError(
                f"latent dimensions disagree: W has {w.shape[1]}, H has {h.shape[1]}"
            )
        self.w = w
        self.h = h

    @property
    def k(self) -> int:
        """Latent dimension shared by both factors."""
        return self.w.shape[1]

    @property
    def n_rows(self) -> int:
        """Number of users."""
        return self.w.shape[0]

    @property
    def n_cols(self) -> int:
        """Number of items."""
        return self.h.shape[0]

    def snapshot(self) -> "FactorPair":
        """Return an independent deep copy (for evaluation records)."""
        return FactorPair(self.w.copy(), self.h.copy())

    def __repr__(self) -> str:
        return f"FactorPair(m={self.n_rows}, n={self.n_cols}, k={self.k})"


def init_factors(
    n_rows: int,
    n_cols: int,
    k: int,
    rng: np.random.Generator,
) -> FactorPair:
    """Draw the paper's Uniform(0, 1/sqrt(k)) initialization.

    Parameters
    ----------
    n_rows, n_cols:
        User and item counts.
    k:
        Latent dimension.
    rng:
        Source of randomness.  Using one shared stream here is what lets
        every optimizer start "with the same initial parameters" (§5.1).
    """
    if n_rows < 1 or n_cols < 1:
        raise ConfigError(f"factor shape must be positive, got {n_rows}x{n_cols}")
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    bound = 1.0 / np.sqrt(k)
    w = rng.uniform(0.0, bound, size=(n_rows, k))
    h = rng.uniform(0.0, bound, size=(n_cols, k))
    return FactorPair(w, h)


def validate_init_factors(
    factors: FactorPair, n_rows: int, n_cols: int, k: int
) -> FactorPair:
    """Check externally supplied warm-start factors against a problem shape.

    One validator shared by the :func:`repro.fit` facade and every engine
    constructor, so a mismatched warm start always fails with the same
    message: the factor pair must cover exactly ``(n_rows, n_cols)`` with
    latent dimension ``k``.
    """
    if not isinstance(factors, FactorPair):
        raise ConfigError(
            f"init factors must be a FactorPair, got {type(factors).__name__}"
        )
    if factors.n_rows != n_rows or factors.n_cols != n_cols:
        raise ConfigError(
            f"init factors cover {factors.n_rows} users x "
            f"{factors.n_cols} items, but the training matrix is "
            f"{n_rows} x {n_cols}"
        )
    if factors.k != k:
        raise ConfigError(
            f"init factors have latent dimension {factors.k}, but hyper.k "
            f"is {k}"
        )
    return factors


def start_factors(
    n_rows: int, n_cols: int, k: int, seed: int, warm: FactorPair | None
) -> FactorPair:
    """The pair a run starts from: ``warm`` once validated against the
    problem shape, else the seed's ``"init"`` draw.

    Every trainer starts here, so one seed means one start on every
    engine — the "same initial parameters" of §5.1.  The returned pair
    is the caller's to read, not to mutate: trainers copy it.
    """
    if warm is not None:
        return validate_init_factors(warm, n_rows, n_cols, k)
    return init_factors(n_rows, n_cols, k, derive_rng(seed, "init"))
