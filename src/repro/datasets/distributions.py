"""Degree-distribution samplers used to shape synthetic rating matrices.

Real recommendation datasets have heavily skewed activity: a few users rate
thousands of items while most rate a handful, and likewise for items.  The
paper's weak-scaling experiment (§5.5) samples the per-user and per-item
rating counts "from the corresponding empirical distribution of the Netflix
data".  Since Netflix itself is unavailable here, this module provides a
standard heavy-tailed family (log-normal) whose parameters the registry
tunes to match Netflix's published summary statistics, plus the machinery that turns two degree sequences into a
consistent sample of (user, item) rating pairs.
"""

from __future__ import annotations

import numpy as np

from ..errors import DataError

__all__ = [
    "log_normal_degrees",
    "degrees_to_pair_sample",
]


def log_normal_degrees(
    n: int,
    mean_degree: float,
    sigma: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample ``n`` degrees from a log-normal with a given arithmetic mean.

    The underlying normal's ``mu`` is solved from
    ``mean = exp(mu + sigma**2 / 2)`` so callers specify the intuitive
    arithmetic mean directly.  Draws are rounded and clipped to at least 1,
    so every row and column the degrees describe has a rating.
    """
    if n < 1:
        raise DataError(f"n must be >= 1, got {n}")
    if mean_degree <= 0:
        raise DataError(f"mean_degree must be > 0, got {mean_degree}")
    if sigma < 0:
        raise DataError(f"sigma must be >= 0, got {sigma}")
    mu = np.log(mean_degree) - 0.5 * sigma * sigma
    draws = rng.lognormal(mean=mu, sigma=sigma, size=n)
    return np.maximum(np.round(draws).astype(np.int64), 1)


def degrees_to_pair_sample(
    row_degrees: np.ndarray,
    col_degrees: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample (row, col) rating locations consistent with both degree profiles.

    Implements the paper's §5.5 recipe: "Conditioned on the number of
    ratings for each user and item, the nonzero locations are sampled
    uniformly at random."  Concretely this is a bipartite configuration
    model: each endpoint list is expanded into stubs, the column stubs are
    shuffled, and stubs are matched pairwise.  Collisions (duplicate pairs)
    are resolved by keeping the first occurrence, which perturbs realized
    degrees only slightly for sparse matrices.

    The two degree sums need not match exactly; the shorter stub list is
    padded by re-sampling from its own distribution so no rating is lost.

    Returns
    -------
    (rows, cols) index arrays of equal length with no duplicate pairs.
    """
    row_degrees = np.asarray(row_degrees, dtype=np.int64)
    col_degrees = np.asarray(col_degrees, dtype=np.int64)
    if row_degrees.ndim != 1 or col_degrees.ndim != 1:
        raise DataError("degree arrays must be 1-D")
    if (row_degrees < 0).any() or (col_degrees < 0).any():
        raise DataError("degrees must be non-negative")
    total_rows = int(row_degrees.sum())
    total_cols = int(col_degrees.sum())
    if total_rows == 0 or total_cols == 0:
        raise DataError("degree sequences must contain at least one rating")

    row_stubs = np.repeat(np.arange(row_degrees.size), row_degrees)
    col_stubs = np.repeat(np.arange(col_degrees.size), col_degrees)

    # Equalize stub counts by resampling extra endpoints proportionally to
    # the existing degrees (preserves the shape of the shorter side).
    if row_stubs.size < col_stubs.size:
        extra = rng.choice(row_stubs, size=col_stubs.size - row_stubs.size)
        row_stubs = np.concatenate([row_stubs, extra])
    elif col_stubs.size < row_stubs.size:
        extra = rng.choice(col_stubs, size=row_stubs.size - col_stubs.size)
        col_stubs = np.concatenate([col_stubs, extra])

    rng.shuffle(col_stubs)
    pairs = row_stubs.astype(np.int64) * col_degrees.size + col_stubs
    _, keep = np.unique(pairs, return_index=True)
    keep.sort()
    return row_stubs[keep], col_stubs[keep]
