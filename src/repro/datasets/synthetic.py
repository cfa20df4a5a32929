"""Synthetic rating-matrix generators.

Two generators are provided:

* :func:`make_low_rank` — the workhorse for every surrogate dataset: plants
  a ground-truth factorization ``W* H*ᵀ`` with Gaussian factors, observes a
  sparse set of entries, and adds Gaussian noise.  Because the truth is
  known, the achievable test RMSE is ≈ the noise level, which gives every
  experiment a meaningful convergence target.
* :func:`make_netflix_like` — the weak-scaling generator of the paper's
  §5.5: per-user/per-item rating counts drawn from a heavy-tailed profile,
  locations uniform given the counts, values ``⟨w_i, h_j⟩ + N(0, 0.1²)``
  from standard-normal factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError
from .distributions import degrees_to_pair_sample, log_normal_degrees
from .ratings import RatingMatrix

__all__ = ["SyntheticSpec", "make_low_rank", "make_netflix_like"]

#: Log-normal shape of :func:`make_netflix_like`'s user and item rating
#: counts: the skew of activity.
DEGREE_SIGMA = 1.1


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of a planted low-rank dataset.

    Attributes
    ----------
    n_rows, n_cols:
        Matrix shape (users × items).
    rank:
        Rank of the planted ground truth.  Recovery is possible whenever the
        fitted latent dimension is >= this rank.
    density:
        Expected fraction of observed entries.
    noise:
        Standard deviation of additive Gaussian observation noise; the best
        achievable test RMSE is approximately this value.

    Planted factor entries are standard normal, so entry magnitudes are
    roughly ``sqrt(rank)``.
    """

    n_rows: int
    n_cols: int
    rank: int = 4
    density: float = 0.05
    noise: float = 0.1

    def __post_init__(self) -> None:
        if self.n_rows < 1 or self.n_cols < 1:
            raise DataError(f"shape must be positive, got {self.n_rows}x{self.n_cols}")
        if self.rank < 1:
            raise DataError(f"rank must be >= 1, got {self.rank}")
        if not 0.0 < self.density <= 1.0:
            raise DataError(f"density must be in (0, 1], got {self.density}")
        if self.noise < 0:
            raise DataError(f"noise must be >= 0, got {self.noise}")


def make_low_rank(spec: SyntheticSpec, rng: np.random.Generator) -> RatingMatrix:
    """Generate a planted low-rank rating matrix.

    Observation locations are a uniform sample without replacement of the
    requested density, with a post-pass guaranteeing every row and column
    has at least one rating (isolated rows/columns would make their factors
    unidentifiable and break per-worker bookkeeping).

    Parameters
    ----------
    spec:
        Dataset parameters.
    rng:
        Source of randomness.  Its first draws are the planted ``W*`` and
        then ``H*``, standard normal.
    """
    m, n = spec.n_rows, spec.n_cols
    w_true = rng.normal(0.0, 1.0, size=(m, spec.rank))
    h_true = rng.normal(0.0, 1.0, size=(n, spec.rank))

    target_nnz = max(int(round(m * n * spec.density)), m + n)
    target_nnz = min(target_nnz, m * n)
    flat = rng.choice(m * n, size=target_nnz, replace=False)
    rows = flat // n
    cols = flat % n

    # Guarantee coverage: give every missing row/column one rating.
    present_rows = np.zeros(m, dtype=bool)
    present_rows[rows] = True
    missing_rows = np.flatnonzero(~present_rows)
    if missing_rows.size:
        extra_cols = rng.integers(0, n, size=missing_rows.size)
        rows = np.concatenate([rows, missing_rows])
        cols = np.concatenate([cols, extra_cols])
    present_cols = np.zeros(n, dtype=bool)
    present_cols[cols] = True
    missing_cols = np.flatnonzero(~present_cols)
    if missing_cols.size:
        extra_rows = rng.integers(0, m, size=missing_cols.size)
        rows = np.concatenate([rows, extra_rows])
        cols = np.concatenate([cols, missing_cols])
    # The coverage pass may have introduced duplicates; keep first occurrence.
    pairs = rows.astype(np.int64) * n + cols
    _, keep = np.unique(pairs, return_index=True)
    keep.sort()
    rows, cols = rows[keep], cols[keep]

    clean = np.einsum("ij,ij->i", w_true[rows], h_true[cols])
    vals = clean + rng.normal(0.0, spec.noise, size=clean.shape)
    return RatingMatrix(m, n, rows, cols, vals)


def make_netflix_like(
    n_users: int,
    n_items: int,
    mean_ratings_per_user: float,
    rng: np.random.Generator,
    rank: int = 16,
    noise: float = 0.1,
) -> RatingMatrix:
    """Generate the §5.5 weak-scaling dataset at a chosen scale.

    The paper fixes the item count at Netflix's 17,770, grows users
    proportionally to the machine count, draws per-user/per-item rating
    counts from Netflix's empirical profile, places nonzeros uniformly
    conditioned on the counts, and emits ratings ``⟨w_i, h_j⟩ + N(0, 0.1²)``
    with 100-dimensional standard Gaussian factors.  This function follows
    the same recipe with a log-normal degree profile (heavy-tailed, like the
    empirical one, of shape :data:`DEGREE_SIGMA`) and a configurable rank.

    Parameters
    ----------
    n_users, n_items:
        Shape of the generated matrix.
    mean_ratings_per_user:
        Average user activity; Netflix's is ≈ 206.  Total ratings are then
        ≈ ``n_users * mean_ratings_per_user``.
    rng:
        Source of randomness.
    rank:
        Dimension of the planted Gaussian factors (paper: 100).
    noise:
        Observation noise std (paper: 0.1).
    """
    if n_users < 1 or n_items < 1:
        raise DataError(f"shape must be positive, got {n_users}x{n_items}")
    if mean_ratings_per_user <= 0:
        raise DataError(
            f"mean_ratings_per_user must be > 0, got {mean_ratings_per_user}"
        )
    user_degrees = log_normal_degrees(
        n_users, mean_ratings_per_user, DEGREE_SIGMA, rng
    )
    user_degrees = np.minimum(user_degrees, n_items)
    mean_per_item = user_degrees.sum() / n_items
    item_degrees = log_normal_degrees(n_items, mean_per_item, DEGREE_SIGMA, rng)
    item_degrees = np.minimum(item_degrees, n_users)

    rows, cols = degrees_to_pair_sample(user_degrees, item_degrees, rng)

    w_true = rng.normal(0.0, 1.0, size=(n_users, rank))
    h_true = rng.normal(0.0, 1.0, size=(n_items, rank))
    clean = np.einsum("ij,ij->i", w_true[rows], h_true[cols])
    vals = clean + rng.normal(0.0, noise, size=clean.shape)

    # Coverage pass mirroring make_low_rank: no empty rows or columns.
    present_rows = np.zeros(n_users, dtype=bool)
    present_rows[rows] = True
    missing = np.flatnonzero(~present_rows)
    if missing.size:
        extra_cols = rng.integers(0, n_items, size=missing.size)
        extra_vals = np.einsum(
            "ij,ij->i", w_true[missing], h_true[extra_cols]
        ) + rng.normal(0.0, noise, size=missing.size)
        rows = np.concatenate([rows, missing])
        cols = np.concatenate([cols, extra_cols])
        vals = np.concatenate([vals, extra_vals])
    present_cols = np.zeros(n_items, dtype=bool)
    present_cols[cols] = True
    missing = np.flatnonzero(~present_cols)
    if missing.size:
        extra_rows = rng.integers(0, n_users, size=missing.size)
        extra_vals = np.einsum(
            "ij,ij->i", w_true[extra_rows], h_true[missing]
        ) + rng.normal(0.0, noise, size=missing.size)
        rows = np.concatenate([rows, extra_rows])
        cols = np.concatenate([cols, missing])
        vals = np.concatenate([vals, extra_vals])

    pairs = rows.astype(np.int64) * n_items + cols
    _, keep = np.unique(pairs, return_index=True)
    keep.sort()
    return RatingMatrix(n_users, n_items, rows[keep], cols[keep], vals[keep])
