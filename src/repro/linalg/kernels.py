"""Sequential numerical kernels shared by every optimizer.

These are the innermost loops of the library.  They are deliberately plain —
index arrays in, in-place factor mutation out — so that NOMAD, DSGD, FPSGD
and the coordinate/ALS methods all execute byte-identical mathematics and
differ only in *scheduling*, which is exactly the comparison the paper makes.

The SGD inner loops themselves live in :mod:`repro.linalg.backends` — one
parameterized loop per execution strategy behind the
:class:`~repro.linalg.backends.KernelBackend` interface (resolved via
:func:`~repro.linalg.backends.resolve_backend`).  This module keeps the
single-pair reference update the backends are tested against and the
ALS/CCD++ closed-form kernels.

A note on the SGD update sign: Algorithm 1 of the paper writes the update as
``w ← w − s·[(A − ⟨w,h⟩)h + λw]``, which contains a well-known typo (the
data term there is the *negative* gradient).  The mathematically correct
gradient step implemented here is::

    e = ⟨w, h⟩ − A                (dℓ/dprediction for the square loss)
    w ← (1 − s·λ)·w − s·e·h
    h ← (1 − s·λ)·h − s·e·w_old

with both updates computed from the *old* values of ``w`` and ``h``, matching
a simultaneous gradient step on the sampled term of equation (1).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "sgd_update_pair",
    "als_solve_row",
    "ccd_coordinate_update",
]


def sgd_update_pair(
    w_row: np.ndarray,
    h_col: np.ndarray,
    rating: float,
    step: float,
    lambda_: float,
) -> None:
    """Apply one SGD update to ``(w_i, h_j)`` in place (equations 9–10)."""
    error = float(np.dot(w_row, h_col)) - rating
    w_old = w_row.copy()
    w_row -= step * (error * h_col + lambda_ * w_row)
    h_col -= step * (error * w_old + lambda_ * h_col)


def als_solve_row(
    factor_sub: np.ndarray,
    ratings: np.ndarray,
    lambda_: float,
    weight: int,
) -> np.ndarray:
    """Exact least-squares solve for one row (equation 3).

    Solves ``(MᵀM + λ·weight·I) x = Mᵀ a`` where ``M`` collects the fixed
    opposite-side factors of the row's observed ratings and ``weight`` is
    the rating count |Ω_i| of the weighted regularizer in equation (1).

    Parameters
    ----------
    factor_sub:
        ``(nnz_i, k)`` sub-matrix H_{Ω_i} (or W_{Ω̄_j} for item updates).
    ratings:
        Observed ratings of this row, aligned with ``factor_sub``.
    lambda_:
        Regularization constant.
    weight:
        Rating count multiplying λ (the |Ω_i| weighting).

    Returns
    -------
    The optimal k-vector.
    """
    k = factor_sub.shape[1]
    gram = factor_sub.T @ factor_sub
    gram[np.diag_indices(k)] += lambda_ * max(int(weight), 1)
    rhs = factor_sub.T @ ratings
    return np.linalg.solve(gram, rhs)


def ccd_coordinate_update(
    residual: np.ndarray,
    own_coord: float,
    other_coords: np.ndarray,
    lambda_: float,
    weight: int,
) -> tuple[float, np.ndarray]:
    """One CCD++ scalar update with residual maintenance (Yu et al. [26]).

    For the rank-one subproblem ``min_u Σ_j (R_ij + u_i v_j − u v_j)² +
    λ|Ω_i| u²`` the closed-form optimum is::

        u* = Σ_j (R_ij + u_i·v_j)·v_j / (λ·|Ω_i| + Σ_j v_j²)

    Parameters
    ----------
    residual:
        Current residual values ``R_ij`` of this row's observed entries
        (with the rank-one term *included* in the residual, i.e.
        ``R = A − WHᵀ``).
    own_coord:
        Current value of the coordinate being updated (``u_i``).
    other_coords:
        Opposite-side coordinate values ``v_j`` aligned with ``residual``.
    lambda_:
        Regularization constant.
    weight:
        Rating count |Ω_i| for the weighted regularizer.

    Returns
    -------
    (new coordinate value, updated residual array).  The residual returned
    reflects the coordinate change: ``R_ij ← R_ij − (u* − u_i)·v_j``.
    """
    denominator = lambda_ * max(int(weight), 1) + float(
        np.dot(other_coords, other_coords)
    )
    if denominator == 0.0:
        return 0.0, residual
    numerator = float(np.dot(residual + own_coord * other_coords, other_coords))
    new_coord = numerator / denominator
    new_residual = residual - (new_coord - own_coord) * other_coords
    return new_coord, new_residual
