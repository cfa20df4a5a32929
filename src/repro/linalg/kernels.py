"""The ALS closed-form row solve, used by the GraphLab-ALS baseline.

The SGD inner loops live in :mod:`repro.linalg.backends` — one
parameterized loop per execution strategy behind the
:class:`~repro.linalg.backends.KernelBackend` interface (resolved via
:func:`~repro.linalg.backends.resolve_backend`), so that NOMAD, DSGD and
FPSGD execute byte-identical mathematics and differ only in
*scheduling*, which is exactly the comparison the paper makes.

A note on the SGD update sign: Algorithm 1 of the paper writes the update as
``w ← w − s·[(A − ⟨w,h⟩)h + λw]``, which contains a well-known typo (the
data term there is the *negative* gradient).  The mathematically correct
gradient step the backends implement is::

    e = ⟨w, h⟩ − A                (dℓ/dprediction for the square loss)
    w ← (1 − s·λ)·w − s·e·h
    h ← (1 − s·λ)·h − s·e·w_old

with both updates computed from the *old* values of ``w`` and ``h``, matching
a simultaneous gradient step on the sampled term of equation (1).
"""

from __future__ import annotations

import numpy as np

__all__ = ["als_solve_row"]


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
