"""CCD++ — feature-wise cyclic coordinate descent (Yu et al. [26]).

The coordinate-descent competitor of the paper's §2.2: variables are
visited one latent feature at a time (w_{11..m1}, h_{11..n1}, w_{12..m2},
...), and a sparse residual matrix ``R = A − WHᵀ`` is maintained so each
rank-one subproblem works on up-to-date errors.  For feature ``l`` the
closed-form coordinate updates are::

    u_i ← Σ_j (R_ij + u_i v_j) v_j / (λ|Ω_i| + Σ_j v_j²)
    v_j ← Σ_i (R_ij + u_i v_j) u_i / (λ|Ω̄_j| + Σ_i u_i²)

optionally alternated ``inner_iters`` times before the rank-one term is
folded back into the residual.

Parallelization (Yu et al.) is bulk-synchronous: rows (then columns) are
split across workers, and each half-pass ends with a barrier plus an
all-gather of the updated coordinate vector — those two costs, and the
last-reducer ``max``, are what the simulation charges.

The numerics here are exact and fully vectorized (bincount-based), so
CCD++ runs at NumPy speed while the simulated clock charges the paper's
per-entry coordinate-pass cost model.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .base import ClockedOptimizer

__all__ = ["CCDPlusPlusSimulation"]

_TINY = 1e-12


class CCDPlusPlusSimulation(ClockedOptimizer):
    """Bulk-synchronous CCD++ on the simulated cluster.

    Parameters
    ----------
    inner_iters:
        Number of (u, v) alternations per feature before the residual is
        folded back (the ``T`` of Yu et al.; 1 matches their fastest
        configuration and is the default).
    """

    algorithm = "CCD++"

    def __init__(
        self,
        *args,
        inner_iters: int = 1,
        init_mode: str = "zero_w",
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        if inner_iters < 1:
            raise ConfigError(f"inner_iters must be >= 1, got {inner_iters}")
        if init_mode not in ("zero_w", "shared"):
            raise ConfigError(
                f"init_mode must be 'zero_w' or 'shared', got {init_mode!r}"
            )
        self.inner_iters = int(inner_iters)
        self.init_mode = init_mode
        if init_mode == "zero_w":
            # The reference implementation (libpmf) starts with W = 0, so
            # predictions begin at 0 and the first rank-one fits strictly
            # reduce the residual — avoiding the test-RMSE transient that a
            # shared random W costs the feature-wise method.  Documented as
            # a deliberate deviation from the shared initialization.
            self._w[:] = 0.0

    def _run_loop(self) -> None:
        train = self.train
        rows, cols, vals = train.rows, train.cols, train.vals
        m, n = train.n_rows, train.n_cols
        row_counts = train.row_counts().astype(np.float64)
        col_counts = train.col_counts().astype(np.float64)
        lambda_ = self.hyper.lambda_
        k = self.hyper.k

        residual = vals - np.einsum(
            "ij,ij->i", self._w[rows], self._h[cols]
        )

        n_workers = self.cluster.n_workers
        pass_compute = (
            self.cluster.hardware.ccd_pass_time(train.nnz)
            / n_workers
            / float(self.cluster.machine_speeds.min())
        )
        sync_cost = self._sync_cost(m, n)

        while not self._expired():
            for l in range(k):
                u = self._w[:, l].copy()
                v = self._h[:, l].copy()
                # Fold the rank-one term back into the residual.
                with_rank_one = residual + u[rows] * v[cols]
                for _ in range(self.inner_iters):
                    v_at = v[cols]
                    numerator = np.bincount(
                        rows, weights=with_rank_one * v_at, minlength=m
                    )
                    denominator = lambda_ * row_counts + np.bincount(
                        rows, weights=v_at * v_at, minlength=m
                    )
                    u = numerator / np.maximum(denominator, _TINY)
                    barrier = self.cluster.barrier_multiplier(self._jitter_rng)
                    self._advance(pass_compute * barrier + sync_cost)
                    self._count_updates(m)

                    u_at = u[rows]
                    numerator = np.bincount(
                        cols, weights=with_rank_one * u_at, minlength=n
                    )
                    denominator = lambda_ * col_counts + np.bincount(
                        cols, weights=u_at * u_at, minlength=n
                    )
                    v = numerator / np.maximum(denominator, _TINY)
                    barrier = self.cluster.barrier_multiplier(self._jitter_rng)
                    self._advance(pass_compute * barrier + sync_cost)
                    self._count_updates(n)

                residual = with_rank_one - u[rows] * v[cols]
                self._w[:, l] = u
                self._h[:, l] = v
                self._record_if_due()
                if self._expired():
                    return

    def _sync_cost(self, m: int, n: int) -> float:
        """Barrier + all-gather of one coordinate vector per half-pass."""
        if self.cluster.n_machines > 1:
            # Updated u (m floats) or v (n floats) must reach every machine.
            return self.cluster.bulk_delay((m + n) / 2 * 8)
        return self.cluster.intra.token_delay(self.hyper.k)
