"""ALS — bulk-synchronous alternating least squares (Zhou et al. [27]).

The exact-solve method of the paper's §2.1: with H fixed, each row solve
``w_i ← (H_{Ω_i}ᵀ H_{Ω_i} + λ|Ω_i| I)⁻¹ H_{Ω_i}ᵀ a_i`` is an independent
least-squares problem (equation 3 with the weighted regularizer of
equation 1), and symmetrically for the columns.

Parallelization is bulk-synchronous: rows are split across workers, each
half-sweep ends in a barrier, and the freshly updated factor matrix must be
broadcast to all machines before the opposite half-sweep can begin —
because every column update reads *all* the ``w_i`` of its raters
(Figure 1a: ALS reads a whole neighborhood per update, unlike SGD's single
edge).  The simulated clock charges the per-row Gram+solve flop cost, the
last-reducer ``max``, and the broadcast.
"""

from __future__ import annotations

from ..linalg.kernels import als_solve_row
from .base import ClockedOptimizer

__all__ = ["ALSSimulation"]


class ALSSimulation(ClockedOptimizer):
    """Bulk-synchronous ALS on the simulated cluster."""

    algorithm = "ALS"

    def _run_loop(self) -> None:
        train = self.train
        k = self.hyper.k
        lambda_ = self.hyper.lambda_
        n_workers = self.cluster.n_workers
        min_speed = float(self.cluster.machine_speeds.min())

        row_items = [train.items_of_user(i) for i in range(train.n_rows)]
        col_users = [train.users_of_item(j) for j in range(train.n_cols)]
        hardware = self.cluster.hardware

        row_solve_time = sum(
            hardware.als_solve_time(k, items.size) for items, _ in row_items
        )
        col_solve_time = sum(
            hardware.als_solve_time(k, users.size) for users, _ in col_users
        )
        broadcast_h = self._broadcast_cost(train.n_cols)
        broadcast_w = self._broadcast_cost(train.n_rows)

        while not self._expired():
            for i, (items, ratings) in enumerate(row_items):
                if items.size:
                    self._w[i] = als_solve_row(
                        self._h[items], ratings, lambda_, items.size
                    )
            self._count_updates(train.n_rows)
            barrier = self.cluster.barrier_multiplier(self._jitter_rng)
            self._advance(
                row_solve_time / n_workers / min_speed * barrier + broadcast_w
            )
            self._record_if_due()
            if self._expired():
                return

            for j, (users, ratings) in enumerate(col_users):
                if users.size:
                    self._h[j] = als_solve_row(
                        self._w[users], ratings, lambda_, users.size
                    )
            self._count_updates(train.n_cols)
            barrier = self.cluster.barrier_multiplier(self._jitter_rng)
            self._advance(
                col_solve_time / n_workers / min_speed * barrier + broadcast_h
            )
            self._record_if_due()

    def _broadcast_cost(self, n_vectors: int) -> float:
        """Cost of sharing a freshly updated factor matrix cluster-wide."""
        if self.cluster.n_machines > 1:
            return self.cluster.bulk_delay(n_vectors * self.hyper.k * 8)
        return self.cluster.intra.token_delay(self.hyper.k)
