"""GraphLab-style asynchronous distributed-lock ALS (paper Appendix F).

The paper compares NOMAD against GraphLab PowerGraph's ALS and attributes
GraphLab's slowness to its locking protocol (§4.2): updating ``w_i`` with
equation (3) requires read-locking every neighbouring ``h_j`` over the
network, so "a popular user who has rated many items will require read
locks on a large number of items, and this will lead to vast amount of
communication and delays in updates on those items".

This analogue executes the same exact ALS mathematics as
:class:`~repro.baselines.als.ALSSimulation` but charges the lock protocol's
costs:

* **Per-neighbour lock round trips.** Each row update pays one
  acquire/release round trip per rated item whose owner is remote.  With a
  uniform random item placement a fraction ``(M-1)/M`` of neighbours are
  remote for ``M`` machines.
* **Conflict-limited parallelism.** Two row updates can proceed in
  parallel only when their item neighbourhoods are disjoint, so the
  effective parallelism is capped near ``n_items / avg_row_degree``
  regardless of how many workers exist — the scheduling problem the paper
  notes GraphLab must solve, here modeled at its information-theoretic
  limit (a generous assumption for GraphLab).

The result reproduces Appendix F's shape: on commodity networks the
analogue is orders of magnitude slower than NOMAD, and even on HPC
networks the lock traffic plus lost parallelism keeps it well behind.
"""

from __future__ import annotations

import numpy as np

from ..linalg.kernels import als_solve_row
from .base import ClockedOptimizer

__all__ = ["GraphLabALSSimulation"]


class GraphLabALSSimulation(ClockedOptimizer):
    """Distributed-lock asynchronous ALS analogue."""

    algorithm = "GraphLab-ALS"

    # ------------------------------------------------------------------
    # Cost model
    # ------------------------------------------------------------------
    def _remote_fraction(self) -> float:
        """Fraction of a neighbourhood whose locks cross the network."""
        machines = self.cluster.n_machines
        return (machines - 1) / machines if machines > 1 else 0.0

    def _lock_time(self, degree: int) -> float:
        """Sequential acquire+release round trips for one update's locks."""
        remote = self._remote_fraction() * degree
        local = degree - remote
        round_trip = 2.0 * self.cluster.network.latency_s
        local_trip = 2.0 * self.cluster.intra.latency_s
        return remote * round_trip + local * local_trip

    def _effective_workers(self, n_opposite: int, avg_degree: float) -> float:
        """Conflict-limited parallelism of one half-sweep."""
        independent = max(n_opposite / max(avg_degree, 1.0), 1.0)
        return min(float(self.cluster.n_workers), independent)

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def _run_loop(self) -> None:
        train = self.train
        k = self.hyper.k
        lambda_ = self.hyper.lambda_
        hardware = self.cluster.hardware
        min_speed = float(self.cluster.machine_speeds.min())

        row_items = [train.items_of_user(i) for i in range(train.n_rows)]
        col_users = [train.users_of_item(j) for j in range(train.n_cols)]
        row_degrees = np.array([items.size for items, _ in row_items])
        col_degrees = np.array([users.size for users, _ in col_users])

        row_work = sum(
            hardware.als_solve_time(k, int(d)) + self._lock_time(int(d))
            for d in row_degrees
        )
        col_work = sum(
            hardware.als_solve_time(k, int(d)) + self._lock_time(int(d))
            for d in col_degrees
        )
        row_parallelism = self._effective_workers(
            train.n_cols, float(row_degrees.mean())
        )
        col_parallelism = self._effective_workers(
            train.n_rows, float(col_degrees.mean())
        )

        while not self._expired():
            for i, (items, ratings) in enumerate(row_items):
                if items.size:
                    self._w[i] = als_solve_row(
                        self._h[items], ratings, lambda_, items.size
                    )
            self._count_updates(train.n_rows)
            self._advance(row_work / row_parallelism / min_speed)
            self._record_if_due()
            if self._expired():
                return

            for j, (users, ratings) in enumerate(col_users):
                if users.size:
                    self._h[j] = als_solve_row(
                        self._w[users], ratings, lambda_, users.size
                    )
            self._count_updates(train.n_cols)
            self._advance(col_work / col_parallelism / min_speed)
            self._record_if_due()
