"""DSGD — Distributed Stochastic Gradient Descent (Gemulla et al. [12]).

The bulk-synchronous strawman of the paper's §4.1 and Figure 3:

* The rating matrix is partitioned into a p×p grid (p = machines).
* In sub-epoch ``s``, machine ``q`` runs SGD over the block
  ``(q, (q + s + offset) mod p)``.  Blocks are row- and column-disjoint
  across machines, so the sub-epoch's updates are conflict-free.
* After every sub-epoch all machines synchronize and exchange column
  blocks of H — computation and communication strictly in sequence, and
  every machine waits for the slowest one (the "curse of the last
  reducer") — these two costs are exactly what the simulation charges.
* The step size is adapted once per epoch with the bold driver (§5.1).

Within a machine the block's updates are spread across all its cores (the
paper's §5.4: DSGD "can utilize all four cores for computation"), modeled
with perfect intra-machine parallel efficiency — a generous assumption that
only strengthens the comparison when NOMAD still wins.
"""

from __future__ import annotations

import numpy as np

from ..linalg.objective import regularized_objective
from ..linalg.regularizers import WeightedL2
from ..partition.partitioners import BlockGrid, partition_range_blocks
from ..schedules.bold_driver import BoldDriver
from ..simulator.network import token_bytes
from .base import ClockedOptimizer

__all__ = ["DSGDSimulation"]


class DSGDSimulation(ClockedOptimizer):
    """Bulk-synchronous block SGD on the simulated cluster."""

    algorithm = "DSGD"

    #: Column blocks per machine-count — p×p for DSGD (Figure 4a).
    col_blocks_per_machine = 1

    #: Whether block communication overlaps computation (DSGD++: yes).
    overlap_communication = False

    def _run_loop(self) -> None:
        cluster = self.cluster
        # In distributed runs DSGD's unit of scheduling is the machine; in
        # a single-machine run, its threads take that role (Zhuang et al.'s
        # shared-memory observation that the last-reducer problem persists).
        if cluster.n_machines > 1:
            p = cluster.n_machines
            cores = cluster.cores_per_machine
        else:
            p = cluster.cores_per_machine
            cores = 1
        n_col_blocks = p * self.col_blocks_per_machine

        grid = BlockGrid(
            self.train,
            partition_range_blocks(self.train.n_rows, p),
            partition_range_blocks(self.train.n_cols, n_col_blocks),
        )
        entry_rows, entry_cols, ratings, _ = self._entry_arrays()
        # Each cell's visit order: an int64 copy (the shuffle must not
        # reorder the grid's own index), shuffled in place by the stream
        # at every visit and taken by the entries kernel as it is.
        cell_orders = [
            [grid.cell_indices(q, c).astype(np.int64)
             for c in range(n_col_blocks)]
            for q in range(p)
        ]
        max_block_cols = max(len(s) for s in grid.col_sets)
        block_bytes = max_block_cols * token_bytes(self.hyper.k)

        driver = BoldDriver(initial_step=self.hyper.alpha)
        shuffle_rng = self._backend.rng_stream(
            self.rng_factory.pyrandom("dsgd-shuffle")
        )
        regularizer = WeightedL2(self.hyper.lambda_)

        while not self._expired():
            # Gemulla et al.'s bold driver keeps the previous iterate so a
            # rejected (or diverged) epoch can be rolled back before the
            # step size is halved.
            snapshot_w = self._w.copy()
            snapshot_h = self._h.copy()
            offset = shuffle_rng.randrange(n_col_blocks)
            step = driver.step
            diverged = False
            for sub_epoch in range(n_col_blocks):
                sub_epoch_compute = 0.0
                for q in range(p):
                    col_block = (
                        q * self.col_blocks_per_machine + sub_epoch + offset
                    ) % n_col_blocks
                    order = cell_orders[q][col_block]
                    shuffle_rng.shuffle(order)
                    applied = self._backend.process_entries_const(
                        self._w,
                        self._h,
                        entry_rows,
                        entry_cols,
                        ratings,
                        step,
                        self.hyper.lambda_,
                        order,
                    )
                    self._count_updates(applied)
                    machine = q if cluster.n_machines > 1 else 0
                    speed = float(cluster.machine_speeds[machine])
                    compute = self.cluster.hardware.sgd_update_time(
                        self.hyper.k, applied
                    ) / (cores * speed)
                    compute *= cluster.jitter_multiplier(self._jitter_rng)
                    # Bulk synchronization: the sub-epoch lasts as long as
                    # its slowest machine (curse of the last reducer).
                    sub_epoch_compute = max(sub_epoch_compute, compute)
                communication = self._shift_cost(block_bytes)
                if self.overlap_communication:
                    self._advance(max(sub_epoch_compute, communication))
                else:
                    self._advance(sub_epoch_compute + communication)
                if not self._factors_finite():
                    diverged = True
                    break
                self._record_if_due()
                if self._expired():
                    return
            if diverged:
                self._restore(snapshot_w, snapshot_h)
                driver.punish()
                continue
            objective = regularized_objective(
                self.factors, self.train, regularizer
            )
            baseline = driver.last_objective
            if baseline is not None and objective > baseline:
                # Reject the epoch: switch back to the previous iterate and
                # halve the step (Gemulla et al. §5.1 of [12]).
                self._restore(snapshot_w, snapshot_h)
                driver.punish()
            else:
                driver.observe(objective)

    def _factors_finite(self) -> bool:
        """Cheap divergence probe over the current factors."""
        return bool(np.isfinite(self._w).all() and np.isfinite(self._h).all())

    def _restore(self, snapshot_w, snapshot_h) -> None:
        """Roll the factors back to an epoch-start snapshot."""
        self._w[...] = snapshot_w
        self._h[...] = snapshot_h

    def _shift_cost(self, block_bytes: float) -> float:
        """Time to rotate one H column block to the next machine."""
        if self.cluster.n_machines > 1:
            return self.cluster.bulk_delay(block_bytes)
        # Shared memory: exchanging block ownership is a pointer swap, but
        # the barrier itself still costs a queue round-trip per thread.
        return self.cluster.intra.token_delay(self.hyper.k)
