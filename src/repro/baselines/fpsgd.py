"""FPSGD** — fast parallel SGD with a task manager (Zhuang et al. [28]).

The shared-memory competitor of the paper's §4.1 and Figure 4(c): the
rating matrix is split into a p′×p′ grid with p′ > p threads, and a task
manager hands each idle thread a *free* block — one whose row-block and
column-block are not being processed by any other thread — preferring the
block that has been processed the fewest times.  This removes DSGD's
epoch-level barrier (threads never wait for a full sub-epoch), but the
task-manager remains a central coordinator and the scheme has no
distributed-memory analogue (§4.1: "It is unclear how to extend this idea
to the distributed memory setting") — the simulation therefore rejects
multi-machine clusters.

Scheduling is event-driven over a finish-time heap; the numerics reuse the
per-rating step-size schedule shared with NOMAD so that inner-loop cost and
step policy are identical across the compared SGD methods.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..errors import ConfigError
from ..partition.partitioners import BlockGrid, partition_range_blocks
from .base import ClockedOptimizer

__all__ = ["FPSGDSimulation"]

#: Grid refinement over the thread count: p′ = factor × p.  Zhuang et al.
#: recommend a modest over-partitioning; 2 keeps all threads busy while
#: leaving enough free blocks for the scheduler to choose from.
_GRID_FACTOR = 2


class FPSGDSimulation(ClockedOptimizer):
    """Task-manager-scheduled shared-memory SGD (single machine only)."""

    algorithm = "FPSGD**"

    def _run_loop(self) -> None:
        cluster = self.cluster
        if cluster.n_machines != 1:
            raise ConfigError(
                "FPSGD** is a shared-memory algorithm; it has no "
                "distributed-memory extension (paper §4.1)"
            )
        p = cluster.n_workers
        grid_size = max(_GRID_FACTOR * p, 2)
        grid_size = min(grid_size, self.train.n_rows, self.train.n_cols)
        grid = BlockGrid(
            self.train,
            partition_range_blocks(self.train.n_rows, grid_size),
            partition_range_blocks(self.train.n_cols, grid_size),
        )

        entry_rows, entry_cols, ratings, counts = self._entry_arrays()
        # Each cell's visit order: an int64 copy (the shuffle must not
        # reorder the grid's own index), shuffled in place by the stream
        # at every visit and taken by the entries kernel as it is.
        cell_orders = {
            (r, c): grid.cell_indices(r, c).astype(np.int64)
            for r in range(grid_size)
            for c in range(grid_size)
        }
        processed = {cell: 0 for cell in cell_orders}
        locked_rows: set[int] = set()
        locked_cols: set[int] = set()
        assignment: dict[int, tuple[int, int]] = {}
        idle: list[int] = []
        rng = self._backend.rng_stream(
            self.rng_factory.pyrandom("fpsgd-schedule")
        )

        def pick_block() -> tuple[int, int] | None:
            """Least-processed free block, ties broken at random."""
            best: list[tuple[int, int]] = []
            best_count: int | None = None
            for cell, times in processed.items():
                row_block, col_block = cell
                if row_block in locked_rows or col_block in locked_cols:
                    continue
                if best_count is None or times < best_count:
                    best, best_count = [cell], times
                elif times == best_count:
                    best.append(cell)
            if not best:
                return None
            return best[rng.randrange(len(best))]

        def assign(worker: int, start_time: float) -> None:
            cell = pick_block()
            if cell is None:
                idle.append(worker)
                return
            row_block, col_block = cell
            locked_rows.add(row_block)
            locked_cols.add(col_block)
            assignment[worker] = cell
            nnz = max(len(cell_orders[cell]), 1)
            duration = self.cluster.sgd_time(worker, self.hyper.k, nnz)
            duration *= self.cluster.jitter_multiplier(self._jitter_rng)
            heapq.heappush(finish_heap, (start_time + duration, worker))

        finish_heap: list[tuple[float, int]] = []
        for worker in range(p):
            assign(worker, 0.0)

        while finish_heap and not self._expired():
            finish_time, worker = heapq.heappop(finish_heap)
            if finish_time > self.run_config.duration:
                self._advance_to(self.run_config.duration)
                break
            self._advance_to(finish_time)
            cell = assignment.pop(worker)
            order = cell_orders[cell]
            rng.shuffle(order)
            applied = self._backend.process_entries(
                self._w,
                self._h,
                entry_rows,
                entry_cols,
                ratings,
                counts,
                self.hyper.alpha,
                self.hyper.beta,
                self.hyper.lambda_,
                order,
            )
            self._count_updates(applied)
            processed[cell] += 1
            locked_rows.discard(cell[0])
            locked_cols.discard(cell[1])
            self._record_if_due()
            # The freed row/col may unblock starved threads: retry them
            # before the finishing worker grabs the best block again.
            waiting, idle[:] = idle[:], []
            for blocked_worker in waiting:
                assign(blocked_worker, finish_time)
            assign(worker, finish_time)
