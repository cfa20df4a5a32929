"""Single-worker stochastic gradient descent.

The reference against which all parallel schedules are validated: a
one-worker NOMAD run must apply exactly this update sequence (invariant 4 of
DESIGN.md), and all speedup numbers are relative to this baseline's
convergence-per-second.

Uses the same per-rating step-size schedule (equation 11) and the same
kernel backend as NOMAD (``RunConfig.kernel_backend``); time is charged at
one worker's SGD rate.
"""

from __future__ import annotations

from .base import ClockedOptimizer

__all__ = ["SerialSGD"]


class SerialSGD(ClockedOptimizer):
    """Sequential SGD over uniformly shuffled training entries.

    Each epoch visits every observed rating exactly once in a fresh random
    order — the classical cyclic-with-shuffling regime.  The simulated cost
    of an epoch is ``nnz`` updates at the single worker's SGD rate.
    """

    algorithm = "SerialSGD"

    def _run_loop(self) -> None:
        train = self.train
        entry_rows, entry_cols, ratings, counts = self._entry_arrays()
        shuffle_rng = self.rng_factory.stream("serial-shuffle")

        # Chunked epochs: record points land on the eval grid even when a
        # full epoch costs more than eval_interval.
        chunk = max(1, int(train.nnz // 8))
        while not self._expired():
            order = shuffle_rng.permutation(train.nnz)
            if isinstance(counts, list):  # list storage: list visit orders
                order = order.tolist()
            for start in range(0, len(order), chunk):
                piece = order[start : start + chunk]
                applied = self._backend.process_entries(
                    self._w_store,
                    self._h_store,
                    entry_rows,
                    entry_cols,
                    ratings,
                    counts,
                    self.hyper.alpha,
                    self.hyper.beta,
                    self.hyper.lambda_,
                    piece,
                )
                self._count_updates(applied)
                self._advance(self.cluster.sgd_time(0, self.hyper.k, applied))
                self._record_if_due()
                if self._expired():
                    break
