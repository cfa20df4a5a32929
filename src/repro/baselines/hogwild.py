"""Hogwild!-style lock-free asynchronous SGD with stale reads (§4.3).

The paper's related-work section contrasts NOMAD against asynchronous
fixed-point methods — Hogwild! (Recht et al. [19]) and ASGD (Teflioudi et
al. [25]) — which are lock-free but *non-serializable*: concurrent workers
read parameters mid-update, so "there may not exist an equivalent update
ordering in a serial implementation".

This simulation makes that contrast concrete and testable:

* ``p`` workers sweep random entries concurrently at the same SGD rate
  NOMAD's workers run at (no communication — shared memory).
* Each worker refreshes its private snapshot of ``H`` only every
  ``refresh_period`` updates; reads in between are *stale*.  The gradient
  is computed from the stale ``h_j`` while the live parameters receive the
  update — the defining Hogwild race.
* Every update is logged as an :class:`~repro.core.serializability.UpdateEvent`
  whose ``stale_read`` field names the version actually observed, which is
  exactly what the conflict-graph checker needs to exhibit a cycle.

With mild staleness the method still converges (Hogwild's empirical
observation); the library's tests use the update log to show the execution
is nevertheless non-serializable, unlike NOMAD's.
"""

from __future__ import annotations

from ..core.serializability import FRESH, UpdateEvent
from ..errors import ConfigError
from .base import ClockedOptimizer

__all__ = ["HogwildSimulation"]


class HogwildSimulation(ClockedOptimizer):
    """Shared-memory asynchronous SGD with periodic snapshot staleness.

    Parameters
    ----------
    refresh_period:
        Number of updates a worker applies between snapshot refreshes of
        the item factors; larger values mean staler reads.
    record_updates:
        Keep the full update log (with stale-read attribution) for
        serializability analysis.
    """

    algorithm = "Hogwild"

    def __init__(
        self,
        *args,
        refresh_period: int = 8,
        record_updates: bool = False,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        if refresh_period < 1:
            raise ConfigError(
                f"refresh_period must be >= 1, got {refresh_period}"
            )
        if self.cluster.n_machines != 1:
            raise ConfigError(
                "Hogwild! is a shared-memory algorithm; use one machine"
            )
        self.refresh_period = int(refresh_period)
        self.record_updates = bool(record_updates)
        self.update_log: list[UpdateEvent] = []

    def _run_loop(self) -> None:
        train = self.train
        p = self.cluster.n_workers
        k = self.hyper.k
        alpha, beta, lambda_ = (
            self.hyper.alpha,
            self.hyper.beta,
            self.hyper.lambda_,
        )
        entry_rows = train.rows.tolist()
        entry_cols = train.cols.tolist()
        ratings = train.vals.tolist()
        counts = [0] * train.nnz
        rng = self.rng_factory.pyrandom("hogwild-order")

        # Per-worker stale views of H and the commit version they observed.
        snapshots = [self._h.copy() for _ in range(p)]
        snapshot_version: list[list[int | None]] = [
            [None] * train.n_cols for _ in range(p)
        ]
        since_refresh = [0] * p
        last_commit_on_col: list[int | None] = [None] * train.n_cols
        seq = 0
        dims = range(k)
        update_cost = self.cluster.sgd_time(0, k, 1)

        while not self._expired():
            order = list(range(train.nnz))
            rng.shuffle(order)
            for idx in order:
                worker = rng.randrange(p)
                if since_refresh[worker] >= self.refresh_period:
                    snapshots[worker] = self._h.copy()
                    snapshot_version[worker] = list(last_commit_on_col)
                    since_refresh[worker] = 0
                i, j = entry_rows[idx], entry_cols[idx]
                w_row = self._w[i]
                h_live = self._h[j]
                h_stale = snapshots[worker][j]

                t = counts[idx]
                step = alpha / (1.0 + beta * t ** 1.5)
                counts[idx] = t + 1
                error = -ratings[idx]
                for d in dims:
                    error += w_row[d] * h_stale[d]
                scaled_error = step * error
                decay = 1.0 - step * lambda_
                for d in dims:
                    w_value = w_row[d]
                    w_row[d] = decay * w_value - scaled_error * h_stale[d]
                    h_live[d] = decay * h_live[d] - scaled_error * w_value

                if self.record_updates:
                    observed = snapshot_version[worker][j]
                    is_stale = observed != last_commit_on_col[j]
                    self.update_log.append(
                        UpdateEvent(
                            seq=seq,
                            worker=worker,
                            row=i,
                            col=j,
                            count=t,
                            stale_read=observed if is_stale else FRESH,
                        )
                    )
                last_commit_on_col[j] = seq
                seq += 1
                since_refresh[worker] += 1
                self._count_updates(1)
                # p workers execute concurrently: wall time advances at 1/p
                # of the per-update cost on average.
                self._advance(update_cost / p)
                if seq % 512 == 0:
                    self._record_if_due()
                    if self._expired():
                        return
