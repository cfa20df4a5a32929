"""NOMAD on real Python threads.

The same rings and the same loop as
:mod:`repro.runtime.multiprocess`, on :class:`threading.Thread` workers:
the factors, the :class:`~repro.runtime.mailbox.TokenRings` and the hop
stamps are plain heap arrays every thread sees, the ring locks are
:class:`threading.Lock` objects, and each thread runs
:func:`~repro.runtime.loop.run_token_loop` over its own shard.

CPython's GIL means the threads interleave rather than truly parallelize
interpreted float math (the compiled backend releases it), so this
runtime exists to validate the protocol (token conservation,
lock-freedom, convergence) on real concurrency primitives; use
:class:`~repro.runtime.multiprocess.MultiprocessNomad` for parallel
speedup on any backend and the simulator for scaling studies.
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

from ..telemetry import clock
from .loop import TokenRingNomad, run_worker
from .mailbox import TokenRings

__all__ = ["ThreadedNomad"]


def _worker_main(
    worker_id, n_workers, w, h, put_times, shard, hyper, backend,
    seed, rings, stop, reports,
) -> None:
    """Entry point of one worker thread.  A thread that raises never
    reports, which :meth:`ThreadedNomad.run` turns into a typed error."""
    reports[worker_id] = run_worker(
        worker_id, n_workers, w, h, put_times, shard, hyper,
        backend, seed, rings, stop,
    )


class ThreadedNomad(TokenRingNomad):
    """Owner-computes NOMAD over real threads; parameters and ``run()``
    are :class:`~repro.runtime.loop.TokenRingNomad`'s."""

    @contextlib.contextmanager
    def _shared_state(self, init):
        n_items = self.train.n_cols
        rings = TokenRings(
            bytearray(TokenRings.nbytes(self.n_workers, n_items)),
            self.n_workers, n_items,
            [threading.Lock() for _ in range(self.n_workers)],
        )
        put_times = (
            np.full(n_items, clock(), dtype=np.float64)
            if self.telemetry
            else None
        )
        yield init.w.copy(), init.h.copy(), rings, put_times, threading.Event()

    def _spawn(self, worker_args):
        reports: dict = {}
        threads = [
            threading.Thread(
                target=_worker_main, args=(*args, reports),
                name=f"nomad-{args[0]}",
            )
            for args in worker_args
        ]
        return threads, reports

    def _collect(self, threads, reports):
        for thread in threads:
            thread.join()
        return reports
