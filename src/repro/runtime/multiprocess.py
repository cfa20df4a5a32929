"""NOMAD on real processes with shared-memory factors.

CPython's GIL prevents thread-level parallel speedup of the SGD inner loop,
so this runtime applies the standard workaround: worker *processes* that
share the factor matrices through :mod:`multiprocessing.shared_memory`.

The NOMAD structure is unchanged from Algorithm 1:

* ``W`` lives in one shared-memory block, partitioned by rows; each row is
  written only by its owning process.
* ``H`` lives in a second shared block; row ``j`` is written only by the
  process currently holding token ``j``.
* Tokens are plain item indices — the ``h_j`` payload already lives in
  shared memory, which mirrors the zero-copy queue hand-off of the
  original C++ implementation — and travel through per-worker
  **shared-memory rings** (:mod:`repro.runtime.mailbox`): a third block
  of int64 slots, one ring per worker, each guarded by one lock taken
  once per burst.

Because ownership is exclusive by construction, no locks guard any float:
the only synchronized objects are the rings themselves, exactly as in the
paper ("the only interaction between threads is via operations on the
queue", §3.5).  Each process runs
:func:`~repro.runtime.loop.run_token_loop`, the loop the threaded runtime
runs too, and the run around them is every live engine's,
:meth:`~repro.runtime.result.LiveNomad.run`.

Since no token ever sits in a pipe, shutdown cannot depend on a pipe's
capacity (the old ``mp.Queue`` mailboxes blocked every worker's exit
once ≳10k tokens were in flight).

Two runtime caveats:

* **Start method.**  The ring locks and every block's mapping reach the
  workers by inheritance, which only works under the ``fork`` start
  method.  This runtime therefore requests an explicit fork context and
  raises :class:`~repro.errors.ConfigError` on platforms without it
  (macOS and Windows default to ``spawn``); use
  :class:`~repro.runtime.threaded.ThreadedNomad` or the simulator there.
* **Timing.**  ``wall_seconds`` follows the one contract of every live
  runtime (:mod:`repro.runtime.result`); result collection and process
  joins (up to ``_JOIN_TIMEOUT`` each, none for a process already dead)
  land in ``join_seconds``.
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import queue as queue_module

import numpy as np
from multiprocessing import shared_memory

from ..config import HyperParams
from ..errors import ConfigError
from ..telemetry import clock
from .loop import TokenRingNomad, run_worker
from .mailbox import TokenRings

__all__ = ["MultiprocessNomad"]

#: nomadlint NMD001 owner contexts: ``_shared_state`` seeds the shared
#: blocks before any worker exists — outside the concurrent window.
__nomad_owner_contexts__ = ("_shared_state",)

_JOIN_TIMEOUT = 10.0


def _fork_context() -> mp.context.BaseContext:
    """The explicit ``fork`` multiprocessing context this runtime needs.

    The token rings' ``context.Lock()`` objects are handed to children
    positionally through ``Process(args=...)``; only forked children can
    inherit them.  Raising here (rather than crashing inside ``spawn``
    pickling) names the limitation and the alternatives.
    """
    if "fork" not in mp.get_all_start_methods():
        raise ConfigError(
            "MultiprocessNomad requires the 'fork' start method, which is "
            "unavailable on this platform (macOS/Windows default to "
            "'spawn', under which the token rings' locks cannot be "
            "passed through Process(args=...)); use ThreadedNomad or "
            "the discrete-event simulator instead"
        )
    return mp.get_context("fork")


def _worker_main(
    worker_id, n_workers, w, h, put_times, shard,
    hyper: HyperParams, backend, seed, rings, stop, result_queue,
) -> None:
    """Entry point of one worker process.  ``w``, ``h``, ``put_times``
    and ``rings`` are views over shared blocks the fork inherited mapped;
    ``shard`` is the parent's own, inherited copy-on-write and only read.

    ``hyper`` travels as the :class:`~repro.config.HyperParams` dataclass
    itself — named field access instead of positional tuple unpacking, so
    a field reorder can never silently swap α and λ.  A process that
    raises never reports, which ``run()`` turns into a typed error.
    """
    result_queue.put(
        (
            worker_id,
            *run_worker(
                worker_id, n_workers, w, h, put_times, shard,
                hyper, backend, seed, rings, stop,
            ),
        )
    )


def _release_blocks(blocks: list[shared_memory.SharedMemory]) -> None:
    """Close and unlink every created block, tolerating partial failure.

    Runs under ``finally``: each block gets its ``unlink`` attempt even
    if closing or unlinking an earlier one raises, so a worker crash or
    a failed second allocation can never leak the first block.
    """
    for shm in blocks:
        try:
            shm.close()
        except OSError:
            pass
        try:
            shm.unlink()
        except OSError:
            pass  # already gone, or unlinkable — never skip later blocks


class MultiprocessNomad(TokenRingNomad):
    """Owner-computes NOMAD over processes and shared memory; parameters
    and ``run()`` are :class:`~repro.runtime.result.LiveNomad`'s, the
    launch :class:`~repro.runtime.loop.TokenRingNomad`'s."""

    @contextlib.contextmanager
    def _shared_state(self, init):
        context = _fork_context()
        n_items = self.train.n_cols
        # Every block is created inside the guarded region: if creating
        # a later one fails, or a worker/collection error propagates,
        # _release_blocks still unlinks whatever exists — a leaked block
        # would otherwise survive in /dev/shm until reboot.
        blocks: list[shared_memory.SharedMemory] = []
        try:
            shm_w = shared_memory.SharedMemory(create=True, size=init.w.nbytes)
            blocks.append(shm_w)
            shm_h = shared_memory.SharedMemory(create=True, size=init.h.nbytes)
            blocks.append(shm_h)
            w_shared = np.ndarray(init.w.shape, np.float64, buffer=shm_w.buf)
            h_shared = np.ndarray(init.h.shape, np.float64, buffer=shm_h.buf)
            w_shared[:] = init.w
            h_shared[:] = init.h
            # Third block: the per-worker token rings (the mailboxes).
            shm_rings = shared_memory.SharedMemory(
                create=True, size=TokenRings.nbytes(self.n_workers, n_items)
            )
            blocks.append(shm_rings)
            rings = TokenRings(
                shm_rings.buf, self.n_workers, n_items,
                [context.Lock() for _ in range(self.n_workers)],
            )
            put_times = None
            if self.telemetry:
                # Fourth block: per-item ring-push stamps for the
                # cross-process hop spans.
                shm_times = shared_memory.SharedMemory(
                    create=True, size=n_items * 8
                )
                blocks.append(shm_times)
                put_times = np.ndarray(
                    (n_items,), np.float64, buffer=shm_times.buf
                )
                put_times[:] = clock()
            yield w_shared, h_shared, rings, put_times, context.Event()
        finally:
            _release_blocks(blocks)

    def _spawn(self, worker_args):
        context = _fork_context()
        result_queue = context.Queue()
        processes = [
            context.Process(
                target=_worker_main, args=(*args, result_queue), daemon=True
            )
            for args in worker_args
        ]
        return processes, result_queue

    def _collect(self, processes, result_queue):
        reports = {}
        deadline = clock() + _JOIN_TIMEOUT
        while len(reports) < len(processes) and clock() < deadline:
            # A process that has exited flushed its report first, so once
            # every unreported one is dead a last look at the queue ends
            # the wait instead of the join timeout.
            waiting = any(
                process.is_alive()
                for q, process in enumerate(processes)
                if q not in reports
            )
            try:
                worker_id, updates, snapshot = result_queue.get(
                    timeout=0.25 if waiting else 0.0
                )
            except queue_module.Empty:
                if not waiting:
                    break
                continue
            reports[worker_id] = (updates, snapshot)
        for process in processes:
            process.join(timeout=_JOIN_TIMEOUT)
            if process.is_alive():
                process.terminate()
                process.join()
        return reports
