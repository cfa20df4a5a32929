"""The live token loop, and the engine skeleton around it.

Algorithm 1 is one loop — pop a token, update, push it to a random
worker — and "the only interaction between threads is via operations on
the queue" (§3.5).  :func:`run_token_loop` is that loop, written once
for the three live engines: :mod:`repro.runtime.threaded` and
:mod:`repro.runtime.multiprocess` workers call it over
:class:`~repro.runtime.mailbox.TokenRings`, a cluster worker over its
:class:`~repro.cluster.worker.TransportMailbox`.  All it asks of a
mailbox is ``pop_many(worker, n)`` (up to ``n`` waiting ids as one int64
array, never blocking), ``route(items, dests)`` (every id handed on) and,
under telemetry, ``depth(worker)``.  The loop does nothing per token: a
burst goes to the kernel bound to the worker's shard
(:meth:`~repro.linalg.backends.base.KernelBackend.bind_tokens` — one
native call on the compiled backend) and on to the mailbox as one array.

A burst is a unit of work, not a count of tokens.  The queue operations
are the only synchronised thing in NOMAD and §3.5 amortises their fixed
cost over a batch; what a pop, a kernel call and a route cost here is
per burst (≈15–20 µs of interpreter), so the loop sizes its pops from
the shard its kernel is bound to (:func:`_burst_limit`): about
:attr:`~repro.linalg.backends.base.TokenKernel.burst_updates` SGD
updates a burst — 1–2 ms of compiled kernel, tens of ms interpreted —
whether that is 22 tokens of 2 880 ratings each or every one of a
thousand 24-rating tokens the ring holds.  The limit is observed from
the input and the kernel, never set.

:class:`TokenRingNomad` is everything else the two ring engines share:
the ``run()`` skeleton (rings → scatter → start → sleep → stop →
collect → conservation check → result) over the live runtimes' shared
constructor, :class:`~repro.runtime.result.LiveNomad`.  A
subclass says only where W/H/rings/stamps live and how a worker is
started and reports.
"""

from __future__ import annotations

import time

import numpy as np

from ..config import HyperParams
from ..datasets.ratings import Shard
from ..errors import WorkerLostError
from ..linalg.backends.base import KernelBackend, TokenKernel
from ..linalg.factors import FactorPair
from ..linalg.objective import test_rmse
from ..partition.partitioners import partition_rows_equal_ratings
from ..rng import derive_rng
from ..telemetry import (
    C_BATCHES,
    C_DRAINS,
    C_IDLE_POLLS,
    C_TOKENS,
    C_UPDATES,
    POINT_QUEUE_DEPTH,
    Recorder,
    RunTelemetry,
    SPAN_HOP,
    SPAN_IDLE,
    SPAN_KERNEL,
    WorkerTelemetry,
    clock,
)
from .mailbox import TokenRings
from .result import LiveNomad, RuntimeResult

__all__ = ["TokenRingNomad", "run_token_loop", "run_worker"]

#: nomadlint NMD001 owner contexts: ``run_token_loop`` holds the popped
#: tokens, so the owner-computes rule makes its W/H writes exclusive by
#: construction.
__nomad_owner_contexts__ = ("run_token_loop",)

#: A worker that finds its ring empty sleeps this long, doubling per
#: consecutive empty poll up to the cap (which also bounds how late it
#: notices the stop event).
IDLE_SLEEP_MIN = 50e-6
IDLE_SLEEP_MAX = 2e-3
#: Routing destinations are drawn this many at a time and sliced per
#: burst: ``Generator.integers`` drops the GIL, so one draw per burst
#: costs a worker *thread* a second GIL hand-off per burst (threaded
#: 9.3M → 5.9M updates/s on the mp-sparse shape, measured for PR 16).
#: A block this size (32 KB) stays in cache and in the allocator's
#: arena, and a refill stalls the worker for ~15 µs, less than one
#: burst.  It is also the most tokens a pop asks for, so a block feeds
#: at least one burst: ~190 bursts of 22 tokens on a dense shard, a
#: handful of ring-sized ones on a sparse shard.
_ROUTE_BLOCK = 4096


def _burst_limit(kernel: TokenKernel) -> int:
    """Tokens to ask a mailbox for per pop so that a burst — one fused
    kernel call — is about ``kernel.burst_updates`` updates on the shard
    ``kernel`` is bound to: that budget over the shard's mean ratings
    per column.  The budget is what bounds how long a worker defers its
    stop check and holds tokens its peers could be working on.  Never
    under 2 (the compiled burst walks columns in pairs) nor over a
    destination block — which is what a shard with no ratings at all
    gets, so its worker keeps forwarding tokens at full width."""
    tokens = kernel.burst_updates * kernel.n_items // max(kernel.nnz, 1)
    return max(2, min(tokens, _ROUTE_BLOCK))


def run_token_loop(
    worker_id: int,
    n_workers: int,
    kernel: TokenKernel,
    rings: TokenRings,
    routing: np.random.Generator,
    stop,
    rec: Recorder | None,
    put_times: np.ndarray | None,
) -> int:
    """Algorithm 1 for worker ``worker_id`` until ``stop`` is set;
    returns the SGD updates applied.

    ``kernel`` is bound to the worker's shard — whose shape sets how
    many tokens a pop asks for (:func:`_burst_limit`) — ``routing`` is
    its private destination stream, ``stop`` anything with ``is_set()``.
    ``rec`` and ``put_times`` are both ``None`` unless telemetry is on:
    ``put_times[j]`` is the :func:`~repro.telemetry.clock` stamp of
    token ``j``'s most recent ring push, written by the routing worker
    and read by the popping worker.  No lock: a token has one holder at
    a time, so per token the write happens-before the read (the ring's
    push/pop lock pair is the synchronization edge; ``perf_counter``
    reads ``CLOCK_MONOTONIC`` on Linux, so stamps are comparable across
    the forked processes of one host).
    """
    updates = 0
    idle_sleep = IDLE_SLEEP_MIN
    limit = _burst_limit(kernel)
    dests = routing.integers(n_workers, size=_ROUTE_BLOCK)
    drawn = 0
    while True:
        if rec is not None:
            poll_start = clock()
        burst = rings.pop_many(worker_id, limit)
        if not burst.size:
            if stop.is_set():
                return updates
            time.sleep(idle_sleep)
            idle_sleep = min(2 * idle_sleep, IDLE_SLEEP_MAX)
            if rec is not None:
                rec.span(SPAN_IDLE, poll_start, clock() - poll_start)
                rec.add(C_IDLE_POLLS)
            continue
        idle_sleep = IDLE_SLEEP_MIN
        if rec is not None:
            rec.point(POINT_QUEUE_DEPTH, rings.depth(worker_id))
            rec.add(C_DRAINS)
            rec.add(C_TOKENS, burst.size)
            arrived = put_times[burst]
            kernel_start = clock()
            rec.spans(SPAN_HOP, arrived, kernel_start - arrived)
        applied = kernel.process_tokens(burst)
        updates += applied
        if rec is not None:
            route_time = clock()
            rec.span(
                SPAN_KERNEL, kernel_start, route_time - kernel_start, applied
            )
            rec.add(C_UPDATES, applied)
            rec.add(C_BATCHES)
            put_times[burst] = route_time
        # Route every popped token onward so none is lost, even when
        # stopping.  A refill covers the burst in hand whatever its
        # length, so the slice below is never shorter than the burst.
        if drawn + burst.size > dests.size:
            dests = routing.integers(
                n_workers, size=max(_ROUTE_BLOCK, burst.size)
            )
            drawn = 0
        rings.route(burst, dests[drawn:drawn + burst.size])
        drawn += burst.size
        if stop.is_set():
            return updates


def run_worker(
    worker_id: int,
    n_workers: int,
    w: np.ndarray,
    h: np.ndarray,
    put_times: np.ndarray | None,
    shard: Shard,
    hyper: HyperParams,
    backend: KernelBackend,
    seed: int,
    rings: TokenRings,
    stop,
) -> tuple[int, WorkerTelemetry | None]:
    """One worker's whole life between start and report: bind the kernel
    to its shard, run the loop; returns ``(updates, telemetry)``."""
    kernel = backend.bind_tokens(
        w, h, *shard.csc(), np.zeros(shard.nnz, dtype=np.int64),
        hyper.alpha, hyper.beta, hyper.lambda_,
    )
    rec = Recorder(worker_id) if put_times is not None else None
    updates = run_token_loop(
        worker_id, n_workers, kernel, rings,
        derive_rng(seed, f"route-{worker_id}"), stop, rec, put_times,
    )
    return updates, rec.snapshot() if rec is not None else None


class TokenRingNomad(LiveNomad):
    """Owner-computes NOMAD over live workers and shared token rings.

    Every worker owns a disjoint set of user rows (its partition I_q)
    and one ring of item tokens.  There are **no locks around any
    parameter**: ``W`` rows are written only by their owner, ``H`` rows
    only by the current token holder — the owner-computes rule makes
    mutual exclusion structural rather than enforced.

    The constructor is :class:`~repro.runtime.result.LiveNomad`'s: a
    required :class:`~repro.config.RunConfig` supplies the seed, the
    kernel backend and ``run()``'s wall budget.  Telemetry adds one
    8-byte hop stamp per item.
    """

    def run(self) -> RuntimeResult:
        """Run the worker pool for ``run.duration`` seconds of wall time.

        Raises :class:`~repro.errors.TokenConservationError` if the
        rings do not hold every item exactly once when the workers have
        stopped, and :class:`~repro.errors.WorkerLostError` if a worker
        never reported.  An error or interrupt during the timed wait
        still stops and collects every worker before it propagates.
        """
        seed = self.run_config.seed
        shards = self.train.shard_by_rows(
            partition_rows_equal_ratings(self.train, self.n_workers)
        )
        n_items = self.train.n_cols

        with self._shared_state(self.initial_factors) as (
            w, h, rings, put_times, stop,
        ):
            rings.route(
                np.arange(n_items, dtype=np.int64),
                derive_rng(seed, "scatter").integers(
                    self.n_workers, size=n_items
                ),
            )
            workers, channel = self._spawn(
                [
                    (
                        q, self.n_workers, w, h, put_times, shards[q],
                        self.hyper, self.backend, seed, rings, stop,
                    )
                    for q in range(self.n_workers)
                ]
            )
            started = clock()
            for worker in workers:
                worker.start()
            try:
                time.sleep(self.run_config.duration)
            finally:
                # Reached on an error or interrupt in the wait too: no
                # worker may outlive run(), nor a shared block its worker.
                stop.set()
                # End of the parallel section: stamp the wall clock now,
                # so result collection and joins can never inflate the
                # reported parallel time.
                wall = clock() - started
                reports = self._collect(workers, channel)
            join_seconds = clock() - started - wall
            # A worker reports after its last ring operation, so once all
            # have reported the rings are quiescent and must hold every
            # item exactly once.  (A worker that never reported may have
            # died mid-burst; nothing can be concluded then.)
            if len(reports) == self.n_workers:
                rings.check_conserved(n_items)
            final = FactorPair(w.copy(), h.copy())

        lost = sorted(set(range(self.n_workers)) - set(reports))
        if lost:
            raise WorkerLostError(
                f"worker(s) {lost} of {self.n_workers} stopped without "
                "reporting (crashed, or killed after the join timeout); "
                "the factors they were writing cannot be trusted"
            )
        per_worker = [reports[q][0] for q in range(self.n_workers)]
        return RuntimeResult(
            factors=final,
            updates=sum(per_worker),
            wall_seconds=wall,
            rmse=test_rmse(final, self.test),
            updates_per_worker=per_worker,
            join_seconds=join_seconds,
            telemetry=(
                RunTelemetry.from_workers(
                    [reports[q][1] for q in range(self.n_workers)]
                )
                if self.telemetry
                else None
            ),
        )

    def _shared_state(self, init: FactorPair):
        """Context manager yielding ``(w, h, rings, put_times, stop)``:
        private copies of ``init``'s factors, empty rings, the hop-stamp
        array (``None`` without telemetry) and the stop event, wherever
        this engine's workers can reach them; releases them on exit."""
        raise NotImplementedError

    def _spawn(self, worker_args: list[tuple]):
        """Return ``(workers, channel)``: per :func:`run_worker` argument
        tuple one unstarted worker (anything with ``start()``) that will
        report its result through ``channel``."""
        raise NotImplementedError

    def _collect(self, workers, channel) -> dict:
        """Join every worker and return ``{worker_id: (updates,
        WorkerTelemetry | None)}`` for those that reported."""
        raise NotImplementedError
