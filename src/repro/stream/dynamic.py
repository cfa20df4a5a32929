"""Warm-start dynamic NOMAD: train while the problem grows underneath.

§4 of the paper: because NOMAD is asynchronous and decentralized, a new
rating — even one from a never-seen user or item — is *folded in* rather
than triggering a restart: the owning worker appends it to its local
Ω̄^(q)_j store, a fresh factor row is initialized for a new entity, and
the token circulation simply keeps running.  :class:`DynamicNomad` is
that execution model made concrete:

* the base matrix is partitioned by rows **once**; every later arrival is
  routed to the owning worker's column store (a new user is assigned to
  the least-loaded worker on first sight) — there is never a global
  re-partition;
* item tokens circulate between per-worker queues under the
  :class:`~repro.partition.assignments.OwnershipLedger` invariant (each
  ``h_j`` owned by exactly one worker at a time), with
  :meth:`~repro.partition.assignments.OwnershipLedger.grow` minting
  tokens for items first seen mid-stream;
* one :meth:`sweep` routes every token through every worker exactly once
  (the §3.4 circulation schedule on a single machine), so each observed
  rating receives exactly one equation-(11) SGD update per sweep, through
  the same kernel-backend layer every other engine uses.

Each worker's ratings live in one growable CSC
(:class:`~repro.stream.colstore.ColumnStore`, seeded from
:meth:`Shard.csc <repro.datasets.ratings.Shard.csc>`): ingest parks an
arrival in the store's pending list, and the next sweep folds the list
in before it runs.  A sweep round is then one
``kernel.process_tokens(items)`` per worker on a kernel bound once by
:meth:`KernelBackend.bind_tokens
<repro.linalg.backends.base.KernelBackend.bind_tokens>` — no per-column
Python.  A kernel is rebound (and its arrays re-validated) only when a
flush replaced its store's arrays or a first-seen user or item moved the
factor matrices or their live row counts.

The execution is in-process and deterministic given the seed: within a
round the workers run one after another, which is update for update the
interleaving parallel workers would produce — the owner-computes rule
keeps every interleaving conflict-free (§4.1) — so this sequential
schedule is one of the serializable executions the real runtimes sample
from.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..config import HyperParams, RunConfig
from ..core.load_balance import RecipientPolicy, UniformPolicy
from ..datasets.ratings import RatingMatrix
from ..errors import ConfigError, DataError
from ..linalg.backends import resolve_backend
from ..linalg.factors import (
    FactorPair,
    init_factors as _draw_factors,
    validate_init_factors,
)
from ..partition.assignments import OwnershipLedger
from ..partition.partitioners import partition_rows_equal_ratings
from ..rng import RngFactory
from ..telemetry import (
    C_TOKENS,
    C_UPDATES,
    POINT_QUEUE_DEPTH,
    Recorder,
    SPAN_INGEST,
    SPAN_KERNEL,
    SPAN_SWEEP,
    clock,
)
from .colstore import ColumnStore
from .sources import RatingEvent

__all__ = ["DeltaStore", "DynamicNomad"]

#: nomadlint NMD001 owner contexts: ``sweep`` dispatches each token
#: through exactly one worker at a time under the OwnershipLedger;
#: ``_grow_users``/``_grow_items`` initialize rows that no token or
#: worker can reference until the growth completes.
__nomad_owner_contexts__ = ("sweep", "_grow_users", "_grow_items")

#: Initial row capacity headroom when a factor matrix first grows.
_MIN_CAPACITY = 8


class DeltaStore:
    """Append-only store of ratings that arrived after the base matrix.

    The stream never mutates the immutable base
    :class:`~repro.datasets.ratings.RatingMatrix`; arrivals accumulate
    here and :meth:`combined` composes them back into one matrix (via
    :meth:`RatingMatrix.with_appended
    <repro.datasets.ratings.RatingMatrix.with_appended>`) whenever a
    whole-dataset view is needed — end-of-stream evaluation, a static
    retrain baseline, or persistence.
    """

    def __init__(self, base: RatingMatrix):
        self.base = base
        self._rows: list[int] = []
        self._cols: list[int] = []
        self._vals: list[float] = []
        self._seen: set[tuple[int, int]] = set()

    def __len__(self) -> int:
        return len(self._rows)

    def contains(self, user: int, item: int) -> bool:
        """Whether ``(user, item)`` is already rated (base or delta)."""
        if (user, item) in self._seen:
            return True
        if user < self.base.n_rows and item < self.base.n_cols:
            items, _ = self.base.items_of_user(user)
            pos = int(np.searchsorted(items, item))
            return pos < items.size and items[pos] == item
        return False

    def append(self, user: int, item: int, value: float) -> None:
        """Record one arrival; duplicates raise :class:`DataError`."""
        if user < 0 or item < 0:
            raise DataError(f"arrival index out of range: ({user}, {item})")
        if not np.isfinite(value):
            raise DataError(f"arrival rating must be finite, got {value}")
        if self.contains(user, item):
            raise DataError(
                f"duplicate arrival for already-rated cell ({user}, {item})"
            )
        self.record(user, item, value)

    def record(self, user: int, item: int, value: float) -> None:
        """Append a *pre-validated* arrival (the trainer's hot path —
        :meth:`DynamicNomad.ingest` has already run :meth:`append`'s
        checks; external callers should use :meth:`append`)."""
        self._rows.append(int(user))
        self._cols.append(int(item))
        self._vals.append(float(value))
        self._seen.add((user, item))

    def triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The arrivals so far as COO arrays (cheap; no matrix build)."""
        return (
            np.asarray(self._rows, dtype=np.int64),
            np.asarray(self._cols, dtype=np.int64),
            np.asarray(self._vals, dtype=np.float64),
        )

    def combined(
        self, n_rows: int | None = None, n_cols: int | None = None
    ) -> RatingMatrix:
        """Base plus every arrival as one :class:`RatingMatrix`."""
        return self.base.with_appended(
            np.asarray(self._rows, dtype=np.int64),
            np.asarray(self._cols, dtype=np.int64),
            np.asarray(self._vals, dtype=np.float64),
            n_rows=n_rows,
            n_cols=n_cols,
        )

    def __repr__(self) -> str:
        return f"DeltaStore(base_nnz={self.base.nnz}, arrivals={len(self)})"


def _grown(array: np.ndarray, n_rows: int) -> np.ndarray:
    """Return ``array`` with capacity for ``n_rows`` rows (geometric)."""
    if n_rows <= array.shape[0]:
        return array
    capacity = max(n_rows, 2 * array.shape[0], _MIN_CAPACITY)
    out = np.zeros((capacity, array.shape[1]), dtype=np.float64)
    out[: array.shape[0]] = array
    return out


class DynamicNomad:
    """Warm-start NOMAD over a base matrix plus streaming arrivals.

    One :class:`~repro.stream.colstore.ColumnStore` per worker holds its
    ratings and their update counters.  :meth:`ingest` only appends to
    the owning store's pending list; :meth:`sweep` first folds pending
    arrivals in (a rating ingested now trains in the very next sweep)
    and rebinds the token kernels that fold-in or growth left stale.

    Parameters
    ----------
    base:
        Ratings known at construction (the stream's warm-up prefix, or a
        full training set for static use).
    n_workers:
        Number of decentralized workers (>= 1); fixed for the lifetime of
        the run — arrivals are routed, never re-partitioned.
    hyper:
        Model hyperparameters.
    run:
        Optional :class:`~repro.config.RunConfig`; supplies default
        ``seed``/``kernel_backend``.  Unlike the real runtimes this
        trainer is in-process, so an update budget *is* honorable
        (pass it through :meth:`sweep`'s ``max_updates``; the halt lands
        on a column boundary, like the simulated engine's).
    seed:
        Root seed; explicit value beats ``run.seed``, default 0.
    kernel_backend:
        Kernel backend name; ``"auto"`` resolves to the compiled backend
        when a toolchain is present and the interpreted reference
        otherwise.
    init_factors:
        Optional warm-start factors validated against the base shape and
        ``hyper.k`` — resuming from a previous run's
        :attr:`~repro.api.result.FitResult.factors` is the §4 fold-in
        protocol's starting point.
    policy:
        Recipient policy choosing each token's resting worker after a
        sweep (§3.3; default uniform).
    count_cap:
        Optional ceiling on the per-rating update counters feeding the
        equation-(11) step schedule.  ``None`` (default) is the paper's
        unbounded decay — correct for a *fixed* dataset.  On a growing
        dataset the decayed steps freeze the warm rows just when new
        ratings need them to move; capping the counter keeps a step-size
        floor of ``alpha / (1 + beta * cap**1.5)``, the standard
        constant-floor remedy for nonstationary objectives.
        :func:`repro.fit_stream` defaults to a small cap for exactly
        this reason.
    """

    def __init__(
        self,
        base: RatingMatrix,
        n_workers: int,
        hyper: HyperParams,
        run: RunConfig | None = None,
        seed: int | None = None,
        kernel_backend: str | None = None,
        init_factors: FactorPair | None = None,
        policy: RecipientPolicy | None = None,
        count_cap: int | None = None,
        telemetry: bool = False,
    ):
        if n_workers < 1:
            raise ConfigError(f"n_workers must be >= 1, got {n_workers}")
        if base.n_rows < n_workers:
            raise ConfigError(
                f"cannot split {base.n_rows} users into {n_workers} workers"
            )
        if count_cap is not None and count_cap < 1:
            raise ConfigError(
                f"count_cap must be >= 1 or None, got {count_cap}"
            )
        self.count_cap = count_cap
        self.hyper = hyper
        self.run_config = run
        self.n_workers = int(n_workers)
        if seed is None:
            seed = run.seed if run is not None else 0
        if kernel_backend is None and run is not None:
            kernel_backend = run.kernel_backend
        self.seed = int(seed)
        self.backend = resolve_backend(kernel_backend)
        self.policy = policy if policy is not None else UniformPolicy()

        self._factory = RngFactory(self.seed)
        self._route_rng = self._factory.pyrandom("dynamic-route")
        self._grow_rng = self._factory.stream("dynamic-grow")

        if init_factors is None:
            factors = _draw_factors(
                base.n_rows, base.n_cols, hyper.k,
                self._factory.stream("init"),
            )
        else:
            factors = validate_init_factors(
                init_factors, base.n_rows, base.n_cols, hyper.k
            )
        self._n_users = base.n_rows
        self._n_items = base.n_cols
        # Capacity-backed storage: ingest-time growth is amortized O(1),
        # and kernels only ever touch rows below the live counts.
        self._w = _grown(factors.w.copy(), base.n_rows)
        self._h = _grown(factors.h.copy(), base.n_cols)

        self.delta = DeltaStore(base)

        # One-time base partition; arrivals extend these structures only.
        p = self.n_workers
        partition = partition_rows_equal_ratings(base, p)
        self._owner_of_user: list[int] = [0] * base.n_rows
        for q, members in enumerate(partition):
            for user in members.tolist():
                self._owner_of_user[user] = q
        shards = base.shard_by_rows(partition)
        self._stores = [ColumnStore(*shard.csc()) for shard in shards]
        self._worker_load = [shard.nnz for shard in shards]
        # One bound token kernel per worker, made by the first sweep and
        # remade whenever a flush or a growth invalidates its pointers.
        self._kernels: list = [None] * p
        self._stale = True

        self._queues: list[deque[int]] = [deque() for _ in range(p)]
        self._ledger = OwnershipLedger(base.n_cols, p)
        scatter = self._factory.pyrandom("dynamic-scatter")
        for j in range(base.n_cols):
            q = scatter.randrange(p)
            self._queues[q].append(j)
            self._ledger.acquire(j, q)

        self._total_updates = 0
        self._worker_updates = [0] * p
        self._new_users = 0
        self._new_items = 0

        # The dynamic runtime is in-process and single-threaded, so one
        # recorder covers the whole trainer: sweep/kernel/ingest spans
        # plus a queue-depth point per worker at each sweep start.  The
        # streaming facade also records its rotation spans here, keeping
        # the trainer's whole life on one timeline.
        self.recorder = Recorder(0) if telemetry else None

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    @property
    def n_users(self) -> int:
        """Users covered so far (grows as the stream introduces them)."""
        return self._n_users

    @property
    def n_items(self) -> int:
        """Items covered so far (grows as the stream introduces them)."""
        return self._n_items

    @property
    def total_updates(self) -> int:
        """SGD updates applied so far."""
        return self._total_updates

    @property
    def updates_per_worker(self) -> list[int]:
        """Per-worker update counts (load diagnostics)."""
        return list(self._worker_updates)

    @property
    def arrivals(self) -> int:
        """Ratings ingested since construction."""
        return len(self.delta)

    @property
    def new_users(self) -> int:
        """Users first seen mid-stream."""
        return self._new_users

    @property
    def new_items(self) -> int:
        """Items (tokens) minted mid-stream."""
        return self._new_items

    @property
    def factors(self) -> FactorPair:
        """Decoupled (W, H) snapshot of the current model."""
        return FactorPair(
            self._w[: self._n_users].copy(), self._h[: self._n_items].copy()
        )

    def queue_sizes(self) -> list[int]:
        """Tokens resting at each worker (diagnostics, tests)."""
        return [len(queue) for queue in self._queues]

    def owner_of_user(self, user: int) -> int:
        """The worker owning ``user``'s row (fixed at first sight)."""
        if not 0 <= user < self._n_users:
            raise ConfigError(f"user {user} out of range [0, {self._n_users})")
        return self._owner_of_user[user]

    def combined(self) -> RatingMatrix:
        """Base plus arrivals over the current ``(n_users, n_items)`` shape."""
        return self.delta.combined(self._n_users, self._n_items)

    # ------------------------------------------------------------------
    # Ingestion (the §4 fold-in path)
    # ------------------------------------------------------------------
    def ingest(self, event: RatingEvent) -> None:
        """Fold one arrival in: grow entities on first sight, route the
        rating to the owning worker's column store.

        No re-partitioning ever happens: a new user is pinned to the
        currently least-loaded worker; a new item mints a fresh token
        placed on a seeded random queue.  The rating participates in the
        very next :meth:`sweep`.
        """
        user, item, value = event.user, event.item, event.value
        # Validate everything BEFORE growing: a rejected arrival must
        # leave the trainer exactly as it was (no phantom users/tokens).
        if user < 0 or item < 0:
            raise DataError(f"arrival index out of range: ({user}, {item})")
        if not np.isfinite(value):
            raise DataError(f"arrival rating must be finite, got {value}")
        if self.delta.contains(user, item):
            raise DataError(
                f"duplicate arrival for already-rated cell ({user}, {item})"
            )
        rec = self.recorder
        if rec is not None:
            ingest_start = clock()
        if user >= self._n_users:
            self._grow_users(user + 1)
        if item >= self._n_items:
            self._grow_items(item + 1)
        self.delta.record(user, item, value)
        owner = self._owner_of_user[user]
        self._stores[owner].append(item, user, value)
        self._worker_load[owner] += 1
        if rec is not None:
            rec.span(SPAN_INGEST, ingest_start, clock() - ingest_start, 1)

    def _grow_users(self, n_users: int) -> None:
        bound = 1.0 / np.sqrt(self.hyper.k)
        self._w = _grown(self._w, n_users)
        for user in range(self._n_users, n_users):
            self._w[user] = self._grow_rng.uniform(
                0.0, bound, size=self.hyper.k
            )
            owner = int(np.argmin(self._worker_load))
            self._owner_of_user.append(owner)
            self._new_users += 1
        self._n_users = n_users
        self._stale = True

    def _grow_items(self, n_items: int) -> None:
        bound = 1.0 / np.sqrt(self.hyper.k)
        self._h = _grown(self._h, n_items)
        self._ledger.grow(n_items)
        for item in range(self._n_items, n_items):
            self._h[item] = self._grow_rng.uniform(
                0.0, bound, size=self.hyper.k
            )
            dest = self._route_rng.randrange(self.n_workers)
            self._queues[dest].append(item)
            self._ledger.acquire(item, dest)
            self._new_items += 1
        self._n_items = n_items

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def _bound_kernels(self) -> list:
        """Fold pending arrivals into every store and rebind the kernels
        left stale: a flush that replaced the store's arrays (every
        store's, when items grew — ``indptr`` extends) or a user growth,
        which touches no store but moves ``_w`` and its live length."""
        hyper = self.hyper
        w, h = self._w[: self._n_users], self._h[: self._n_items]
        for q, store in enumerate(self._stores):
            if store.flush(self._n_items) or self._stale:
                self._kernels[q] = self.backend.bind_tokens(
                    w, h, store.indptr, store.users, store.ratings,
                    store.counts, hyper.alpha, hyper.beta, hyper.lambda_,
                )
        self._stale = False
        return self._kernels

    def sweep(self, max_updates: int | None = None) -> int:
        """Route every token through every worker once; return updates.

        One sweep is the §3.4 circulation schedule: each token starts at
        its resting worker and tours the remaining workers in a fresh
        seeded order, so every observed rating receives exactly one SGD
        update.  A round runs worker by worker — one bound-kernel call
        over the worker's tokens in plan order — which is update for
        update what interleaving them would give: workers own disjoint
        ``w`` rows and a token is at one worker per round (a
        serializable execution by the owner-computes argument of §4.1).
        Afterwards each token rests at a policy-chosen queue.
        ``max_updates`` caps the updates applied *this call*; tokens
        still complete their tours so conservation holds.
        """
        p = self.n_workers
        rec = self.recorder
        if rec is not None:
            sweep_start = clock()
            for q in range(p):
                rec.point(POINT_QUEUE_DEPTH, len(self._queues[q]))
        kernels = self._bound_kernels()
        tokens: list[int] = []
        tours: list[list[int]] = []
        for q, queue in enumerate(self._queues):
            rest = [w for w in range(p) if w != q]
            for _ in queue:
                others = rest.copy()
                self._route_rng.shuffle(others)
                tours.append([q, *others])
            tokens.extend(queue)
            queue.clear()
        items = np.array(tokens, dtype=np.int64)
        stops = np.array(tours, dtype=np.int64)

        applied = 0
        for r in range(p):
            if r > 0:
                self._ledger.transfer_many(items, stops[:, r - 1], stops[:, r])
            if max_updates is not None:
                # Budgeted path: the halt boundary is per column, so each
                # column is a burst of one.
                for j, stop in zip(tokens, stops[:, r].tolist()):
                    if applied >= max_updates:
                        break
                    done = kernels[stop].process_token(j)
                    applied += done
                    self._worker_updates[stop] += done
                continue
            if rec is not None:
                kernel_start = clock()
            round_applied = 0
            for q in range(p):
                done = kernels[q].process_tokens(items[stops[:, r] == q])
                round_applied += done
                self._worker_updates[q] += done
            applied += round_applied
            if rec is not None and round_applied:
                rec.span(
                    SPAN_KERNEL, kernel_start, clock() - kernel_start,
                    round_applied,
                )
        if self.count_cap is not None:
            # Counters never pass the cap between sweeps and a sweep
            # adds at most one, so one clamp per store restores it.
            for store in self._stores:
                store.clamp_counts(self.count_cap)

        workers = range(p)
        queues = self._queues
        dests = []
        for j in tokens:
            dest = self.policy.choose(
                workers, lambda w: len(queues[w]), self._route_rng
            )
            queues[dest].append(j)
            dests.append(dest)
        self._ledger.transfer_many(items, stops[:, -1], dests)
        self._ledger.assert_conserved()
        self._total_updates += applied
        if rec is not None:
            rec.span(SPAN_SWEEP, sweep_start, clock() - sweep_start, applied)
            rec.add(C_UPDATES, applied)
            rec.add(C_TOKENS, len(tokens))
        return applied

    def train(self, epochs: int, max_updates: int | None = None) -> int:
        """Run ``epochs`` sweeps (bounded by ``max_updates``); return updates."""
        if epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {epochs}")
        applied = 0
        for _ in range(epochs):
            budget = None if max_updates is None else max_updates - applied
            if budget is not None and budget <= 0:
                break
            applied += self.sweep(budget)
        return applied

    def __repr__(self) -> str:
        return (
            f"DynamicNomad(users={self._n_users}, items={self._n_items}, "
            f"workers={self.n_workers}, arrivals={self.arrivals}, "
            f"updates={self._total_updates})"
        )
