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

Arrivals come in blocks (:meth:`DynamicNomad.ingest`; one arrival is
a block of one): a block is validated whole, grows the entities it
introduces in arrival order, and is handed to the owning workers'
column stores as arrays.  Each worker's ratings live in one growable
CSC with per-column slack (:class:`~repro.stream.colstore.ColumnStore`,
seeded from :meth:`Shard.csc <repro.datasets.ratings.Shard.csc>`), and
the next sweep writes the block's ratings into that slack in place.  A
sweep round is then one ``kernel.process_tokens(items)`` per worker on a
kernel bound by :meth:`KernelBackend.bind_tokens
<repro.linalg.backends.base.KernelBackend.bind_tokens>` over the store's
columns and their ``ends`` — no per-column Python.  The kernel reads the
arrivals where they were written; it is rebound (and its arrays
re-validated) only when the store's flush says so (its buffers grew,
items were added, or a column's users stopped ascending) or a
first-seen user reallocated ``W``.

The execution is in-process and deterministic given the seed: within a
round the workers run one after another, which is update for update the
interleaving parallel workers would produce — the owner-computes rule
keeps every interleaving conflict-free (§4.1) — so this sequential
schedule is one of the serializable executions the real runtimes sample
from.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from ..config import HyperParams, RunConfig
from ..datasets.ratings import RatingMatrix, partition_owner
from ..errors import ConfigError, DataError
from ..linalg.backends import resolve_backend
from ..linalg.factors import FactorPair, start_factors
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

__all__ = ["DynamicNomad", "RatedCells"]

#: nomadlint NMD001 owner contexts: ``sweep`` dispatches each token
#: through exactly one worker at a time under the OwnershipLedger;
#: ``_grow_users``/``_grow_items`` initialize rows that no token or
#: worker can reference until the growth completes.
__nomad_owner_contexts__ = ("sweep", "_grow_users", "_grow_items")

#: Initial row capacity headroom when a factor matrix first grows.
_MIN_CAPACITY = 8


class RatedCells:
    """The cells already rated: a base matrix's, plus every one added.

    The one duplicate check of a stream: :meth:`DynamicNomad.ingest`
    refuses a block holding one, and the service's ingest edge counts
    one as a duplicate.  Both ask about a block at once.  A base lookup
    is one ``searchsorted`` over the base cells' sorted integer keys;
    only cells added since construction go in a set.
    """

    def __init__(self, base: RatingMatrix):
        indptr, items, _ = base.csr()
        self._shape = (base.n_rows, base.n_cols)
        rows = np.repeat(np.arange(base.n_rows), np.diff(indptr))
        # Keys user * (n_cols + 1) + item, sorted, with a sentinel above
        # every key so a search never runs off the end.  A cell outside
        # the base shape is looked up clipped to row n_rows or column
        # n_cols, which no base key has.
        self._base_keys = np.append(
            rows * (base.n_cols + 1) + items, np.iinfo(np.int64).max
        )
        self._added: set[tuple[int, int]] = set()

    def __len__(self) -> int:
        """Cells added since construction."""
        return len(self._added)

    def contains(self, users, items) -> np.ndarray:
        """Whether each ``(users[t], items[t])`` is rated — in the base,
        added, or earlier in the same block — as a bool array.  Ids are
        non-negative."""
        users, items = _ids(users), _ids(items)
        n_rows, n_cols = self._shape
        keys = np.minimum(users, n_rows) * (n_cols + 1)
        keys += np.minimum(items, n_cols)
        rated = self._base_keys[self._base_keys.searchsorted(keys)] == keys
        cells = list(zip(users.tolist(), items.tolist()))
        if self._added.isdisjoint(cells) and len(set(cells)) == len(cells):
            return rated
        added, seen = self._added, set()
        for t, cell in enumerate(cells):
            if cell in added or cell in seen:
                rated[t] = True
            seen.add(cell)
        return rated

    def add(self, users, items) -> None:
        """Mark every ``(users[t], items[t])`` rated."""
        self._added.update(zip(_ids(users).tolist(), _ids(items).tolist()))


def _ids(ids) -> np.ndarray:
    """``ids`` as a flat ``int64`` array (a scalar is a block of one)."""
    return np.asarray(ids, dtype=np.int64).reshape(-1)


def _running_max(ids: np.ndarray, start: int) -> np.ndarray:
    """``out[t]`` is the largest of ``start`` and ``ids[:t]``."""
    return np.maximum.accumulate(np.concatenate([[start], ids[:-1]]))


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
    ratings and their update counters — the one copy of each rating;
    :class:`RatedCells` answers whether a cell is rated.  :meth:`ingest`
    takes a block of arrivals and hands each owner's share to its store;
    :meth:`sweep` first has the stores write them into their columns (a
    rating ingested now trains in the very next sweep) and rebinds only
    the token kernels a store or a reallocated ``W`` asks for.

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
        The run's :class:`~repro.config.RunConfig` (required): ``seed``
        roots the start, the token scatter and the routing draws, and
        ``kernel_backend`` names the kernels (``"auto"`` is the compiled
        backend where a toolchain is present, else the interpreted
        reference).  The caller decides how many sweeps run; the
        trainer reads neither ``duration`` nor ``max_updates``.
    init_factors:
        Optional warm-start factors validated against the base shape and
        ``hyper.k`` — resuming from a previous run's
        :attr:`~repro.api.result.FitResult.factors` is the §4 fold-in
        protocol's starting point.  Without them the trainer starts
        from the seed's draw, the pair every engine starts from.
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
        run: RunConfig,
        init_factors: FactorPair | None = None,
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
        self.backend = resolve_backend(run.kernel_backend)

        self._factory = RngFactory(run.seed)
        self._route_rng = self.backend.rng_stream(
            self._factory.pyrandom("dynamic-route")
        )
        self._grow_rng = self._factory.stream("dynamic-grow")

        factors = start_factors(
            base.n_rows, base.n_cols, hyper.k, run.seed, init_factors
        )
        self._n_users = base.n_rows
        self._n_items = base.n_cols
        # Capacity-backed storage: ingest-time growth is amortized O(1),
        # and kernels only ever touch rows below the live counts.
        self._w = _grown(factors.w.copy(), base.n_rows)
        self._h = _grown(factors.h.copy(), base.n_cols)

        self._rated = RatedCells(base)

        # One-time base partition; arrivals extend these structures only.
        p = self.n_workers
        partition = partition_rows_equal_ratings(base, p)
        self._owner_of_user = partition_owner(partition, base.n_rows)
        shards = base.shard_by_rows(partition)
        self._stores = [ColumnStore(*shard.csc()) for shard in shards]
        self._worker_load = np.array([shard.nnz for shard in shards])
        # One bound token kernel per worker, made by the first sweep and
        # remade when a flush asks for it or ``_w`` is reallocated (the
        # kernels bind the whole capacity, so new rows inside it are
        # seen without a rebind).
        self._kernels: list = [None] * p
        self._bound_w: np.ndarray | None = None

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
        return len(self._rated)

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

    def triplets(self) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Every rating held, as one ``(users, items, ratings)`` COO triple
        per worker (:meth:`ColumnStore.triplets
        <repro.stream.colstore.ColumnStore.triplets>`: arrivals not yet
        written into their columns included, last)."""
        return [store.triplets() for store in self._stores]

    # ------------------------------------------------------------------
    # Ingestion (the §4 fold-in path)
    # ------------------------------------------------------------------
    def ingest(self, users, items, values) -> None:
        """Fold a block of arrivals in, in order: grow entities on first
        sight, route each rating to its owner's column store.

        The block is validated whole before anything grows: a negative
        index, a non-finite value or a cell already rated (in the base,
        by an earlier arrival, or earlier in this block) refuses it with
        a :class:`~repro.errors.DataError` naming the first offender,
        and leaves the trainer exactly as it was.  No re-partitioning
        ever happens: first-seen users and items grow in arrival order,
        a new user pinned to the worker least loaded at its arrival
        (counting the block's earlier arrivals), a new item minting a
        token on a seeded random queue.  The ratings train from the
        very next :meth:`sweep`.
        """
        users, items = _ids(users), _ids(items)
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        if not users.size:
            return
        # (users | items) < 0 where either id is negative.
        if (np.count_nonzero((users | items) < 0)
                or np.count_nonzero(np.isfinite(values)) < values.size
                or np.count_nonzero(self._rated.contains(users, items))):
            self._refuse(users, items, values)
        rec = self.recorder
        if rec is not None:
            ingest_start = clock()
        counted = 0
        if users.max() >= self._n_users or items.max() >= self._n_items:
            counted = self._grow(users, items)
        self._rated.add(users, items)
        # Each worker's share, in arrival order, as one slice.
        owners = self._owner_of_user[users]
        shares = np.bincount(owners, minlength=self.n_workers)
        self._worker_load += (
            shares if not counted
            else np.bincount(owners[counted:], minlength=self.n_workers)
        )
        order = np.argsort(owners, kind="stable")
        items, users, values = items[order], users[order], values[order]
        end = 0
        for store, share in zip(self._stores, shares.tolist()):
            if share:
                start, end = end, end + share
                store.append(items[start:end], users[start:end],
                             values[start:end])
        if rec is not None:
            rec.span(
                SPAN_INGEST, ingest_start, clock() - ingest_start, users.size
            )

    def _refuse(self, users, items, values) -> None:
        """Raise the :class:`~repro.errors.DataError` of a refused block's
        first offender, checking arrival by arrival."""
        seen: set[tuple[int, int]] = set()
        for user, item, value in zip(
            users.tolist(), items.tolist(), values.tolist()
        ):
            if user < 0 or item < 0:
                raise DataError(f"arrival index out of range: ({user}, {item})")
            if not math.isfinite(value):
                raise DataError(f"arrival rating must be finite, got {value}")
            if (user, item) in seen or self._rated.contains(user, item)[0]:
                raise DataError(
                    f"duplicate arrival for already-rated cell ({user}, {item})"
                )
            seen.add((user, item))

    def _grow(self, users: np.ndarray, items: np.ndarray) -> int:
        """Grow every user and item the block sees first, in arrival
        order.  Arrivals naming an id above every one seen before them
        grow the model one after another, and the worker load up to each
        is what the next new user's placement sees.  Returns how many
        leading arrivals' load is counted; the caller counts the rest."""
        counted = 0
        for t in np.flatnonzero(
            (users > _running_max(users, self._n_users - 1))
            | (items > _running_max(items, self._n_items - 1))
        ).tolist():
            self._worker_load += np.bincount(
                self._owner_of_user[users[counted:t]],
                minlength=self.n_workers,
            )
            counted = t
            if users[t] >= self._n_users:
                self._grow_users(int(users[t]) + 1)
            if items[t] >= self._n_items:
                self._grow_items(int(items[t]) + 1)
        return counted

    def _grow_users(self, n_users: int) -> None:
        bound = 1.0 / np.sqrt(self.hyper.k)
        self._w = _grown(self._w, n_users)
        for user in range(self._n_users, n_users):
            self._w[user] = self._grow_rng.uniform(
                0.0, bound, size=self.hyper.k
            )
        owner = int(np.argmin(self._worker_load))
        self._owner_of_user = np.concatenate([
            self._owner_of_user,
            np.full(n_users - self._n_users, owner, dtype=np.int64),
        ])
        self._new_users += n_users - self._n_users
        self._n_users = n_users

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
        """Write pending arrivals into every store and rebind the kernels
        a flush asks for (every store's, when items grew) — or all of
        them, when a user growth reallocated ``_w``."""
        hyper = self.hyper
        w, h = self._w, self._h[: self._n_items]
        moved = self._bound_w is not w
        for q, store in enumerate(self._stores):
            if store.flush(self._n_items) or moved:
                indptr, users, ratings, counts, ends = store.kernel_arrays()
                self._kernels[q] = self.backend.bind_tokens(
                    w, h, indptr, users, ratings, counts,
                    hyper.alpha, hyper.beta, hyper.lambda_, ends=ends,
                )
        self._bound_w = w
        return self._kernels

    def sweep(self) -> int:
        """Route every token through every worker once; return updates.

        One sweep is the §3.4 circulation schedule: each token starts at
        its resting worker and tours the remaining workers in a fresh
        seeded order, so every observed rating receives exactly one SGD
        update.  A round runs worker by worker — one bound-kernel call
        over the worker's tokens in plan order — which is update for
        update what interleaving them would give: workers own disjoint
        ``w`` rows and a token is at one worker per round (a
        serializable execution by the owner-computes argument of §4.1).
        Afterwards every token rests, in plan order, at a uniform draw
        (Algorithm 1 line 22): the next sweep tours every token through
        every worker again, so a resting queue only decides the round in
        which a worker sees a token, never a worker's load.

        Every draw (tours, rests, new items' first queues) comes from one
        ``dynamic-route`` stream of the kernel backend
        (:meth:`~repro.linalg.backends.base.KernelBackend.rng_stream`):
        the draws a ``random.Random`` would make, under ``cext`` at C
        prices — a sweep's rests are one ``randbelow_many`` call.
        """
        p = self.n_workers
        rec = self.recorder
        if rec is not None:
            sweep_start = clock()
            for q in range(p):
                rec.point(POINT_QUEUE_DEPTH, len(self._queues[q]))
        kernels = self._bound_kernels()
        # Row t of ``stops`` is token t's tour: its resting worker, then
        # the others, shuffled in place one row at a time.  A shuffle of
        # one worker draws nothing, so below three workers a queue's
        # tours are one constant row and no shuffle runs.
        tokens: list[int] = []
        n_tokens = sum(map(len, self._queues))
        stops = np.empty((n_tokens, p), dtype=np.int64)
        shuffle = self._route_rng.shuffle
        for q, queue in enumerate(self._queues):
            first = len(tokens)
            last = first + len(queue)
            stops[first:last, 0] = q
            stops[first:last, 1:] = [w for w in range(p) if w != q]
            if p > 2:
                for tour in stops[first:last, 1:]:
                    shuffle(tour)
            tokens.extend(queue)
            queue.clear()
        items = np.array(tokens, dtype=np.int64)

        applied = 0
        for r in range(p):
            if r > 0:
                self._ledger.transfer_many(items, stops[:, r - 1], stops[:, r])
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

        dests = self._route_rng.randbelow_many(p, n_tokens)
        for q, queue in enumerate(self._queues):
            queue.extend(items[dests == q].tolist())
        self._ledger.transfer_many(items, stops[:, -1], dests)
        self._ledger.assert_conserved()
        self._total_updates += applied
        if rec is not None:
            rec.span(SPAN_SWEEP, sweep_start, clock() - sweep_start, applied)
            rec.add(C_UPDATES, applied)
            rec.add(C_TOKENS, n_tokens)
        return applied

    def train(self, epochs: int) -> int:
        """Run ``epochs`` sweeps; return the updates applied."""
        if epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {epochs}")
        return sum(self.sweep() for _ in range(epochs))

    def __repr__(self) -> str:
        return (
            f"DynamicNomad(users={self._n_users}, items={self._n_items}, "
            f"workers={self.n_workers}, arrivals={self.arrivals}, "
            f"updates={self._total_updates})"
        )
