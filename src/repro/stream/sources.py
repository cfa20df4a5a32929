"""Arrival streams: where online ratings come from.

A :class:`RatingStream` is a warm-up matrix plus its arrivals, handed out
by :meth:`~RatingStream.blocks` as timestamped :class:`Arrivals` blocks
(one array per field).  Three sources ship:

* :class:`ReplayStream` — splits any existing
  :class:`~repro.datasets.ratings.RatingMatrix` into a warm-up prefix and
  an arrival tail, replayed in a seeded order with synthetic timestamps.
  Optional row/column holdouts force whole users/items to first appear
  mid-stream, exercising the §4 fold-in path.
* :class:`DriftStream` — generates arrivals from a planted low-rank truth
  whose factors random-walk over time (concept drift), with new users and
  items appearing as it goes.
* :class:`QueueStream` — a *live* source fed by other threads (the HTTP
  ingest path of :mod:`repro.serve`): producers :meth:`~QueueStream.push`
  blocks of ratings, the consuming :func:`repro.fit_stream` loop blocks
  until the queue is closed.

The replay and drift sources are fully deterministic given their seed and
never emit a duplicate ``(user, item)`` pair, so the union of warm-up and
arrivals is always a valid rating matrix.  The queue source carries
whatever its producers push (deduplication is the producer's job — the
HTTP service rejects duplicates before queueing).
"""

from __future__ import annotations

import queue
import threading
import time as _time
from typing import Iterator, NamedTuple, Protocol, runtime_checkable

import numpy as np

from ..datasets.ratings import RatingMatrix
from ..errors import DataError
from ..rng import RngFactory

__all__ = [
    "Arrivals",
    "RatingStream",
    "ReplayStream",
    "DriftStream",
    "QueueStream",
]

#: Synthetic arrival rate of the replay and drift sources: arrival ``i``
#: is stamped ``i / _ARRIVALS_PER_SECOND`` stream seconds.
_ARRIVALS_PER_SECOND = 100.0


class Arrivals(NamedTuple):
    """A block of ratings arriving on the stream, one array per field.

    Equal-length 1-D arrays, in timestamp order.

    Attributes
    ----------
    times:
        Stream timestamps in seconds (float64), non-decreasing across a
        source.
    users, items:
        Global indices (int64).  Either may exceed the warm-up matrix
        shape — that is how a brand-new user/item announces itself.
    values:
        The observed ratings (float64).
    """

    times: np.ndarray
    users: np.ndarray
    items: np.ndarray
    values: np.ndarray


@runtime_checkable
class RatingStream(Protocol):
    """What :func:`repro.fit_stream` requires of an arrival source."""

    @property
    def warmup(self) -> RatingMatrix:
        """Ratings known before the stream starts (the initial training set)."""
        ...

    @property
    def n_events(self) -> int:
        """Number of arrivals :meth:`blocks` will yield."""
        ...

    def blocks(self) -> Iterator[Arrivals]:
        """The arrivals in timestamp order, as blocks of any size."""
        ...


class ReplayStream:
    """Replay an existing rating matrix as warm-up prefix + arrival tail.

    Parameters
    ----------
    matrix:
        The full rating set to replay.
    warmup_fraction:
        Fraction of ratings in the warm-up prefix, in (0, 1).  The split
        is a seeded uniform sample, like
        :func:`~repro.datasets.ratings.train_test_split`.
    holdout_rows, holdout_cols:
        Number of trailing user/item indices whose *every* rating is
        forced into the tail.  The warm-up matrix then does not cover
        those indices at all, guaranteeing the stream contains events for
        users/items the warm model has never seen.
    seed:
        Drives the warm-up sample and the tail order.

    Notes
    -----
    The warm-up matrix's shape is trimmed to the largest user/item index
    it actually contains, so an arrival beyond that shape is exactly "a
    user/item the model has not seen".  :attr:`full` keeps the original
    matrix for end-of-stream comparisons against a static retrain.
    """

    def __init__(
        self,
        matrix: RatingMatrix,
        warmup_fraction: float = 0.5,
        holdout_rows: int = 0,
        holdout_cols: int = 0,
        seed: int = 0,
    ):
        if not 0.0 < warmup_fraction < 1.0:
            raise DataError(
                f"warmup_fraction must be in (0, 1), got {warmup_fraction}"
            )
        if holdout_rows < 0 or holdout_rows >= matrix.n_rows:
            raise DataError(
                f"holdout_rows must be in [0, {matrix.n_rows}), got {holdout_rows}"
            )
        if holdout_cols < 0 or holdout_cols >= matrix.n_cols:
            raise DataError(
                f"holdout_cols must be in [0, {matrix.n_cols}), got {holdout_cols}"
            )
        self.full = matrix
        self.seed = int(seed)

        factory = RngFactory(seed)
        # Ratings of held-out users/items always stream in; the rest are
        # split by a uniform sample at the requested fraction.
        held = (matrix.rows >= matrix.n_rows - holdout_rows) | (
            matrix.cols >= matrix.n_cols - holdout_cols
        )
        eligible = np.flatnonzero(~held)
        n_warm = int(round(matrix.nnz * warmup_fraction))
        n_warm = min(n_warm, eligible.size)
        if n_warm < 1:
            raise DataError(
                "warmup would be empty; raise warmup_fraction or shrink "
                "the holdouts"
            )
        if n_warm == matrix.nnz:
            raise DataError("warmup would swallow every rating; lower it")
        picks = factory.stream("replay-split").choice(
            eligible, size=n_warm, replace=False
        )
        warm_mask = np.zeros(matrix.nnz, dtype=bool)
        warm_mask[picks] = True

        warm_rows = matrix.rows[warm_mask]
        warm_cols = matrix.cols[warm_mask]
        self.warmup = RatingMatrix(
            int(warm_rows.max()) + 1,
            int(warm_cols.max()) + 1,
            warm_rows,
            warm_cols,
            matrix.vals[warm_mask],
        )

        tail = np.flatnonzero(~warm_mask)
        order = factory.stream("replay-order").permutation(tail.size)
        self._tail = tail[order]

    @property
    def n_events(self) -> int:
        """Number of ratings in the arrival tail."""
        return int(self._tail.size)

    def blocks(self) -> Iterator[Arrivals]:
        """Yield the tail, in its seeded order with synthetic timestamps,
        as one block."""
        tail, matrix = self._tail, self.full
        yield Arrivals(
            np.arange(tail.size) / _ARRIVALS_PER_SECOND,
            matrix.rows[tail],
            matrix.cols[tail],
            matrix.vals[tail],
        )

    def __repr__(self) -> str:
        return (
            f"ReplayStream(warmup={self.warmup.nnz}, tail={self.n_events}, "
            f"shape={self.full.shape})"
        )


class DriftStream:
    """Synthetic arrivals from a drifting planted low-rank model.

    A rank-4 ground truth ``W* H*ᵀ`` over 120 users and 60 items is
    planted; a tenth of its cells is the warm-up, and each arrival
    observes one unrated cell, both with noise of standard deviation
    0.05.  Between events the truth factors take a random-walk step of
    standard deviation 0.001 (concept drift), and an event introduces a
    brand-new user with probability 0.01, or a brand-new item with
    probability 0.005, whose truth row is drawn fresh.

    Parameters
    ----------
    n_events:
        Number of arrivals to generate.
    seed:
        Drives everything; two instances with one seed are identical.
    """

    _N_USERS, _N_ITEMS, _RANK = 120, 60, 4
    _DRIFT, _NOISE = 0.001, 0.05
    _NEW_USER_PROB, _NEW_ITEM_PROB = 0.01, 0.005

    def __init__(self, n_events: int = 1000, seed: int = 0):
        if n_events < 1:
            raise DataError(f"n_events must be >= 1, got {n_events}")
        self.seed = int(seed)
        n_users, n_items, rank = self._N_USERS, self._N_ITEMS, self._RANK
        drift, noise = self._DRIFT, self._NOISE

        factory = RngFactory(seed)
        truth_rng = factory.stream("drift-truth")
        scale = 1.0 / np.sqrt(rank)
        w_true = truth_rng.normal(0.0, scale, size=(n_users, rank))
        h_true = truth_rng.normal(0.0, scale, size=(n_items, rank))

        # Warm-up observations: a uniform tenth of the initial truth's cells.
        warm_rng = factory.stream("drift-warmup")
        n_warm = max(1, int(round(n_users * n_items * 0.1)))
        flat = warm_rng.choice(n_users * n_items, size=n_warm, replace=False)
        rows, cols = np.divmod(flat, n_items)
        vals = np.einsum("ij,ij->i", w_true[rows], h_true[cols])
        vals = vals + warm_rng.normal(0.0, noise, size=vals.shape)
        self.warmup = RatingMatrix(n_users, n_items, rows, cols, vals)
        seen = set(zip(rows.tolist(), cols.tolist()))

        # Arrivals are generated eagerly so every instance with one seed
        # is byte-identical however the caller interleaves iteration.
        event_rng = factory.stream("drift-events")
        times: list[float] = []
        users: list[int] = []
        items: list[int] = []
        values: list[float] = []
        n_u, n_i = n_users, n_items
        for i in range(n_events):
            w_true += event_rng.normal(0.0, drift, size=w_true.shape)
            h_true += event_rng.normal(0.0, drift, size=h_true.shape)
            roll = event_rng.random()
            if roll < self._NEW_USER_PROB:
                w_true = np.vstack(
                    [w_true, event_rng.normal(0.0, scale, size=(1, rank))]
                )
                user = n_u
                n_u += 1
                item = int(event_rng.integers(n_i))
            elif roll < self._NEW_USER_PROB + self._NEW_ITEM_PROB:
                h_true = np.vstack(
                    [h_true, event_rng.normal(0.0, scale, size=(1, rank))]
                )
                item = n_i
                n_i += 1
                user = int(event_rng.integers(n_u))
            else:
                user = int(event_rng.integers(n_u))
                item = int(event_rng.integers(n_i))
            if (user, item) in seen:
                # Re-draw the cell uniformly among unrated ones; bounded
                # retries keep generation O(n_events) in practice.
                for _ in range(64):
                    user = int(event_rng.integers(n_u))
                    item = int(event_rng.integers(n_i))
                    if (user, item) not in seen:
                        break
                else:
                    continue  # stream region saturated; skip this event
            seen.add((user, item))
            times.append(i / _ARRIVALS_PER_SECOND)
            users.append(user)
            items.append(item)
            values.append(
                float(w_true[user] @ h_true[item])
                + float(event_rng.normal(0.0, noise))
            )
        if not users:
            raise DataError("drift stream generated no events; grow the matrix")
        self._arrivals = Arrivals(
            np.array(times),
            np.array(users, dtype=np.int64),
            np.array(items, dtype=np.int64),
            np.array(values),
        )
        for column in self._arrivals:
            column.setflags(write=False)
        self.final_users = n_u
        self.final_items = n_i

    @property
    def n_events(self) -> int:
        """Number of generated arrivals."""
        return int(self._arrivals.users.size)

    def blocks(self) -> Iterator[Arrivals]:
        """Yield the pre-generated arrivals as one (read-only) block."""
        yield self._arrivals

    def __repr__(self) -> str:
        return (
            f"DriftStream(warmup={self.warmup.nnz}, events={self.n_events}, "
            f"entities={self.final_users}x{self.final_items})"
        )


class QueueStream:
    """A live :class:`RatingStream` fed by producer threads.

    Unlike :class:`ReplayStream`/:class:`DriftStream`, the arrivals are
    not known up front: producers call :meth:`push` (thread-safe, any
    number of producers) and one consumer — the
    :func:`repro.fit_stream` loop — drains :meth:`blocks`, blocking when
    the queue is empty until :meth:`close` ends the stream.  This is how
    the HTTP service's ``POST /ratings`` ingest path feeds a background
    trainer: served traffic becomes training data without either side
    knowing about the other.

    Parameters
    ----------
    warmup:
        Ratings known before the stream starts (the initial training
        set, exactly as in the other sources).

    Notes
    -----
    A pushed block is stamped with seconds since construction on the
    monotonic clock, read and enqueued under the lock :meth:`close`
    takes, so stamps are non-decreasing in queue order and every block
    counted in :attr:`n_events` is queued ahead of the end-of-stream
    sentinel.  :attr:`n_events` reports arrivals *pushed so far* — for a
    live source the eventual total is unknowable until :meth:`close`.
    """

    def __init__(self, warmup: RatingMatrix):
        self.warmup = warmup
        self._queue: queue.Queue = queue.Queue()
        self._lock = threading.Lock()
        self._pushed = 0
        self._drained = 0
        self._closed = False
        self._epoch = _time.monotonic()

    @property
    def n_events(self) -> int:
        """Arrivals pushed so far (grows while the stream is open)."""
        return self._pushed

    @property
    def pending(self) -> int:
        """Arrivals pushed but not yet drained by the consumer."""
        return self._pushed - self._drained

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has ended the stream."""
        return self._closed

    def push(self, users, items, values) -> Arrivals:
        """Enqueue one block of arrivals (a scalar is a block of one);
        returns it stamped.

        Validation mirrors the trainer's ingest checks (non-negative
        indices, finite values): a block holding a malformed rating is
        refused whole, naming the first offender, in the producer's
        thread instead of killing the consumer loop.
        """
        users = np.array(users, dtype=np.int64).reshape(-1)
        items = np.array(items, dtype=np.int64).reshape(-1)
        values = np.array(values, dtype=np.float64).reshape(-1)
        if not users.size == items.size == values.size:
            raise DataError(
                f"arrival columns differ in length: {users.size} users, "
                f"{items.size} items, {values.size} values"
            )
        bad = np.flatnonzero(((users | items) < 0) | ~np.isfinite(values))
        if bad.size:
            t = int(bad[0])
            user, item = int(users[t]), int(items[t])
            if user < 0 or item < 0:
                raise DataError(f"arrival index out of range: ({user}, {item})")
            raise DataError(f"arrival rating must be finite, got {float(values[t])}")
        with self._lock:
            if self._closed:
                raise DataError("queue stream is closed; cannot push")
            stamp = _time.monotonic() - self._epoch
            block = Arrivals(np.full(users.size, stamp), users, items, values)
            self._pushed += users.size
            self._queue.put(block)
        return block

    def close(self) -> None:
        """End the stream: the consumer drains what is queued and stops.

        Idempotent; further :meth:`push` calls raise
        :class:`~repro.errors.DataError`.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._queue.put(None)  # sentinel: wakes the blocked consumer

    def blocks(self) -> Iterator[Arrivals]:
        """Yield each pushed block as it is drained; blocks while open.

        Single-consumer: exactly one loop (the ``fit_stream`` runner)
        should iterate this.  Iteration ends when :meth:`close` is
        called and everything already queued has been drained.
        """
        while True:
            block = self._queue.get()
            if block is None:
                return
            self._drained += block.users.size
            yield block

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"QueueStream({state}, warmup={self.warmup.nnz}, "
            f"pushed={self._pushed}, pending={self.pending})"
        )
