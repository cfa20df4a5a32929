"""Token rings: the mailboxes of the threaded and multiprocess runtimes.

One int64 block — a shared-memory block between processes, a
``bytearray`` between threads — holds a ring per worker: a
``head``/``tail`` pair of monotonically increasing counters and
``capacity`` slots of item ids.  A token in these runtimes *is* an item
id (``h_j`` already lives in memory every worker sees), so moving a
burst between workers is two slice copies — no pickling, no feeder
thread, no pipe whose buffer a stopped run could fill.

Synchronisation is one lock per ring (a fork-inherited
:class:`multiprocessing.Lock`, or a :class:`threading.Lock`), taken
**once per batch** by :meth:`TokenRings.push_many` and
:meth:`TokenRings.pop_many`.  The paper allows exactly this — the
queues are the only synchronised objects (§3.5) — and the lock's
acquire/release pair is what orders the slot writes against the counter
update on every architecture; nothing here relies on the ordering of
plain numpy loads and stores.  A held lock is retried before it is
slept on (:func:`_acquire`).

``capacity`` is the next power of two ≥ ``n_items``: tokens are
conserved, so no ring can ever be asked to hold more than every item at
once.  A push that would exceed it is therefore a protocol bug (a
duplicated token) and raises
:class:`~repro.errors.TokenConservationError`; it never wraps over
unread slots.
"""

from __future__ import annotations

import numpy as np

from ..errors import TokenConservationError

__all__ = ["TokenRings"]

#: int64 slots ahead of each ring's data: ``head``, ``tail``, and padding
#: to a 64-byte line so one ring's counters never share a cache line
#: with its neighbour's last slots.
_HEADER = 8
_HEAD, _TAIL = 0, 1
_EMPTY = np.empty(0, dtype=np.int64)
#: Non-blocking tries at a held ring lock before sleeping on it.  A ring
#: lock is held for two slice copies (a few µs) and a failed try costs
#: ~0.1 µs, so the holder is normally gone well inside this many tries.
#: A blocking acquire sleeps in the kernel instead, and whether two
#: workers' bursts collide on a lock is a matter of their phase: at PR
#: 16's 32-token bursts (~20 000 a worker-second on the mp-sparse shape)
#: ~2 500 acquires per worker-second slept, each for as long as the host
#: takes to wake an idled virtual CPU, so a window's throughput depended
#: on whether its workers happened to collide (22M–34M updates/s inside
#: one quiet run; 31M–39M with the retry).  The loop's shard-sized
#: bursts take a ring lock about four times less often on that shape
#: (~5 000 bursts a worker-second); a collision still costs a wake-up.
_SPIN_TRIES = 200


def _acquire(lock) -> None:
    """Take ``lock``: spin briefly, then block."""
    for _ in range(_SPIN_TRIES):
        if lock.acquire(False):
            return
    lock.acquire()


class TokenRings:
    """``n_workers`` bounded FIFO rings of item ids over one buffer.

    ``buffer`` must hold :meth:`nbytes` bytes and start zeroed (a fresh
    ``SharedMemory`` block or ``bytearray`` does); the creator owns its
    lifetime.  Between processes, build the object **before** forking:
    children must inherit ``locks`` (``context.Lock()`` each), which
    cannot be pickled across ``spawn``.
    """

    def __init__(self, buffer, n_workers: int, n_items: int, locks: list):
        self.capacity = self.capacity_for(n_items)
        self._mask = self.capacity - 1
        self._rings = np.ndarray(
            (n_workers, _HEADER + self.capacity), dtype=np.int64, buffer=buffer
        )
        self._locks = locks

    @staticmethod
    def capacity_for(n_items: int) -> int:
        """Slots per ring: the next power of two ≥ ``n_items``."""
        return 1 << max(int(n_items) - 1, 0).bit_length()

    @classmethod
    def nbytes(cls, n_workers: int, n_items: int) -> int:
        """Bytes of buffer the rings of this geometry occupy."""
        return 8 * n_workers * (_HEADER + cls.capacity_for(n_items))

    def push_many(self, dst: int, items: np.ndarray) -> None:
        """Append ``items`` (int64 array) to ring ``dst``, in order."""
        n = items.shape[0]
        ring = self._rings[dst]
        lock = self._locks[dst]
        _acquire(lock)
        try:
            head, tail = int(ring[_HEAD]), int(ring[_TAIL])
            if tail - head + n > self.capacity:
                raise TokenConservationError(
                    f"token ring {dst} overflow: {tail - head} held + {n} "
                    f"pushed > capacity {self.capacity} — tokens were "
                    "duplicated (conservation violated)"
                )
            start = tail & self._mask
            first = min(n, self.capacity - start)
            data = ring[_HEADER:]
            data[start:start + first] = items[:first]
            data[:n - first] = items[first:]
            ring[_TAIL] = tail + n
        finally:
            lock.release()

    def pop_many(self, src: int, limit: int) -> np.ndarray:
        """Remove and return up to ``limit`` of ring ``src``'s oldest ids
        (a fresh array; empty when the ring is)."""
        ring = self._rings[src]
        lock = self._locks[src]
        _acquire(lock)
        try:
            head = int(ring[_HEAD])
            n = min(int(ring[_TAIL]) - head, limit)
            if n <= 0:
                return _EMPTY
            start = head & self._mask
            first = min(n, self.capacity - start)
            data = ring[_HEADER:]
            items = np.empty(n, dtype=np.int64)
            items[:first] = data[start:start + first]
            items[first:] = data[:n - first]
            ring[_HEAD] = head + n
        finally:
            lock.release()
        return items

    def route(self, items: np.ndarray, dests: np.ndarray) -> None:
        """Push ``items[t]`` to ring ``dests[t]`` — one lock per
        destination that receives anything, not one per token."""
        for dst in range(self._rings.shape[0]):
            chosen = items[dests == dst]
            if chosen.size:
                self.push_many(dst, chosen)

    def depth(self, src: int) -> int:
        """Tokens waiting in ring ``src`` right now."""
        ring = self._rings[src]
        lock = self._locks[src]
        _acquire(lock)
        try:
            return int(ring[_TAIL]) - int(ring[_HEAD])
        finally:
            lock.release()

    def check_conserved(self, n_items: int) -> None:
        """Raise unless the rings together hold each of ``range(n_items)``
        exactly once.  Reads without the locks: call it only once every
        worker has stopped touching the rings."""
        seen = np.zeros(n_items, dtype=np.int64)
        stray = 0
        for ring in self._rings:
            slots = np.arange(int(ring[_HEAD]), int(ring[_TAIL])) & self._mask
            held = ring[_HEADER:][slots]
            valid = (held >= 0) & (held < n_items)
            stray += int(held.size - valid.sum())
            seen += np.bincount(held[valid], minlength=n_items)
        if stray or not np.all(seen == 1):
            lost = np.flatnonzero(seen == 0)
            duplicated = np.flatnonzero(seen > 1)
            raise TokenConservationError(
                "token conservation violated: "
                f"{lost.size} item(s) lost (first: {lost[:5].tolist()}), "
                f"{duplicated.size} duplicated "
                f"(first: {duplicated[:5].tolist()}), "
                f"{stray} id(s) outside [0, {n_items})"
            )
