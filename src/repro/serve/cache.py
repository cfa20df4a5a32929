"""Request-level LRU cache of the recommendation service.

Responses are cached under keys that *include the serving snapshot's
sequence number* — ``(serving_seq, user, n)`` — so a snapshot rotation
invalidates the whole working set atomically: the next request under the
new seq simply misses, and entries of retired snapshots age out of the
LRU tail.  No request thread ever races a bulk ``clear()`` against an
insert of a stale result (the flaw a seq-less cache would have).

This is the service's only cache and the only lock on its read path:
it is shared by every handler thread of the ``ThreadingHTTPServer``, so
all operations take the cache's own lock; its counters are the
:class:`CacheStats` surfaced at ``GET /stats``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable

from ..errors import ConfigError

__all__ = ["CacheStats", "LruCache"]

#: Sentinel distinguishing "cached None" from "missing".
_MISSING = object()


@dataclass
class CacheStats:
    """Observable counters of the request cache (``/stats``'s
    ``request_cache`` block).

    Attributes
    ----------
    hits, misses:
        Lookup outcomes.
    invalidations:
        Times the whole cache was dropped by :meth:`LruCache.clear`
        (rotation never does: the seq-carrying keys just stop matching).
    evictions:
        Entries dropped to capacity pressure.
    """

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from cache (0.0 when unused)."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def as_dict(self) -> dict:
        """JSON-ready counter dict (used by the ``/stats`` endpoint)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }


class LruCache:
    """A thread-safe least-recently-used map with observable counters.

    Parameters
    ----------
    capacity:
        Maximum resident entries; 0 disables caching (every ``get``
        misses, ``put`` is a no-op) without the callers branching.
    """

    def __init__(self, capacity: int = 1024):
        if capacity < 0:
            raise ConfigError(f"capacity must be >= 0, got {capacity}")
        self.capacity = int(capacity)
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def get(self, key: Hashable):
        """The cached value, marking it most-recently-used; ``None`` on
        miss (cache values are responses, never ``None``)."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return value

    def put(self, key: Hashable, value) -> None:
        """Insert (or refresh) one entry, evicting the LRU tail past
        capacity."""
        if self.capacity == 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def clear(self) -> int:
        """Drop everything (counted as one invalidation); returns the
        number of entries dropped.  Rotation does *not* need this — the
        seq-carrying keys invalidate implicitly — but an operator reset
        endpoint or test may."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            if dropped:
                self.stats.invalidations += 1
            return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats_payload(self) -> dict:
        """JSON-ready stats including occupancy (for ``/stats``)."""
        with self._lock:
            payload = self.stats.as_dict()
            payload["size"] = len(self._entries)
            payload["capacity"] = self.capacity
        return payload

    def __repr__(self) -> str:
        return (
            f"LruCache(size={len(self)}, capacity={self.capacity}, "
            f"hits={self.stats.hits}, misses={self.stats.misses})"
        )
