"""``repro.serve``: an HTTP recommendation service over the snapshot layer.

The streaming subsystem (:mod:`repro.stream`) ends at a rotating
:class:`~repro.stream.snapshots.SnapshotStore`; this package puts a
socket in front of it.  :class:`RecommendationService` runs a background
:func:`repro.fit_stream` trainer fed by ``POST /ratings`` traffic
through a :class:`~repro.stream.sources.QueueStream`, serves
predictions and top-N recommendations from the newest snapshot, caches
responses in a rotation-aware LRU, and — with a persistence directory —
survives restarts by resuming from the newest durable snapshot.

``repro-nomad serve`` is the CLI front; ``benchmarks/test_serving.py``
measures throughput and tail latency under concurrent ingest.
"""

from .app import RecommendationService, ServiceConfig
from .cache import CacheStats, LruCache
from .persistence import (
    PERSIST_VERSION,
    DurablePrequentialTrace,
    DurableSnapshotStore,
    SnapshotPersister,
)
from .schemas import MAX_BATCH, MAX_TOP_N, SCHEMA_VERSION

__all__ = [
    "RecommendationService",
    "ServiceConfig",
    "LruCache",
    "CacheStats",
    "SnapshotPersister",
    "DurableSnapshotStore",
    "DurablePrequentialTrace",
    "PERSIST_VERSION",
    "SCHEMA_VERSION",
    "MAX_TOP_N",
    "MAX_BATCH",
]

#: nomadlint NMD001: re-export module; no factor writes.
__nomad_owner_contexts__ = ()
