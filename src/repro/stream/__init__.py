"""Streaming subsystem: online rating ingestion, dynamic NOMAD, serving.

§4 of the paper singles out the streaming setting as the regime NOMAD's
asynchronous, decentralized design is built for: "new ratings arrive in a
streaming fashion" and the algorithm folds them in *without a restart*.
This package makes that claim executable:

* :mod:`~repro.stream.sources` — arrival streams: a timestamped replay
  source over any :class:`~repro.datasets.ratings.RatingMatrix`, a
  synthetic drift generator (both emitting events for brand-new users
  and items), and a live queue-fed source (:class:`QueueStream`) that
  other threads push into — the HTTP ingest path of :mod:`repro.serve`.
* :mod:`~repro.stream.dynamic` — :class:`DynamicNomad`, warm-start NOMAD
  over a base matrix plus its arrivals, taken a block at a time: factor
  rows grow on first sight of a new user/item (the §4 fold-in), and
  every arriving rating is routed to the owning worker's column store —
  never a global re-partition.  One
  :class:`~repro.stream.dynamic.RatedCells` check refuses a block
  holding a cell already rated.
* :mod:`~repro.stream.colstore` — :class:`~repro.stream.colstore.ColumnStore`,
  that column store and the one home of each rating: one growable CSC
  per worker with per-column slack that the next sweep writes arrivals
  into in place, laid out for the bound token kernels.
* :mod:`~repro.stream.snapshots` — :class:`SnapshotStore`, rotating
  immutable :class:`~repro.model.CompletionModel` snapshots on a cadence,
  plus the prequential (test-then-train) RMSE trace of the stream.
* :mod:`~repro.stream.serve` — :class:`Recommender`, a stateless serving
  front that answers ``predict``/``recommend`` from one snapshot (the
  newest unless handed another) under an explicit cold-start policy.

The facade entry point is :func:`repro.fit_stream`, which drives all four
parts and returns a :class:`~repro.api.result.StreamResult`.
"""

from .dynamic import DynamicNomad
from .snapshots import (
    ModelSnapshot,
    PrequentialTrace,
    SnapshotStore,
)
from .serve import Recommender
from .sources import (
    DriftStream,
    QueueStream,
    RatingEvent,
    RatingStream,
    ReplayStream,
)

__all__ = [
    "RatingEvent",
    "RatingStream",
    "ReplayStream",
    "DriftStream",
    "QueueStream",
    "DynamicNomad",
    "ModelSnapshot",
    "PrequentialTrace",
    "SnapshotStore",
    "Recommender",
]
