"""Per-worker ring-buffer event recorder: the telemetry hot path.

Every substrate shares one instrument: a :class:`Recorder` owned by a
single worker (thread, process, or cluster node) that accumulates
fixed-size **span** records and monotonic **counters**.  Design budget:

* zero allocation on the hot path — spans land in preallocated
  :mod:`array` ring buffers by index assignment, counters are slot
  increments into a preallocated array;
* monotonic clocks only — :data:`clock` is the module's single span
  timestamp source (``time.perf_counter``: on Linux this reads
  ``CLOCK_MONOTONIC``, so stamps are comparable across the processes of
  one host, which is what lets hop latency span a put in one process
  and a pop in another);
* compiled out by default — substrates hold ``None`` when telemetry is
  off and guard every instrumentation site with one ``is not None``
  check, so the disabled path costs one branch.

A recorder is **single-writer**: only its owning worker records into
it.  Collection (:meth:`Recorder.snapshot`) happens after the worker
stops (or, for serve, under the app's existing stats lock), so no
synchronization is needed on the write side.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "COUNTER_NAMES",
    "C_BATCHES",
    "C_DRAINS",
    "C_IDLE_POLLS",
    "C_TOKENS",
    "C_UPDATES",
    "DEFAULT_CAPACITY",
    "KIND_NAMES",
    "POINT_QUEUE_DEPTH",
    "Recorder",
    "SPAN_HOP",
    "SPAN_IDLE",
    "SPAN_INGEST",
    "SPAN_KERNEL",
    "SPAN_ROTATION",
    "SPAN_SWEEP",
    "WorkerTelemetry",
    "clock",
]

#: The one sanctioned span-timestamp source.  Substrate modules import
#: this instead of calling ``time.perf_counter()`` directly (nomadlint
#: NMD006 enforces the discipline), so every recorded stamp is known to
#: come from the same clock and a future clock swap is one edit.
clock = time.perf_counter

# ---------------------------------------------------------------------------
# Event model.  Spans are ``(kind, start, duration, value)``; a *point*
# event (an instantaneous observation such as a queue depth) is a span
# of zero duration whose payload rides in ``value``.

SPAN_HOP = 1        #: token mailbox residence: put/arrival -> pop
# 2 was a mailbox drain span nothing recorded; the ids are payload ids,
# so it stays unused rather than renumbering the rest.
SPAN_KERNEL = 3     #: one fused kernel-batch call; value = updates applied
SPAN_SWEEP = 4      #: one dynamic-runtime sweep; value = updates applied
SPAN_INGEST = 5     #: one streaming ingest call; value = ratings absorbed
SPAN_ROTATION = 6   #: one snapshot rotation (retrain + swap)
# 7 was an HTTP request span nothing read; unused for the same reason.
SPAN_IDLE = 8       #: worker blocked on an empty mailbox/transport
POINT_QUEUE_DEPTH = 9  #: queue depth observed at drain time; value = depth

KIND_NAMES = {
    SPAN_HOP: "hop",
    SPAN_KERNEL: "kernel",
    SPAN_SWEEP: "sweep",
    SPAN_INGEST: "ingest",
    SPAN_ROTATION: "rotation",
    SPAN_IDLE: "idle",
    POINT_QUEUE_DEPTH: "queue_depth",
}

# Counter slots (indices into the recorder's counter array).
C_UPDATES = 0     #: SGD updates applied
C_TOKENS = 1      #: tokens popped and processed
C_BATCHES = 2     #: fused kernel-batch calls
C_DRAINS = 3      #: mailbox drain visits
C_IDLE_POLLS = 4  #: empty polls while waiting for work

COUNTER_NAMES = ("updates", "tokens", "batches", "drains", "idle_polls")

#: Span ring capacity per worker.  Power of two so the ring index is a
#: mask, sized so a one-second run at typical burst cadence fits without
#: wrapping; wrapping is not an error (oldest spans drop, counters and
#: ``dropped`` stay exact).
DEFAULT_CAPACITY = 8192


@dataclass
class WorkerTelemetry:
    """One worker's collected telemetry: counters plus its span log.

    ``events`` is chronological ``(kind, start, duration, value)``
    tuples — ``start``/``duration`` in :data:`clock` seconds, ``value``
    an event-kind-specific integer.  ``dropped`` counts spans evicted by
    ring wrap; counters are never dropped.
    """

    worker_id: int
    counters: dict[str, int] = field(default_factory=dict)
    events: list[tuple[int, float, float, int]] = field(default_factory=list)
    dropped: int = 0

    def to_dict(self) -> dict:
        return {
            "worker_id": self.worker_id,
            "counters": dict(self.counters),
            "events": [list(event) for event in self.events],
            "dropped": self.dropped,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "WorkerTelemetry":
        return cls(
            worker_id=int(payload["worker_id"]),
            counters={
                str(name): int(count)
                for name, count in payload.get("counters", {}).items()
            },
            events=[
                (int(kind), float(start), float(duration), int(value))
                for kind, start, duration, value in payload.get("events", ())
            ],
            dropped=int(payload.get("dropped", 0)),
        )


class Recorder:
    """Fixed-capacity span ring + counter array for one worker."""

    __slots__ = (
        "worker_id",
        "capacity",
        "dropped",
        "_mask",
        "_head",
        "_kind",
        "_start",
        "_duration",
        "_value",
        "_counters",
    )

    def __init__(self, worker_id: int = 0, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        size = 1
        while size < capacity:
            size <<= 1
        self.worker_id = int(worker_id)
        self.capacity = size
        self.dropped = 0
        self._mask = size - 1
        self._head = 0
        self._kind = array("i", bytes(4 * size))
        self._start = array("d", bytes(8 * size))
        self._duration = array("d", bytes(8 * size))
        self._value = array("q", bytes(8 * size))
        self._counters = array("q", bytes(8 * len(COUNTER_NAMES)))

    def span(self, kind: int, start: float, duration: float, value: int = 0) -> None:
        """Record one span.  Hot path: four index stores, no allocation."""
        head = self._head
        slot = head & self._mask
        self._kind[slot] = kind
        self._start[slot] = start
        self._duration[slot] = duration
        self._value[slot] = value
        self._head = head + 1
        if head >= self.capacity:
            self.dropped += 1

    def spans(self, kind: int, starts: np.ndarray, durations: np.ndarray) -> None:
        """Record ``len(starts)`` spans of one kind (value 0) in one call
        — a burst's hops — exactly as that many :meth:`span` calls would."""
        n = len(starts)
        head = self._head
        slots = np.arange(head, head + n) & self._mask
        np.frombuffer(self._kind, dtype=np.intc)[slots] = kind
        np.frombuffer(self._start, dtype=np.float64)[slots] = starts
        np.frombuffer(self._duration, dtype=np.float64)[slots] = durations
        np.frombuffer(self._value, dtype=np.int64)[slots] = 0
        self._head = head + n
        self.dropped += max(0, head + n - max(head, self.capacity))

    def point(self, kind: int, value: int) -> None:
        """Record an instantaneous observation (zero-duration span)."""
        self.span(kind, clock(), 0.0, value)

    def add(self, counter: int, n: int = 1) -> None:
        """Bump counter slot ``counter`` (a ``C_*`` index) by ``n``."""
        self._counters[counter] += n

    def count(self, counter: int) -> int:
        """Current value of counter slot ``counter``."""
        return self._counters[counter]

    def snapshot(self) -> WorkerTelemetry:
        """Materialize the ring into a :class:`WorkerTelemetry`.

        Call after the owning worker stops (single-writer contract);
        events come out in chronological order even after ring wrap.
        """
        head = self._head
        first = max(0, head - self.capacity)
        events = []
        for index in range(first, head):
            slot = index & self._mask
            events.append(
                (
                    self._kind[slot],
                    self._start[slot],
                    self._duration[slot],
                    self._value[slot],
                )
            )
        counters = {
            name: self._counters[slot]
            for slot, name in enumerate(COUNTER_NAMES)
        }
        return WorkerTelemetry(
            worker_id=self.worker_id,
            counters=counters,
            events=events,
            dropped=self.dropped,
        )
