"""Unified telemetry: per-worker recorders, merged run summaries, exports.

The observability substrate shared by every runtime (PR 10).  One
instrument — the ring-buffer :class:`Recorder` — is threaded through
the threaded/multiprocess/cluster/dynamic substrates and the serve
layer; aggregation, Chrome-trace export, and Prometheus rendering live
on the collection side where cost no longer matters.

Disabled is the default and costs one branch per instrumentation site:
substrates hold ``None`` unless the caller passed ``telemetry=True``
through ``repro.fit()`` / ``fit_stream()``.

Layout:

* :mod:`~repro.telemetry.recorder` — hot path: :data:`clock`, event
  kinds, counters, :class:`Recorder`.
* :mod:`~repro.telemetry.aggregate` — :class:`Histogram`,
  :class:`RunTelemetry` (the ``FitResult.telemetry`` value).
* :mod:`~repro.telemetry.payload` — the versioned blob a cluster Fin
  frame carries.
* :mod:`~repro.telemetry.trace` — Chrome trace-event (Perfetto) export.
* :mod:`~repro.telemetry.prometheus` — text-exposition rendering for
  ``GET /metrics``.
"""

from .aggregate import Histogram, RunTelemetry
from .payload import (
    MAX_PAYLOAD_EVENTS,
    PAYLOAD_MAGIC,
    PAYLOAD_VERSION,
    decode_payload,
    encode_payload,
)
from .recorder import (
    C_BATCHES,
    C_DRAINS,
    C_IDLE_POLLS,
    C_TOKENS,
    C_UPDATES,
    COUNTER_NAMES,
    KIND_NAMES,
    POINT_QUEUE_DEPTH,
    Recorder,
    SPAN_HOP,
    SPAN_HTTP,
    SPAN_IDLE,
    SPAN_INGEST,
    SPAN_KERNEL,
    SPAN_ROTATION,
    SPAN_SWEEP,
    WorkerTelemetry,
    clock,
)
from .trace import chrome_trace, chrome_trace_events

#: nomadlint NMD001: telemetry never touches factor state; no function
#: here is an owner context.
__nomad_owner_contexts__ = ()

__all__ = [
    "C_BATCHES",
    "C_DRAINS",
    "C_IDLE_POLLS",
    "C_TOKENS",
    "C_UPDATES",
    "COUNTER_NAMES",
    "Histogram",
    "KIND_NAMES",
    "MAX_PAYLOAD_EVENTS",
    "PAYLOAD_MAGIC",
    "PAYLOAD_VERSION",
    "POINT_QUEUE_DEPTH",
    "Recorder",
    "RunTelemetry",
    "SPAN_HOP",
    "SPAN_HTTP",
    "SPAN_IDLE",
    "SPAN_INGEST",
    "SPAN_KERNEL",
    "SPAN_ROTATION",
    "SPAN_SWEEP",
    "WorkerTelemetry",
    "chrome_trace",
    "chrome_trace_events",
    "clock",
    "decode_payload",
    "encode_payload",
]
