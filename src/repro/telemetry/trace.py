"""Chrome trace-event export: one run as a Perfetto-loadable timeline.

Converts a :class:`~repro.telemetry.aggregate.RunTelemetry` into the
Trace Event Format consumed by ``chrome://tracing`` and Perfetto
(https://ui.perfetto.dev): spans become complete events (``"ph": "X"``),
queue-depth points become counter events (``"ph": "C"``).  Every event
carries the four keys tooling requires — ``ph``, ``ts``, ``pid`` (1),
``tid`` (the worker) — with timestamps in microseconds rebased to the
first observed span so the timeline starts near zero.
"""

from __future__ import annotations

from .aggregate import RunTelemetry
from .recorder import KIND_NAMES, POINT_QUEUE_DEPTH

__all__ = ["chrome_trace", "chrome_trace_events"]

#: Spans whose ``value`` is an applied-update count get it surfaced in
#: the event ``args`` under a kind-appropriate key.
_VALUE_KEYS = {
    1: "hop",            # SPAN_HOP carries no payload; key unused
    3: "updates",        # kernel
    4: "updates",        # sweep
    5: "ratings",        # ingest
}


def chrome_trace_events(telemetry: RunTelemetry) -> list[dict]:
    """Flat list of trace events, chronological per worker."""
    starts = [
        start
        for worker in telemetry.workers
        for _kind, start, _duration, _value in worker.events
    ]
    base = min(starts) if starts else 0.0
    events: list[dict] = []
    for worker in telemetry.workers:
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "ts": 0,
                "pid": 1,
                "tid": worker.worker_id,
                "args": {"name": f"worker-{worker.worker_id}"},
            }
        )
        for kind, start, duration, value in worker.events:
            ts = (start - base) * 1e6
            if kind == POINT_QUEUE_DEPTH:
                events.append(
                    {
                        "name": "queue_depth",
                        "ph": "C",
                        "ts": ts,
                        "pid": 1,
                        "tid": worker.worker_id,
                        "args": {"depth": value},
                    }
                )
                continue
            args = {}
            key = _VALUE_KEYS.get(kind)
            if key is not None and value:
                args[key] = value
            events.append(
                {
                    "name": KIND_NAMES.get(kind, f"kind-{kind}"),
                    "ph": "X",
                    "ts": ts,
                    "dur": duration * 1e6,
                    "pid": 1,
                    "tid": worker.worker_id,
                    "args": args,
                }
            )
    return events


def chrome_trace(telemetry: RunTelemetry) -> dict:
    """The JSON-object trace container Perfetto and chrome://tracing load."""
    return {
        "traceEvents": chrome_trace_events(telemetry),
        "displayTimeUnit": "ms",
    }
