"""Bench-side span recorder for the ``--trace 1`` run.

Spans are recorded from the benchmark's own files, around the calls into
each layer (outside-in); nothing inside ``src/repro`` is instrumented.
They are held in memory and written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

__all__ = ["SpanRecorder"]


class SpanRecorder:
    """In-memory spans: (name, workload, start, end, parent).

    ``span()`` nests by a stack, so a span opened inside another gets it
    as parent; the recorder is used from one thread at a time.
    """

    def __init__(self, workload: str):
        self.workload = workload
        #: rows of [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        row = [name, time.perf_counter(), 0.0, parent]
        self.spans.append(row)
        self._stack.append(index)
        try:
            yield index
        finally:
            row[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the part of it
        that child spans cover."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child_time):
            totals[name] += (end - start) - covered
        return dict(totals)

    def totals(self) -> dict[str, tuple[int, float]]:
        """(count, total duration) per span name."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for name, start, end, _ in self.spans:
            out[name][0] += 1
            out[name][1] += end - start
        return {name: (count, total) for name, (count, total) in out.items()}

    def write(self, path: str, extra: dict | None = None) -> None:
        payload = {
            "workload": self.workload,
            "columns": ["name", "start", "end", "parent"],
            "spans": self.spans,
            "self_time_s": self.self_times(),
            **(extra or {}),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
            handle.write("\n")
