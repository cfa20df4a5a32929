"""Event primitives for the discrete-event engine.

Events are ordered by (time, sequence number): the sequence number is a
monotone counter assigned at scheduling time, so simultaneous events fire in
the order they were scheduled.  This tie-break is what makes whole-cluster
simulations bit-reproducible.

The heap holds ``(time, seq, event)`` tuples rather than bare events, so
``heapq`` orders entries with the C tuple comparison instead of calling a
Python ``__lt__`` per sift step.  ``seq`` is unique within a queue, so a
comparison is always decided by the first two fields: the event — and
with it the callback and its arguments, which need not be orderable — is
never compared.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable

from ..errors import SimulationError

__all__ = ["Event", "EventQueue"]


@dataclass(order=True, slots=True)
class Event:
    """A scheduled callback and the arguments it fires with.

    Attributes
    ----------
    time:
        Absolute simulated time at which the callback fires.
    seq:
        Scheduling-order tie-breaker (unique per queue).
    callback, args:
        The event fires as ``callback(*args)``.  Scheduling a bound method
        with its arguments builds no closure per event; a zero-argument
        callable (``args == ()``) works as it always has.
    cancelled:
        Lazily-deleted flag; cancelled events are skipped when popped.
    """

    time: float
    seq: int
    callback: Callable[..., Any] = field(compare=False)
    args: tuple = field(default=(), compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark the event so the engine skips it."""
        self.cancelled = True


class EventQueue:
    """A min-heap of :class:`Event` with stable ordering."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._next_seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(
        self, time: float, callback: Callable[..., Any], args: tuple = ()
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute ``time``; returns the event."""
        # `not >=` rather than `<`: a NaN time passes `time < 0` and then
        # compares false against everything, silently corrupting heap order.
        if not time >= 0:
            raise SimulationError(f"event time must be >= 0, got {time}")
        seq = self._next_seq
        event = Event(float(time), seq, callback, args)
        self._next_seq = seq + 1
        heapq.heappush(self._heap, (event.time, seq, event))
        return event

    def pop(self) -> Event | None:
        """Remove and return the earliest live event, or None when empty."""
        return self.pop_until(None)

    def pop_until(self, until: float | None) -> Event | None:
        """:meth:`pop`, unless the earliest live event is later than
        ``until`` (``None``: no limit): then it stays queued, at the head
        of the heap, and None is returned."""
        heap = self._heap
        while heap:
            time, _, event = heap[0]
            if event.cancelled:
                heapq.heappop(heap)
            elif until is not None and time > until:
                return None
            else:
                heapq.heappop(heap)
                return event
        return None

    def peek_time(self) -> float | None:
        """Time of the earliest live event without removing it."""
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None
