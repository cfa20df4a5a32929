"""The discrete-event simulation engine.

A thin, deterministic loop over an :class:`~repro.simulator.events.EventQueue`:
pop the earliest event, advance the clock to it, run its callback (which may
schedule further events), repeat.  There is no wall-clock dependence anywhere,
so a run is a pure function of its inputs and seed.
"""

from __future__ import annotations

from typing import Any, Callable

from ..errors import SimulationError
from .events import Event, EventQueue

__all__ = ["Simulator"]


class Simulator:
    """Deterministic discrete-event simulator.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule_at(2.0, lambda: fired.append(sim.now))
    >>> _ = sim.schedule_at(1.0, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [1.0, 2.0]
    """

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._running = False
        self._events_fired = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Number of events executed so far (diagnostics)."""
        return self._events_fired

    def schedule_at(self, time: float, callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` at absolute simulated ``time``.

        Scheduling in the past is an error — it would silently reorder
        causality and hide driver bugs.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time}; simulated clock is at {self._now}"
            )
        return self._queue.push(time, callback)

    def schedule_after(self, delay: float, callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` ``delay`` seconds from now (delay >= 0)."""
        if not delay >= 0:  # also rejects NaN, which `delay < 0` lets through
            raise SimulationError(f"delay must be >= 0, got {delay}")
        return self._queue.push(self._now + delay, callback)

    def run(self, until: float | None = None) -> None:
        """Run events in order until the queue empties or ``until`` passes.

        When ``until`` is given, the clock is left at exactly ``until`` if
        the queue still held later events (they remain scheduled and a
        subsequent ``run`` call would continue).
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        try:
            while True:
                next_time = self._queue.peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    self._now = until
                    break
                event = self._queue.pop()
                assert event is not None  # peek said there is one
                self._now = event.time
                self._events_fired += 1
                event.callback()
        finally:
            self._running = False

    def pending(self) -> int:
        """Number of events still queued (including cancelled shells)."""
        return len(self._queue)
