"""The discrete-event simulation engine.

A thin, deterministic loop over an :class:`~repro.simulator.events.EventQueue`:
pop the earliest event, advance the clock to it, call its callback with the
arguments it was scheduled with (which may schedule further events), repeat.  There is no wall-clock dependence anywhere,
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

    def schedule_at(
        self, time: float, callback: Callable[..., Any], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulated ``time``.

        Scheduling in the past is an error — it would silently reorder
        causality and hide driver bugs.
        """
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time}; simulated clock is at {self._now}"
            )
        return self._queue.push(time, callback, args)

    def schedule_after(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> Event:
        """Schedule ``callback(*args)`` ``delay`` seconds from now (delay >= 0)."""
        if not delay >= 0:  # also rejects NaN, which `delay < 0` lets through
            raise SimulationError(f"delay must be >= 0, got {delay}")
        return self._queue.push(self._now + delay, callback, args)

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
            pop_until = self._queue.pop_until
            while (event := pop_until(until)) is not None:
                self._now = event.time
                self._events_fired += 1
                event.callback(*event.args)
            if self._queue:  # only events later than `until` are left
                self._now = until
        finally:
            self._running = False

    def pending(self) -> int:
        """Number of events still queued (including cancelled shells)."""
        return len(self._queue)
