"""The discrete-event simulation engine.

One heap of plain ``(time, seq, callback, args)`` tuples and one loop
over it: pop the earliest entry, advance the clock to it, call the
callback with the arguments it was scheduled with (which may schedule
further events), repeat.  ``seq`` is a counter assigned at scheduling
time, so simultaneous events fire in the order they were scheduled —
the tie-break that makes whole-cluster simulations bit-reproducible —
and, being unique, it decides every comparison ``heapq`` makes before
the callback or its arguments (which need not be orderable) are
reached.  There is no wall-clock dependence anywhere, so a run is a
pure function of its inputs and seed.

NOMAD's run uses this simulator only where it runs its Python handlers
(the ``list`` backend, a loss C has no id for, a policy other than the
three shipped ones); otherwise the ``cext`` backend's compiled
``Schedule`` runs the same heap with the same ``(time, seq)`` tie-break
in C (see :mod:`repro.core.nomad`).
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, Callable

from ..errors import SimulationError

__all__ = ["Simulator"]


class Simulator:
    """Deterministic discrete-event simulator.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> sim.schedule_at(2.0, lambda: fired.append(sim.now))
    >>> sim.schedule_at(1.0, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [1.0, 2.0]
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable[..., Any], tuple]] = []
        self._seq = itertools.count()
        self._now = 0.0
        self._running = False

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def schedule_at(
        self, time: float, callback: Callable[..., Any], *args: Any
    ) -> None:
        """Schedule ``callback(*args)`` at absolute simulated ``time``.

        Scheduling in the past is an error — it would silently reorder
        causality and hide driver bugs.
        """
        # `not >=` rather than `<`: a NaN time passes `time < now` and then
        # compares false against everything, silently corrupting heap order.
        if not time >= self._now:
            raise SimulationError(
                f"cannot schedule at {time}; simulated clock is at {self._now}"
            )
        heapq.heappush(self._heap, (float(time), next(self._seq), callback, args))

    def schedule_after(
        self, delay: float, callback: Callable[..., Any], *args: Any
    ) -> None:
        """Schedule ``callback(*args)`` ``delay`` seconds from now (delay >= 0)."""
        if not delay >= 0:  # also rejects NaN, which `delay < 0` lets through
            raise SimulationError(f"delay must be >= 0, got {delay}")
        heapq.heappush(
            self._heap, (self._now + delay, next(self._seq), callback, args)
        )

    def run(self, until: float | None = None) -> None:
        """Run events in order until the queue empties or ``until`` passes.

        When ``until`` is given, the clock is left at exactly ``until`` if
        the queue still held later events (they remain scheduled and a
        subsequent ``run`` call would continue).
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        heap = self._heap
        pop = heapq.heappop
        limit = math.inf if until is None else until
        try:
            while heap and heap[0][0] <= limit:
                time, _, callback, args = pop(heap)
                self._now = time
                callback(*args)
            if heap:  # only events later than `until` are left
                self._now = until
        finally:
            self._running = False

    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._heap)
