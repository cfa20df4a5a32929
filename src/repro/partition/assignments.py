"""Ownership bookkeeping for nomadic variables.

NOMAD's correctness hinges on a single invariant: *at any instant, each item
parameter h_j is owned by at most one worker* (§3.1, "At each point of time
an h_j variable resides in one and only worker").  :class:`OwnershipLedger`
enforces that invariant at runtime in the simulator — every acquire/release
is checked — and doubles as the audit trail that the serializability tests
inspect.
"""

from __future__ import annotations

from ..errors import SimulationError

__all__ = ["OwnershipLedger"]

_IN_FLIGHT = -1


class OwnershipLedger:
    """Tracks which worker currently owns each of ``n_items`` item tokens.

    States per item: owned by worker ``q`` (>= 0), or in flight (``-1``,
    i.e. serialized inside a message between workers).  Items always exist:
    tokens are conserved by construction and this class raises
    :class:`~repro.errors.SimulationError` on any double-acquire or foreign
    release, which would indicate a scheduler bug.

    The owners live in a plain list: :meth:`acquire` / :meth:`release`
    run once per simulated token hop, and a list element read or write
    is about half an ``array`` or ndarray scalar access on CPython 3.11.
    """

    def __init__(self, n_items: int, n_workers: int):
        if n_items < 1:
            raise SimulationError(f"n_items must be >= 1, got {n_items}")
        if n_workers < 1:
            raise SimulationError(f"n_workers must be >= 1, got {n_workers}")
        self._n_workers = int(n_workers)
        self._owner = [_IN_FLIGHT] * int(n_items)

    @property
    def n_items(self) -> int:
        """Number of tracked item tokens."""
        return len(self._owner)

    def owner_of(self, item: int) -> int | None:
        """Current owner of ``item``, or None while the token is in flight."""
        owner = self._owner[item]
        return None if owner == _IN_FLIGHT else owner

    def acquire(self, item: int, worker: int) -> None:
        """Record that ``worker`` received the token for ``item``."""
        if not 0 <= worker < self._n_workers:
            raise SimulationError(f"worker {worker} out of range")
        owner = self._owner
        if owner[item] != _IN_FLIGHT:
            raise SimulationError(
                f"item {item} acquired by worker {worker} while owned by "
                f"worker {owner[item]}"
            )
        owner[item] = worker

    def release(self, item: int, worker: int) -> None:
        """Record that ``worker`` sent the token for ``item`` onward."""
        owner = self._owner
        if owner[item] != worker:
            raise SimulationError(
                f"worker {worker} released item {item} owned by "
                f"{self.owner_of(item)}"
            )
        owner[item] = _IN_FLIGHT

    def assert_conserved(self) -> None:
        """Check token conservation: every item is owned or in flight.

        With the representation used this is always true structurally, but
        the method also validates owner indices, guarding against memory
        corruption from buggy callers.
        """
        owners = self._owner
        if min(owners) < _IN_FLIGHT or max(owners) >= self._n_workers:
            item = next(
                j for j, owner in enumerate(owners)
                if not _IN_FLIGHT <= owner < self._n_workers
            )
            raise SimulationError(
                f"item {item} has invalid owner {owners[item]}"
            )
