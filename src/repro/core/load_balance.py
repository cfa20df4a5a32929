"""Recipient-selection policies for nomadic tokens.

Line 22 of Algorithm 1 samples the next owner of a token uniformly at
random.  §3.3 refines this into dynamic load balancing: "instead of sampling
the recipient of a message uniformly at random we can preferentially select
a worker which has fewer items in its queue", with queue sizes piggybacked
on regular messages.

Three policies are provided:

* :class:`UniformPolicy` — Algorithm 1's default.
* :class:`LeastQueuePolicy` — §3.3's policy; ties broken uniformly.
* :class:`PowerOfTwoPolicy` — classic "power of two choices" sampling, a
  cheaper approximation of least-queue that only inspects two candidates
  (extension; not in the paper, useful for the load-balancing ablation).

:meth:`RecipientPolicy.choose` routes one token: the simulator's hop,
drawing ``randrange`` / ``sample`` from a stdlib :class:`random.Random`
(not a NumPy generator).
"""

from __future__ import annotations

import abc
import random
from typing import Callable, Sequence

from ..errors import SimulationError

__all__ = [
    "RecipientPolicy",
    "UniformPolicy",
    "LeastQueuePolicy",
    "PowerOfTwoPolicy",
]

QueueSizeFn = Callable[[int], int]


class RecipientPolicy(abc.ABC):
    """Chooses the next owner of a token among candidate workers."""

    @abc.abstractmethod
    def choose(
        self,
        candidates: Sequence[int],
        queue_size: QueueSizeFn,
        rng: random.Random,
    ) -> int:
        """Return one element of ``candidates``.

        Parameters
        ----------
        candidates:
            Non-empty sequence of eligible worker (or machine) ids.
        queue_size:
            Callback reporting the pending-work size of a candidate — the
            §3.3 payload information.
        rng:
            Randomness source (owned by the caller for determinism).
        """

    @staticmethod
    def _require_candidates(candidates: Sequence[int]) -> None:
        if len(candidates) == 0:
            raise SimulationError("no candidate recipients")


class UniformPolicy(RecipientPolicy):
    """Uniform random recipient — Algorithm 1 line 22."""

    def choose(self, candidates, queue_size, rng) -> int:
        self._require_candidates(candidates)
        return int(candidates[rng.randrange(len(candidates))])

    def __repr__(self) -> str:
        return "UniformPolicy()"


class LeastQueuePolicy(RecipientPolicy):
    """Send to the candidate with the fewest queued items (§3.3).

    Ties are broken uniformly at random so a cold-start cluster (all queues
    equal) still spreads tokens evenly.
    """

    def choose(self, candidates, queue_size, rng) -> int:
        self._require_candidates(candidates)
        sizes = [queue_size(c) for c in candidates]
        minimum = min(sizes)
        pool = [c for c, s in zip(candidates, sizes) if s == minimum]
        return int(pool[rng.randrange(len(pool))])

    def __repr__(self) -> str:
        return "LeastQueuePolicy()"


class PowerOfTwoPolicy(RecipientPolicy):
    """Sample two candidates, keep the less loaded (extension)."""

    def choose(self, candidates, queue_size, rng) -> int:
        self._require_candidates(candidates)
        if len(candidates) == 1:
            return int(candidates[0])
        a, b = rng.sample(list(candidates), 2)
        size_a, size_b = queue_size(a), queue_size(b)
        if size_a == size_b:
            return int(a if rng.randrange(2) == 0 else b)
        return int(a if size_a < size_b else b)

    def __repr__(self) -> str:
        return "PowerOfTwoPolicy()"
