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

Policies draw ``randrange`` / ``sample`` from a stdlib
:class:`random.Random` (not a NumPy generator) or from a draw stream of
the kernel backend (:meth:`KernelBackend.rng_stream
<repro.linalg.backends.base.KernelBackend.rng_stream>`), which makes the
same draws from the same state: under ``cext`` CPython's Mersenne Twister
in C, under ``list`` :mod:`random` itself.

:meth:`RecipientPolicy.choose` routes one token (the simulator's hop, on
a ``random.Random``); :meth:`RecipientPolicy.place` routes a whole batch
onto live queues with the same draws in the same order (the dynamic
trainer's end of sweep, on a draw stream).
"""

from __future__ import annotations

import abc
import random
from typing import Callable, MutableSequence, Sequence

import numpy as np

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
            Randomness source (owned by the caller for determinism): a
            ``random.Random`` or a backend draw stream.
        """

    def place(
        self,
        tokens: Sequence[int],
        queues: Sequence[MutableSequence[int]],
        rng,
    ) -> list[int]:
        """Append each of ``tokens``, in order, to the queue it is routed
        to; return the chosen queue indices.

        ``rng`` is a backend draw stream.  Every queue is a candidate.
        This is the per-token :meth:`choose` loop, with each queue's size
        read live as earlier tokens land, so an override must draw
        exactly what that loop draws.
        """
        candidates = range(len(queues))

        def queue_size(worker: int) -> int:
            return len(queues[worker])

        dests = []
        for token in tokens:
            dest = self.choose(candidates, queue_size, rng)
            queues[dest].append(token)
            dests.append(dest)
        return dests

    @staticmethod
    def _require_candidates(candidates: Sequence[int]) -> None:
        if len(candidates) == 0:
            raise SimulationError("no candidate recipients")


class UniformPolicy(RecipientPolicy):
    """Uniform random recipient — Algorithm 1 line 22."""

    def choose(self, candidates, queue_size, rng) -> int:
        self._require_candidates(candidates)
        return int(candidates[rng.randrange(len(candidates))])

    def place(self, tokens, queues, rng) -> list[int]:
        # Queue sizes never enter a uniform pick: one randrange a token,
        # exactly the draw choose() makes over range(len(queues)), all
        # in one call.  A queue takes its tokens in order.
        self._require_candidates(queues)
        dests = rng.randbelow_many(len(queues), len(tokens))
        tokens = np.asarray(tokens, dtype=np.int64)
        for q, queue in enumerate(queues):
            queue.extend(tokens[dests == q].tolist())
        return dests.tolist()

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
