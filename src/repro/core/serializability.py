"""Serializability analysis of asynchronous update logs.

One of NOMAD's headline properties (§1, §4.3) is that, despite full
asynchrony, its updates are *serializable*: some serial execution is
equivalent.  This module makes the claim checkable.

An SGD update on rating (i, j) reads and writes ``w_i`` and ``h_j``, so two
updates *conflict* when they share a row or a column.  The *conflict graph*
links each update to the next conflicting one in observed order; the run is
serializable iff it is acyclic.  Under owner-computes (NOMAD) a user's
updates run in order on one worker and an item's in token ownership order,
so it is; Hogwild-style stale reads close cycles, the contrast of §4.3.

A NOMAD visit ``(q, j)`` (worker ``q`` updates every local rating of item
``j``) fixes its updates, so a commit-order visit log is the whole run:
:func:`expand_visits` derives the update log from it, and :func:`replay`
re-runs it through the run's own kernel, bit for bit.
"""

from __future__ import annotations

import graphlib
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..config import HyperParams
from ..datasets.ratings import Shard
from ..errors import SimulationError
from ..linalg.backends import resolve_backend
from ..linalg.factors import FactorPair
from ..linalg.losses import Loss

__all__ = [
    "UpdateEvent",
    "FRESH",
    "conflict_graph",
    "expand_visits",
    "is_serializable",
    "replay",
]


@dataclass(frozen=True)
class UpdateEvent:
    """One logged SGD update.

    ``seq`` is the commit order (for NOMAD, simulated time with
    deterministic tie-breaks); ``worker`` applied it to rating
    ``(row, col)``; ``count`` is that rating's update counter before it
    (equation 11's t).  ``stale_read`` is :data:`FRESH` (the default, and
    every NOMAD read) when the read of ``h_col`` saw the latest commit to
    the column; otherwise the ``seq`` of the latest update it did see, or
    ``None`` for none (Hogwild races on the shared ``H``).
    """

    seq: int
    worker: int
    row: int
    col: int
    count: int
    stale_read: int | None = -1


#: Sentinel for UpdateEvent.stale_read: the read was not stale.
FRESH = -1


def conflict_graph(events: Sequence[UpdateEvent]) -> dict[int, set[int]]:
    """The dependency graph of an update log: ``seq -> set of successor
    seqs``, with every event a key.

    A row conflict is a forward edge ``previous -> event`` (one worker
    writes a row, in commit order).  A column conflict depends on the
    version read: a fresh read is a forward edge, a stale read the edge
    ``observed -> event`` plus ``event -> skipped`` for every commit it
    did not see (an anti-dependency).  Those backward edges are what close
    Hogwild's cycles; the execution is serializable iff there are none.
    """
    graph: dict[int, set[int]] = {event.seq: set() for event in events}

    last_by_row: dict[int, UpdateEvent] = {}
    col_history: dict[int, list[UpdateEvent]] = {}

    for event in sorted(events, key=lambda e: e.seq):
        last_row = last_by_row.get(event.row)
        if last_row is not None:
            graph[last_row.seq].add(event.seq)

        history = col_history.setdefault(event.col, [])
        if history:
            if event.stale_read == FRESH:
                graph[history[-1].seq].add(event.seq)
            else:
                observed = event.stale_read
                if observed is not None:
                    graph.setdefault(observed, set()).add(event.seq)
                for other in history:
                    skipped = (
                        observed is None or other.seq > observed
                    ) and other.seq < event.seq
                    if skipped:
                        graph[event.seq].add(other.seq)

        last_by_row[event.row] = event
        history.append(event)
    return graph




def is_serializable(events: Sequence[UpdateEvent]) -> bool:
    """Whether the logged execution admits an equivalent serial order."""
    # Read as predecessor sets: the reversed graph, cyclic iff the graph is.
    try:
        graphlib.TopologicalSorter(conflict_graph(events)).prepare()
    except graphlib.CycleError:
        return False
    return True


def expand_visits(
    visits: Iterable[tuple[int, int]], shards: Sequence[Shard]
) -> list[UpdateEvent]:
    """The update log of a visit log: visit ``(q, j)`` is one event per
    rating of item ``j`` on ``shards[q]``, in column order, and ``count``
    is the number of earlier visits of the same ``(q, j)``."""
    earlier: dict[tuple[int, int], int] = {}
    events: list[UpdateEvent] = []
    for q, j in visits:
        indptr, users, _ = shards[q].csc()
        count = earlier.get((q, j), 0)
        earlier[q, j] = count + 1
        for user in users[indptr[j]:indptr[j + 1]].tolist():
            events.append(UpdateEvent(len(events), q, user, j, count))
    return events


def replay(
    visits: Iterable[tuple[int, int]],
    shards: Sequence[Shard],
    start: FactorPair,
    hyper: HyperParams,
    backend: str,
    loss: Loss | None = None,
) -> FactorPair:
    """Re-run a commit-order visit log serially from ``start``: each shard
    gets a fresh kernel of ``backend`` (a name, e.g. the run's
    ``kernel_backend``) bound as the run bound its own, and each burst of
    :func:`_bursts` is one ``process_tokens`` call.  On a log the run
    wrote, the result equals the run's ``(W, H)`` bit for bit."""
    programs: list[list[int]] = [[] for _ in shards]
    turns: dict[int, list[int]] = {}
    for q, j in visits:
        programs[q].append(j)
        turns.setdefault(j, []).append(q)
    w, h = start.w.copy(), start.h.copy()
    kernels = [
        resolve_backend(backend).bind_tokens(
            w, h, *shard.csc(), np.zeros(shard.nnz, dtype=np.int64),
            hyper.alpha, hyper.beta, hyper.lambda_, loss,
        )
        for shard in shards
    ]
    for q, burst in _bursts(programs, turns):
        kernels[q].process_tokens(np.array(burst, dtype=np.int64))
    return FactorPair(w, h)


def _bursts(
    programs: Sequence[Sequence[int]], turns: dict[int, Sequence[int]]
) -> Iterator[tuple[int, list[int]]]:
    """Bursts ``(q, items)`` that keep each worker's program order
    (``programs[q]``) and each item's visit order (``turns[j]``, the
    workers that visited ``j``).  A pass runs every worker's longest
    prefix of ready visits, no item twice; a pass that runs none means
    the two orders cross, and raises :class:`SimulationError`."""
    heads = [0] * len(programs)
    turn = dict.fromkeys(turns, 0)
    left = sum(map(len, programs))
    while left:
        stalled = True
        for q, program in enumerate(programs):
            head = end = heads[q]
            taken = set()
            while end < len(program):
                j = program[end]
                if j in taken or turns[j][turn[j]] != q:
                    break
                taken.add(j)
                turn[j] += 1
                end += 1
            if end > head:
                heads[q], left, stalled = end, left - (end - head), False
                yield q, program[head:end]
        if stalled:
            raise SimulationError(f"visit log stalled with {left} visits left")
