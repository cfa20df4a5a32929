"""Serializability analysis of asynchronous update logs.

One of NOMAD's headline properties (§1, §4.3) is that, despite full
asynchrony, its updates are *serializable*: there exists an equivalent
ordering in a serial implementation.  This module makes the claim checkable.

Model.  Every SGD update on rating (i, j) reads and writes both ``w_i`` and
``h_j``.  Two updates *conflict* when they share a parameter — same user row
(same ``i``) or same item column (same ``j``).  An asynchronous execution is
serializable iff its updates can be totally ordered such that every pair of
conflicting updates executes in an order consistent with the data each one
actually observed.

For owner-computes executions (NOMAD), the observed order is explicit:
conflicting updates on the same user happen sequentially on the user's
owning worker, and conflicting updates on the same item happen in token
ownership order.  We therefore build the *conflict graph* whose nodes are
update events and whose edges point from each update to the next conflicting
update in observed order; the execution is serializable iff this graph is a
DAG, and any topological order is an equivalent serial schedule.

A Hogwild-style execution with stale reads produces cycles (update A read a
value that update B later overwrote, while B read A's output), which is how
the tests demonstrate the contrast the paper draws in §4.3.
"""

from __future__ import annotations

import graphlib
import heapq
from dataclasses import dataclass
from typing import Sequence

__all__ = [
    "UpdateEvent",
    "FRESH",
    "conflict_graph",
    "is_serializable",
    "serial_order",
]


@dataclass(frozen=True)
class UpdateEvent:
    """One logged SGD update.

    Attributes
    ----------
    seq:
        Global observation order (the order in which updates committed).
        For NOMAD this is simulated-time order with deterministic
        tie-breaking.
    worker:
        Worker that applied the update.
    row, col:
        The (user, item) pair of the rating touched.
    count:
        Per-rating update counter *before* this update (equation 11's t).
    stale_read:
        When the read of the *item column* ``h_col`` was stale (Hogwild
        executions race on the shared ``H``), the sequence number of the
        latest update to that column whose output this update actually
        observed — or ``None`` for "observed nothing yet committed to the
        column".  The sentinel :data:`FRESH` (the default) means the read
        observed the latest committed value, as every NOMAD read does.
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
    """Build the dependency graph of an update log.

    The graph is a plain adjacency dict, ``seq -> set of successor seqs``,
    with every event present as a key.

    Row (user) parameters are read/written by a single worker in commit
    order, so row conflicts always produce a forward edge
    ``previous -> event``.  Column (item) parameter conflicts depend on the
    version the event observed:

    * fresh read — forward edge ``previous -> event`` (reads-from);
    * stale read — edge ``observed -> event`` (reads-from the old version)
      **plus** ``event -> skipped`` for every commit between the observed
      version and this event (anti-dependency: the event must serialize
      before writes it did not see).

    An execution is serializable iff this graph is acyclic; the backward
    anti-dependency edges are what create cycles for Hogwild-style races.
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


def _sorter(graph: dict[int, set[int]]) -> graphlib.TopologicalSorter:
    """A prepared sorter over ``graph``; raises ``CycleError`` on a cycle."""
    sorter = graphlib.TopologicalSorter()
    for node, successors in graph.items():
        sorter.add(node)
        for successor in successors:
            sorter.add(successor, node)
    sorter.prepare()
    return sorter


def is_serializable(events: Sequence[UpdateEvent]) -> bool:
    """Whether the logged execution admits an equivalent serial order."""
    try:
        _sorter(conflict_graph(events))
    except graphlib.CycleError:
        return False
    return True


def serial_order(events: Sequence[UpdateEvent]) -> list[UpdateEvent]:
    """An equivalent serial schedule of a serializable execution: the
    lexicographically smallest topological order of the conflict graph
    (among the updates whose predecessors are all placed, lowest ``seq``
    first).

    Raises
    ------
    graphlib.CycleError
        If the execution is not serializable (the conflict graph has a
        cycle).
    """
    sorter = _sorter(conflict_graph(events))
    by_seq = {event.seq: event for event in events}
    ready = list(sorter.get_ready())
    heapq.heapify(ready)
    ordered = []
    while ready:
        seq = heapq.heappop(ready)
        ordered.append(by_seq[seq])
        sorter.done(seq)
        for released in sorter.get_ready():
            heapq.heappush(ready, released)
    return ordered
