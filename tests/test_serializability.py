"""Tests for the serializability checker — the paper's headline property."""

from __future__ import annotations

import graphlib

import pytest

from repro.core.serializability import (
    FRESH,
    UpdateEvent,
    conflict_graph,
    is_serializable,
    serial_order,
)


def fresh(seq, row, col, worker=0, count=0):
    return UpdateEvent(seq=seq, worker=worker, row=row, col=col, count=count)


def stale(seq, row, col, observed, worker=0, count=0):
    return UpdateEvent(
        seq=seq, worker=worker, row=row, col=col, count=count,
        stale_read=observed,
    )


class TestConflictGraph:
    def test_independent_updates_no_edges(self):
        events = [fresh(0, 0, 0), fresh(1, 1, 1), fresh(2, 2, 2)]
        graph = conflict_graph(events)
        assert sum(len(successors) for successors in graph.values()) == 0

    def test_row_conflict_edge(self):
        events = [fresh(0, 5, 0), fresh(1, 5, 1)]
        graph = conflict_graph(events)
        assert 1 in graph[0]

    def test_col_conflict_edge(self):
        events = [fresh(0, 0, 7), fresh(1, 1, 7)]
        graph = conflict_graph(events)
        assert 1 in graph[0]

    def test_chain_on_same_pair(self):
        events = [fresh(t, 3, 3, count=t) for t in range(4)]
        graph = conflict_graph(events)
        assert all(t + 1 in graph[t] for t in range(3))

    def test_stale_read_creates_anti_dependency(self):
        # Event 1 skipped event 0's write on the shared column.
        events = [fresh(0, 0, 2), stale(1, 1, 2, observed=None)]
        graph = conflict_graph(events)
        assert 0 in graph[1]
        assert 1 not in graph[0]

    def test_stale_read_observes_named_version(self):
        events = [
            fresh(0, 0, 2),
            fresh(1, 1, 2),
            stale(2, 3, 2, observed=0),  # saw 0's write, missed 1's
        ]
        graph = conflict_graph(events)
        assert 2 in graph[0]
        assert 1 in graph[2]


class TestSerializability:
    def test_serial_log_is_serializable(self):
        events = [fresh(t, t % 3, t % 2, count=t) for t in range(20)]
        assert is_serializable(events)

    def test_owner_computes_interleaving_serializable(self):
        # Two workers on disjoint rows sharing columns, always fresh —
        # exactly NOMAD's discipline.
        events = [
            fresh(0, 0, 0, worker=0),
            fresh(1, 10, 1, worker=1),
            fresh(2, 1, 0, worker=0),
            fresh(3, 11, 1, worker=1),
            fresh(4, 11, 0, worker=1),
        ]
        assert is_serializable(events)

    def test_classic_hogwild_cycle_detected(self):
        # Two updates that each missed the other's column write:
        #   e2 reads c2 skipping e1; e3 reads c1 skipping e0.
        # Row edges: e0->e2 (r1) and e1->e3 (r2); anti-dependencies:
        # e2->e1 and e3->e0 — a cycle e0->e2->e1->e3->e0.
        events = [
            fresh(0, 1, 1, worker=0),
            fresh(1, 2, 2, worker=1),
            stale(2, 1, 2, observed=None, worker=0),
            stale(3, 2, 1, observed=None, worker=1),
        ]
        assert not is_serializable(events)

    def test_mild_staleness_without_cycle_ok(self):
        # One stale read alone (no opposing row edge) stays serializable.
        events = [fresh(0, 0, 5), stale(1, 1, 5, observed=None)]
        assert is_serializable(events)


class TestSerialOrder:
    def test_returns_equivalent_schedule(self):
        events = [
            fresh(0, 0, 0),
            fresh(1, 1, 1),
            fresh(2, 0, 1),
        ]
        ordered = serial_order(events)
        positions = {event.seq: idx for idx, event in enumerate(ordered)}
        # Row conflict 0 -> 2 and column conflict 1 -> 2 must be respected.
        assert positions[0] < positions[2]
        assert positions[1] < positions[2]

    def test_respects_anti_dependencies(self):
        events = [fresh(0, 0, 2), stale(1, 1, 2, observed=None)]
        ordered = serial_order(events)
        assert [event.seq for event in ordered] == [1, 0]

    def test_raises_on_cycle(self):
        events = [
            fresh(0, 1, 1),
            fresh(1, 2, 2),
            stale(2, 1, 2, observed=None),
            stale(3, 2, 1, observed=None),
        ]
        with pytest.raises(graphlib.CycleError):
            serial_order(events)

    def test_all_events_present(self):
        events = [fresh(t, t, t % 2, count=t) for t in range(10)]
        assert {event.seq for event in serial_order(events)} == set(range(10))


class TestFreshSentinel:
    def test_default_is_fresh(self):
        assert UpdateEvent(seq=0, worker=0, row=0, col=0, count=0).stale_read == FRESH

    def test_none_means_pre_commit_observation(self):
        event = stale(1, 0, 0, observed=None)
        assert event.stale_read is None
