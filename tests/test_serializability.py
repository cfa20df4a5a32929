"""Tests for the serializability checker and the visit-log replay — the
paper's headline property."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import HyperParams, RunConfig
from repro.core.nomad import NomadOptions, NomadSimulation
from repro.core.serializability import (
    FRESH,
    UpdateEvent,
    _bursts,
    conflict_graph,
    is_serializable,
    replay,
)
from repro.errors import SimulationError
from repro.linalg.factors import start_factors
from repro.linalg.losses import HuberLoss
from repro.simulator.cluster import Cluster
from repro.simulator.network import HPC_PROFILE
from test_nomad import BRANCH_PINS


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


class TestFreshSentinel:
    def test_default_is_fresh(self):
        assert UpdateEvent(seq=0, worker=0, row=0, col=0, count=0).stale_read == FRESH

    def test_none_means_pre_commit_observation(self):
        event = stale(1, 0, 0, observed=None)
        assert event.stale_read is None


#: (Cluster keywords, NomadOptions keywords, RunConfig keywords) of the
#: runs the replay is held to: every TestBranchDigests branch, jitter on
#: machines of unequal speed, a bound Huber loss and the interpreted
#: kernel.
REPLAY_RUNS = {
    **{case: pin[:3] for case, pin in BRANCH_PINS.items()},
    "jitter-speeds": (
        {"jitter": 0.3, "machine_speeds": np.array([1.0, 0.5])}, {}, {},
    ),
    "huber": ({}, {"loss": HuberLoss(delta=1.0)}, {}),
    "list": ({}, {}, {"kernel_backend": "list"}),
}


def recorded_run(train, test, cluster_kw, option_kw, run_kw):
    cluster_kw = {"machines": 2, "cores": 2, "profile": HPC_PROFILE,
                  **cluster_kw}
    cluster = Cluster(
        cluster_kw.pop("machines"), cluster_kw.pop("cores"),
        cluster_kw.pop("profile"), **cluster_kw,
    )
    run = RunConfig(duration=0.01, eval_interval=0.002, seed=7, **run_kw)
    sim = NomadSimulation(
        train, test, cluster,
        HyperParams(k=4, lambda_=0.01, alpha=0.1, beta=0.01), run,
        options=NomadOptions(record_updates=True, **option_kw),
    )
    sim.run()
    return sim


def replayed(sim, visits):
    start = start_factors(
        sim.train.n_rows, sim.train.n_cols, sim.hyper.k,
        sim.run_config.seed, None,
    )
    pair = replay(visits, sim.shards, start, sim.hyper, sim.kernel_backend,
                  sim.options.loss)
    return np.vstack([pair.w, pair.h])


def final(sim):
    return np.vstack([sim.factors.w, sim.factors.h])


class TestReplay:
    @pytest.mark.parametrize("case", REPLAY_RUNS)
    def test_replay_equals_run(self, tiny_split, case):
        sim = recorded_run(*tiny_split, *REPLAY_RUNS[case])
        assert sim.visits
        assert np.array_equal(replayed(sim, sim.visits), final(sim))

    def test_swapped_item_visits_change_the_bits(self, tiny_split):
        sim = recorded_run(*tiny_split, {}, {}, {})
        first: dict[int, int] = {}
        for index, (q, j) in enumerate(sim.visits):
            if j not in first:
                first[j] = index
            elif sim.visits[first[j]][0] != q:
                break
        swapped = list(sim.visits)
        swapped[first[j]], swapped[index] = swapped[index], swapped[first[j]]
        assert not np.array_equal(replayed(sim, swapped), final(sim))

    def test_crossed_orders_stall(self):
        # Worker 0 waits for worker 1's visit of item 0, which waits in
        # worker 1's program behind item 1, which waits for worker 0.
        bursts = _bursts([[0, 1], [1, 0]], {0: [1, 0], 1: [0, 1]})
        with pytest.raises(SimulationError, match="stalled with 4 visits"):
            list(bursts)

    def test_bursts_keep_both_orders(self):
        programs = [[0, 1, 0, 2], [1, 2]]
        turns = {0: [0, 0], 1: [0, 1], 2: [1, 0]}
        assert list(_bursts(programs, turns)) == [
            (0, [0, 1]), (1, [1, 2]), (0, [0, 2]),
        ]
