"""Tests for the discrete-event engine, cluster model, network, and traces."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.errors import ConfigError, SimulationError
from repro.simulator.cluster import Cluster, HardwareProfile, PAPER_HARDWARE
from repro.simulator.engine import Simulator
from repro.simulator.network import (
    COMMODITY_PROFILE,
    HPC_PROFILE,
    LOCAL_PROFILE,
    NetworkModel,
    token_bytes,
)
from repro.simulator.trace import Trace


class TestEventQueue:
    """The simulator's event queue — one heap of ``(time, seq, callback,
    args)`` tuples — seen through :class:`Simulator`."""

    def test_ordering_by_time(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(2.0, lambda: fired.append(("b", sim.now)))
        sim.schedule_at(1.0, lambda: fired.append(("a", sim.now)))
        sim.run()
        assert fired == [("a", 1.0), ("b", 2.0)]

    def test_stable_tie_break(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, fired.append, "first")
        sim.schedule_after(1.0, fired.append, "second")
        sim.run()
        assert fired == ["first", "second"]

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_at(-1.0, lambda: None)

    def test_nan_time_rejected(self):
        # NaN passes a `time < now` guard and then compares false against
        # every other heap entry, silently corrupting the order.
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)
        assert sim.pending() == 0

    def test_same_time_callbacks_are_never_compared(self):
        class Unorderable:
            def __init__(self, log, tag):
                self.log, self.tag = log, tag

            def __call__(self):
                self.log.append(self.tag)

            def __lt__(self, other):
                raise AssertionError("heap compared two callbacks")

        log = []
        sim = Simulator()
        for tag in "abcd":
            sim.schedule_at(1.0, Unorderable(log, tag))
        sim.schedule_at(0.5, Unorderable(log, "early"))
        sim.run()
        # Scheduling order among the simultaneous events.
        assert log == ["early", "a", "b", "c", "d"]

    def test_args_travel_with_the_event_and_are_never_compared(self):
        class Unorderable:
            def __lt__(self, other):
                raise AssertionError("heap compared two events' arguments")

            __gt__ = __le__ = __ge__ = __lt__

        log = []
        sim = Simulator()
        for tag in "abc":
            sim.schedule_at(1.0, log.append, tag)
            sim.schedule_at(1.0, lambda obj, tag: log.append(tag), Unorderable(), tag)
        sim.schedule_at(2.0, log.append, "late")
        sim.run(until=1.5)
        assert log == ["a", "a", "b", "b", "c", "c"]
        assert sim.pending() == 1  # the event at 2.0 stayed queued
        sim.run()
        assert log[-1] == "late" and sim.now == 2.0


class TestSimulator:
    def test_arguments_reach_the_callback(self):
        sim = Simulator()
        fired = []

        def record(*args, **kwargs):
            fired.append((sim.now, args, kwargs))

        sim.schedule_at(2.0, record, "at", 2)
        sim.schedule_after(1.0, record, ("one", "tuple"))
        sim.schedule_at(3.0, record)  # zero-argument callbacks still work
        sim.run()
        assert fired == [
            (1.0, (("one", "tuple"),), {}),
            (2.0, ("at", 2), {}),
            (3.0, (), {}),
        ]

    def test_until_leaves_later_events_with_args_queued(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, fired.append, 1)
        sim.schedule_at(5.0, fired.append, 5)
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0
        assert sim.pending() == 1
        sim.run(until=5.0)  # an event exactly at `until` fires
        assert fired == [1, 5]
        assert sim.now == 5.0

    def test_until_on_a_drained_queue_leaves_the_clock(self):
        sim = Simulator()
        sim.run(until=4.0)
        assert sim.now == 0.0 and sim.pending() == 0
        sim.schedule_at(1.0, list, ())
        sim.run(until=4.0)  # the clock stays at the last event
        assert sim.now == 1.0 and sim.pending() == 0

    def test_scheduling_errors_fire_with_args_present(self):
        sim = Simulator()
        sim.schedule_at(1.0, list, ())
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_after(float("nan"), print, "x")
        with pytest.raises(SimulationError):
            sim.schedule_after(-0.1, print, "x")
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), print, "x")
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, print, "x")  # the clock is at 1.0
        assert sim.pending() == 0

    def test_runs_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(2.0, lambda: fired.append(2))
        sim.schedule_at(1.0, lambda: fired.append(1))
        sim.run()
        assert fired == [1, 2]
        assert sim.now == 2.0

    def test_callbacks_can_schedule(self):
        sim = Simulator()
        fired = []

        def chain():
            fired.append(sim.now)
            if len(fired) < 3:
                sim.schedule_after(1.0, chain)

        sim.schedule_at(0.0, chain)
        sim.run()
        assert fired == [0.0, 1.0, 2.0]

    def test_until_stops_clock(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(1))
        sim.schedule_at(5.0, lambda: fired.append(5))
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0
        sim.run()  # can continue afterwards
        assert fired == [1, 5]

    def test_past_scheduling_rejected(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_after(-0.1, lambda: None)

    def test_nan_delay_and_time_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_after(float("nan"), lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)
        assert sim.pending() == 0

    def test_determinism(self):
        def run_once():
            sim = Simulator()
            log = []
            for t in (3.0, 1.0, 1.0, 2.0):
                sim.schedule_at(t, lambda t=t: log.append((sim.now, t)))
            sim.run()
            return log

        assert run_once() == run_once()


class TestNetworkModel:
    def test_token_bytes(self):
        assert token_bytes(100) == 816
        with pytest.raises(ConfigError):
            token_bytes(0)

    def test_token_delay_batching(self):
        unbatched = NetworkModel("x", 1e-3, 1e9, batch_size=1)
        batched = NetworkModel("x", 1e-3, 1e9, batch_size=100)
        assert batched.token_delay(8) < unbatched.token_delay(8)

    def test_bulk_delay_components(self):
        net = NetworkModel("x", 1e-3, 1e6)
        assert net.bulk_delay(1e6) == pytest.approx(1e-3 + 1.0)

    def test_profiles_ordering(self):
        # Commodity must be strictly slower per token than HPC.
        assert COMMODITY_PROFILE.token_delay(8) > HPC_PROFILE.token_delay(8)
        assert LOCAL_PROFILE.token_delay(8) < HPC_PROFILE.token_delay(8)

    def test_validation(self):
        with pytest.raises(ConfigError):
            NetworkModel("x", -1.0, 1e9)
        with pytest.raises(ConfigError):
            NetworkModel("x", 0.0, 0.0)
        with pytest.raises(ConfigError):
            NetworkModel("x", 0.0, 1e9, batch_size=0)

    def test_bulk_delay_negative_bytes(self):
        with pytest.raises(ConfigError):
            HPC_PROFILE.bulk_delay(-1)


class TestHardwareProfile:
    def test_paper_hardware_throughput(self):
        # ~4M updates/core/sec at k=100 (Figure 6 right).
        per_update = PAPER_HARDWARE.sgd_update_time(100)
        assert 1e6 < 1.0 / per_update < 1e7

    def test_als_solve_time_scales(self):
        assert PAPER_HARDWARE.als_solve_time(10, 100) < PAPER_HARDWARE.als_solve_time(
            10, 1000
        )

    def test_ccd_pass_time_linear(self):
        assert PAPER_HARDWARE.ccd_pass_time(2000) == pytest.approx(
            2 * PAPER_HARDWARE.ccd_pass_time(1000)
        )

    def test_validation(self):
        with pytest.raises(ConfigError):
            HardwareProfile(sgd_cost_per_dim=0.0)
        with pytest.raises(ConfigError):
            HardwareProfile(flop_s=-1.0)


class TestCluster:
    def test_topology(self):
        cluster = Cluster(3, 4, HPC_PROFILE)
        assert cluster.n_workers == 12
        assert cluster.machine_of(0) == 0
        assert cluster.machine_of(11) == 2
        assert cluster.workers_of_machine(1) == [4, 5, 6, 7]
        assert cluster.same_machine(4, 7)
        assert not cluster.same_machine(3, 4)

    def test_worker_resolution(self):
        cluster = Cluster(2, 2, HPC_PROFILE)
        worker = cluster.worker(3)
        assert (worker.machine_id, worker.core_id) == (1, 1)
        with pytest.raises(ConfigError):
            cluster.worker(4)

    def test_integer_topology_agrees_with_worker_objects(self):
        speeds = np.array([1.0, 0.5, 2.0])
        cluster = Cluster(3, 4, HPC_PROFILE, machine_speeds=speeds)
        for worker_id in range(cluster.n_workers):
            worker = cluster.worker(worker_id)
            assert cluster.machine_of(worker_id) == worker.machine_id
            assert worker_id in cluster.workers_of_machine(worker.machine_id)
            assert cluster.speed_of_worker(worker_id) == speeds[worker.machine_id]
            for other in range(cluster.n_workers):
                assert cluster.same_machine(worker_id, other) == (
                    worker.machine_id == cluster.worker(other).machine_id
                )
                delay = cluster.token_delay(worker_id, other, 8)
                link = (
                    cluster.intra
                    if worker.machine_id == cluster.worker(other).machine_id
                    else cluster.network
                )
                assert delay == link.token_delay(8)

    @pytest.mark.parametrize("bad", [-1, 12])
    def test_topology_range_checks(self, bad):
        cluster = Cluster(3, 4, HPC_PROFILE)
        for call in (
            lambda: cluster.machine_of(bad),
            lambda: cluster.same_machine(0, bad),
            lambda: cluster.same_machine(bad, 0),
            lambda: cluster.speed_of_worker(bad),
            lambda: cluster.sgd_time(bad, 8, 1),
            lambda: cluster.token_delay(0, bad, 8),
            lambda: cluster.workers_of_machine(bad),
        ):
            with pytest.raises(ConfigError):
                call()

    def test_token_delay_local_vs_remote(self):
        cluster = Cluster(2, 2, HPC_PROFILE)
        local = cluster.token_delay(0, 1, 8)
        remote = cluster.token_delay(0, 2, 8)
        assert local < remote

    def test_speed_scaling(self):
        speeds = np.array([1.0, 0.5])
        cluster = Cluster(2, 1, HPC_PROFILE, machine_speeds=speeds)
        fast = cluster.sgd_time(0, 8, 100)
        slow = cluster.sgd_time(1, 8, 100)
        assert slow == pytest.approx(2 * fast)

    def test_speed_validation(self):
        with pytest.raises(ConfigError):
            Cluster(2, 1, HPC_PROFILE, machine_speeds=np.array([1.0]))
        with pytest.raises(ConfigError):
            Cluster(2, 1, HPC_PROFILE, machine_speeds=np.array([1.0, 0.0]))
        # `(speeds <= 0).any()` is false for NaN, and a NaN (or infinite)
        # speed turns into NaN / zero compute delays downstream.
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ConfigError):
                Cluster(2, 1, HPC_PROFILE, machine_speeds=np.array([1.0, bad]))

    def test_jitter_disabled_is_exactly_one(self):
        cluster = Cluster(2, 1, HPC_PROFILE, jitter=0.0)
        rng = random.Random(0)
        assert cluster.jitter_multiplier(rng) == 1.0
        assert cluster.barrier_multiplier(rng) == 1.0

    def test_jitter_mean_one(self):
        cluster = Cluster(2, 1, HPC_PROFILE, jitter=0.4)
        rng = random.Random(1)
        draws = [cluster.jitter_multiplier(rng) for _ in range(20000)]
        assert abs(np.mean(draws) - 1.0) < 0.03

    def test_barrier_slower_than_single(self):
        cluster = Cluster(8, 1, HPC_PROFILE, jitter=0.4)
        rng = random.Random(2)
        singles = np.mean([cluster.jitter_multiplier(rng) for _ in range(5000)])
        barriers = np.mean([cluster.barrier_multiplier(rng) for _ in range(5000)])
        assert barriers > singles * 1.2

    def test_jitter_validation(self):
        with pytest.raises(ConfigError):
            Cluster(1, 1, HPC_PROFILE, jitter=-0.1)

    def test_bad_topology(self):
        with pytest.raises(ConfigError):
            Cluster(0, 1, HPC_PROFILE)
        with pytest.raises(ConfigError):
            Cluster(1, 0, HPC_PROFILE)


class TestTrace:
    def make_trace(self):
        trace = Trace(algorithm="X", n_workers=4)
        trace.add(0.0, 0, 2.0)
        trace.add(1.0, 100, 1.0)
        trace.add(2.0, 200, 0.5)
        return trace

    def test_summaries(self):
        trace = self.make_trace()
        assert trace.final_rmse() == 0.5
        assert trace.best_rmse() == 0.5
        assert trace.total_updates() == 200
        assert trace.duration() == 2.0
        assert trace.throughput_per_worker() == pytest.approx(25.0)

    def test_series_axes(self):
        trace = self.make_trace()
        assert trace.times() == [0.0, 1.0, 2.0]
        assert trace.updates() == [0, 100, 200]
        assert trace.rmses() == [2.0, 1.0, 0.5]

    def test_time_to_rmse(self):
        trace = self.make_trace()
        assert trace.time_to_rmse(1.5) == 1.0
        assert trace.time_to_rmse(0.4) is None
        assert trace.updates_to_rmse(1.0) == 100

    def test_monotone_time_enforced(self):
        trace = self.make_trace()
        with pytest.raises(SimulationError):
            trace.add(1.0, 300, 0.4)

    def test_empty_trace_errors(self):
        trace = Trace(algorithm="X", n_workers=1)
        with pytest.raises(SimulationError):
            trace.final_rmse()

    def test_csv_round_trippable(self):
        text = self.make_trace().to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "time,updates,rmse,objective"
        assert len(lines) == 4

    def test_len_and_repr(self):
        trace = self.make_trace()
        assert len(trace) == 3
        assert "X" in repr(trace)
