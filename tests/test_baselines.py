"""Tests for every baseline optimizer (DSGD, DSGD++, FPSGD**, CCD++,
GraphLab-ALS, Hogwild)."""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest

from repro.baselines import (
    CCDPlusPlusSimulation,
    DSGDPlusPlusSimulation,
    DSGDSimulation,
    FPSGDSimulation,
    GraphLabALSSimulation,
    HogwildSimulation,
)
from repro.config import HyperParams, RunConfig
from repro.core.serializability import is_serializable
from repro.errors import ConfigError
from repro.linalg.backends import cext_available
from repro.linalg.objective import regularized_objective
from repro.simulator.cluster import Cluster
from repro.simulator.network import COMMODITY_PROFILE, HPC_PROFILE

HYPER = HyperParams(k=4, lambda_=0.01, alpha=0.1, beta=0.01)
RUN = RunConfig(duration=0.02, eval_interval=0.004, seed=5)

ALL_MULTI_MACHINE = [
    DSGDSimulation,
    DSGDPlusPlusSimulation,
    CCDPlusPlusSimulation,
    GraphLabALSSimulation,
]
SHARED_MEMORY_ONLY = [FPSGDSimulation, HogwildSimulation]


class TestAllBaselinesConverge:
    @pytest.mark.parametrize("cls", ALL_MULTI_MACHINE)
    def test_multi_machine_converges(self, cls, small_split):
        train, test = small_split
        cluster = Cluster(2, 2, HPC_PROFILE)
        run = RUN if cls not in (CCDPlusPlusSimulation,
                                 GraphLabALSSimulation) else RUN.with_(
            duration=0.3, eval_interval=0.05)
        trace = cls(train, test, cluster, HYPER, run).run()
        assert trace.final_rmse() < trace.records[0].rmse

    @pytest.mark.parametrize("cls", SHARED_MEMORY_ONLY)
    def test_shared_memory_converges(self, cls, small_split):
        train, test = small_split
        cluster = Cluster(1, 4, HPC_PROFILE)
        trace = cls(train, test, cluster, HYPER, RUN).run()
        assert trace.final_rmse() < trace.records[0].rmse

    @pytest.mark.parametrize("cls", ALL_MULTI_MACHINE)
    def test_deterministic(self, cls, tiny_split):
        train, test = tiny_split
        cluster = Cluster(2, 2, HPC_PROFILE)
        a = cls(train, test, cluster, HYPER, RUN).run()
        b = cls(train, test, cluster, HYPER, RUN).run()
        assert [r.rmse for r in a.records] == [r.rmse for r in b.records]

    @pytest.mark.parametrize("cls", ALL_MULTI_MACHINE + SHARED_MEMORY_ONLY)
    def test_trace_well_formed(self, cls, tiny_split):
        train, test = tiny_split
        single = cls in SHARED_MEMORY_ONLY
        cluster = Cluster(1 if single else 2, 2, HPC_PROFILE)
        trace = cls(train, test, cluster, HYPER, RUN).run()
        assert trace.records[0].time == 0.0
        assert trace.records[-1].time <= RUN.duration + 1e-12
        times = trace.times()
        assert all(a < b for a, b in zip(times, times[1:]))


class TestDSGD:
    def test_bold_driver_used(self, small_split):
        """Objective must decrease epoch over epoch under the bold driver."""
        train, test = small_split
        cluster = Cluster(2, 2, HPC_PROFILE)
        run = RunConfig(duration=0.05, eval_interval=0.01, seed=2)
        sim = DSGDSimulation(train, test, cluster, HYPER, run)
        sim.run()
        objective = regularized_objective(sim.factors, train, lambda_=HYPER.lambda_)
        initial = DSGDSimulation(train, test, cluster, HYPER, run)
        initial_objective = regularized_objective(
            initial.factors, train, lambda_=HYPER.lambda_
        )
        assert objective < initial_objective

    def test_single_machine_uses_threads_as_workers(self, tiny_split):
        train, test = tiny_split
        cluster = Cluster(1, 4, HPC_PROFILE)
        trace = DSGDSimulation(train, test, cluster, HYPER, RUN).run()
        assert trace.final_rmse() < trace.records[0].rmse

    def test_updates_equal_ratings_per_epoch(self, tiny_split):
        train, test = tiny_split
        cluster = Cluster(2, 1, HPC_PROFILE, jitter=0.0)
        run = RunConfig(duration=10.0, eval_interval=1.0, seed=2,
                        max_updates=train.nnz)
        sim = DSGDSimulation(train, test, cluster, HYPER, run)
        sim.run()
        # max_updates lands exactly on a sub-epoch boundary multiple.
        assert sim.total_updates >= train.nnz


class TestDSGDPlusPlus:
    def test_uses_2p_column_blocks(self):
        assert DSGDPlusPlusSimulation.col_blocks_per_machine == 2
        assert DSGDPlusPlusSimulation.overlap_communication is True

    def test_faster_than_dsgd_on_bandwidth_bound_network(self, small_split):
        """Overlap hides serialization time when bandwidth dominates.

        (On *latency*-dominated links DSGD++'s doubled barrier count can
        cancel the overlap win — per-message latency does not shrink with
        block size — so the test pins the bandwidth-bound regime where the
        published speedup applies.)
        """
        from repro.simulator.network import NetworkModel

        train, test = small_split
        run = RunConfig(duration=0.03, eval_interval=0.005, seed=3)
        slow_bandwidth = NetworkModel(
            "slow-bw", latency_s=1e-6, bandwidth_bps=1e7
        )
        cluster = Cluster(4, 1, slow_bandwidth, jitter=0.0)
        dsgd = DSGDSimulation(train, test, cluster, HYPER, run).run()
        dsgdpp = DSGDPlusPlusSimulation(train, test, cluster, HYPER, run).run()
        # With equal wall budget, the overlapped variant gets more updates in.
        assert dsgdpp.total_updates() > dsgd.total_updates()


class TestFPSGD:
    def test_rejects_multi_machine(self, tiny_split):
        train, test = tiny_split
        cluster = Cluster(2, 2, HPC_PROFILE)
        with pytest.raises(ConfigError, match="shared-memory"):
            FPSGDSimulation(train, test, cluster, HYPER, RUN).run()

    def test_grid_blocks_cover_all_ratings(self, tiny_split):
        train, test = tiny_split
        cluster = Cluster(1, 2, HPC_PROFILE, jitter=0.0)
        run = RunConfig(duration=5.0, eval_interval=1.0, seed=1,
                        max_updates=2 * train.nnz)
        sim = FPSGDSimulation(train, test, cluster, HYPER, run)
        sim.run()
        assert sim.total_updates >= 2 * train.nnz


class TestCCD:
    def test_training_objective_decreases_with_sweeps(self, small_split):
        train, test = small_split
        cluster = Cluster(1, 4, HPC_PROFILE, jitter=0.0)
        run = RunConfig(duration=2.0, eval_interval=0.2, seed=1)
        sim = CCDPlusPlusSimulation(train, test, cluster, HYPER, run)
        trace = sim.run()
        assert trace.final_rmse() < 0.5

    def test_zero_w_initialization_default(self, tiny_split):
        train, test = tiny_split
        cluster = Cluster(1, 2, HPC_PROFILE)
        sim = CCDPlusPlusSimulation(train, test, cluster, HYPER, RUN)
        # Before running, W must be zero (libpmf convention).
        assert np.all(sim.factors.w == 0.0)

    def test_shared_initialization_option(self, tiny_split):
        train, test = tiny_split
        cluster = Cluster(1, 2, HPC_PROFILE)
        sim = CCDPlusPlusSimulation(
            train, test, cluster, HYPER, RUN, init_mode="shared"
        )
        assert np.any(sim.factors.w != 0.0)

    def test_bad_options(self, tiny_split):
        train, test = tiny_split
        cluster = Cluster(1, 2, HPC_PROFILE)
        with pytest.raises(ConfigError):
            CCDPlusPlusSimulation(
                train, test, cluster, HYPER, RUN, inner_iters=0
            )
        with pytest.raises(ConfigError):
            CCDPlusPlusSimulation(
                train, test, cluster, HYPER, RUN, init_mode="random"
            )

    def test_inner_iters_accelerate_early_fit(self, small_split):
        train, test = small_split
        cluster = Cluster(1, 4, HPC_PROFILE, jitter=0.0)
        run = RunConfig(duration=0.2, eval_interval=0.05, seed=1)
        one = CCDPlusPlusSimulation(
            train, test, cluster, HYPER, run, inner_iters=1
        ).run()
        three = CCDPlusPlusSimulation(
            train, test, cluster, HYPER, run, inner_iters=3
        ).run()
        assert one.final_rmse() != three.final_rmse()


class TestGraphLabALS:
    def test_objective_monotone_decreasing(self, small_split):
        """Exact alternating solves can never increase J(W, H)."""
        train, test = small_split
        cluster = Cluster(1, 4, HPC_PROFILE, jitter=0.0)
        run = RunConfig(duration=2.0, eval_interval=0.1, seed=1)
        sim = GraphLabALSSimulation(train, test, cluster, HYPER, run)

        objectives = []
        original = sim._record_point

        def capture(time):
            objectives.append(
                regularized_objective(sim.factors, train, lambda_=HYPER.lambda_)
            )
            original(time)

        sim._record_point = capture
        sim.run()
        assert len(objectives) > 3
        for before, after in zip(objectives, objectives[1:]):
            assert after <= before + 1e-6

    def test_much_slower_on_commodity_than_on_hpc(self, small_split):
        """Appendix F's shape: lock round trips dominate on slow networks."""
        train, test = small_split
        run = RunConfig(duration=1.0, eval_interval=0.1, seed=1)
        commodity = GraphLabALSSimulation(
            train, test, Cluster(4, 2, COMMODITY_PROFILE, jitter=0.0),
            HYPER, run,
        ).run()
        hpc = GraphLabALSSimulation(
            train, test, Cluster(4, 2, HPC_PROFILE, jitter=0.0), HYPER, run
        ).run()
        assert commodity.total_updates() < hpc.total_updates() / 5

    def test_single_machine_no_lock_penalty(self, small_split):
        train, test = small_split
        run = RunConfig(duration=1.0, eval_interval=0.2, seed=1)
        cluster = Cluster(1, 4, HPC_PROFILE, jitter=0.0)
        graphlab = GraphLabALSSimulation(train, test, cluster, HYPER, run).run()
        assert graphlab.final_rmse() < graphlab.records[0].rmse

    def test_converges_to_noise_floor(self, small_split):
        """Exact solves reach the planted model's noise floor."""
        train, test = small_split
        cluster = Cluster(1, 4, HPC_PROFILE, jitter=0.0)
        run = RunConfig(duration=3.0, eval_interval=0.3, seed=1)
        trace = GraphLabALSSimulation(train, test, cluster, HYPER, run).run()
        assert trace.final_rmse() < 0.3


class TestHogwild:
    def test_rejects_multi_machine(self, tiny_split):
        train, test = tiny_split
        cluster = Cluster(2, 2, HPC_PROFILE)
        with pytest.raises(ConfigError, match="shared-memory"):
            HogwildSimulation(train, test, cluster, HYPER, RUN)

    def test_bad_refresh_period(self, tiny_split):
        train, test = tiny_split
        cluster = Cluster(1, 2, HPC_PROFILE)
        with pytest.raises(ConfigError):
            HogwildSimulation(
                train, test, cluster, HYPER, RUN, refresh_period=0
            )

    def test_converges_despite_staleness(self, small_split):
        train, test = small_split
        cluster = Cluster(1, 4, HPC_PROFILE)
        run = RunConfig(duration=0.05, eval_interval=0.01, seed=2)
        trace = HogwildSimulation(
            train, test, cluster, HYPER, run, refresh_period=8
        ).run()
        assert trace.final_rmse() < 0.6

    def test_execution_not_serializable(self, tiny_split):
        """The §4.3 contrast: stale reads break serializability."""
        train, test = tiny_split
        cluster = Cluster(1, 4, HPC_PROFILE)
        run = RunConfig(duration=0.01, eval_interval=0.002, seed=2)
        sim = HogwildSimulation(
            train, test, cluster, HYPER, run,
            refresh_period=16, record_updates=True,
        )
        sim.run()
        stale_events = [
            e for e in sim.update_log if e.stale_read != -1
        ]
        assert stale_events, "expected stale reads with refresh_period=16"
        assert not is_serializable(sim.update_log)


class TestBoldDriverRollback:
    def test_dsgd_survives_divergent_step(self, small_split):
        """An explosive initial step must roll back, halve, and recover
        (Gemulla et al.'s previous-iterate rule) instead of raising."""
        train, test = small_split
        cluster = Cluster(2, 2, HPC_PROFILE, jitter=0.0)
        aggressive = HyperParams(k=4, lambda_=0.01, alpha=1.5, beta=0.01)
        run = RunConfig(duration=0.05, eval_interval=0.01, seed=4)
        trace = DSGDSimulation(train, test, cluster, aggressive, run).run()
        assert np.isfinite(trace.final_rmse())
        assert trace.final_rmse() < trace.records[0].rmse

    def test_punish_shrinks_without_baseline_move(self):
        from repro.schedules.bold_driver import BoldDriver

        driver = BoldDriver(initial_step=0.2)
        driver.observe(10.0)
        assert driver.punish() == pytest.approx(0.1)
        assert driver.last_objective == 10.0
        # The preserved baseline still rewards a real improvement next.
        assert driver.observe(9.0) == pytest.approx(0.105)


#: (class, machines, cores, cext/list sha256) of the trace records and
#: final W‖H, recorded on the commit before the clocked baselines handed
#: ndarray stores the training arrays instead of lists; cext equals the
#: list reference bit for bit.
BASELINE_PINS = {
    "DSGD": (
        DSGDSimulation, 2, 2,
        "cc11c192810cfef06346a1ae3819347249b6922e1947c88deedaf7e39dd695ff",
    ),
    "DSGD-shared": (
        DSGDSimulation, 1, 4,
        "324b09e02c27a65620920395dc5bba47db3c6f38ef70c7aeb99d29a275b90889",
    ),
    "DSGD++": (
        DSGDPlusPlusSimulation, 2, 2,
        "8f74a335ae0bacea980fe7bea785a8b3ab8ae8f8f369710813ad6f9f1d237fde",
    ),
    "FPSGD": (
        FPSGDSimulation, 1, 4,
        "cd577cb0b19f6d9250bdad33b4ef277ca3ff077e41db64b1e90220d0870af5ed",
    ),
}


class TestBaselineDigests:
    @pytest.mark.parametrize("backend", ["cext", "list"])
    @pytest.mark.parametrize("case", BASELINE_PINS)
    def test_run_is_bit_identical_to_pinned_digest(
        self, tiny_split, case, backend
    ):
        if backend == "cext" and not cext_available():
            pytest.skip("no usable C toolchain (cext unavailable)")
        cls, machines, cores, expected = BASELINE_PINS[case]
        train, test = tiny_split
        sim = cls(
            train, test, Cluster(machines, cores, HPC_PROFILE), HYPER,
            RUN.with_(kernel_backend=backend),
        )
        trace = sim.run()
        digest = hashlib.sha256()
        for record in trace.records:
            digest.update(
                struct.pack("<dqd", record.time, record.updates, record.rmse)
            )
        digest.update(sim.factors.w.tobytes())
        digest.update(sim.factors.h.tobytes())
        assert digest.hexdigest() == expected


class _RecordingBackend:
    """Delegates to a real backend and keeps every entries-kernel call."""

    def __init__(self, backend):
        self._backend = backend
        self.calls = []

    def __getattr__(self, name):
        return getattr(self._backend, name)

    def process_entries(self, w, h, rows, cols, ratings, counts, *rest):
        self.calls.append((rows, cols, ratings, counts, rest[-1]))
        return self._backend.process_entries(
            w, h, rows, cols, ratings, counts, *rest
        )

    def process_entries_const(self, w, h, rows, cols, ratings, *rest):
        self.calls.append((rows, cols, ratings, None, rest[-1]))
        return self._backend.process_entries_const(
            w, h, rows, cols, ratings, *rest
        )


class TestEntriesMarshalling:
    """A block call hands the kernel the training set as the matrix holds
    it: its own arrays, never an nnz-long list to convert again on every
    call."""

    @pytest.mark.parametrize("backend", ["cext", "list"])
    @pytest.mark.parametrize("case", BASELINE_PINS)
    def test_training_arrays_reach_the_kernel_unconverted(
        self, tiny_split, case, backend
    ):
        if backend == "cext" and not cext_available():
            pytest.skip("no usable C toolchain (cext unavailable)")
        cls, machines, cores, *_ = BASELINE_PINS[case]
        train, test = tiny_split
        sim = cls(
            train, test, Cluster(machines, cores, HPC_PROFILE), HYPER,
            RUN.with_(kernel_backend=backend, max_updates=2 * train.nnz),
        )
        sim._backend = recorder = _RecordingBackend(sim._backend)
        sim.run()
        assert recorder.calls
        for rows, cols, ratings, counts, order in recorder.calls:
            assert rows is train.rows
            assert cols is train.cols
            assert ratings is train.vals
            if counts is not None:
                assert isinstance(counts, np.ndarray)
                assert counts.dtype == np.int64
        counters = {id(counts) for *_, counts, _ in recorder.calls}
        assert len(counters) == 1  # one counter array for the whole run
