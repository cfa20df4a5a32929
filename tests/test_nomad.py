"""Tests for the NOMAD core algorithm on the simulated cluster."""

from __future__ import annotations

import functools
import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import HyperParams, RunConfig
from repro.core.load_balance import (
    LeastQueuePolicy,
    PowerOfTwoPolicy,
    UniformPolicy,
)
from repro.core.nomad import (
    _TOKEN_HANDLING_FRACTION,
    NomadOptions,
    NomadSimulation,
)
from repro.core.serializability import is_serializable, replay
from repro.core.tokens import ItemToken
from repro.datasets.ratings import train_test_split
from repro.datasets.synthetic import SyntheticSpec, make_low_rank
from repro.errors import ConfigError, SimulationError
from repro.linalg.backends import cext_available
from repro.linalg import objective
from repro.linalg.factors import init_factors
from repro.linalg.losses import HuberLoss
from repro.rng import RngFactory
from repro.simulator.cluster import Cluster
from repro.simulator.network import COMMODITY_PROFILE, HPC_PROFILE


def run_nomad(train, test, machines=2, cores=2, options=None, run=None,
              hyper=None, jitter=0.0, machine_speeds=None):
    cluster = Cluster(machines, cores, HPC_PROFILE, jitter=jitter,
                      machine_speeds=machine_speeds)
    hyper = hyper or HyperParams(k=4, lambda_=0.01, alpha=0.1, beta=0.01)
    run = run or RunConfig(duration=0.01, eval_interval=0.002, seed=7)
    sim = NomadSimulation(train, test, cluster, hyper, run, options=options)
    return sim, sim.run()


class TestConvergence:
    def test_rmse_decreases(self, tiny_split):
        train, test = tiny_split
        _, trace = run_nomad(train, test)
        assert trace.final_rmse() < trace.records[0].rmse

    def test_reaches_noise_floor_neighborhood(self, small_split):
        train, test = small_split
        run = RunConfig(duration=0.05, eval_interval=0.01, seed=3)
        _, trace = run_nomad(train, test, run=run)
        assert trace.final_rmse() < 0.35

    def test_single_worker_converges(self, tiny_split):
        train, test = tiny_split
        _, trace = run_nomad(train, test, machines=1, cores=1)
        assert trace.final_rmse() < trace.records[0].rmse

    def test_commodity_network_converges(self, tiny_split):
        train, test = tiny_split
        cluster = Cluster(2, 2, COMMODITY_PROFILE)
        sim = NomadSimulation(
            train, test, cluster,
            HyperParams(k=4, lambda_=0.01, alpha=0.1, beta=0.01),
            RunConfig(duration=0.02, eval_interval=0.005, seed=7),
        )
        trace = sim.run()
        assert trace.final_rmse() < trace.records[0].rmse


class _UnknownToC(HuberLoss):
    """A Loss subclass the C dispatch does not know: under cext it runs
    the interpreted core, which must give the bits the C gives."""


_LIST_DIGEST = "6331d2a86d0d0eaf1490f43b3563b4e0b2521b03619ea8b3bea3fda5b14c77fd"
_HUBER_DIGEST = "1d9b404d9705d742918e28c28028d0897ef24ef529765c86c159a27fc8d7fb4a"

#: (run_nomad keywords, kernel backend, sha256 of the trace records and
#: final W‖H); "auto" is cext or, without a toolchain, list.  Recorded on the commit before the
#: simulator moved from list-of-lists column stores to bound CSC token
#: kernels, integer topology tables and a tuple-ordered event heap; cext
#: and list agree bit for bit.
PINNED_RUNS = {
    "cext": ({}, "cext", _LIST_DIGEST),
    "list": ({}, "list", _LIST_DIGEST),
    "huber": (
        {"options": NomadOptions(loss=HuberLoss(delta=1.0))}, "auto", _HUBER_DIGEST,
    ),
    "unknown-loss": (
        {"options": NomadOptions(loss=_UnknownToC(delta=1.0))}, "auto",
        _HUBER_DIGEST,
    ),
    "least-queue": (
        {"options": NomadOptions(circulate=False, policy=LeastQueuePolicy())},
        "auto",
        "d6ce80e20511154265bde173013a2ce458a68410d9edf49f6b2379d25d689a9e",
    ),
    "jitter-speeds": (
        {"jitter": 0.3, "machine_speeds": np.array([1.0, 0.5])}, "auto",
        "4000702b8c866276238b79cca255bc56e8b18bbd99f9c234d6d1afc734af1565",
    ),
}


class TestDeterminism:
    @pytest.mark.parametrize("case", PINNED_RUNS)
    def test_run_is_bit_identical_to_pinned_digest(self, tiny_split, case):
        keywords, backend, expected = PINNED_RUNS[case]
        if backend == "cext" and not cext_available():
            pytest.skip("no usable C toolchain (cext unavailable)")
        train, test = tiny_split
        run = RunConfig(
            duration=0.01, eval_interval=0.002, seed=7, kernel_backend=backend
        )
        sim, trace = run_nomad(train, test, run=run, **keywords)
        digest = hashlib.sha256()
        for record in trace.records:
            digest.update(
                struct.pack("<dqd", record.time, record.updates, record.rmse)
            )
        digest.update(sim.factors.w.tobytes())
        digest.update(sim.factors.h.tobytes())
        assert digest.hexdigest() == expected

    def test_same_seed_identical_traces(self, tiny_split):
        train, test = tiny_split
        _, a = run_nomad(train, test)
        _, b = run_nomad(train, test)
        assert [r.rmse for r in a.records] == [r.rmse for r in b.records]
        assert [r.updates for r in a.records] == [r.updates for r in b.records]

    def test_different_seed_differs(self, tiny_split):
        train, test = tiny_split
        _, a = run_nomad(train, test)
        _, b = run_nomad(
            train, test,
            run=RunConfig(duration=0.01, eval_interval=0.002, seed=8),
        )
        assert [r.rmse for r in a.records] != [r.rmse for r in b.records]

    def test_jitter_preserves_determinism(self, tiny_split):
        train, test = tiny_split
        _, a = run_nomad(train, test, jitter=0.3)
        _, b = run_nomad(train, test, jitter=0.3)
        assert [r.rmse for r in a.records] == [r.rmse for r in b.records]


class _PythonUniform(UniformPolicy):
    """Draws what UniformPolicy draws; being a subclass, it keeps a run
    on the simulator's Python handlers."""


class _PythonLeastQueue(LeastQueuePolicy):
    """LeastQueuePolicy on the Python handlers."""


class _PythonPowerOfTwo(PowerOfTwoPolicy):
    """PowerOfTwoPolicy on the Python handlers."""


#: (shipped policy, its subclass on the Python handlers)
_POLICY_PAIRS = [
    (UniformPolicy, _PythonUniform),
    (LeastQueuePolicy, _PythonLeastQueue),
    (PowerOfTwoPolicy, _PythonPowerOfTwo),
]


@functools.lru_cache(maxsize=1)
def _property_split():
    """tiny_split's shape, built once for every Hypothesis example."""
    rng = RngFactory(12345)
    spec = SyntheticSpec(n_rows=80, n_cols=40, rank=2, density=0.2, noise=0.05)
    matrix = make_low_rank(spec, rng.stream("tiny"))
    return train_test_split(matrix, 0.2, rng.stream("split"))


def _outcome(sim, trace):
    """Everything a run leaves behind that the two schedules must share."""
    return {
        "visits": sim.visits,
        "records": trace.records,
        "updates": sim.total_updates,
        "hops": (sim.network_hops, sim.local_hops),
        "queues": sim.queue_sizes(),
        "owners": [sim._ledger.owner_of(j) for j in range(sim.train.n_cols)],
    }


def _assert_schedules_agree(make_cluster, policies, run, **options):
    """One run on the compiled schedule (the shipped policy) and one on
    the Python handlers (its subclass): everything they leave equal."""
    train, test = _property_split()
    outcomes = []
    for policy_type in policies:
        sim = NomadSimulation(
            train, test, make_cluster(),
            HyperParams(k=4, lambda_=0.01, alpha=0.1, beta=0.01), run,
            options=NomadOptions(
                policy=policy_type(), record_updates=True, **options
            ),
        )
        assert (sim._schedule is not None) == (policy_type is policies[0])
        trace = sim.run()
        outcomes.append((_outcome(sim, trace), sim.factors))
    (native, native_factors), (python, python_factors) = outcomes
    assert native == python
    assert native["visits"]
    assert np.array_equal(native_factors.w, python_factors.w)
    assert np.array_equal(native_factors.h, python_factors.h)


@pytest.mark.skipif(not cext_available(), reason="no usable C toolchain")
class TestCompiledSchedule:
    """The backend's compiled event loop against the Python handlers it
    replaces: the same visits in the same order, the same bits."""

    @settings(max_examples=60, deadline=None)
    @given(
        machines=st.integers(1, 3),
        cores=st.integers(1, 3),
        policy=st.sampled_from(_POLICY_PAIRS),
        circulate=st.booleans(),
        jitter=st.sampled_from([0.0, 0.3]),
        speeds=st.sampled_from([None, (1.0, 0.5, 1.7)]),
        budget=st.sampled_from([None, 1, 150, 700, 10**9]),
        eval_interval=st.sampled_from([0.001, 0.0025, 0.004, 0.01]),
        partition=st.sampled_from(["ratings", "rows"]),
        seed=st.integers(0, 2**31),
    )
    def test_compiled_schedule_equals_python_handlers(
        self, machines, cores, policy, circulate, jitter, speeds, budget,
        eval_interval, partition, seed,
    ):
        _assert_schedules_agree(
            lambda: Cluster(
                machines, cores, HPC_PROFILE, jitter=jitter,
                machine_speeds=None if speeds is None else speeds[:machines],
            ),
            policy,
            RunConfig(
                duration=0.01, eval_interval=eval_interval, seed=seed,
                max_updates=budget, kernel_backend="cext",
            ),
            circulate=circulate, partition=partition,
        )

    @pytest.mark.parametrize("machines, cores", [(23, 1), (1, 23)])
    def test_power_of_two_past_the_sample_pool(self, machines, cores):
        # More than 21 candidates: random.sample's set branch.
        _assert_schedules_agree(
            lambda: Cluster(machines, cores, HPC_PROFILE, jitter=0.3),
            _POLICY_PAIRS[2],
            RunConfig(duration=0.01, eval_interval=0.002, seed=11,
                      kernel_backend="cext"),
            circulate=False, partition="rows",
        )

    def _compiled(self, tiny_split):
        train, test = tiny_split
        sim = NomadSimulation(
            train, test, Cluster(1, 2, HPC_PROFILE),
            HyperParams(k=4, lambda_=0.01, alpha=0.1, beta=0.01),
            RunConfig(duration=0.01, eval_interval=0.002, seed=7,
                      kernel_backend="cext"),
        )
        assert sim._schedule is not None
        return sim._schedule, train.n_cols

    def test_forged_double_acquire_is_a_simulation_error(self, tiny_split):
        schedule, _ = self._compiled(tiny_split)
        queues = [np.array([0, 1]), np.array([2, 1])]
        with pytest.raises(SimulationError, match="item 1 acquired by worker 1"):
            schedule.start(queues, np.array([0.002]))

    def test_item_out_of_range_is_an_index_error(self, tiny_split):
        schedule, n_items = self._compiled(tiny_split)
        queues = [np.array([0, n_items]), np.array([], dtype=np.int64)]
        with pytest.raises(IndexError, match="outside"):
            schedule.start(queues, np.array([0.002]))


#: Routing branches PINNED_RUNS does not reach: (cluster keywords,
#: NomadOptions keywords, RunConfig keywords, sha256), kernel backend
#: "auto", recorded on the commit before the event heap dropped its
#: Event objects and the ownership ledger its ndarray.  The
#: max_updates case digests the trace records only: the model it
#: returned then still carried finishes that landed after the halt.
BRANCH_PINS = {
    "one-machine": (
        {"machines": 1, "cores": 4}, {}, {},
        "af76961209d36e9f03c94b7b509ed9926cf27769f75b0d61d13ca437ac71991b",
    ),
    "one-machine-no-circulation": (
        {"machines": 1, "cores": 4}, {"circulate": False}, {},
        "9ff157d6c5e6531fdd78e893375363c8ecd59ed10bebbfc44eec8d63959639ae",
    ),
    "power-of-two": (
        {"machines": 3, "cores": 2},
        {"circulate": False, "policy": PowerOfTwoPolicy()}, {},
        "42371def4ef96bca7cfe5b16b3327f70e4a907de3e8f3d3d080245575e12e05c",
    ),
    "rows-partition": (
        {}, {"partition": "rows"}, {},
        "cd250bbe59c9e2cd36ce2fafeb51ba5bf2f9eeabf3e9ee10c218fd2f897afdcb",
    ),
    "commodity": (
        {"profile": COMMODITY_PROFILE}, {}, {},
        "5c59b409576d3de650c77180cf339b57193e143cfa98ad54b2649ef3fbdbc6d2",
    ),
    "max-updates": (
        {}, {}, {"max_updates": 500},
        "d809d605fe9ca8fec3399d6290b64aa9819a5ff4eee7c49d30f4d3f1fb37d94b",
    ),
}


class TestBranchDigests:
    @pytest.mark.parametrize("case", BRANCH_PINS)
    def test_branch_is_bit_identical_to_pinned_digest(self, tiny_split, case):
        cluster_kw, option_kw, run_kw, expected = BRANCH_PINS[case]
        cluster_kw = {"machines": 2, "cores": 2, "profile": HPC_PROFILE,
                      **cluster_kw}
        cluster = Cluster(
            cluster_kw["machines"], cluster_kw["cores"], cluster_kw["profile"]
        )
        train, test = tiny_split
        run = RunConfig(duration=0.01, eval_interval=0.002, seed=7, **run_kw)
        sim = NomadSimulation(
            train, test, cluster,
            HyperParams(k=4, lambda_=0.01, alpha=0.1, beta=0.01), run,
            options=NomadOptions(**option_kw),
        )
        trace = sim.run()
        digest = hashlib.sha256()
        for record in trace.records:
            digest.update(
                struct.pack("<dqd", record.time, record.updates, record.rmse)
            )
        if not run_kw:
            digest.update(sim.factors.w.tobytes())
            digest.update(sim.factors.h.tobytes())
        assert digest.hexdigest() == expected


class TestMechanics:
    def test_eval_cadence(self, tiny_split):
        train, test = tiny_split
        run = RunConfig(duration=0.01, eval_interval=0.001, seed=7)
        _, trace = run_nomad(train, test, run=run)
        assert 9 <= len(trace.records) <= 12

    def test_max_updates_respected(self, tiny_split):
        train, test = tiny_split
        run = RunConfig(
            duration=0.01, eval_interval=0.002, seed=7, max_updates=500
        )
        sim, trace = run_nomad(train, test, run=run)
        # Stops within one token's worth of the cap.
        assert trace.total_updates() <= 500 + train.col_counts().max()

    def test_budget_halt_returns_the_traced_model(self, tiny_split):
        # Finishes already scheduled when the budget halts the run apply
        # nothing: the factors returned are the ones the last trace point
        # scored, and the tokens they carried are still conserved.
        train, test = tiny_split
        run = RunConfig(
            duration=0.01, eval_interval=0.002, seed=7, max_updates=500
        )
        sim, trace = run_nomad(train, test, run=run)
        assert sim.total_updates == trace.records[-1].updates
        assert objective.test_rmse(sim.factors, test) == trace.final_rmse()
        assert sim._ledger.n_items == train.n_cols
        sim._ledger.assert_conserved()

    def test_factors_shapes(self, tiny_split):
        train, test = tiny_split
        sim, _ = run_nomad(train, test)
        factors = sim.factors
        assert factors.w.shape == (train.n_rows, 4)
        assert factors.h.shape == (train.n_cols, 4)
        assert np.all(np.isfinite(factors.w))
        assert np.all(np.isfinite(factors.h))

    def test_tokens_conserved(self, tiny_split):
        train, test = tiny_split
        sim, _ = run_nomad(train, test)
        queued = sum(sim.queue_sizes())
        sim._ledger.assert_conserved()
        owned = sum(
            sim._ledger.owner_of(j) is not None for j in range(train.n_cols)
        )
        assert queued <= owned

    def test_throughput_positive(self, tiny_split):
        train, test = tiny_split
        _, trace = run_nomad(train, test)
        assert trace.throughput_per_worker() > 0

    def test_trace_metadata(self, tiny_split):
        train, test = tiny_split
        _, trace = run_nomad(train, test, machines=2, cores=2)
        assert trace.algorithm == "NOMAD"
        assert trace.n_workers == 4
        assert trace.meta["machines"] == 2


    def test_visit_time_table_is_the_clusters_cost_model(self, tiny_split):
        """The per-(worker, item) visit times are what ``Cluster.sgd_time``
        answers — same float operations, so ``==``, not approx — on
        machines of different speeds, empty columns included."""
        train, test = tiny_split
        cluster = Cluster(
            2, 2, HPC_PROFILE, machine_speeds=np.array([1.0, 0.5])
        )
        hyper = HyperParams(k=4, lambda_=0.01, alpha=0.1, beta=0.01)
        sim = NomadSimulation(
            train, test, cluster, hyper,
            RunConfig(duration=0.01, eval_interval=0.002, seed=7),
        )
        shards = train.shard_by_rows(sim._partition)
        assert len(sim._visit_time) == len(shards) == 4
        seen_empty = seen_full = 0
        for q, shard in enumerate(shards):
            counts = np.diff(shard.csc()[0]).tolist()
            assert len(sim._visit_time[q]) == len(counts) == train.n_cols
            for j, nnz in enumerate(counts):
                if nnz:
                    expected = cluster.sgd_time(q, hyper.k, nnz)
                    seen_full += 1
                else:
                    expected = (
                        cluster.sgd_time(q, hyper.k, 1)
                        * _TOKEN_HANDLING_FRACTION
                    )
                    seen_empty += 1
                assert sim._visit_time[q][j] == expected
        assert seen_empty and seen_full
        # The slow machine's workers pay twice as long for the same work.
        assert cluster.sgd_time(2, hyper.k, 3) == 2 * cluster.sgd_time(0, hyper.k, 3)
        assert sim._machine_of == [0, 0, 1, 1]
        assert sim._network_delay == cluster.token_delay(0, 2, hyper.k)
        assert sim._local_delay == cluster.token_delay(0, 1, hyper.k)

    def test_second_run_is_refused_before_touching_state(self, tiny_split):
        """``run()`` twice is API misuse and says so — it must not read
        as the ownership invariant breaking, nor disturb the result."""
        train, test = tiny_split
        sim, trace = run_nomad(train, test)
        w, h = sim.factors.w.copy(), sim.factors.h.copy()
        updates, records = sim.total_updates, len(trace.records)
        queues = sim.queue_sizes()
        with pytest.raises(SimulationError, match="runs once"):
            sim.run()
        assert sim.total_updates == updates
        assert len(trace.records) == records
        assert sim.queue_sizes() == queues
        assert np.array_equal(sim.factors.w, w)
        assert np.array_equal(sim.factors.h, h)
        sim._ledger.assert_conserved()


class TestOptions:
    def test_row_partition_mode(self, tiny_split):
        train, test = tiny_split
        options = NomadOptions(partition="rows")
        _, trace = run_nomad(train, test, options=options)
        assert trace.final_rmse() < trace.records[0].rmse

    def test_invalid_partition_rejected(self):
        with pytest.raises(ConfigError):
            NomadOptions(partition="columns")

    def test_no_circulation(self, tiny_split):
        train, test = tiny_split
        options = NomadOptions(circulate=False)
        _, trace = run_nomad(train, test, options=options)
        assert trace.final_rmse() < trace.records[0].rmse

    @pytest.mark.parametrize(
        "policy", [UniformPolicy(), LeastQueuePolicy(), PowerOfTwoPolicy()]
    )
    def test_policies_run(self, tiny_split, policy):
        train, test = tiny_split
        options = NomadOptions(policy=policy)
        _, trace = run_nomad(train, test, options=options)
        assert trace.final_rmse() < trace.records[0].rmse

    def test_external_factors_used(self, tiny_split):
        train, test = tiny_split
        cluster = Cluster(1, 2, HPC_PROFILE)
        hyper = HyperParams(k=4, lambda_=0.01, alpha=0.1, beta=0.01)
        run = RunConfig(duration=0.005, eval_interval=0.001, seed=7)
        factors = init_factors(
            train.n_rows, train.n_cols, 4, RngFactory(99).stream("custom")
        )
        w_original = factors.w.copy()
        sim = NomadSimulation(train, test, cluster, hyper, run, factors=factors)
        sim.run()
        assert not np.allclose(sim.factors.w, w_original)

    def test_factor_shape_mismatch_rejected(self, tiny_split):
        train, test = tiny_split
        cluster = Cluster(1, 2, HPC_PROFILE)
        hyper = HyperParams(k=4, lambda_=0.01, alpha=0.1, beta=0.01)
        run = RunConfig(duration=0.005, eval_interval=0.001)
        bad = init_factors(train.n_rows + 1, train.n_cols, 4,
                           RngFactory(0).stream("bad"))
        with pytest.raises(ConfigError):
            NomadSimulation(train, test, cluster, hyper, run, factors=bad)

    def test_factor_k_mismatch_rejected(self, tiny_split):
        train, test = tiny_split
        cluster = Cluster(1, 2, HPC_PROFILE)
        hyper = HyperParams(k=4, lambda_=0.01, alpha=0.1, beta=0.01)
        run = RunConfig(duration=0.005, eval_interval=0.001)
        bad = init_factors(train.n_rows, train.n_cols, 6,
                           RngFactory(0).stream("bad"))
        with pytest.raises(ConfigError):
            NomadSimulation(train, test, cluster, hyper, run, factors=bad)

    def test_shape_mismatch_rejected(self, tiny_split, small_split):
        train, _ = tiny_split
        _, other_test = small_split
        cluster = Cluster(1, 2, HPC_PROFILE)
        with pytest.raises(ConfigError):
            NomadSimulation(
                train, other_test, cluster,
                HyperParams(k=4), RunConfig(duration=0.01, eval_interval=0.002),
            )


class TestSerializabilityOfNomad:
    """The paper's central claim, checked mechanically."""

    def test_update_log_is_serializable(self, tiny_split):
        train, test = tiny_split
        options = NomadOptions(record_updates=True)
        sim, _ = run_nomad(train, test, machines=2, cores=2, options=options)
        assert len(sim.update_log) > 100
        assert is_serializable(sim.update_log)
        # The same event sequence as before the column stores became CSC
        # arrays (digest recorded on that commit; every backend agrees).
        digest = hashlib.sha256()
        for event in sim.update_log:
            digest.update(
                struct.pack(
                    "<5q", event.seq, event.worker, event.row, event.col,
                    event.count,
                )
            )
        assert digest.hexdigest() == (
            "cc13d77d0d2807098f89136d387c2ac2140817b149dffc2eb771b45fb73370b3"
        )

    def test_serial_replay_reproduces_factors(self, tiny_split):
        """Replaying the log serially gives identical factors.

        This is serializability in action: an equivalent *serial* execution
        produces bit-identical results, because conflicting updates keep
        their observed order and non-conflicting updates commute exactly.
        The replay runs the visit log through the run's own kernel; the
        hand-written loop below re-derives each update from the update log
        in commit order, independently of any kernel.
        """
        train, test = tiny_split
        options = NomadOptions(record_updates=True)
        hyper = HyperParams(k=4, lambda_=0.01, alpha=0.1, beta=0.01)
        run = RunConfig(duration=0.005, eval_interval=0.001, seed=7)
        cluster = Cluster(2, 2, HPC_PROFILE)
        sim = NomadSimulation(train, test, cluster, hyper, run, options=options)
        sim.run()
        final = sim.factors

        start = init_factors(
            train.n_rows, train.n_cols, hyper.k, RngFactory(run.seed).stream("init")
        )
        replayed = replay(sim.visits, sim.shards, start, hyper, sim.kernel_backend)
        assert np.array_equal(replayed.w, final.w)
        assert np.array_equal(replayed.h, final.h)

        ratings = {
            (int(i), int(j)): float(v)
            for i, j, v in zip(train.rows, train.cols, train.vals)
        }
        w, h = start.w.copy(), start.h.copy()
        for event in sim.update_log:
            step = hyper.alpha / (1.0 + hyper.beta * event.count ** 1.5)
            rating = ratings[(event.row, event.col)]
            w_row = w[event.row]
            h_col = h[event.col]
            error = float(np.dot(w_row, h_col)) - rating
            scaled = step * error
            decay = 1.0 - step * hyper.lambda_
            w_new = decay * w_row - scaled * h_col
            h_new = decay * h_col - scaled * w_row
            w[event.row] = w_new
            h[event.col] = h_new

        assert np.allclose(final.w, w, atol=1e-9)
        assert np.allclose(final.h, h, atol=1e-9)


class TestTokens:
    def test_token_circulation_order(self, tiny_split):
        # Under §3.4 circulation a token's stops come in tours: each run
        # of `cores` arrivals after its first finish visits every worker
        # of the machine exactly once, in the order its tour was drawn.
        # A policy subclass keeps the run on the Python handlers, whose
        # _deliver_token this observes; TestCompiledSchedule holds the
        # compiled schedule's tours to them.
        arrivals: dict[int, list[int]] = {}

        class Recording(NomadSimulation):
            def _deliver_token(self, q, token):
                arrivals.setdefault(token.item, []).append(q)
                super()._deliver_token(q, token)

        train, test = tiny_split
        sim = Recording(
            train, test, Cluster(1, 4, HPC_PROFILE),
            HyperParams(k=4, lambda_=0.01, alpha=0.1, beta=0.01),
            RunConfig(duration=0.01, eval_interval=0.002, seed=7),
            options=NomadOptions(policy=_PythonUniform()),
        )
        sim.run()
        tours = 0
        for stops in arrivals.values():
            for start in range(0, len(stops), 4):
                tour = stops[start:start + 4]
                assert len(set(tour)) == len(tour)
                tours += len(tour) == 4
        assert tours > train.n_cols
        token = ItemToken(item=3, circulation=[5, 7])
        assert token.circulation == [5, 7]

    def test_repr(self):
        token = ItemToken(item=3)
        assert "item=3" in repr(token)


class TestGenericLosses:
    """The §6 extension: NOMAD over arbitrary separable losses."""

    def test_huber_loss_converges(self, small_split):
        from repro.linalg.losses import HuberLoss

        train, test = small_split
        options = NomadOptions(loss=HuberLoss(delta=1.0))
        run = RunConfig(duration=0.03, eval_interval=0.005, seed=3)
        _, trace = run_nomad(train, test, options=options, run=run)
        assert trace.final_rmse() < 0.6

    def test_absolute_loss_converges(self, small_split):
        from repro.linalg.losses import AbsoluteLoss

        train, test = small_split
        hyper = HyperParams(k=4, lambda_=0.001, alpha=0.05, beta=0.005)
        options = NomadOptions(loss=AbsoluteLoss())
        run = RunConfig(duration=0.05, eval_interval=0.01, seed=3)
        _, trace = run_nomad(train, test, options=options, run=run, hyper=hyper)
        assert trace.final_rmse() < trace.records[0].rmse * 0.5

    def test_explicit_squared_loss_normalized_to_fast_path(self):
        from repro.linalg.losses import SquaredLoss

        options = NomadOptions(loss=SquaredLoss())
        assert options.loss is None

    def test_non_loss_rejected_at_construction(self):
        """A loss that is not a ``Loss`` is a configuration error when
        the options are built, not an ``AttributeError`` at the first
        token finish."""
        with pytest.raises(ConfigError, match="loss"):
            NomadOptions(loss="huber")

    def test_squared_generic_kernel_matches_fast_kernel(self):
        """A kernel bound with ``SquaredLoss()`` gives the bits of one
        bound with ``loss=None``, on every backend."""
        from repro.linalg.backends import get_backend
        from repro.linalg.losses import SquaredLoss

        rng = np.random.default_rng(0)
        w0, h0 = rng.random((6, 4)), rng.random((3, 4))
        indptr = np.array([0, 5, 5, 12], dtype=np.int64)
        users = np.concatenate([
            np.sort(rng.choice(6, 5, replace=False)),
            np.sort(rng.choice(6, 6, replace=False)),
            [2],
        ]).astype(np.int64)
        ratings = rng.random(12)
        for name in ["list", "cext"] if cext_available() else ["list"]:
            sides = []
            for loss in (None, SquaredLoss()):
                w, h = w0.copy(), h0.copy()
                counts = np.zeros(12, dtype=np.int64)
                kernel = get_backend(name).bind_tokens(
                    w, h, indptr, users, ratings, counts, 0.1, 0.02, 0.05, loss
                )
                kernel.process_tokens(np.array([0, 2, 1, 2, 0], dtype=np.int64))
                sides.append((w, h, counts))
            (w_a, h_a, counts_a), (w_b, h_b, counts_b) = sides
            assert np.array_equal(w_a, w_b) and np.array_equal(h_a, h_b), name
            assert np.array_equal(counts_a, counts_b), name
            assert not np.array_equal(w_a, w0), name
