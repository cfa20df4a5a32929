"""Tests for the unified solver facade (repro.fit, registries, FitResult)."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.api import (
    ALGORITHMS,
    ENGINES,
    AlgorithmSpec,
    EngineSpec,
    fit,
    register_algorithm,
    register_engine,
    resolve_algorithm,
    resolve_engine,
    supported_pairs,
)
from repro.api.result import FitResult, FitTiming
from repro.config import HyperParams, RunConfig
from repro.core.nomad import NomadOptions, NomadSimulation
from repro.errors import ConfigError
from repro.linalg.backends import BACKENDS
from repro.linalg.factors import init_factors
from repro.linalg.objective import test_rmse as compute_test_rmse
from repro.model import CompletionModel
from repro.rng import derive_rng
from repro.runtime.result import RuntimeResult
from repro.simulator.cluster import Cluster
from repro.simulator.network import HPC_PROFILE
from repro.stream.dynamic import DynamicNomad

HYPER = HyperParams(k=4, lambda_=0.01, alpha=0.1, beta=0.01)
SIM_RUN = RunConfig(duration=0.005, eval_interval=0.001, seed=3)
#: Real wall seconds for the live-engine smoke runs — short but long
#: enough for every worker to apply updates.
LIVE_RUN = RunConfig(duration=0.25, eval_interval=0.25, seed=3)


class TestRegistries:
    def test_stock_engines_registered(self):
        assert {"simulated", "threaded", "multiprocess", "cluster"} == set(
            ENGINES
        )

    def test_stock_algorithms_registered(self):
        expected = {"NOMAD", "DSGD", "DSGD++", "FPSGD**", "CCD++",
                    "GraphLab-ALS", "Hogwild"}
        assert expected == set(ALGORITHMS)

    def test_lookup_is_case_insensitive(self):
        assert resolve_algorithm("nomad").name == "NOMAD"
        assert resolve_algorithm("NoMaD").name == "NOMAD"
        assert resolve_engine("SIMULATED").name == "simulated"

    def test_lookup_honors_aliases(self):
        assert resolve_algorithm("fpsgd").name == "FPSGD**"
        assert resolve_algorithm("ccd").name == "CCD++"
        assert resolve_algorithm("graphlab").name == "GraphLab-ALS"
        assert resolve_algorithm("dsgdpp").name == "DSGD++"

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigError, match="unknown algorithm"):
            resolve_algorithm("svd++")

    @pytest.mark.parametrize("name", ["als", "serial"])
    def test_deleted_algorithms_are_unknown(self, tiny_split, name):
        """Plain ALS and SerialSGD are gone, with no alias onto another
        algorithm: GraphLab-ALS charges different simulated time."""
        train, test = tiny_split
        with pytest.raises(ConfigError, match="unknown algorithm"):
            fit(train, test, algorithm=name, engine="simulated")

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigError, match="unknown engine"):
            resolve_engine("gpu")

    def test_dynamic_is_an_unknown_engine(self, tiny_split):
        """The streaming trainer is reached through fit_stream only; a
        static fit on it is an unknown engine, not an alias."""
        train, test = tiny_split
        with pytest.raises(ConfigError, match="unknown engine"):
            fit(train, test, engine="dynamic")

    def test_capability_flags(self):
        assert ALGORITHMS["NOMAD"].engines == {
            "simulated", "threaded", "multiprocess", "cluster"
        }
        for name, spec in ALGORITHMS.items():
            if name != "NOMAD":
                assert spec.engines == {"simulated"}, name

    def test_stream_capability_flags(self):
        """There are none: fit_stream runs one trainer, so neither
        registry carries a streaming half."""
        import repro.api

        for name in ("StreamRequest", "check_stream_pair",
                     "supported_stream_pairs"):
            assert not hasattr(repro, name), name
            assert not hasattr(repro.api, name), name
        assert not hasattr(AlgorithmSpec, "stream_engines")
        assert not hasattr(AlgorithmSpec, "supports_stream")
        assert not hasattr(EngineSpec, "stream_runner")
        assert not hasattr(EngineSpec, "supports_stream")

    def test_supported_pairs_matrix(self):
        pairs = supported_pairs()
        # 7 algorithms on simulated + NOMAD on the three live engines.
        assert len(pairs) == len(ALGORITHMS) + 3
        assert ("NOMAD", "threaded") in pairs
        assert ("NOMAD", "cluster") in pairs
        assert ("DSGD", "threaded") not in pairs
        assert ("DSGD", "cluster") not in pairs

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigError, match="already registered"):
            register_algorithm(
                AlgorithmSpec(name="NOMAD", engines=frozenset({"simulated"}))
            )
        with pytest.raises(ConfigError, match="already registered"):
            register_engine(
                EngineSpec(name="simulated", runner=lambda request: None)
            )

    def test_alias_collision_rejected_atomically(self):
        with pytest.raises(ConfigError, match="already taken"):
            register_algorithm(
                AlgorithmSpec(
                    name="MyCCD",
                    engines=frozenset({"simulated"}),
                    aliases=("ccd",),
                )
            )
        assert "MyCCD" not in ALGORITHMS
        # Registration is atomic: the rejected spec's own name was not
        # half-written into the lookup index (a lookup raises the normal
        # ConfigError, not a KeyError from a dangling index entry).
        with pytest.raises(ConfigError, match="unknown algorithm"):
            resolve_algorithm("myccd")

    def test_top_level_exports(self):
        assert repro.fit is fit
        assert repro.ALGORITHMS is ALGORITHMS
        assert repro.ENGINES is ENGINES
        assert repro.FitResult is FitResult
        assert repro.FitTiming is FitTiming


class TestPairRejection:
    def test_baseline_on_live_engine_rejected(self, tiny_split):
        train, test = tiny_split
        with pytest.raises(ConfigError) as excinfo:
            fit(train, test, algorithm="dsgd", engine="threaded")
        message = str(excinfo.value)
        # The error names the pair and lists the full support matrix.
        assert "'DSGD'" in message and "'threaded'" in message
        assert (
            "NOMAD: cluster, multiprocess, simulated, threaded"
            in message
        )
        assert "DSGD: simulated" in message

    def test_every_undeclared_pair_rejected(self, tiny_split):
        train, test = tiny_split
        declared = set(supported_pairs())
        for algorithm in ALGORITHMS:
            for engine in ENGINES:
                if (algorithm, engine) in declared:
                    continue
                with pytest.raises(ConfigError):
                    fit(train, test, algorithm=algorithm, engine=engine)


class TestFitSimulated:
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_smoke_every_algorithm(self, tiny_split, algorithm):
        train, test = tiny_split
        result = fit(
            train, test, algorithm=algorithm, engine="simulated",
            hyper=HYPER, run=SIM_RUN,
            cluster=Cluster(1, 2, HPC_PROFILE, jitter=0.0),
        )
        assert result.algorithm == ALGORITHMS[algorithm].name
        assert result.engine == "simulated"
        assert len(result.trace) >= 2
        assert result.timing.simulated_seconds == pytest.approx(
            result.trace.duration()
        )
        assert result.timing.wall_seconds > 0
        assert result.timing.join_seconds == 0.0
        assert np.all(np.isfinite(result.factors.w))
        assert np.all(np.isfinite(result.factors.h))

    def test_matches_direct_nomad_simulation(self, tiny_split):
        """fit(engine='simulated') is the pre-redesign class, record for
        record, at a fixed seed."""
        train, test = tiny_split
        cluster = Cluster(2, 2, HPC_PROFILE)
        direct = NomadSimulation(train, test, cluster, HYPER, SIM_RUN)
        direct_trace = direct.run()

        result = fit(
            train, test, algorithm="nomad", engine="simulated",
            hyper=HYPER, run=SIM_RUN, cluster=Cluster(2, 2, HPC_PROFILE),
        )
        assert result.trace.records == direct_trace.records
        assert np.array_equal(result.factors.w, direct.factors.w)
        assert np.array_equal(result.factors.h, direct.factors.h)
        assert result.timing.updates == direct.total_updates

    def test_model_predicts(self, tiny_split):
        train, test = tiny_split
        result = fit(train, test, hyper=HYPER, run=SIM_RUN)
        model = result.model
        assert isinstance(model, CompletionModel)
        assert result.model is model  # cached, not rebuilt
        assert np.isfinite(model.predict_one(0, 0))
        recommendations = model.recommend(0, top_n=3)
        assert len(recommendations) == 3

    def test_test_defaults_to_train(self, tiny_split):
        train, _ = tiny_split
        result = fit(train, hyper=HYPER, run=SIM_RUN)
        assert result.trace.final_rmse() < result.trace.records[0].rmse

    def test_raw_exposes_simulation(self, tiny_split):
        train, test = tiny_split
        result = fit(
            train, test, hyper=HYPER, run=SIM_RUN,
            options=NomadOptions(record_updates=True),
        )
        assert isinstance(result.raw, NomadSimulation)
        assert result.raw.update_log

    def test_algorithm_kwargs_forwarded(self, tiny_split):
        train, test = tiny_split
        result = fit(
            train, test, algorithm="hogwild", hyper=HYPER, run=SIM_RUN,
            cluster=Cluster(1, 2, HPC_PROFILE),
            refresh_period=4, record_updates=True,
        )
        assert result.raw.refresh_period == 4
        assert result.raw.update_log

    def test_options_rejected_for_baselines(self, tiny_split):
        train, test = tiny_split
        with pytest.raises(ConfigError, match="only applies to NOMAD"):
            fit(
                train, test, algorithm="dsgd", hyper=HYPER, run=SIM_RUN,
                options=NomadOptions(),
            )

    def test_non_rating_matrix_rejected(self):
        with pytest.raises(ConfigError, match="RatingMatrix"):
            fit(np.zeros((3, 3)))

    def test_shared_factors_forwarded(self, tiny_split):
        """The §5.1 shared-initialization protocol works through fit()."""
        from repro.linalg.factors import init_factors
        from repro.rng import RngFactory

        train, test = tiny_split
        factors = init_factors(
            train.n_rows, train.n_cols, HYPER.k, RngFactory(99).stream("init")
        )
        result = fit(
            train, test, hyper=HYPER, run=SIM_RUN, init_factors=factors,
        )
        assert result.trace.records[0].rmse == pytest.approx(
            fit(
                train, test, algorithm="dsgd", hyper=HYPER, run=SIM_RUN,
                init_factors=factors,
            ).trace.records[0].rmse
        )


class TestFitLiveEngines:
    @pytest.mark.parametrize("engine", ["threaded", "multiprocess", "cluster"])
    def test_smoke(self, tiny_split, engine):
        train, test = tiny_split
        result = fit(
            train, test, algorithm="nomad", engine=engine,
            hyper=HYPER, run=LIVE_RUN, n_workers=2,
        )
        assert result.engine == engine
        assert result.timing.updates > 0
        assert result.timing.simulated_seconds is None
        assert result.timing.updates_per_worker is not None
        assert len(result.timing.updates_per_worker) == 2
        assert sum(result.timing.updates_per_worker) == result.timing.updates
        # Two-point trace: initialization at t=0, final model at wall time.
        assert len(result.trace) == 2
        assert result.trace.records[0].time == 0.0
        assert result.trace.records[0].updates == 0
        assert result.trace.records[-1].rmse == pytest.approx(
            result.final_rmse()
        )
        assert isinstance(result.raw, RuntimeResult)
        assert result.kernel_backend in ("list", "cext")
        assert np.isfinite(result.model.predict_one(0, 0))

    def test_default_run_uses_runtime_one_second_budget(self, tiny_split):
        """fit(engine='threaded') with no run= runs the wall-clock
        engines' 1-second default, not RunConfig's 10 seconds (the
        runtimes themselves require a RunConfig)."""
        train, test = tiny_split
        result = fit(train, test, engine="threaded", hyper=HYPER,
                     n_workers=1)
        assert 1.0 <= result.timing.wall_seconds < 1.0 + 0.6

    def test_workers_from_cluster(self, tiny_split):
        train, test = tiny_split
        result = fit(
            train, test, engine="threaded", hyper=HYPER, run=LIVE_RUN,
            cluster=Cluster(1, 3, HPC_PROFILE),
        )
        assert len(result.timing.updates_per_worker) == 3

    def test_options_rejected(self, tiny_split):
        train, test = tiny_split
        with pytest.raises(ConfigError, match="simulated engine"):
            fit(
                train, test, engine="threaded", hyper=HYPER, run=LIVE_RUN,
                options=NomadOptions(),
            )

    @pytest.mark.parametrize("engine", ["threaded", "multiprocess", "cluster"])
    def test_warm_start_honored(self, tiny_split, engine):
        """init_factors= threads through the live engines: the t=0 trace
        point is the warm start's RMSE and the caller's arrays survive."""
        from repro.linalg.factors import init_factors
        from repro.linalg.objective import test_rmse
        from repro.rng import RngFactory

        train, test = tiny_split
        warm = fit(
            train, test, hyper=HYPER, run=SIM_RUN,
        ).factors
        w_before, h_before = warm.w.copy(), warm.h.copy()
        result = fit(
            train, test, engine=engine, hyper=HYPER, run=LIVE_RUN,
            n_workers=2, init_factors=warm,
        )
        assert result.trace.records[0].rmse == pytest.approx(
            test_rmse(warm, test)
        )
        assert np.array_equal(warm.w, w_before)
        assert np.array_equal(warm.h, h_before)
        # A warm model should never be *worse* than where it started by
        # much; allow slack for short asynchronous runs.
        assert result.final_rmse() < result.trace.records[0].rmse * 1.10

    def test_warm_start_shape_mismatch_rejected(self, tiny_split):
        from repro.linalg.factors import init_factors
        from repro.rng import RngFactory

        train, test = tiny_split
        bad = init_factors(3, 3, HYPER.k, RngFactory(0).stream("init"))
        for engine in ("simulated", "threaded", "multiprocess", "cluster"):
            with pytest.raises(ConfigError, match="init factors"):
                fit(
                    train, test, engine=engine, hyper=HYPER, run=LIVE_RUN,
                    init_factors=bad,
                )

    def test_legacy_factors_alias_rejected(self, tiny_split):
        """fit() has no factors= keyword, and it must not leak through
        **algorithm_kwargs either — into a simulation constructor
        (unvalidated) or out as an engine's "unsupported keyword"."""
        from repro.linalg.factors import init_factors
        from repro.rng import RngFactory

        train, test = tiny_split
        factors = init_factors(
            train.n_rows, train.n_cols, HYPER.k, RngFactory(0).stream("init")
        )
        for engine in ("simulated", "threaded", "multiprocess", "cluster"):
            with pytest.raises(ConfigError, match="init_factors="):
                fit(
                    train, test, engine=engine, hyper=HYPER, run=LIVE_RUN,
                    factors=factors,
                )
        with pytest.raises(ConfigError, match="init_factors="):
            fit(
                train, test, hyper=HYPER, run=SIM_RUN,
                init_factors=factors, factors=factors,
            )

    def test_unknown_kwargs_rejected(self, tiny_split):
        train, test = tiny_split
        with pytest.raises(ConfigError, match="refresh_period"):
            fit(
                train, test, engine="threaded", hyper=HYPER, run=LIVE_RUN,
                refresh_period=4,
            )

    def test_bad_n_workers_rejected(self, tiny_split):
        train, test = tiny_split
        with pytest.raises(ConfigError, match="n_workers"):
            fit(train, test, engine="threaded", run=LIVE_RUN, n_workers=0)


class TestSharedStart:
    """§5.1: every algorithm starts "with the same initial parameters".
    One seed is one start on every engine — the pair each trainer
    scores at t=0 is the seed's ``"init"`` draw."""

    RUNS = [
        ("nomad", "simulated", {}),
        ("nomad", "threaded", {}),
        ("nomad", "multiprocess", {}),
        ("nomad", "cluster", {"transport": "loopback"}),
        ("dsgd", "simulated", {}),
    ]

    @pytest.mark.parametrize("seed", [0, 7])
    def test_one_seed_one_start_on_every_engine(self, tiny_split, seed):
        train, test = tiny_split
        drawn = init_factors(
            train.n_rows, train.n_cols, HYPER.k, derive_rng(seed, "init")
        )
        expected = compute_test_rmse(drawn, test)
        for algorithm, engine, extra in self.RUNS:
            duration = SIM_RUN.duration if engine == "simulated" else 0.1
            result = fit(
                train, test, algorithm=algorithm, engine=engine, hyper=HYPER,
                n_workers=2, **extra,
                run=RunConfig(
                    duration=duration, eval_interval=duration, seed=seed
                ),
            )
            assert result.trace.records[0].rmse == expected, (algorithm, engine)
        # The streaming trainer (fit_stream's) starts from the same draw.
        dynamic = DynamicNomad(train, 2, HYPER, RunConfig(seed=seed))
        assert np.array_equal(dynamic.factors.w, drawn.w)
        assert np.array_equal(dynamic.factors.h, drawn.h)


class TestFitResultShape:
    def test_summary_mentions_engine_and_updates(self, tiny_split):
        train, test = tiny_split
        result = fit(train, test, hyper=HYPER, run=SIM_RUN)
        text = result.summary()
        assert "NOMAD" in text and "simulated" in text
        assert f"{result.timing.updates:,}" in text

    def test_repr_omits_raw(self, tiny_split):
        train, test = tiny_split
        result = fit(train, test, hyper=HYPER, run=SIM_RUN)
        assert "raw=" not in repr(result)

    def test_kernel_backend_recorded(self, tiny_split):
        """The result names the backend 'auto' actually resolved to,
        and the summary line repeats it."""
        train, test = tiny_split
        result = fit(train, test, hyper=HYPER, run=SIM_RUN)
        assert result.kernel_backend in BACKENDS
        assert f"[{result.kernel_backend} kernels]" in result.summary()

    def test_updates_per_second_prefers_simulated_clock(self):
        timing = FitTiming(
            wall_seconds=2.0, simulated_seconds=0.5, updates=100
        )
        assert timing.updates_per_second == pytest.approx(200.0)
        live = FitTiming(wall_seconds=2.0, updates=100)
        assert live.updates_per_second == pytest.approx(50.0)


class TestNewEngineRegistration:
    def test_custom_engine_plugs_in(self, tiny_split, monkeypatch):
        """The ROADMAP story: a new substrate is one registry entry."""
        monkeypatch.setattr(
            "repro.api.registry.ENGINES", dict(ENGINES)
        )
        from repro.api import registry as registry_module

        calls = []

        def runner(request):
            calls.append(request.algorithm.name)
            return "sentinel"

        registry_module.register_engine(
            EngineSpec(name="sockets", runner=runner)
        )
        # Not flagged on any algorithm yet: the pair check still guards.
        train, test = tiny_split
        with pytest.raises(ConfigError, match="sockets"):
            fit(train, test, engine="sockets")

    def test_engine_names_case_folded_on_registration(self, monkeypatch):
        """A mixed-case registered name stays reachable through the
        case-insensitive lookup."""
        monkeypatch.setattr("repro.api.registry.ENGINES", dict(ENGINES))
        from repro.api import registry as registry_module

        spec = registry_module.register_engine(
            EngineSpec(name="Numba", runner=lambda request: None)
        )
        assert spec.name == "numba"
        assert registry_module.resolve_engine("Numba") is spec
        assert registry_module.resolve_engine("numba") is spec
