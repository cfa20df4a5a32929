"""Miscellaneous edge cases: error hierarchy, doctests, engine guards."""

from __future__ import annotations

import ast
import doctest
import types
from pathlib import Path

import pytest

import repro
import repro.model
import repro.rng
import repro.simulator.engine
from repro.baselines.base import ClockedOptimizer
from repro.config import HyperParams, RunConfig
from repro.core.nomad import NomadSimulation
from repro.errors import (
    ConfigError,
    DataError,
    ExperimentError,
    ReproError,
    SimulationError,
)
from repro.runtime.result import LiveNomad
from repro.simulator.cluster import Cluster
from repro.simulator.engine import Simulator
from repro.simulator.network import HPC_PROFILE
from repro.stream.dynamic import DynamicNomad

REPO_ROOT = Path(__file__).resolve().parents[1]


def _top_level_names(path: Path) -> set[str]:
    """Names a file takes from ``repro`` itself: ``from repro import X``
    and ``repro.X`` attribute reads (submodules and dunders excluded)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.module == "repro":
            names.update(alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "repro"
            and not node.attr.startswith("__")
            and not isinstance(getattr(repro, node.attr, None), types.ModuleType)
        ):
            names.add(node.attr)
    return names


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "subclass", [ConfigError, DataError, SimulationError, ExperimentError]
    )
    def test_all_derive_from_repro_error(self, subclass):
        assert issubclass(subclass, ReproError)

    def test_catching_base_catches_all(self):
        with pytest.raises(ReproError):
            raise DataError("x")


class TestDoctests:
    @pytest.mark.parametrize(
        "module", [repro.rng, repro.simulator.engine, repro.model]
    )
    def test_module_doctests_pass(self, module):
        failures, _ = doctest.testmod(module)
        assert failures == 0


class TestEngineGuards:
    def test_run_not_reentrant(self):
        sim = Simulator()

        def recurse():
            sim.run()

        sim.schedule_at(0.0, recurse)
        with pytest.raises(SimulationError, match="reentrant"):
            sim.run()


class TestPublicAPI:
    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_callers_outside_the_package_use_only_exported_names(self):
        used = {}
        for folder in ("examples", "bench", "benchmarks"):
            for path in sorted((REPO_ROOT / folder).rglob("*.py")):
                for name in _top_level_names(path):
                    used.setdefault(name, path.relative_to(REPO_ROOT))
        assert used, "no caller of repro found"
        missing = {name: str(path) for name, path in used.items()
                   if name not in repro.__all__}
        assert not missing

    def test_no_trainer_class_exported(self):
        """Trainers are reached through fit / fit_stream; their classes
        stay importable from their own modules only."""
        trainers = (ClockedOptimizer, LiveNomad, NomadSimulation,
                    DynamicNomad, Simulator)
        exported = [
            name for name in repro.__all__
            if isinstance(getattr(repro, name), type)
            and issubclass(getattr(repro, name), trainers)
        ]
        assert not exported


class TestNomadHopCounters:
    def test_hops_counted(self, tiny_split):
        train, test = tiny_split
        cluster = Cluster(2, 2, HPC_PROFILE)
        sim = NomadSimulation(
            train, test, cluster,
            HyperParams(k=4, lambda_=0.01, alpha=0.1, beta=0.01),
            RunConfig(duration=0.005, eval_interval=0.001, seed=1),
        )
        sim.run()
        assert sim.network_hops > 0
        assert sim.local_hops > 0

    def test_single_machine_all_local(self, tiny_split):
        train, test = tiny_split
        cluster = Cluster(1, 4, HPC_PROFILE)
        sim = NomadSimulation(
            train, test, cluster,
            HyperParams(k=4, lambda_=0.01, alpha=0.1, beta=0.01),
            RunConfig(duration=0.005, eval_interval=0.001, seed=1),
        )
        sim.run()
        assert sim.network_hops == 0
        assert sim.local_hops > 0
