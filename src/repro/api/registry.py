"""Engine and algorithm registries behind :func:`repro.fit`.

Two registries make the facade extensible without new public classes:

* :data:`ALGORITHMS` — every optimizer, keyed by canonical name, with the
  set of engines it runs on (its *capability flags*) and the simulation
  class used on the simulated engine.
* :data:`ENGINES` — every execution substrate, keyed by name, each
  contributing one runner callable ``(FitRequest) -> FitResult``.

A new engine (numba kernels, a gossip topology, a multi-host transport)
is one :func:`register_engine` call plus capability flags on the
algorithms it supports — the ``"cluster"`` socket engine entered exactly
this way; a new algorithm is one :func:`register_algorithm` call.  Lookup
is case-insensitive and alias-aware (``"fpsgd"`` → ``"FPSGD**"``), and an
unsupported (algorithm, engine) pair fails eagerly with a
:class:`~repro.errors.ConfigError` listing every valid combination.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Callable

from ..baselines import (
    CCDPlusPlusSimulation,
    DSGDPlusPlusSimulation,
    DSGDSimulation,
    FPSGDSimulation,
    GraphLabALSSimulation,
    HogwildSimulation,
)
from ..config import HyperParams, RunConfig
from ..core.nomad import NomadOptions, NomadSimulation
from ..datasets.ratings import RatingMatrix
from ..errors import ConfigError
from ..linalg.factors import FactorPair
from ..simulator.cluster import Cluster
from .result import FitResult

__all__ = [
    "AlgorithmSpec",
    "EngineSpec",
    "FitRequest",
    "ALGORITHMS",
    "ENGINES",
    "register_algorithm",
    "register_engine",
    "resolve_algorithm",
    "resolve_engine",
    "check_pair",
    "supported_pairs",
    "resolve_workers",
    "resolve_wall_clock_run",
    "reject_extra_kwargs",
    "DEFAULT_WORKERS",
]

#: Engine names understood by the stock algorithm specs.
SIMULATED = "simulated"
THREADED = "threaded"
MULTIPROCESS = "multiprocess"
CLUSTER = "cluster"


@dataclass(frozen=True)
class AlgorithmSpec:
    """One optimizer, as the facade sees it.

    Attributes
    ----------
    name:
        Canonical display name (``"NOMAD"``, ``"DSGD++"``, ...); also the
        registry key and the ``algorithm`` field of the eventual
        :class:`~repro.api.result.FitResult`.
    engines:
        Capability flags: names of the engines this algorithm runs on.
    simulated:
        Simulation class constructed by the simulated engine, with the
        uniform ``(train, test, cluster, hyper, run, **kwargs)``
        signature.  ``None`` for algorithms that only run on live
        engines.
    aliases:
        Extra lookup names (matched case-insensitively, like the
        canonical name itself).
    description:
        One-line provenance note for listings.
    accepts_nomad_options:
        Whether the simulation constructor takes the ``options=``
        :class:`~repro.core.nomad.NomadOptions` keyword.
    """

    name: str
    engines: frozenset[str]
    simulated: type | None = None
    aliases: tuple[str, ...] = ()
    description: str = ""
    accepts_nomad_options: bool = False

    def supports(self, engine_name: str) -> bool:
        """Whether this algorithm runs on the named engine."""
        return engine_name in self.engines


@dataclass(frozen=True)
class EngineSpec:
    """One execution substrate: a name plus its runner callable."""

    name: str
    runner: Callable[["FitRequest"], FitResult]
    description: str = ""


@dataclass
class FitRequest:
    """Everything :func:`repro.fit` assembled for an engine runner.

    ``run=None`` means the caller did not configure execution; each
    engine substitutes its own sensible default (the simulated engine
    the :class:`RunConfig` defaults, the wall-clock engines
    :func:`resolve_wall_clock_run`'s).  ``extra`` carries algorithm-specific
    constructor keywords (e.g. ``refresh_period`` for Hogwild,
    ``inner_iters`` for CCD++); engines that cannot honor them must
    reject rather than ignore.
    """

    algorithm: AlgorithmSpec
    engine: EngineSpec
    train: RatingMatrix
    test: RatingMatrix
    hyper: HyperParams
    run: RunConfig | None = None
    cluster: Cluster | None = None
    n_workers: int | None = None
    options: NomadOptions | None = None
    factors: FactorPair | None = None
    #: Record per-worker telemetry (:mod:`repro.telemetry`) and attach
    #: the merged RunTelemetry to ``FitResult.telemetry``.
    telemetry: bool = False
    extra: dict = field(default_factory=dict)


#: Worker count the live engines use when neither ``n_workers`` nor a
#: cluster is given.
DEFAULT_WORKERS = 2


def resolve_workers(n_workers: int | None, cluster: Cluster | None = None) -> int:
    """The one worker-count policy of every live engine: explicit value,
    else the cluster's count, else :data:`DEFAULT_WORKERS`."""
    if n_workers is not None:
        return n_workers
    if cluster is not None:
        return cluster.n_workers
    return DEFAULT_WORKERS


def resolve_wall_clock_run(run: RunConfig | None) -> RunConfig:
    """The one ``run=None`` policy of the live runtimes: ``run`` itself,
    else a 1 s wall budget at seed 0 on ``$NOMAD_KERNEL_BACKEND`` (else
    ``"auto"``).  Built per call, because
    :class:`~repro.config.RunConfig` reads the environment when it is
    constructed."""
    if run is not None:
        return run
    return RunConfig(duration=1.0)


def reject_extra_kwargs(
    engine_name: str, extra: dict, allowed: frozenset[str] = frozenset()
) -> None:
    """Fail eagerly on keywords an engine cannot honor (never ignore)."""
    unsupported = set(extra) - allowed
    if unsupported:
        raise ConfigError(
            f"unsupported keyword(s) for engine {engine_name!r}: "
            f"{sorted(unsupported)}"
        )


#: Algorithm registry: canonical name → spec.
ALGORITHMS: dict[str, AlgorithmSpec] = {}

#: Engine registry: engine name → spec.  Populated by
#: :mod:`repro.api.engines` at import time; future engines register here.
ENGINES: dict[str, EngineSpec] = {}

#: Lowercased lookup index over canonical names and aliases.
_ALGORITHM_INDEX: dict[str, str] = {}


def register_algorithm(spec: AlgorithmSpec) -> AlgorithmSpec:
    """Add an algorithm to the registry (canonical name must be unused).

    Registration is atomic: every name/alias is validated before any
    index entry is written, so a rejected spec leaves the registry
    exactly as it was.  Capability flags are case-folded to match the
    (case-folded) engine registry keys.
    """
    if spec.name in ALGORITHMS:
        raise ConfigError(f"algorithm {spec.name!r} is already registered")
    for key in (spec.name, *spec.aliases):
        claimed = _ALGORITHM_INDEX.get(key.lower())
        if claimed is not None and claimed != spec.name:
            raise ConfigError(
                f"algorithm name/alias {key!r} is already taken by {claimed!r}"
            )
    folded_engines = frozenset(e.strip().lower() for e in spec.engines)
    if folded_engines != spec.engines:
        spec = dataclasses.replace(spec, engines=folded_engines)
    for key in (spec.name, *spec.aliases):
        _ALGORITHM_INDEX[key.lower()] = spec.name
    ALGORITHMS[spec.name] = spec
    return spec


def register_engine(spec: EngineSpec) -> EngineSpec:
    """Add an engine to the registry (name must be unused).

    Engine names are case-folded so :func:`resolve_engine`'s
    case-insensitive lookup always finds what was registered.
    """
    folded = spec.name.strip().lower()
    if folded != spec.name:
        spec = dataclasses.replace(spec, name=folded)
    if spec.name in ENGINES:
        raise ConfigError(f"engine {spec.name!r} is already registered")
    ENGINES[spec.name] = spec
    return spec


def resolve_algorithm(name: str) -> AlgorithmSpec:
    """Case-insensitive, alias-aware algorithm lookup."""
    if not isinstance(name, str):
        raise ConfigError(f"algorithm must be a string, got {type(name).__name__}")
    canonical = _ALGORITHM_INDEX.get(name.strip().lower())
    if canonical is None:
        raise ConfigError(
            f"unknown algorithm {name!r}; available: {sorted(ALGORITHMS)}"
        )
    return ALGORITHMS[canonical]


def resolve_engine(name: str) -> EngineSpec:
    """Case-insensitive engine lookup."""
    if not isinstance(name, str):
        raise ConfigError(f"engine must be a string, got {type(name).__name__}")
    spec = ENGINES.get(name.strip().lower())
    if spec is None:
        raise ConfigError(
            f"unknown engine {name!r}; available: {sorted(ENGINES)}"
        )
    return spec


def supported_pairs() -> list[tuple[str, str]]:
    """Every valid (algorithm, engine) combination, sorted for display."""
    return sorted(
        (spec.name, engine)
        for spec in ALGORITHMS.values()
        for engine in sorted(spec.engines)
        if engine in ENGINES
    )


def check_pair(algorithm: AlgorithmSpec, engine: EngineSpec) -> None:
    """Raise :class:`ConfigError` unless the pair is declared supported."""
    if algorithm.supports(engine.name):
        return
    matrix = "; ".join(
        f"{spec.name}: {', '.join(sorted(spec.engines))}"
        for spec in sorted(ALGORITHMS.values(), key=lambda s: s.name)
    )
    raise ConfigError(
        f"algorithm {algorithm.name!r} does not run on engine "
        f"{engine.name!r}; supported combinations — {matrix}"
    )


_ALL_ENGINES = frozenset({SIMULATED, THREADED, MULTIPROCESS, CLUSTER})
_SIM_ONLY = frozenset({SIMULATED})

register_algorithm(
    AlgorithmSpec(
        name="NOMAD",
        engines=_ALL_ENGINES,
        simulated=NomadSimulation,
        description="Yun et al.'s asynchronous decentralized SGD (Alg. 1)",
        accepts_nomad_options=True,
    )
)
register_algorithm(
    AlgorithmSpec(
        name="DSGD",
        engines=_SIM_ONLY,
        simulated=DSGDSimulation,
        description="Gemulla et al.'s bulk-synchronous block SGD",
    )
)
register_algorithm(
    AlgorithmSpec(
        name="DSGD++",
        engines=_SIM_ONLY,
        simulated=DSGDPlusPlusSimulation,
        aliases=("dsgdpp", "dsgd_pp"),
        description="Teflioudi et al.'s DSGD++ (overlapped communication)",
    )
)
register_algorithm(
    AlgorithmSpec(
        name="FPSGD**",
        engines=_SIM_ONLY,
        simulated=FPSGDSimulation,
        aliases=("fpsgd",),
        description="Zhuang et al.'s shared-memory FPSGD**",
    )
)
register_algorithm(
    AlgorithmSpec(
        name="CCD++",
        engines=_SIM_ONLY,
        simulated=CCDPlusPlusSimulation,
        aliases=("ccd", "ccdpp"),
        description="Yu et al.'s feature-wise coordinate descent",
    )
)
register_algorithm(
    AlgorithmSpec(
        name="GraphLab-ALS",
        engines=_SIM_ONLY,
        simulated=GraphLabALSSimulation,
        aliases=("graphlab", "graphlab_als"),
        description="GraphLab-style distributed-lock asynchronous ALS",
    )
)
register_algorithm(
    AlgorithmSpec(
        name="Hogwild",
        engines=_SIM_ONLY,
        simulated=HogwildSimulation,
        description="lock-free shared-memory SGD with stale reads",
    )
)
