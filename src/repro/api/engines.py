"""The stock execution engines behind :func:`repro.fit`.

Each engine is one runner callable ``(FitRequest) -> FitResult`` plus a
:func:`~repro.api.registry.register_engine` call:

* ``"simulated"`` — the discrete-event cluster simulator; runs every
  registered algorithm and produces the full evaluation-grid trace, with
  simulated seconds on the time axis.
* ``"threaded"`` — real Python threads (protocol validation; GIL-bound).
* ``"multiprocess"`` — real processes over shared-memory factors (true
  parallelism; requires the ``fork`` start method).
* ``"cluster"`` — real worker processes exchanging serialized token
  envelopes over localhost TCP sockets, no shared memory (the paper's
  multi-machine communication path; fork-free, ``spawn``-started).

The live engines run NOMAD only (the paper's baselines are simulated
algorithms); their traces record the endpoints — the pair the runtime
started from at t=0 and the final model at ``wall_seconds`` — on a real
wall-clock axis.

Adding a new engine means writing one runner with this signature,
registering it, and flagging the algorithms it supports; nothing else in
the public API changes.
"""

from __future__ import annotations

import time
from functools import partial

from ..cluster.coordinator import ClusterNomad
from ..config import RunConfig
from ..errors import ConfigError
from ..linalg.objective import test_rmse
from ..runtime.multiprocess import MultiprocessNomad
from ..runtime.result import LiveNomad, RuntimeResult
from ..runtime.threaded import ThreadedNomad
from ..simulator.cluster import Cluster
from ..simulator.network import HPC_PROFILE
from ..simulator.trace import Trace
from ..telemetry import POINT_QUEUE_DEPTH, RunTelemetry, WorkerTelemetry
from .registry import (
    CLUSTER,
    MULTIPROCESS,
    SIMULATED,
    THREADED,
    EngineSpec,
    FitRequest,
    register_engine,
    reject_extra_kwargs,
    resolve_wall_clock_run,
    resolve_workers,
)
from .result import FitResult, FitTiming

__all__ = ["run_simulated", "run_live"]


def run_simulated(request: FitRequest) -> FitResult:
    """Run any registered algorithm on the discrete-event simulator."""
    algorithm = request.algorithm
    if algorithm.simulated is None:
        raise ConfigError(
            f"algorithm {algorithm.name!r} has no simulated implementation"
        )
    run = request.run if request.run is not None else RunConfig()
    cluster = request.cluster
    if cluster is None:
        cluster = Cluster(1, resolve_workers(request.n_workers), HPC_PROFILE)
    kwargs = dict(request.extra)
    if request.options is not None:
        if not algorithm.accepts_nomad_options:
            raise ConfigError(
                f"options=NomadOptions(...) only applies to NOMAD, not "
                f"{algorithm.name!r}"
            )
        kwargs["options"] = request.options
    if request.factors is not None:
        kwargs["factors"] = request.factors
    simulation = algorithm.simulated(
        request.train, request.test, cluster, request.hyper, run, **kwargs,
    )
    started = time.perf_counter()
    trace = simulation.run()
    wall = time.perf_counter() - started
    telemetry = None
    if request.telemetry:
        telemetry = _simulated_telemetry(request, simulation)
    return FitResult(
        algorithm=algorithm.name,
        engine=SIMULATED,
        trace=trace,
        factors=simulation.factors,
        timing=FitTiming(
            wall_seconds=wall,
            join_seconds=0.0,
            simulated_seconds=trace.duration(),
            updates=simulation.total_updates,
            updates_per_worker=None,
        ),
        raw=simulation,
        kernel_backend=getattr(simulation, "kernel_backend", None),
        telemetry=telemetry,
    )


def _simulated_telemetry(request: FitRequest, simulation) -> RunTelemetry:
    """Counter-level telemetry from the virtual-clock substrate.

    The simulator's clock is simulated seconds, not a wall clock, so it
    records no spans; it exposes its own counters (updates, network vs.
    local hops) plus end-of-run queue depths instead, via the
    ``telemetry_counters`` hook on :class:`~repro.core.nomad.NomadSimulation`.
    """
    counters = getattr(simulation, "telemetry_counters", None)
    if counters is None:
        raise ConfigError(
            "telemetry=True on the simulated engine needs a "
            "telemetry_counters() hook, which "
            f"{request.algorithm.name!r} does not provide (NOMAD does); "
            "use a live engine for span-level telemetry"
        )
    data = counters()
    worker = WorkerTelemetry(
        worker_id=0,
        counters={
            name: value
            for name, value in data.items()
            if isinstance(value, int)
        },
        events=[
            (POINT_QUEUE_DEPTH, 0.0, 0.0, depth)
            for depth in data.get("queue_depths", ())
        ],
    )
    return RunTelemetry.from_workers([worker])


def _live_result(
    request: FitRequest, runner: LiveNomad, outcome: RuntimeResult
) -> FitResult:
    """Fold a :class:`RuntimeResult` into the uniform :class:`FitResult`.

    The trace records the run's endpoints on a real-seconds axis: the
    RMSE of the pair the runtime started from (the warm start, or the
    seed's draw) and the final model.
    """
    hyper = request.hyper
    trace = Trace(
        algorithm=request.algorithm.name,
        n_workers=runner.n_workers,
        meta={
            "engine": request.engine.name,
            "k": hyper.k,
            "lambda": hyper.lambda_,
        },
    )
    trace.add(0.0, 0, test_rmse(runner.initial_factors, request.test))
    trace.add(outcome.wall_seconds, outcome.updates, outcome.rmse)
    return FitResult(
        algorithm=request.algorithm.name,
        engine=request.engine.name,
        trace=trace,
        factors=outcome.factors,
        timing=FitTiming(
            wall_seconds=outcome.wall_seconds,
            join_seconds=outcome.join_seconds,
            simulated_seconds=None,
            updates=outcome.updates,
            updates_per_worker=tuple(outcome.updates_per_worker),
        ),
        raw=outcome,
        kernel_backend=runner.backend.name,
        telemetry=outcome.telemetry,
    )


def run_live(
    runtime_class, request: FitRequest, allowed: frozenset[str] = frozenset()
) -> FitResult:
    """Run NOMAD on one live runtime for ``run.duration`` wall seconds.

    The one runner of ``threaded``, ``multiprocess`` and ``cluster``,
    registered below with the runtime class bound.  With no run config
    the wall-clock default applies (:func:`resolve_wall_clock_run`: 1 s,
    seed 0).  The live runtimes take no simulation-layer extras — those
    fail eagerly; ``allowed`` names the engine's own keywords, which
    pass through :func:`repro.fit` to the runtime's constructor.
    """
    engine = request.engine.name
    if request.options is not None:
        raise ConfigError(
            f"options=NomadOptions(...) applies to the simulated engine "
            f"only, not {engine!r} (the live runtimes implement the basic "
            "Algorithm 1 routing)"
        )
    reject_extra_kwargs(engine, request.extra, allowed)
    runner = runtime_class(
        request.train, request.test,
        resolve_workers(request.n_workers, request.cluster), request.hyper,
        resolve_wall_clock_run(request.run), init_factors=request.factors,
        telemetry=request.telemetry, **request.extra,
    )
    return _live_result(request, runner, runner.run())


#: The cluster engine's own ``fit(...)`` keywords: ``transport``
#: (``"tcp"`` — the default, real localhost sockets over spawned
#: processes — or ``"loopback"`` for the in-process test substrate) and
#: ``batch_size`` (tokens per §3.5 envelope).
_CLUSTER_KWARGS = frozenset({"transport", "batch_size"})


register_engine(
    EngineSpec(
        name=SIMULATED,
        runner=run_simulated,
        description="discrete-event cluster simulator (all algorithms)",
    )
)
register_engine(
    EngineSpec(
        name=THREADED,
        runner=partial(run_live, ThreadedNomad),
        description="real Python threads (NOMAD protocol validation)",
    )
)
register_engine(
    EngineSpec(
        name=MULTIPROCESS,
        runner=partial(run_live, MultiprocessNomad),
        description="real processes over shared-memory factors (NOMAD)",
    )
)
register_engine(
    EngineSpec(
        name=CLUSTER,
        runner=partial(run_live, ClusterNomad, allowed=_CLUSTER_KWARGS),
        description=(
            "worker processes over localhost TCP sockets, message "
            "passing only (NOMAD; fork-free)"
        ),
    )
)
