"""``repro.fit`` — one entry point for every algorithm on every engine.

The paper's core claim is that one algorithm spans shared-memory and
distributed settings seamlessly; this facade makes the public API say the
same thing.  Training NOMAD on the simulator, on real threads, or on real
processes — or any paper baseline on the simulator — is one call::

    result = repro.fit(train, test, algorithm="nomad", engine="simulated")
    result.trace.final_rmse()
    result.model.recommend(user=0, top_n=5)

differing only in the ``engine`` string.  Unsupported combinations fail
eagerly with a :class:`~repro.errors.ConfigError` listing the full
(algorithm, engine) matrix.
"""

from __future__ import annotations

from ..config import HyperParams, RunConfig
from ..core.nomad import NomadOptions
from ..datasets.ratings import RatingMatrix
from ..errors import ConfigError
from ..linalg.factors import FactorPair, validate_init_factors
from ..simulator.cluster import Cluster
from . import engines as _engines  # noqa: F401  (registers the stock engines)
from .registry import FitRequest, check_pair, resolve_algorithm, resolve_engine
from .result import FitResult

__all__ = ["fit"]


def fit(
    train: RatingMatrix,
    test: RatingMatrix | None = None,
    *,
    algorithm: str = "nomad",
    engine: str = "simulated",
    hyper: HyperParams | None = None,
    run: RunConfig | None = None,
    cluster: Cluster | None = None,
    n_workers: int | None = None,
    options: NomadOptions | None = None,
    init_factors: FactorPair | None = None,
    telemetry: bool = False,
    **algorithm_kwargs,
) -> FitResult:
    """Train a matrix-completion model and return a :class:`FitResult`.

    Parameters
    ----------
    train:
        Observed training ratings.
    test:
        Held-out ratings for the convergence trace; ``None`` evaluates
        against ``train`` (the trace then shows *training* RMSE — fine
        for smoke runs, misleading for model selection).
    algorithm:
        Registry name, case-insensitive and alias-aware: ``"nomad"``,
        ``"dsgd"``, ``"dsgd++"``, ``"fpsgd"``, ``"ccd++"``,
        ``"graphlab-als"``, ``"hogwild"``.
    engine:
        Execution substrate: ``"simulated"`` (every algorithm);
        ``"threaded"``, ``"multiprocess"``, ``"cluster"`` (NOMAD — the
        latter over localhost sockets with no shared memory).  Online
        training over an arrival stream is :func:`repro.fit_stream`,
        not an engine.  Unsupported pairs raise
        :class:`~repro.errors.ConfigError` naming every valid combination.
    hyper:
        Model hyperparameters; defaults to :class:`HyperParams()
        <repro.config.HyperParams>`.
    run:
        Execution parameters.  ``duration`` is simulated seconds on the
        simulated engine and real wall seconds on the live engines — the
        same field, honored everywhere.  ``None`` takes each engine's
        default: the plain :class:`RunConfig() <repro.config.RunConfig>`
        defaults on the simulated engine; on the live engines a
        1-second wall budget at seed 0, on ``$NOMAD_KERNEL_BACKEND``
        (else ``"auto"``) kernels.
    cluster:
        Simulated topology (simulated engine).  The live engines take
        only its worker count.  Defaults to a single machine with
        ``n_workers`` cores (2 when neither is given).
    n_workers:
        Worker count for the live engines (ignored when ``cluster``
        covers it; explicit value wins).
    options:
        :class:`~repro.core.nomad.NomadOptions` behavioural switches
        (NOMAD on the simulated engine only).
    init_factors:
        Warm-start factors, honored by **every** engine: training begins
        from this (validated) pair instead of the seed-determined
        initialization — resume a previous run's ``result.factors``, or
        give all algorithms one shared start (the §5.1 protocol).  Must
        cover exactly ``(train.n_rows, train.n_cols)`` at ``hyper.k``;
        the caller's arrays are never mutated.
    telemetry:
        When true the run records per-worker telemetry
        (:mod:`repro.telemetry`: token hops, queue depths, kernel
        batches, idle time) and the result's ``telemetry`` attribute
        carries the merged :class:`~repro.telemetry.RunTelemetry`.
        The live engines instrument their workers; the simulated
        engine reports virtual-time counters only (its clock is not a
        wall clock, so it records no spans).  Default off — disabled
        runs skip every instrumentation site.
    algorithm_kwargs:
        Extra constructor keywords of the chosen simulation class, e.g.
        ``refresh_period=16`` for Hogwild or ``inner_iters=2`` for CCD++.

    Returns
    -------
    FitResult
        Convergence trace, trained factors, lazily-built
        :class:`~repro.model.CompletionModel`, and the uniform
        :class:`~repro.api.result.FitTiming` block.
    """
    if not isinstance(train, RatingMatrix):
        raise ConfigError(
            f"train must be a RatingMatrix, got {type(train).__name__}"
        )
    if test is None:
        test = train
    elif not isinstance(test, RatingMatrix):
        raise ConfigError(
            f"test must be a RatingMatrix or None, got {type(test).__name__}"
        )
    if n_workers is not None and n_workers < 1:
        raise ConfigError(f"n_workers must be >= 1, got {n_workers}")
    if "factors" in algorithm_kwargs:
        raise ConfigError(
            "fit() has no factors= keyword: pass warm-start factors as "
            "init_factors=, which every engine validates and honors"
        )
    if init_factors is not None:
        effective_hyper = hyper if hyper is not None else HyperParams()
        validate_init_factors(
            init_factors, train.n_rows, train.n_cols, effective_hyper.k
        )

    algorithm_spec = resolve_algorithm(algorithm)
    engine_spec = resolve_engine(engine)
    check_pair(algorithm_spec, engine_spec)

    request = FitRequest(
        algorithm=algorithm_spec,
        engine=engine_spec,
        train=train,
        test=test,
        hyper=hyper if hyper is not None else HyperParams(),
        run=run,
        cluster=cluster,
        n_workers=n_workers,
        options=options,
        factors=init_factors,
        telemetry=bool(telemetry),
        extra=algorithm_kwargs,
    )
    return engine_spec.runner(request)
