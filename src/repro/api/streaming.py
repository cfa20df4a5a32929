"""``repro.fit_stream`` and the ``"dynamic"`` engine behind it.

The dynamic engine is the in-process warm-start NOMAD trainer
(:class:`~repro.stream.dynamic.DynamicNomad`).  It serves two roles
through the one registry entry:

* a **static** runner (``repro.fit(..., engine="dynamic")``): sweeps of
  the token-circulation schedule for a real wall-clock budget, recording
  a per-sweep convergence trace — the only wall-clock engine that also
  honors ``RunConfig.max_updates`` (halting at column granularity, like
  the simulated engine), because execution is in-process;
* a **stream** runner (``repro.fit_stream(...)``): the full online loop —
  prequential scoring, ingestion, warm-start training on a cadence, and
  snapshot rotation — returning a
  :class:`~repro.api.result.StreamResult`.

Engines advertise streaming by carrying a ``stream_runner``; algorithms
opt in per engine through the ``stream_engines`` capability flag
(:class:`~repro.api.registry.AlgorithmSpec`).  An unsupported pair fails
eagerly with the full streaming matrix, exactly like static ``fit``.
"""

from __future__ import annotations

import time

import numpy as np

from ..config import HyperParams, RunConfig
from ..datasets.ratings import RatingMatrix
from ..errors import ConfigError, DivergenceError
from ..linalg.factors import FactorPair
from ..linalg.objective import predict, test_rmse
from ..simulator.trace import Trace
from ..stream.dynamic import DynamicNomad
from ..stream.snapshots import PrequentialTrace, SnapshotStore
from ..stream.sources import RatingStream
from ..telemetry import SPAN_ROTATION, RunTelemetry
from .registry import (
    DYNAMIC,
    FitRequest,
    StreamRequest,
    check_stream_pair,
    reject_extra_kwargs,
    resolve_algorithm,
    resolve_engine,
    resolve_wall_clock_run,
    resolve_workers,
)
from .result import FitResult, FitTiming, StreamResult

__all__ = ["fit_stream", "run_dynamic", "run_dynamic_stream"]

#: Engine-specific ``fit(...)`` keywords the static dynamic runner takes.
_DYNAMIC_KWARGS = frozenset({"count_cap"})


def _partial_rmse(factors: FactorPair, matrix: RatingMatrix) -> float:
    """RMSE over the entries of ``matrix`` the factors already cover.

    Mid-stream the model may be smaller than a full-shape test matrix
    (users/items not yet seen); those entries are excluded from the
    evaluation rather than faulting the index.
    """
    mask = (matrix.rows < factors.n_rows) & (matrix.cols < factors.n_cols)
    if not mask.any():
        return float("nan")
    predictions = predict(factors, matrix.rows[mask], matrix.cols[mask])
    diff = matrix.vals[mask] - predictions
    return float(np.sqrt(np.mean(diff * diff)))


# ----------------------------------------------------------------------
# Static runner
# ----------------------------------------------------------------------
def run_dynamic(request: FitRequest) -> FitResult:
    """Static fit on the dynamic engine: warm-startable in-process NOMAD.

    Runs whole token-circulation sweeps until the ``run.duration`` wall
    budget is exhausted (at least one sweep always runs), recording one
    trace point per sweep.  Honors ``run.max_updates`` at column
    granularity (the simulated engine's semantics), and accepts
    ``init_factors`` warm starts like every engine.  One engine-specific
    keyword passes through :func:`repro.fit`: ``count_cap`` (the
    step-schedule floor of :class:`~repro.stream.dynamic.DynamicNomad`).
    A sweep after which the test RMSE is not finite ends the run in
    :class:`~repro.errors.DivergenceError`.
    """
    if request.options is not None:
        raise ConfigError(
            "options=NomadOptions(...) applies to the simulated engine "
            f"only, not {request.engine.name!r}"
        )
    reject_extra_kwargs(request.engine.name, request.extra, _DYNAMIC_KWARGS)
    n_workers = resolve_workers(request.n_workers, request.cluster)
    run = resolve_wall_clock_run(request.run)
    dynamic = DynamicNomad(
        request.train,
        n_workers,
        request.hyper,
        run=run,
        init_factors=request.factors,
        telemetry=request.telemetry,
        **request.extra,
    )
    trace = Trace(
        algorithm=request.algorithm.name,
        n_workers=n_workers,
        meta={
            "engine": DYNAMIC,
            "k": request.hyper.k,
            "lambda": request.hyper.lambda_,
        },
    )
    trace.add(0.0, 0, test_rmse(dynamic.factors, request.test))
    # The trace/wall clock counts sweep time only — evaluation between
    # sweeps is excluded, like every engine excludes evaluation cost.
    train_seconds = 0.0
    while True:
        budget = (
            None
            if run.max_updates is None
            else run.max_updates - dynamic.total_updates
        )
        if budget is not None and budget <= 0:
            break
        started = time.perf_counter()
        applied = dynamic.sweep(budget)
        train_seconds += time.perf_counter() - started
        rmse = test_rmse(dynamic.factors, request.test)
        if not np.isfinite(rmse):
            raise DivergenceError(
                f"test RMSE diverged after {dynamic.total_updates} updates; "
                "reduce alpha or increase beta/lambda"
            )
        trace.add(train_seconds, dynamic.total_updates, rmse)
        if applied == 0 or train_seconds >= run.duration:
            break
    return FitResult(
        algorithm=request.algorithm.name,
        engine=DYNAMIC,
        trace=trace,
        factors=dynamic.factors,
        timing=FitTiming(
            wall_seconds=train_seconds,
            join_seconds=0.0,
            simulated_seconds=None,
            updates=dynamic.total_updates,
            updates_per_worker=tuple(dynamic.updates_per_worker),
        ),
        raw=dynamic,
        kernel_backend=dynamic.backend.name,
        telemetry=_dynamic_telemetry(dynamic),
    )


def _dynamic_telemetry(dynamic: DynamicNomad) -> RunTelemetry | None:
    """Fold the trainer's single recorder into a merged view (or None)."""
    if dynamic.recorder is None:
        return None
    return RunTelemetry.from_workers([dynamic.recorder.snapshot()])


# ----------------------------------------------------------------------
# Stream runner
# ----------------------------------------------------------------------
def run_dynamic_stream(request: StreamRequest) -> StreamResult:
    """The online loop: score → ingest → train on cadence → rotate.

    Every arrival is scored *prequentially* against the newest snapshot
    (skipped and tallied as cold when the snapshot has never seen its
    user/item), then folded into the trainer.  Warm-start sweeps run
    every ``train_every`` arrivals and an immutable serving snapshot
    rotates every ``snapshot_every`` arrivals; both always run once more
    at end of stream so the final model reflects every arrival.
    """
    reject_extra_kwargs(request.engine.name, request.extra)
    stream = request.stream
    n_workers = resolve_workers(request.n_workers)
    dynamic = DynamicNomad(
        stream.warmup,
        n_workers,
        request.hyper,
        run=resolve_wall_clock_run(request.run),
        init_factors=request.init_factors,
        count_cap=request.count_cap,
        telemetry=request.telemetry,
    )
    store = (
        request.store
        if request.store is not None
        else SnapshotStore(max_keep=request.max_snapshots)
    )
    prequential = (
        request.prequential
        if request.prequential is not None
        else PrequentialTrace()
    )
    trace = Trace(
        algorithm=request.algorithm.name,
        n_workers=n_workers,
        meta={
            "engine": request.engine.name,
            "k": request.hyper.k,
            "lambda": request.hyper.lambda_,
            "time_axis": "stream_seconds",
        },
    )

    def evaluate() -> float:
        factors = dynamic.factors
        if request.test is not None:
            return _partial_rmse(factors, request.test)
        # Training RMSE over base + arrivals straight from the triplet
        # arrays — no O(nnz log nnz) combined-matrix rebuild per rotation.
        base = dynamic.delta.base
        delta_rows, delta_cols, delta_vals = dynamic.delta.triplets()
        sq_sum, count = 0.0, 0
        for rows, cols, vals in (
            (base.rows, base.cols, base.vals),
            (delta_rows, delta_cols, delta_vals),
        ):
            if rows.size == 0:
                continue
            diff = vals - predict(factors, rows, cols)
            sq_sum += float(np.dot(diff, diff))
            count += rows.size
        return float(np.sqrt(sq_sum / count))

    def rotate(stream_time: float) -> float:
        started = time.perf_counter()
        store.rotate(
            dynamic.factors, stream_time, dynamic.arrivals,
            dynamic.total_updates,
        )
        elapsed = time.perf_counter() - started
        if dynamic.recorder is not None:
            # The recorder's clock is perf_counter, so `started` is
            # already on the span time base.
            dynamic.recorder.span(
                SPAN_ROTATION, started, elapsed, store.latest.seq
            )
        store.rotation_seconds.append(elapsed)
        trace.add(stream_time, dynamic.total_updates, evaluate())
        return elapsed

    train_seconds = 0.0
    started = time.perf_counter()
    dynamic.train(request.warmup_epochs)
    train_seconds += time.perf_counter() - started
    rotation_seconds = rotate(0.0)

    ingest_seconds = 0.0
    arrivals = 0
    last_time = 0.0
    for event in stream.events():
        arrivals += 1
        last_time = max(last_time, event.time)
        # Score + fold-in are the per-arrival hot path; both count
        # toward ingest_seconds (and so the throughput figure).
        # The score is predict_one's ⟨w_u, h_i⟩ read straight off the
        # snapshot's rows; ingest rejects a negative index just after.
        started = time.perf_counter()
        factors = store.latest.model.factors
        w, h, user, item = factors.w, factors.h, event.user, event.item
        if 0 <= user < len(w) and 0 <= item < len(h):
            prequential.score(
                event.time, arrivals, float(np.dot(w[user], h[item])),
                event.value,
            )
        else:
            prequential.mark_cold()
        dynamic.ingest(event)
        ingest_seconds += time.perf_counter() - started
        if arrivals % request.train_every == 0:
            started = time.perf_counter()
            dynamic.train(request.epochs_per_train)
            train_seconds += time.perf_counter() - started
        if arrivals % request.snapshot_every == 0:
            rotation_seconds += rotate(last_time)

    # End of stream: a convergence phase (the stream has gone quiet;
    # training continues, as it would between arrivals in a live
    # deployment).  The step-schedule floor exists to keep warm rows
    # plastic *while data flows*; with no more arrivals the cap lifts so
    # the sweeps anneal under the paper's full eq-(11) decay.  Then one
    # final rotation so the newest snapshot reflects every arrival.
    if request.final_epochs:
        dynamic.count_cap = None
        started = time.perf_counter()
        dynamic.train(request.final_epochs)
        train_seconds += time.perf_counter() - started
    # Skip the closing rotation only when it would duplicate one that
    # just ran (stream ended exactly on the cadence, model unchanged).
    if (
        arrivals == 0
        or arrivals % request.snapshot_every != 0
        or request.final_epochs
    ):
        rotation_seconds += rotate(last_time)

    final = FitResult(
        algorithm=request.algorithm.name,
        engine=request.engine.name,
        trace=trace,
        factors=dynamic.factors,
        timing=FitTiming(
            wall_seconds=ingest_seconds + train_seconds + rotation_seconds,
            join_seconds=0.0,
            simulated_seconds=None,
            updates=dynamic.total_updates,
            updates_per_worker=tuple(dynamic.updates_per_worker),
        ),
        raw=dynamic,
        kernel_backend=dynamic.backend.name,
        telemetry=_dynamic_telemetry(dynamic),
    )
    return StreamResult(
        algorithm=request.algorithm.name,
        engine=request.engine.name,
        snapshots=store,
        prequential=prequential,
        final=final,
        arrivals=arrivals,
        new_users=dynamic.new_users,
        new_items=dynamic.new_items,
        ingest_seconds=ingest_seconds,
        train_seconds=train_seconds,
        rotation_seconds=rotation_seconds,
    )


# ----------------------------------------------------------------------
# Facade
# ----------------------------------------------------------------------
def fit_stream(
    stream: RatingStream,
    test: RatingMatrix | None = None,
    *,
    algorithm: str = "nomad",
    engine: str = "dynamic",
    hyper: HyperParams | None = None,
    run: RunConfig | None = None,
    n_workers: int | None = None,
    init_factors: FactorPair | None = None,
    warmup_epochs: int = 5,
    train_every: int = 50,
    epochs_per_train: int = 1,
    final_epochs: int = 5,
    snapshot_every: int = 500,
    max_snapshots: int = 8,
    count_cap: int | None = 8,
    store: SnapshotStore | None = None,
    prequential: PrequentialTrace | None = None,
    telemetry: bool = False,
    **engine_kwargs,
) -> StreamResult:
    """Train a model *online* over an arrival stream; return a
    :class:`~repro.api.result.StreamResult`.

    Parameters
    ----------
    stream:
        Any :class:`~repro.stream.sources.RatingStream`: a warm-up
        :class:`~repro.datasets.ratings.RatingMatrix` plus timestamped
        arrivals (see :class:`~repro.stream.sources.ReplayStream` and
        :class:`~repro.stream.sources.DriftStream`).
    test:
        Optional held-out ratings for the final result's per-rotation
        convergence trace; ``None`` evaluates rotations against the
        combined (warm-up + arrivals) training data.  Entries whose
        user/item the model has not yet seen are excluded from each
        evaluation.
    algorithm, engine:
        Registry names; the pair must carry the ``supports_stream``
        capability (``repro.supported_stream_pairs()`` lists the matrix).
    hyper, run, n_workers, init_factors:
        As in :func:`repro.fit`; ``init_factors`` warm-starts from the
        warm-up shape (e.g. a previous run's factors).
    warmup_epochs:
        Sweeps over the warm-up matrix before the first snapshot.
    train_every, epochs_per_train:
        Run ``epochs_per_train`` warm-start sweeps every ``train_every``
        ingested arrivals.
    final_epochs:
        Convergence sweeps after the last arrival (the stream has gone
        quiet; training continues, as it would between arrivals in a
        live deployment).  These sweeps anneal: the ``count_cap`` step
        floor lifts, restoring the paper's full eq-(11) decay now that
        plasticity is no longer needed.  0 disables the phase; the
        final snapshot rotation always happens.
    snapshot_every:
        Rotate an immutable serving snapshot every this many arrivals.
    max_snapshots:
        Resident snapshot history (the newest is never evicted).
    count_cap:
        Per-rating step-schedule counter ceiling (see
        :class:`~repro.stream.dynamic.DynamicNomad`).  The default keeps
        a step-size floor so warm rows stay plastic as the dataset
        grows; ``None`` restores the paper's unbounded eq-(11) decay.
    store:
        Optional :class:`~repro.stream.snapshots.SnapshotStore` (or
        subclass, e.g. the durable store of
        :mod:`repro.serve.persistence`) to rotate snapshots into.  This
        is how a serving layer observes rotations *live* instead of
        waiting for the stream to end; ``max_snapshots`` is ignored in
        favor of the store's own ``max_keep``.  A non-empty store
        resumes its sequence (the warm-start snapshot gets the next
        seq, not 0).
    prequential:
        Optional :class:`~repro.stream.snapshots.PrequentialTrace` (or
        subclass) to score arrivals into; ``None`` builds a fresh one.
    telemetry:
        When true the trainer records ingest, sweep, kernel, and
        snapshot-rotation spans (:mod:`repro.telemetry`); the final
        result's ``telemetry`` attribute carries the merged
        :class:`~repro.telemetry.RunTelemetry`.  Default off — disabled
        runs skip every instrumentation site.
    engine_kwargs:
        Engine-specific passthrough keywords (none for ``"dynamic"``).
    """
    if not isinstance(stream, RatingStream):
        raise ConfigError(
            f"stream must provide warmup/n_events/events() (see "
            f"repro.stream.RatingStream), got {type(stream).__name__}"
        )
    if test is not None and not isinstance(test, RatingMatrix):
        raise ConfigError(
            f"test must be a RatingMatrix or None, got {type(test).__name__}"
        )
    if n_workers is not None and n_workers < 1:
        raise ConfigError(f"n_workers must be >= 1, got {n_workers}")
    if warmup_epochs < 0:
        raise ConfigError(f"warmup_epochs must be >= 0, got {warmup_epochs}")
    if final_epochs < 0:
        raise ConfigError(f"final_epochs must be >= 0, got {final_epochs}")
    for name, value in (
        ("train_every", train_every),
        ("epochs_per_train", epochs_per_train),
        ("snapshot_every", snapshot_every),
        ("max_snapshots", max_snapshots),
    ):
        if value < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}")
    if count_cap is not None and count_cap < 1:
        raise ConfigError(f"count_cap must be >= 1 or None, got {count_cap}")
    if store is not None and not isinstance(store, SnapshotStore):
        raise ConfigError(
            f"store must be a SnapshotStore or None, got {type(store).__name__}"
        )
    if prequential is not None and not isinstance(prequential, PrequentialTrace):
        raise ConfigError(
            f"prequential must be a PrequentialTrace or None, got "
            f"{type(prequential).__name__}"
        )

    algorithm_spec = resolve_algorithm(algorithm)
    engine_spec = resolve_engine(engine)
    # Streaming support implies static support (registration enforces
    # stream_engines ⊆ engines), so this one check covers both — and an
    # invalid pair gets the *streaming* matrix in its error.
    check_stream_pair(algorithm_spec, engine_spec)

    request = StreamRequest(
        algorithm=algorithm_spec,
        engine=engine_spec,
        stream=stream,
        hyper=hyper if hyper is not None else HyperParams(),
        run=run,
        test=test,
        n_workers=n_workers,
        init_factors=init_factors,
        warmup_epochs=warmup_epochs,
        train_every=train_every,
        epochs_per_train=epochs_per_train,
        final_epochs=final_epochs,
        snapshot_every=snapshot_every,
        max_snapshots=max_snapshots,
        count_cap=count_cap,
        store=store,
        prequential=prequential,
        telemetry=bool(telemetry),
        extra=engine_kwargs,
    )
    return engine_spec.stream_runner(request)
