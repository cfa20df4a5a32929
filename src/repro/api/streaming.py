"""``repro.fit_stream``: the online loop over the warm-start NOMAD trainer.

The trainer is :class:`~repro.stream.dynamic.DynamicNomad` (in-process,
deterministic given the seed), and :func:`fit_stream` is the one way
into it: prequential scoring, ingestion, warm-start training on a
cadence, and snapshot rotation, returning a
:class:`~repro.api.result.StreamResult`.  Its labels —
``algorithm="NOMAD"``, ``engine="dynamic"`` — name that trainer; they
are not registry entries, and :func:`repro.fit` has no streaming engine.
"""

from __future__ import annotations

import time

import numpy as np

from ..config import HyperParams, RunConfig
from ..datasets.ratings import RatingMatrix
from ..errors import ConfigError
from ..linalg.factors import FactorPair
from ..linalg.objective import predict
from ..simulator.trace import Trace
from ..stream.dynamic import DynamicNomad
from ..stream.snapshots import PrequentialTrace, SnapshotStore
from ..stream.sources import RatingStream
from ..telemetry import SPAN_ROTATION, RunTelemetry
from .registry import resolve_workers
from .result import FitResult, FitTiming, StreamResult

__all__ = ["fit_stream"]

#: The ``algorithm`` / ``engine`` labels of every stream result.
_ALGORITHM = "NOMAD"
_ENGINE = "dynamic"


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


def fit_stream(
    stream: RatingStream,
    test: RatingMatrix | None = None,
    *,
    hyper: HyperParams | None = None,
    run: RunConfig | None = None,
    n_workers: int | None = None,
    init_factors: FactorPair | None = None,
    warmup_epochs: int = 5,
    train_every: int = 50,
    epochs_per_train: int = 1,
    final_epochs: int = 5,
    snapshot_every: int = 500,
    count_cap: int | None = 8,
    store: SnapshotStore | None = None,
    prequential: PrequentialTrace | None = None,
    telemetry: bool = False,
) -> StreamResult:
    """Train NOMAD *online* over an arrival stream; return a
    :class:`~repro.api.result.StreamResult`.

    The loop is ingest → score → train on cadence → rotate, a window of
    arrivals at a time: a window ends at the next ``train_every`` or
    ``snapshot_every`` point, so no model trains and no snapshot rotates
    inside one.  Every arrival is folded into the trainer and scored
    *prequentially* against the newest snapshot (skipped and tallied as
    cold when the snapshot has never seen its user/item) before any
    model trains on it.  Warm-start sweeps run
    every ``train_every`` arrivals and an immutable serving snapshot
    rotates every ``snapshot_every`` arrivals; both always run once more
    at end of stream so the final model reflects every arrival.  A
    rotation whose factors are not finite raises
    :class:`~repro.errors.DivergenceError`, and the store keeps serving
    its last finite snapshot.

    Parameters
    ----------
    stream:
        Any :class:`~repro.stream.sources.RatingStream`: a warm-up
        :class:`~repro.datasets.ratings.RatingMatrix` plus timestamped
        :class:`~repro.stream.sources.Arrivals` blocks (see
        :class:`~repro.stream.sources.ReplayStream` and
        :class:`~repro.stream.sources.DriftStream`).  Where a block is
        cut does not change the result.
    test:
        Optional held-out ratings for the final result's per-rotation
        convergence trace; ``None`` evaluates rotations against the
        training data (warm-up + arrivals, as the trainer holds it).
        Entries whose user/item the model has not yet seen are excluded
        from each evaluation.
    hyper:
        Model hyperparameters, as in :func:`repro.fit`.
    run:
        Read for ``seed`` and ``kernel_backend`` only; ``None`` is seed 0
        on ``$NOMAD_KERNEL_BACKEND`` (else ``"auto"``).  The stream, not
        ``duration``, decides how long training runs, and a
        ``max_updates`` budget is refused with
        :class:`~repro.errors.ConfigError`.
    n_workers:
        Decentralized workers of the trainer (default 2).
    init_factors:
        Warm-start factors of the warm-up shape (e.g. a previous run's
        factors).
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
        plasticity is no longer needed.  0 disables the phase: a stream
        that ends off the ``train_every`` cadence then gets
        ``epochs_per_train`` sweeps for its last arrivals instead.  The
        final snapshot rotation always happens.
    snapshot_every:
        Rotate an immutable serving snapshot every this many arrivals.
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
        waiting for the stream to end.  ``None`` builds a
        :class:`~repro.stream.snapshots.SnapshotStore` with its default
        history.  A non-empty store resumes its sequence (the warm-start
        snapshot gets the next seq, not 0).
    prequential:
        Optional :class:`~repro.stream.snapshots.PrequentialTrace` (or
        subclass) to score arrivals into; ``None`` builds a fresh one.
    telemetry:
        When true the trainer records ingest, sweep, kernel, and
        snapshot-rotation spans (:mod:`repro.telemetry`); the final
        result's ``telemetry`` attribute carries the merged
        :class:`~repro.telemetry.RunTelemetry`.  Default off — disabled
        runs skip every instrumentation site.
    """
    if not isinstance(stream, RatingStream):
        raise ConfigError(
            f"stream must provide warmup/n_events/blocks() (see "
            f"repro.stream.RatingStream), got {type(stream).__name__}"
        )
    if test is not None and not isinstance(test, RatingMatrix):
        raise ConfigError(
            f"test must be a RatingMatrix or None, got {type(test).__name__}"
        )
    if run is not None and run.max_updates is not None:
        raise ConfigError(
            "max_updates is not supported by fit_stream (the stream's "
            "cadence, not an update count, decides how much it trains); "
            "use the simulated engine for update-budget experiments"
        )
    if warmup_epochs < 0:
        raise ConfigError(f"warmup_epochs must be >= 0, got {warmup_epochs}")
    if final_epochs < 0:
        raise ConfigError(f"final_epochs must be >= 0, got {final_epochs}")
    for name, value in (
        ("train_every", train_every),
        ("epochs_per_train", epochs_per_train),
        ("snapshot_every", snapshot_every),
    ):
        if value < 1:
            raise ConfigError(f"{name} must be >= 1, got {value}")
    if store is not None and not isinstance(store, SnapshotStore):
        raise ConfigError(
            f"store must be a SnapshotStore or None, got {type(store).__name__}"
        )
    if prequential is not None and not isinstance(prequential, PrequentialTrace):
        raise ConfigError(
            f"prequential must be a PrequentialTrace or None, got "
            f"{type(prequential).__name__}"
        )

    hyper = hyper if hyper is not None else HyperParams()
    n_workers = resolve_workers(n_workers)
    dynamic = DynamicNomad(
        stream.warmup,
        n_workers,
        hyper,
        run=run if run is not None else RunConfig(),
        init_factors=init_factors,
        count_cap=count_cap,
        telemetry=bool(telemetry),
    )
    if store is None:
        store = SnapshotStore()
    if prequential is None:
        prequential = PrequentialTrace()
    trace = Trace(
        algorithm=_ALGORITHM,
        n_workers=n_workers,
        meta={
            "engine": _ENGINE,
            "k": hyper.k,
            "lambda": hyper.lambda_,
            "time_axis": "stream_seconds",
        },
    )

    def evaluate() -> float:
        factors = dynamic.factors
        if test is not None:
            return _partial_rmse(factors, test)
        # Training RMSE over every rating the workers' stores hold, read
        # in store order — no O(nnz log nnz) combined-matrix rebuild.
        sq_sum, count = 0.0, 0
        for users, items, ratings in dynamic.triplets():
            if users.size == 0:
                continue
            diff = ratings - predict(factors, users, items)
            sq_sum += float(np.dot(diff, diff))
            count += users.size
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
    dynamic.train(warmup_epochs)
    train_seconds += time.perf_counter() - started
    rotation_seconds = rotate(0.0)

    ingest_seconds = 0.0
    arrivals = 0
    last_time = 0.0
    for block in stream.blocks():
        start = 0
        while start < len(block.users):
            # A window ends at the next train or snapshot point, so the
            # served snapshot cannot change inside it.
            stop = start + min(
                train_every - arrivals % train_every,
                snapshot_every - arrivals % snapshot_every,
            )
            times, users, items, values = (
                column[start:stop] for column in block
            )
            start = stop
            # Fold-in and score are the hot path; both count toward
            # ingest_seconds (and so the throughput figure).  Each score
            # is predict_one's ⟨w_u, h_i⟩ read straight off the
            # snapshot's rows (vecdot equals np.dot's bits); an arrival
            # the snapshot has no row for is counted cold, in place.
            # Ingest refuses the window before anything is scored.
            started = time.perf_counter()
            dynamic.ingest(users, items, values)
            factors = store.latest.model.factors
            w, h = factors.w, factors.h
            cold = (users >= len(w)) | (items >= len(h))
            if np.count_nonzero(cold):
                predicted = np.zeros(len(users))
                warm = ~cold
                predicted[warm] = np.vecdot(w[users[warm]], h[items[warm]])
            else:
                predicted, cold = np.vecdot(w[users], h[items]), None
            prequential.score(
                times, np.arange(arrivals + 1, arrivals + len(users) + 1),
                predicted, values, cold,
            )
            ingest_seconds += time.perf_counter() - started
            arrivals += len(users)
            last_time = max(last_time, float(times.max()))
            if arrivals % train_every == 0:
                started = time.perf_counter()
                dynamic.train(epochs_per_train)
                train_seconds += time.perf_counter() - started
            if arrivals % snapshot_every == 0:
                rotation_seconds += rotate(last_time)

    # End of stream: a convergence phase (the stream has gone quiet;
    # training continues, as it would between arrivals in a live
    # deployment).  The step-schedule floor exists to keep warm rows
    # plastic *while data flows*; with no more arrivals the cap lifts so
    # the sweeps anneal under the paper's full eq-(11) decay.  Without
    # that phase, arrivals since the last train point still get their
    # cadence's sweeps.  Then one final rotation so the newest snapshot
    # reflects every arrival.
    closing = final_epochs
    if not final_epochs and arrivals % train_every:
        closing = epochs_per_train
    if final_epochs:
        dynamic.count_cap = None
    if closing:
        started = time.perf_counter()
        dynamic.train(closing)
        train_seconds += time.perf_counter() - started
    # Skip the closing rotation only when it would duplicate one that
    # just ran (stream ended exactly on the cadence, model unchanged).
    if arrivals == 0 or arrivals % snapshot_every != 0 or closing:
        rotation_seconds += rotate(last_time)

    final = FitResult(
        algorithm=_ALGORITHM,
        engine=_ENGINE,
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
        telemetry=(
            None if dynamic.recorder is None
            else RunTelemetry.from_workers([dynamic.recorder.snapshot()])
        ),
    )
    return StreamResult(
        algorithm=_ALGORITHM,
        engine=_ENGINE,
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
