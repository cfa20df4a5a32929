"""The five training workloads, run through ``repro.fit`` /
``repro.fit_stream`` only.

A run generates its inputs from the seed, then calls the engine on
them trial after trial, generating them again (timed) a few times along
the way.  Set-up is everything outside the engine's own timed window —
generation, partitioning, spawn, join, evaluation — as a generation
plus a trial's share.  Throughput and both parts of set-up are taken
per trial and reported as a quantile on the fast side
(``stats.fast_quantile``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import repro
from repro import Cluster, ReplayStream, RunConfig
from repro.simulator.network import HPC_PROFILE

from . import layers, workloads
from .outcome import Outcome
from .stats import fast_quantile
from .trace import SpanRecorder
from .workloads import Workload

__all__ = ["run"]

N_WORKERS = 2
#: A run holds ``--seconds`` of the workload's measured windows on the
#: live engines (never fewer than 3) after one discarded warm-up, which
#: pays the cext load and cold caches.
MIN_LIVE_TRIALS = 3
#: A traced run's windows are ``--seconds`` over this, each.
TRACED_WINDOW_SHARE = 6
WARMUP_WINDOW_S = 1.0
#: Timed input generations per untraced run, spread over it.
GENERATIONS = 5
#: The reported throughput is the rate this share of the trials reached.
#: The simulator's ~70 short trials repeat the same instructions, so all
#: that differs between them is what the host took away, and the fast
#: tenth is the steadiest; windows on a live engine differ by themselves
#: (which worker drew which tokens, how the mailboxes filled) and the
#: stream has few trials, so those take the fast quartile.
FAST_SHARE = 0.25
SIM_FAST_SHARE = 0.10
#: Seconds the layer replay may take in a traced run.
REPLAY_BUDGET_S = 2.0


@dataclass
class Trial:
    """One engine call on the generated inputs."""

    total_s: float
    window_s: float
    ops: float
    rmse: float
    result: object
    #: the model a user reads from, and the ratings it was trained on
    #: (hashed as the run's input, and the source of "already rated")
    model: object
    train: object
    test: object | None = None

    @property
    def input_hash(self) -> str:
        matrices = (self.train,) if self.test is None else (self.train, self.test)
        return workloads.content_hash(*matrices)

    @property
    def around_s(self) -> float:
        """The call's time outside the engine's timed window."""
        return self.total_s - self.window_s

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.window_s


def _fit_trial(
    workload: Workload, inputs, seed: int, trial: int, window_s: float,
    max_updates: int, telemetry: bool = False, resume: Trial | None = None,
) -> Trial:
    """One ``repro.fit`` call.  On the live engines a window resumes from
    the factors ``resume`` ended with, the way a user continues a run,
    so the windows of a run add up to one training of ``--seconds`` and
    the final RMSE does not depend on how short a window is."""
    started = time.perf_counter()
    if workload.engine == "simulated":
        # Fixed work, fully deterministic: the same run seed every trial.
        kwargs = dict(
            cluster=Cluster(2, 2, HPC_PROFILE),
            run=RunConfig(
                duration=1000.0, eval_interval=1000.0, seed=seed,
                max_updates=max_updates,
            ),
        )
    else:
        kwargs = dict(
            n_workers=N_WORKERS,
            run=RunConfig(
                duration=window_s, eval_interval=window_s,
                seed=seed * 1000 + trial,
            ),
            telemetry=telemetry,
        )
        if resume is not None:
            kwargs["init_factors"] = resume.result.factors
        if workload.engine == "cluster":
            kwargs["transport"] = "tcp"
    result = repro.fit(
        inputs.train, inputs.test, engine=workload.engine,
        hyper=workload.hyper, **kwargs,
    )
    total = time.perf_counter() - started
    timing = result.timing
    return Trial(
        total, timing.wall_seconds, timing.updates,
        result.final_rmse(), result, result.model, inputs.train, inputs.test,
    )


def _stream_trial(workload: Workload, matrix, seed: int) -> Trial:
    started = time.perf_counter()
    stream = ReplayStream(
        matrix,
        warmup_fraction=workloads.STREAM_WARMUP_FRACTION,
        holdout_rows=workloads.STREAM_HOLDOUT_ROWS,
        holdout_cols=workloads.STREAM_HOLDOUT_COLS,
        seed=seed,
    )
    result = repro.fit_stream(
        stream,
        hyper=workload.hyper,
        run=RunConfig(seed=seed),
        n_workers=N_WORKERS,
        train_every=workloads.STREAM_TRAIN_EVERY,
        snapshot_every=max(1, stream.n_events // workloads.STREAM_ROTATIONS),
    )
    total = time.perf_counter() - started
    # StreamResult.arrivals_per_second is arrivals over this same
    # ingest + train + rotate time, so ops / window reproduces it.
    return Trial(
        total, result.final.timing.wall_seconds, result.arrivals,
        result.final.final_rmse(), result, result.final.model, matrix,
    )


def _guarded(outcome: Outcome, make_trial) -> Trial | None:
    """Run one trial; an engine that raises (incl. ``ClusterError`` on a
    lost token) is a failed operation with its text kept, not a crash."""
    try:
        trial = make_trial()
    except Exception as error:  # the benchmark must finish and report
        outcome.check(False, f"{type(error).__name__}: {error}")
        return None
    outcome.check(True)
    return trial


def run(
    workload: Workload, seed: int, seconds: float, traced: bool, smoke: bool,
    recorder: SpanRecorder | None,
) -> Outcome:
    outcome = Outcome(workload.name)
    stream = workload.kind == "stream"
    fixed_work = stream or workload.engine == "simulated"
    live_trials = MIN_LIVE_TRIALS
    if not (fixed_work or smoke or traced):
        live_trials = max(live_trials, round(seconds / workload.window_s))
    window_s = seconds / live_trials
    if traced:
        # two or three windows only: long ones, for a steady token visit
        window_s = seconds / TRACED_WINDOW_SHARE
    max_updates = (
        workloads.SIM_MAX_UPDATES_SMOKE if smoke else workloads.SIM_MAX_UPDATES
    )

    generate_s: list[float] = []

    def generate():
        started = time.perf_counter()
        if stream:
            made = workloads.make_stream_matrix(workload, seed)
        else:
            made = workloads.make_fit_inputs(workload, seed)
        generate_s.append(time.perf_counter() - started)
        return made

    inputs = generate()
    measured_s = 0.0  # timed windows so far
    previous: Trial | None = None  # the window a live engine resumes from

    def attempt(trial: int, telemetry: bool = False) -> Trial | None:
        nonlocal measured_s, previous
        if stream:
            done = _guarded(
                outcome, lambda: _stream_trial(workload, inputs, seed)
            )
        else:
            done = _guarded(outcome, lambda: _fit_trial(
                workload, inputs, seed, trial, window_s, max_updates,
                telemetry, previous,
            ))
        if done is not None:
            if not fixed_work:
                previous = done
            measured_s += done.window_s
            # The same bytes again, timed, GENERATIONS times over the run.
            if not (traced or smoke) and (
                measured_s >= len(generate_s) * seconds / GENERATIONS
            ):
                generate()
        return done

    layer: dict[str, float] = {}
    if traced and not stream:
        budget = 0.3 if smoke else REPLAY_BUDGET_S
        layer.update(layers.replay_training(
            workload, inputs.train, seed, recorder, budget
        ))
        if workload.engine == "cluster":
            layer.update(layers.transport_probes(workload.k, seed, budget / 2))

    # Discarded warm-up: a short window (live), little work (simulated)
    # or the small shape (stream) — enough to load and warm the kernels.
    if stream:
        small = workloads.WORKLOADS[workload.name].sized(True)
        matrix = workloads.make_stream_matrix(small, seed)
        _guarded(outcome, lambda: _stream_trial(small, matrix, seed))
    else:
        warm = _guarded(outcome, lambda: _fit_trial(
            workload, inputs, seed, 0, min(WARMUP_WINDOW_S, window_s),
            workloads.SIM_MAX_UPDATES_SMOKE,
        ))
        if not fixed_work:
            previous = warm

    plain: list[Trial] = []
    spanned: Trial | None = None
    with_telemetry: Trial | None = None
    if traced:
        # One window each way: untraced, then with the outermost call
        # inside a span; their difference is the tracing overhead.
        plain = [t for t in (attempt(1),) if t is not None]
        with recorder.span(f"e2e.{workload.kind}"):
            spanned = attempt(2)
        if workload.name == "mp-sparse":
            with_telemetry = attempt(3, telemetry=True)
    elif fixed_work:
        # fixed-work trials: as many as --seconds holds, >= 2
        while len(plain) < 2 or measured_s * (1 + 1 / len(plain)) <= seconds:
            trial = attempt(len(plain) + 1)
            if trial is None:
                break
            plain.append(trial)
    else:
        plain = [
            t for t in map(attempt, range(1, live_trials + 1)) if t is not None
        ]

    trials = plain + ([spanned] if spanned is not None else [])
    if not trials:
        return outcome
    last = trials[-1]
    ceiling = None if smoke else workload.rmse_ceiling
    for trial in trials:
        # Finite always; under the ceiling once trained: every trial of
        # fixed work, the last window of a resumed training.
        trained = fixed_work or trial is last
        outcome.check_rmse(trial.rmse, ceiling if trained else None)
    _check_determinism(outcome, workload, trials)
    outcome.input_hash = last.input_hash

    generated_s = fast_quantile(generate_s, "lower", FAST_SHARE)
    if not traced:
        around_s = [t.around_s for t in plain]
        outcome.put(
            "setup_s", [generated_s + a for a in around_s],
            generated_s + fast_quantile(around_s, "lower", FAST_SHARE),
        )
        rates = [t.ops_per_s for t in plain]
        share = SIM_FAST_SHARE if workload.engine == "simulated" else FAST_SHARE
        outcome.put("ops_per_s", rates, fast_quantile(rates, "higher", share))
        outcome.put("rmse_final", [t.rmse for t in plain])
        return outcome

    layer["datasets.generate_s"] = generated_s
    if plain and spanned is not None:
        layer["trace.overhead"] = 1.0 - spanned.ops_per_s / plain[0].ops_per_s
    if stream:
        layer.update(_stream_layers(last.result))
    elif workload.engine == "simulated":
        layer.update(_simulated_layers(last.result, layer))
    else:
        layer.update(_live_layers(workload, last, layer))
        if with_telemetry is not None and plain:
            layer["telemetry.on_over_off"] = (
                with_telemetry.ops_per_s / plain[0].ops_per_s
            )
            layer["telemetry.idle_fraction"] = (
                with_telemetry.result.telemetry.idle_fraction()
            )
    for name, value in layer.items():
        outcome.put(name, [value])
    return outcome


def _check_determinism(outcome: Outcome, workload: Workload, trials) -> None:
    """The fixed-work workloads must repeat exactly, trial after trial."""
    if workload.kind == "stream":
        results = [t.result for t in trials]
        outcome.check_identical(
            "stream.updates", [r.final.timing.updates for r in results]
        )
        outcome.check_identical(
            "stream.prequential_rmse", [r.prequential.rmse() for r in results]
        )
    elif workload.engine == "simulated":
        timings = [t.result.timing for t in trials]
        outcome.check_identical("simulator.updates", [t.updates for t in timings])
        outcome.check_identical(
            "simulator.sim_seconds", [t.simulated_seconds for t in timings]
        )
        outcome.check_identical("simulator.rmse_final", [t.rmse for t in trials])


def _stream_layers(result) -> dict[str, float]:
    updates = result.final.timing.updates
    return {
        "stream.ingest_us_per_arrival":
            result.ingest_seconds * 1e6 / result.arrivals,
        "stream.train_s": result.train_seconds,
        "stream.sweep_updates_per_s": updates / result.train_seconds,
        "stream.rotate_ms":
            result.rotation_seconds * 1e3 / result.snapshots.rotations,
        "stream.rotations": result.snapshots.rotations,
        "stream.updates": updates,
        "stream.prequential_rmse": result.prequential.rmse(),
    }


def _simulated_layers(result, layer: dict) -> dict[str, float]:
    # Every token finish forwards the token once, so hops = finishes.
    finishes = result.raw.network_hops + result.raw.local_hops
    per_finish = result.timing.wall_seconds * 1e6 / finishes
    return {
        "core.sim_us_per_token_finish": per_finish,
        "core.sim_overhead_us_per_token":
            per_finish - layer["linalg.kernel_batch1_us_per_token"],
        "simulator.sim_seconds": result.timing.simulated_seconds,
    }


def _live_layers(workload: Workload, trial: Trial, layer: dict) -> dict[str, float]:
    """Token-visit time of the live run against what the replay can
    attribute to gather, kernel and (cluster) wire; the rest is stated
    as unattributed: mailbox hop, pickling, idle, scheduler."""
    timing = trial.result.timing
    train = trial.train
    # A visit applies nnz / (items x workers) updates on average, so
    # visits = updates x items x workers / nnz; each worker spends
    # wall / (visits / workers) per visit.
    visits = timing.updates * train.n_cols * N_WORKERS / train.nnz
    visit_us = N_WORKERS * timing.wall_seconds * 1e6 / visits
    attributed = (
        layer["datasets.gather_us_per_token"]
        + layer["linalg.kernel_batch_us_per_token"]
    )
    around_s = trial.around_s - timing.join_seconds
    out = {
        "runtime.worker_imbalance":
            max(timing.updates_per_worker) / max(min(timing.updates_per_worker), 1),
    }
    if workload.engine == "cluster":
        # A routed token leaves for the peer with probability
        # (workers - 1) / workers; only then is it encoded and decoded.
        attributed += (N_WORKERS - 1) / N_WORKERS * (
            layer["cluster.wire_encode_us_per_token"]
            + layer["cluster.wire_decode_us_per_token"]
        )
        out["cluster.token_visit_us"] = visit_us
        out["cluster.unattributed_us_per_token"] = visit_us - attributed
        out["cluster.bootstrap_s"] = around_s
        out["cluster.drain_s"] = timing.join_seconds
    else:
        out["runtime.token_visit_us"] = visit_us
        out["runtime.unattributed_us_per_token"] = visit_us - attributed
        out["runtime.unattributed_share"] = (visit_us - attributed) / visit_us
        out["runtime.spawn_s"] = around_s
        out["runtime.join_s"] = timing.join_seconds
    return out
