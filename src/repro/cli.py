"""Command-line interface: fit models and run the paper's experiments.

Usage::

    repro-nomad list
    repro-nomad run --experiment fig08 --scale small --seed 0
    repro-nomad run --experiment fig08 --outdir results/
    repro-nomad fit --algorithm nomad --engine simulated --duration 0.1
    repro-nomad fit --engine threaded --workers 4 --duration 1.0
    repro-nomad fit --engine cluster --workers 4 --duration 1.0
    repro-nomad fit --list
    repro-nomad stream --source replay --dataset netflix
    repro-nomad stream --source drift --arrivals 2000
    repro-nomad serve --source drift --port 8080
    repro-nomad serve --persist-dir runs/movielens --dataset movielens
    repro-nomad trace --engine threaded --duration 1.0 --out trace.json
    repro-nomad analyze src
    repro-nomad analyze --list-rules

``run`` prints the ASCII report to stdout and optionally writes every
series/table as CSV under ``--outdir``.  ``fit`` trains one model through
the :func:`repro.fit` facade, prints its convergence trace and timing
block, and optionally saves the trained model as ``.npz``.  ``stream``
replays an arrival stream through :func:`repro.fit_stream` — online
ingestion, warm-start dynamic NOMAD, snapshot rotation — and prints the
prequential RMSE trace and ingestion throughput.  ``serve`` runs the
HTTP recommendation service of :mod:`repro.serve`: a background trainer
fed by ``POST /ratings`` traffic, predictions and top-N served from the
newest snapshot, optionally persisted so a restart resumes where the
last process stopped.  ``trace`` runs one telemetry-enabled fit and
exports the recorded per-worker spans as Chrome trace-event JSON,
loadable in Perfetto (ui.perfetto.dev) or ``chrome://tracing``.
``analyze`` runs
nomadlint, the repo's AST invariant checker, over the given paths and
exits 1 if any rule fires.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Sequence

from .analysis import analyze_paths, render_text, rules_table
from .api import ALGORITHMS, ENGINES, fit, fit_stream, supported_pairs
from .config import RunConfig
from .errors import ConfigError, ReproError
from .experiments.figures import EXPERIMENT_REGISTRY, run_experiment
from .experiments.harness import build_dataset, make_cluster
from .experiments.report import render_result, result_to_csv_dir
from .linalg.backends import BACKENDS, cext_unavailable_reason
from .serve import RecommendationService, ServiceConfig
from .stream import DriftStream, ReplayStream
from .telemetry import KIND_NAMES, chrome_trace

__all__ = ["main", "build_parser"]


#: The flags several subcommands take, each defined once; a command
#: passes only what it words or defaults differently.  (Not argparse
#: ``parents=``: a parent's actions are shared objects, so one command's
#: ``set_defaults`` would leak into every other.)
_SHARED_FLAGS: dict[str, dict] = {
    "--seed": {"type": int, "default": 0, "help": "root random seed (default: 0)"},
    "--dataset": {
        "default": "netflix",
        "help": "dataset surrogate profile (default: netflix)",
    },
    "--workers": {
        "type": int,
        "default": 2,
        "help": "dynamic NOMAD worker count (default 2)",
    },
    "--duration": {"type": float},
    "--engine": {"choices": sorted(ENGINES)},
    "--source": {"choices": ("replay", "drift")},
    "--warmup-epochs": {"type": int, "default": 5},
    "--train-every": {"type": int, "default": 50},
    "--snapshot-every": {"type": int},
    "--save": {"default": None, "metavar": "PATH"},
}


def _flag(command: argparse.ArgumentParser, name: str, **overrides) -> None:
    """Add the shared flag ``name`` to ``command``, with ``overrides``
    (its default or help wording) applied over the one definition."""
    command.add_argument(name, **{**_SHARED_FLAGS[name], **overrides})


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-nomad",
        description=(
            "Reproduction of NOMAD (Yun et al., VLDB 2014): fit models "
            "through the unified solver facade, or run any table/figure "
            "of the paper's evaluation on the simulated cluster."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list available experiments")

    run_cmd = commands.add_parser("run", help="run one experiment")
    run_cmd.add_argument(
        "--experiment",
        required=True,
        choices=sorted(EXPERIMENT_REGISTRY),
        help="experiment id (see 'list')",
    )
    run_cmd.add_argument(
        "--scale",
        default="small",
        choices=("tiny", "small", "medium"),
        help="duration preset (default: small)",
    )
    _flag(run_cmd, "--seed")
    run_cmd.add_argument(
        "--outdir",
        default=None,
        help="optional directory for CSV export of all series and tables",
    )

    fit_cmd = commands.add_parser(
        "fit",
        help="train one model via the repro.fit facade",
        description=(
            "Train one matrix-completion model: any registered algorithm "
            "on any engine that supports it ('fit --list' prints the "
            "matrix).  Runs on a registry dataset surrogate with its "
            "tuned hyperparameters."
        ),
    )
    fit_cmd.add_argument(
        "--list",
        action="store_true",
        dest="list_combos",
        help="print the (algorithm, engine) support matrix and exit",
    )
    fit_cmd.add_argument(
        "--algorithm",
        default="nomad",
        help="algorithm registry name, case-insensitive (default: nomad)",
    )
    _flag(
        fit_cmd, "--engine", default="simulated",
        help="execution engine (default: simulated)",
    )
    _flag(fit_cmd, "--dataset")
    _flag(
        fit_cmd, "--duration", default=0.1,
        help=(
            "run budget in seconds — simulated seconds on the simulated "
            "engine, real wall seconds on the live engines (default: 0.1)"
        ),
    )
    fit_cmd.add_argument(
        "--eval-interval",
        type=float,
        default=None,
        help="trace evaluation period in seconds (default: duration/10)",
    )
    _flag(fit_cmd, "--seed")
    fit_cmd.add_argument(
        "--machines",
        type=int,
        default=1,
        help="simulated machines (simulated engine; default: 1)",
    )
    fit_cmd.add_argument(
        "--cores",
        type=int,
        default=2,
        help="cores per simulated machine (simulated engine; default: 2)",
    )
    _flag(
        fit_cmd, "--workers", default=None,
        help=(
            "worker count for the live engines — threads, shared-memory "
            "processes, or cluster nodes (default: machines*cores; "
            "rejected with --engine simulated — use --machines/--cores)"
        ),
    )
    _flag(fit_cmd, "--save", help="save the trained model as compressed npz")

    stream_cmd = commands.add_parser(
        "stream",
        help="train online over an arrival stream via repro.fit_stream",
        description=(
            "Replay an arrival stream through the streaming subsystem: "
            "prequential scoring, warm-start dynamic NOMAD ingestion, "
            "and snapshot rotation.  'replay' streams a registry dataset "
            "surrogate (warm-up prefix + shuffled tail, with user/item "
            "holdouts exercising the fold-in path); 'drift' generates a "
            "synthetic stream whose ground truth drifts."
        ),
    )
    _flag(
        stream_cmd, "--source", default="replay",
        help="arrival source (default: replay)",
    )
    _flag(
        stream_cmd, "--dataset",
        help="dataset surrogate profile for --source replay (default: netflix)",
    )
    stream_cmd.add_argument(
        "--warmup-fraction",
        type=float,
        default=0.5,
        help="fraction of ratings in the warm-up prefix (replay; default 0.5)",
    )
    stream_cmd.add_argument(
        "--holdout-rows",
        type=int,
        default=8,
        help="users whose every rating streams in (replay; default 8)",
    )
    stream_cmd.add_argument(
        "--holdout-cols",
        type=int,
        default=4,
        help="items whose every rating streams in (replay; default 4)",
    )
    stream_cmd.add_argument(
        "--arrivals",
        type=int,
        default=2000,
        help="events to generate for --source drift (default 2000)",
    )
    _flag(stream_cmd, "--workers")
    _flag(
        stream_cmd, "--warmup-epochs",
        help="sweeps over the warm-up matrix before streaming (default 5)",
    )
    _flag(
        stream_cmd, "--train-every",
        help="run a training pass every N arrivals (default 50)",
    )
    stream_cmd.add_argument(
        "--epochs-per-train",
        type=int,
        default=1,
        help="sweeps per training pass (default 1)",
    )
    _flag(
        stream_cmd, "--snapshot-every", default=500,
        help="rotate a serving snapshot every N arrivals (default 500)",
    )
    _flag(stream_cmd, "--seed")
    _flag(
        stream_cmd, "--save",
        help="save the final serving snapshot as compressed npz",
    )

    serve_cmd = commands.add_parser(
        "serve",
        help="run the HTTP recommendation service (repro.serve)",
        description=(
            "Serve predictions and top-N recommendations over HTTP from "
            "rotating model snapshots, while a background trainer folds "
            "POSTed ratings into the model online.  With --persist-dir, "
            "every rotation lands on disk and a restarted server resumes "
            "from the newest persisted snapshot."
        ),
    )
    _flag(
        serve_cmd, "--source", default="drift",
        help="warm-up ratings source (default: drift)",
    )
    _flag(
        serve_cmd, "--dataset",
        help="dataset surrogate profile for --source replay (default: netflix)",
    )
    serve_cmd.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    serve_cmd.add_argument(
        "--port",
        type=int,
        default=0,
        help="bind port; 0 picks an ephemeral port (default: 0)",
    )
    _flag(serve_cmd, "--workers")
    _flag(
        serve_cmd, "--warmup-epochs",
        help="sweeps over the warm-up matrix before serving (default 5)",
    )
    _flag(
        serve_cmd, "--train-every",
        help="run a training pass every N ingested ratings (default 50)",
    )
    _flag(
        serve_cmd, "--snapshot-every", default=200,
        help="rotate a serving snapshot every N ingested ratings (default 200)",
    )
    serve_cmd.add_argument(
        "--persist-dir",
        default=None,
        metavar="DIR",
        help="run directory for durable snapshots (default: in-memory only)",
    )
    serve_cmd.add_argument(
        "--cache-capacity",
        type=int,
        default=1024,
        help="request-level LRU capacity; 0 disables (default 1024)",
    )
    _flag(
        serve_cmd, "--duration", default=None,
        help="serve for this many seconds then stop (default: until Ctrl-C)",
    )
    _flag(serve_cmd, "--seed")

    trace_cmd = commands.add_parser(
        "trace",
        help="record a telemetry trace and export Chrome trace-event JSON",
        description=(
            "Run one telemetry-enabled fit (repro.fit(..., "
            "telemetry=True)) and export the recorded per-worker spans — "
            "token hops, kernel batches, queue depths, idle time — as "
            "Chrome trace-event JSON, loadable in Perfetto "
            "(ui.perfetto.dev) or chrome://tracing."
        ),
    )
    _flag(
        trace_cmd, "--engine", default="threaded",
        help=(
            "execution engine (default: threaded); the simulated engine "
            "records counters only, so its trace carries no spans"
        ),
    )
    _flag(trace_cmd, "--dataset")
    _flag(
        trace_cmd, "--duration", default=0.5,
        help="run budget in seconds, as in 'fit' (default: 0.5)",
    )
    _flag(
        trace_cmd, "--workers",
        help="worker count for the live engines (default: 2)",
    )
    _flag(trace_cmd, "--seed")
    trace_cmd.add_argument(
        "--out",
        default="trace.json",
        metavar="PATH",
        help="output path of the trace JSON (default: trace.json)",
    )

    analyze_cmd = commands.add_parser(
        "analyze",
        help="run the nomadlint static-analysis pass",
        description=(
            "nomadlint: AST-based invariant checker for ownership, "
            "concurrency, and resource discipline.  Every finding is "
            "printed and fails the run with exit code 1."
        ),
    )
    analyze_cmd.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to analyze (default: src)",
    )
    analyze_cmd.add_argument(
        "--list-rules",
        action="store_true",
        help="print every registered rule and exit",
    )
    return parser


def _print_fit_matrix() -> None:
    """The (algorithm, engine) support matrix, one line per algorithm,
    plus the kernel-backend availability table for this box."""
    pairs = supported_pairs()
    width = max(len(name) for name in ALGORITHMS)
    print(f"{'algorithm':<{width}}  engines")
    for name in sorted(ALGORITHMS):
        engines = ", ".join(e for a, e in pairs if a == name)
        print(f"{name:<{width}}  {engines}")
    print()
    print("kernel backend  availability")
    for name in sorted(BACKENDS):
        if name == "cext":
            reason = cext_unavailable_reason()
            status = "available" if reason is None else f"unavailable ({reason})"
        else:
            status = "available"
        print(f"{name:<14}  {status}")


def _fit_inputs(args: argparse.Namespace):
    """``(profile, train, test, run)`` of a ``fit`` or ``trace`` command:
    the dataset surrogate, and a run of ``--duration`` seconds evaluated
    every ``--eval-interval`` (``trace`` has none: duration/10)."""
    eval_interval = getattr(args, "eval_interval", None)
    if eval_interval is None:
        eval_interval = args.duration / 10
    profile, train, test = build_dataset(args.dataset, seed=args.seed)
    run = RunConfig(
        duration=args.duration, eval_interval=eval_interval, seed=args.seed
    )
    return profile, train, test, run


def _run_fit(args: argparse.Namespace) -> int:
    """Drive one facade fit from parsed CLI arguments."""
    if args.list_combos:
        _print_fit_matrix()
        return 0

    if args.engine == "simulated" and args.workers is not None:
        raise ConfigError(
            "--workers applies to the live engines only; size the "
            "simulated engine with --machines/--cores"
        )
    profile, train, test, run = _fit_inputs(args)
    cluster = None
    if args.engine == "simulated":
        cluster = make_cluster(args.machines, args.cores)
    workers = (
        args.workers if args.workers is not None else args.machines * args.cores
    )

    print(
        f"dataset: {args.dataset} surrogate — {train.n_rows} x "
        f"{train.n_cols}, {train.nnz} train / {test.nnz} test ratings"
    )
    result = fit(
        train,
        test,
        algorithm=args.algorithm,
        engine=args.engine,
        hyper=profile.hyper,
        run=run,
        cluster=cluster,
        n_workers=workers,
    )

    print(f"\n{'time (s)':>10} {'updates':>12} {'test RMSE':>10}")
    for record in result.trace.records:
        print(f"{record.time:>10.4f} {record.updates:>12,} {record.rmse:>10.4f}")
    print(f"\n{result.summary()}")
    timing = result.timing
    if timing.updates_per_worker is not None:
        counts = ", ".join(f"{c:,}" for c in timing.updates_per_worker)
        print(f"updates per worker: {counts}")
    print(f"throughput: {timing.updates_per_second:,.0f} updates/second")

    if args.save:
        result.model.save(args.save)
        print(f"model saved to {args.save}")
    return 0


def _run_stream(args: argparse.Namespace) -> int:
    """Drive one facade stream run from parsed CLI arguments."""
    if args.source == "replay":
        profile, train, test = build_dataset(args.dataset, seed=args.seed)
        stream = ReplayStream(
            train,
            warmup_fraction=args.warmup_fraction,
            holdout_rows=args.holdout_rows,
            holdout_cols=args.holdout_cols,
            seed=args.seed,
        )
        hyper = profile.hyper
        print(
            f"replaying {args.dataset} surrogate: {stream.warmup.nnz} "
            f"warm-up ratings, {stream.n_events} arrivals "
            f"(holdouts: {args.holdout_rows} users, {args.holdout_cols} items)"
        )
    else:
        stream = DriftStream(n_events=args.arrivals, seed=args.seed)
        hyper, test = None, None
        print(
            f"drift stream: {stream.warmup.nnz} warm-up ratings, "
            f"{stream.n_events} arrivals"
        )

    result = fit_stream(
        stream,
        test,
        hyper=hyper,
        run=RunConfig(seed=args.seed),
        n_workers=args.workers,
        warmup_epochs=args.warmup_epochs,
        train_every=args.train_every,
        epochs_per_train=args.epochs_per_train,
        snapshot_every=args.snapshot_every,
    )

    print(f"\n{'stream (s)':>10} {'updates':>12} {'RMSE':>10}   (per rotation)")
    for record in result.final.trace.records:
        print(f"{record.time:>10.3f} {record.updates:>12,} {record.rmse:>10.4f}")
    print(f"\n{result.summary()}")
    if len(result.prequential):
        window = min(200, len(result.prequential))
        print(
            f"prequential RMSE: {result.prequential.rmse():.4f} overall, "
            f"{result.prequential.windowed_rmse(window):.4f} over the last "
            f"{window} scored arrivals ({result.prequential.cold} cold)"
        )
    print(
        f"time split: {result.ingest_seconds:.3f}s ingest, "
        f"{result.train_seconds:.3f}s train, "
        f"{result.rotation_seconds:.4f}s rotation "
        f"({result.snapshots.rotations} rotations)"
    )

    if args.save:
        result.snapshots.latest.model.save(args.save)
        print(f"serving snapshot saved to {args.save}")
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """Run the HTTP service from parsed CLI arguments."""
    if args.source == "replay":
        profile, train, _ = build_dataset(args.dataset, seed=args.seed)
        warmup, hyper = train, profile.hyper
        print(
            f"warm-up: {args.dataset} surrogate — {train.n_rows} x "
            f"{train.n_cols}, {train.nnz} ratings"
        )
    else:
        drift = DriftStream(seed=args.seed)
        warmup, hyper = drift.warmup, None
        print(
            f"warm-up: drift stream — {warmup.n_rows} x {warmup.n_cols}, "
            f"{warmup.nnz} ratings"
        )

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        persist_dir=args.persist_dir,
        cache_capacity=args.cache_capacity,
        warmup_epochs=args.warmup_epochs,
        train_every=args.train_every,
        snapshot_every=args.snapshot_every,
        n_workers=args.workers,
    )
    service = RecommendationService(warmup, hyper, config)
    service.start()
    try:
        resumed = getattr(service.store, "resumed_seq", None)
        origin = (
            f"resumed from persisted snapshot seq {resumed}"
            if resumed is not None
            else "fresh warm-up snapshot"
        )
        print(
            f"serving on {service.url} ({origin}, serving seq "
            f"{service.store.latest.seq}); Ctrl-C stops"
        )
        sys.stdout.flush()
        if args.duration is not None:
            time.sleep(args.duration)
        else:
            while True:
                time.sleep(3600)
    except KeyboardInterrupt:
        print("\nshutting down (trainer converges, final snapshot rotates)")
    finally:
        service.stop()
    print(
        f"stopped: served seq {service.store.latest.seq}, "
        f"{service.stream.n_events} ratings ingested"
        + (f", persisted under {args.persist_dir}" if args.persist_dir else "")
    )
    return 0


def _run_trace(args: argparse.Namespace) -> int:
    """Record one telemetry-enabled fit and export a Chrome trace."""
    profile, train, test, run = _fit_inputs(args)
    workers = None if args.engine == "simulated" else args.workers
    result = fit(
        train,
        test,
        algorithm="nomad",
        engine=args.engine,
        hyper=profile.hyper,
        run=run,
        n_workers=workers,
        telemetry=True,
    )
    telemetry = result.telemetry
    trace = chrome_trace(telemetry)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(trace, handle)

    summary = telemetry.summary()
    kinds: dict[str, int] = {}
    for worker in telemetry.workers:
        for kind, _, _, _ in worker.events:
            name = KIND_NAMES.get(kind, str(kind))
            kinds[name] = kinds.get(name, 0) + 1
    print(result.summary())
    print(
        f"telemetry: {summary['n_workers']} workers, "
        + ", ".join(f"{count:,} {name}" for name, count in sorted(kinds.items()))
        + (
            f", {summary['events_dropped']:,} events dropped (ring wrap)"
            if summary["events_dropped"]
            else ""
        )
    )
    if summary["tokens_per_batch"]:
        print(
            f"bursts: {summary['tokens_per_batch']:,.1f} tokens, "
            f"{summary['updates_per_batch']:,.0f} updates per kernel batch "
            f"over {summary['counters']['batches']:,} batches"
        )
    hop = summary["hop_latency"]
    if hop["count"]:
        print(
            f"hop latency: p50 {hop['p50'] * 1e6:,.0f} us, "
            f"p95 {hop['p95'] * 1e6:,.0f} us, "
            f"p99 {hop['p99'] * 1e6:,.0f} us over {hop['count']:,} hops"
        )
    print(
        f"wrote {len(trace['traceEvents']):,} trace events to {args.out} "
        "(load in ui.perfetto.dev or chrome://tracing)"
    )
    return 0


def _run_analyze(args: argparse.Namespace) -> int:
    """Run nomadlint over the given paths; exit 1 on any finding."""
    if args.list_rules:
        for code, name, tier, description in rules_table():
            print(f"{code}  {tier:<9}  {name}\n    {description}")
        return 0
    report = analyze_paths(args.paths)
    sys.stdout.write(render_text(report))
    return report.exit_code


#: Subcommands whose library errors end in ``error: ...`` on stderr and
#: exit code 2 (``list`` cannot fail; ``run`` lets them propagate).
_HANDLERS = {
    "fit": _run_fit,
    "stream": _run_stream,
    "serve": _run_serve,
    "trace": _run_trace,
    "analyze": _run_analyze,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        if args.command == "list":
            for experiment_id in sorted(EXPERIMENT_REGISTRY):
                driver = EXPERIMENT_REGISTRY[experiment_id]
                first_line = (driver.__doc__ or "").strip().splitlines()[0]
                print(f"{experiment_id:18s} {first_line}")
            return 0

        handler = _HANDLERS.get(args.command)
        if handler is not None:
            try:
                return handler(args)
            except ReproError as error:
                print(f"error: {error}", file=sys.stderr)
                return 2

        result = run_experiment(args.experiment, scale=args.scale, seed=args.seed)
        sys.stdout.write(render_result(result))
        if args.outdir:
            written = result_to_csv_dir(result, args.outdir)
            print(f"wrote {len(written)} CSV files to {args.outdir}")
        return 0
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like any
        # well-behaved CLI.
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
