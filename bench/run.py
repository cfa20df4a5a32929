"""``python -m bench.run`` — the one benchmark command.

With ``--workload NAME`` it runs that workload once in this process and
prints, as the last line of stdout, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` (every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``).
Without ``--workload`` it runs every workload that way in a subprocess
each, ``--runs`` times, and writes ``bench/out/<run-id>.json`` with
commit, machine fingerprint, input hashes and n / median / min / max /
IQR per metric — the file ``python -m bench.compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
SMOKE_SECONDS = 1.5


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _make_importable() -> None:
    """Make ``src/`` and the benchmark importable here and in the
    processes this one starts."""
    source = os.path.join(ROOT, "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [source, ROOT] + [p for p in (os.environ.get("PYTHONPATH"),) if p]
    )
    for path in (ROOT, source):
        if path not in sys.path:
            sys.path.insert(0, path)


def _confine_to_checkout() -> str:
    """Point every scratch location at the checkout; returns the
    scratch dir."""
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    os.environ["TMPDIR"] = scratch
    tempfile.tempdir = scratch
    os.environ.setdefault(
        "NOMAD_CEXT_CACHE", os.path.join(ROOT, ".bench_build", "cext")
    )
    _make_importable()
    return scratch


#: Fresh interpreters that time the import of the program, half before
#: the workload and half after it.
IMPORT_PROBES = 4


def _import_seconds() -> float:
    """Seconds a fresh interpreter takes to import the program (what
    every user pays once per process), timed inside that interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import time; t = time.perf_counter(); "
         "from bench import serving, training, workloads; "
         "print(time.perf_counter() - t)"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def _stop_resource_tracker() -> None:
    """multiprocessing starts a tracker process behind shared memory and
    spawn; it is this run's child, so this run stops it and waits."""
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def run_one(args, spec: dict) -> int:
    scratch = _confine_to_checkout()
    try:
        return _run_one(args, spec, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run_one(args, spec: dict, scratch: str) -> int:
    from bench.guard import Guard

    guard = Guard(ROOT)
    # Without the program beside the benchmark this raises, and the run
    # ends with no result.
    from bench import serving, training, workloads
    from bench.stats import fast_quantile
    from bench.trace import SpanRecorder

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    traced = bool(args.trace)
    # Importing the program is set-up too; this process's own import is
    # one cold sample, so fresh interpreters repeat it around the run.
    probes = 0 if traced or args.smoke else IMPORT_PROBES
    import_s = [_import_seconds() for _ in range(probes // 2)]
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    workload = workloads.WORKLOADS[args.workload].sized(args.smoke)
    recorder = SpanRecorder(workload.name) if traced else None
    try:
        if workload.kind == "serve":
            outcome = serving.run(
                workload, args.seed, seconds, traced, args.smoke, recorder,
                scratch,
            )
        else:
            outcome = training.run(
                workload, args.seed, seconds, traced, args.smoke, recorder
            )
    finally:
        _stop_resource_tracker()
    import_s += [_import_seconds() for _ in range(probes - len(import_s))]
    if import_s and "setup_s" in outcome.metrics:
        value, samples = outcome.metrics["setup_s"]
        imported = fast_quantile(import_s, "lower", 0.25)
        outcome.put(
            "setup_s", [s + imported for s in samples], value + imported
        )
    for problem in guard.violations(scratch):
        outcome.check(False, f"cleanliness: {problem}")

    declared = spec["per_layer"] if traced else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    line = {}
    for name in (m["name"] for m in declared):
        value = outcome.metrics.get(name, (None,))[0]
        if value is None and not traced:
            outcome.fail(f"end-to-end metric {name} was not measured")
        elif value is not None and not math.isfinite(value):
            outcome.fail(f"{name} is not finite")  # never a number
            value = None
        # A layer this workload bypasses did no work: it reads 0.
        line[name] = {"value": 0 if value is None else value, "unit": units[name]}
    undeclared = sorted(set(outcome.metrics) - set(units))
    if undeclared:
        outcome.fail(f"metrics missing from BENCHMARK.json: {undeclared}")

    run_id = args.run_id or _new_run_id()
    if traced:
        recorder.write(
            os.path.join(OUT_DIR, f"trace-{run_id}-{workload.name}.json"),
            {"seed": args.seed, "run_id": run_id},
        )
    for name in sorted(outcome.metrics):
        value, samples = outcome.metrics[name]
        print(f"{workload.name:15s} {name:40s} {value:16.6g} "
              f"{units.get(name, '?'):6s} n={len(samples)}")
    for error in outcome.errors:
        print(f"{workload.name:15s} FAILED: {error}", file=sys.stderr)
    if args.detail:
        with open(args.detail, "w", encoding="utf-8") as handle:
            json.dump({
                "input_hash": outcome.input_hash,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "errors": outcome.errors,
                "exact": outcome.exact,
                # bypassed layers are absent here, not zero
                "on_path": sorted(outcome.metrics),
                "metrics": {
                    name: {"value": value, "samples": samples}
                    for name, (value, samples) in outcome.metrics.items()
                },
            }, handle)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": line,
    }))
    return 0


def _new_run_id() -> str:
    return time.strftime("%Y%m%dT%H%M%S") + f"-{os.getpid()}"


# ----------------------------------------------------------------------
# Every workload, one subprocess each
# ----------------------------------------------------------------------
def _fingerprint() -> dict:
    def output(command):
        try:
            return subprocess.run(
                command, capture_output=True, text=True, timeout=30, cwd=ROOT
            ).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            return ""

    return {
        "commit": output(["git", "rev-parse", "HEAD"]) or None,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cc": output(["cc", "--version"]).splitlines()[:1],
        "machine": platform.machine(),
    }


def _run_in_subprocess(args, name: str, run: int, run_id: str) -> dict:
    """One ``--workload`` run; returns its detail record."""
    detail_path = os.path.join(OUT_DIR, f".detail-{run_id}.json")
    command = [
        sys.executable, "-m", "bench.run", "--workload", name,
        "--seed", str(args.seed + run), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--detail", detail_path,
        "--run-id", run_id,
    ] + (["--smoke"] if args.smoke else [])
    proc = subprocess.run(command, cwd=ROOT, timeout=600)
    try:
        with open(detail_path, encoding="utf-8") as handle:
            detail = json.load(handle)
        os.unlink(detail_path)
        return detail
    except OSError:
        return {
            "input_hash": None, "attempted": 1, "failed": 1, "exact": {},
            "errors": [f"run exited {proc.returncode} with no result"],
            "metrics": {},
        }


def run_all(args, spec: dict) -> int:
    _make_importable()
    from bench.guard import git_status
    from bench.stats import summarize
    from bench.workloads import WORKLOADS

    os.makedirs(OUT_DIR, exist_ok=True)
    run_id = args.run_id or _new_run_id()
    git_before = git_status(ROOT)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    report = {
        "run_id": run_id,
        "seed": args.seed,
        "runs": args.runs,
        "seconds": SMOKE_SECONDS if args.smoke else args.seconds,
        "traced": bool(args.trace),
        "smoke": args.smoke,
        **_fingerprint(),
        "workloads": {},
    }
    for name in WORKLOADS:
        details = [
            _run_in_subprocess(args, name, run, run_id)
            for run in range(args.runs)
        ]
        entry = report["workloads"][name] = {
            "input_hashes": [d["input_hash"] for d in details],
            "attempted": sum(d["attempted"] for d in details),
            "failed": sum(d["failed"] for d in details),
            "errors": [e for d in details for e in d["errors"]],
            "exact": [d["exact"] for d in details],
            "metrics": {},
        }
        for metric in sorted({m for d in details for m in d["metrics"]}):
            blocks = [d["metrics"][metric] for d in details if metric in d["metrics"]]
            # With repeated runs the run values are the sample; a single
            # run is summarized over its own trials.
            if len(blocks) >= 2:
                values = [block["value"] for block in blocks]
                summary = summarize(values)
            else:
                values = blocks[0]["samples"]
                summary = {**summarize(values), "median": blocks[0]["value"]}
            entry["metrics"][metric] = {
                "unit": units.get(metric, "?"), **summary, "values": values,
            }
    path = os.path.join(OUT_DIR, f"{run_id}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
        handle.write("\n")

    print(f"\n{'workload':15s} {'metric':40s} {'median':>14s} {'unit':6s} "
          f"{'n':>3s} {'iqr/median':>10s}")
    failed = False
    for name, entry in report["workloads"].items():
        for metric, block in entry["metrics"].items():
            spread = block["iqr"] / abs(block["median"]) if block["median"] else 0.0
            print(f"{name:15s} {metric:40s} {block['median']:14.6g} "
                  f"{block['unit']:6s} {block['n']:3d} {spread:10.3f}")
        print(f"{name:15s} {'fail_share':40s} "
              f"{entry['failed'] / max(entry['attempted'], 1):14.6g} "
              f"({entry['failed']}/{entry['attempted']})")
        failed |= entry["failed"] > 0
    if git_before is not None and git_status(ROOT) != git_before:
        print("cleanliness: git status changed during the run", file=sys.stderr)
        failed = True
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.run", description=__doc__)
    parser.add_argument("--workload", help="run only this workload, in-process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny shapes and windows (tests only)")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload when running them all; run i "
                             "uses seed+i")
    parser.add_argument("--detail", help=argparse.SUPPRESS)
    parser.add_argument("--run-id", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.workload:
        return run_one(args, spec)
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
