"""Shared machinery for the figure-reproduction benchmarks.

Each benchmark file regenerates one table/figure of the paper via the
experiment registry, at a scale controlled by the ``REPRO_BENCH_SCALE``
environment variable (default ``"small"``; set ``tiny`` for a fast smoke
pass or ``medium`` for cleaner curves).

Every run's full ASCII report is saved as a tracked ``results/*.txt``
(the README's ``repro.cli run --experiment figNN`` prints the same
report for one figure), so all of them can be regenerated with
``pytest benchmarks/ --benchmark-only``.  Those reports are
deterministic (simulated time, seeded).  The wall-clock BENCH json
payloads are not, so
:func:`write_bench_json` only touches the tracked ``results/<name>.json``
under ``REPRO_BENCH_RECORD=1`` and otherwise writes the git-ignored
``results/local/<name>.json`` — a tier-1 run leaves the tree clean.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.experiments.figures import run_experiment
from repro.experiments.report import render_result

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "..", "results")

#: Set to "1" to let a benchmark run overwrite the tracked BENCH json.
RECORD_ENV_VAR = "REPRO_BENCH_RECORD"


def write_bench_json(path: str, payload: dict) -> None:
    """Write one BENCH payload deterministically.

    Keys are sorted and a trailing newline is emitted, so regenerating an
    unchanged benchmark yields a byte-identical file — ``git diff`` on
    ``results/*.json`` then shows only genuine measurement changes.

    ``path`` names the tracked file; unless ``REPRO_BENCH_RECORD=1`` the
    payload goes to its untracked sibling under ``local/`` instead,
    because a single-shot local timing is noise in the repo's history.
    """
    if os.environ.get(RECORD_ENV_VAR) != "1":
        path = os.path.join(
            os.path.dirname(path), "local", os.path.basename(path)
        )
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def bench_scale() -> str:
    """Benchmark scale preset from the environment."""
    return os.environ.get("REPRO_BENCH_SCALE", "small")


@pytest.fixture
def bench_env():
    """(results_dir, scale) for non-figure micro-benchmarks, so they
    share the figure suite's output location and scale preset."""
    return RESULTS_DIR, bench_scale()


@pytest.fixture
def run_figure(benchmark):
    """Run one registered experiment under pytest-benchmark, save report."""

    def runner(experiment_id: str, seed: int = 0):
        result = benchmark.pedantic(
            run_experiment,
            args=(experiment_id,),
            kwargs={"scale": bench_scale(), "seed": seed},
            rounds=1,
            iterations=1,
        )
        report = render_result(result)
        os.makedirs(RESULTS_DIR, exist_ok=True)
        path = os.path.join(RESULTS_DIR, f"{experiment_id}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(report)
        print()
        print(report)
        return result

    return runner


def threshold_time(result, series_key):
    """time_to_rmse helper reading a series by label."""
    return result.series[series_key]
