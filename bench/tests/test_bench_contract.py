"""BENCHMARK.json and the runner agree: names are well-formed, within
the limits, and every one of them is emitted by a ``--smoke`` run."""

import json
import os
import re
import subprocess
import sys

import pytest

pytest.importorskip("repro")

from bench import workloads  # noqa: E402
from bench.run import ROOT, load_spec  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_spec_is_well_formed():
    spec = load_spec()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["paths"] == ["bench"]
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    names = (
        [w["name"] for w in spec["workloads"]]
        + [m["name"] for m in spec["end_to_end"]]
        + [m["name"] for m in spec["per_layer"]]
    )
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert [w["name"] for w in spec["workloads"]] == [
        name for name in workloads.WORKLOADS if name not in workloads.EXTENDED
    ]


def _smoke(workload: str, trace: int, detail: str | None = None) -> dict:
    proc = subprocess.run(
        [sys.executable, "-m", "bench.run", "--workload", workload,
         "--seed", "0", "--trace", str(trace), "--smoke"]
        + (["--detail", detail] if detail else []),
        cwd=ROOT, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr[-2000:]
    assert result["attempted"] >= 1
    return result["metrics"]


@pytest.mark.parametrize("workload", ["sim-netflix", "serve-read"])
def test_smoke_run_emits_every_end_to_end_metric(workload):
    spec = load_spec()
    metrics = _smoke(workload, trace=0)
    assert set(metrics) == {m["name"] for m in spec["end_to_end"]}
    for metric in spec["end_to_end"]:
        got = metrics[metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] > 0  # end-to-end metrics are never 0


def test_traced_smoke_runs_cover_every_layer_metric(tmp_path):
    # Each workload's traced run carries every per-layer name; a layer
    # the workload bypasses reads 0 there and is absent from the detail
    # file.  Across the workloads that between them touch every layer,
    # each name must be measured at least once.
    spec = load_spec()
    declared = {m["name"] for m in spec["per_layer"]}
    measured = set()
    detail = str(tmp_path / "detail.json")
    for workload in (
        "mp-sparse", "cluster-sparse", "sim-netflix", "stream-replay",
        "serve-mixed",
    ):
        metrics = _smoke(workload, trace=1, detail=detail)
        assert set(metrics) == declared
        with open(detail, encoding="utf-8") as handle:
            on_path = set(json.load(handle)["on_path"])
        assert on_path <= declared
        measured |= on_path
        bypassed = [n for n in on_path if n.startswith("cluster.wire_")]
        assert bool(bypassed) == (workload == "cluster-sparse")
    assert measured == declared
