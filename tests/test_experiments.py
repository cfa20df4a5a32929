"""Tests for the experiment harness, report rendering, and CLI."""

from __future__ import annotations

import pytest

from repro.api import ALGORITHMS
from repro.cli import build_parser, main
from repro.config import HyperParams, RunConfig
from repro.errors import ExperimentError
from repro.experiments.figures import EXPERIMENT_REGISTRY, run_experiment
from repro.experiments.harness import (
    ExperimentResult,
    build_dataset,
    make_cluster,
    run_algorithm,
)
from repro.experiments.report import (
    ascii_table,
    format_trace,
    render_result,
    result_to_csv_dir,
)
from repro.simulator.network import COMMODITY_PROFILE, HPC_PROFILE
from repro.simulator.trace import Trace


class TestHarness:
    def test_build_dataset_deterministic(self):
        _, train_a, test_a = build_dataset("netflix", seed=5)
        _, train_b, test_b = build_dataset("netflix", seed=5)
        assert train_a == train_b
        assert test_a == test_b

    def test_build_dataset_seed_sensitivity(self):
        _, train_a, _ = build_dataset("netflix", seed=5)
        _, train_b, _ = build_dataset("netflix", seed=6)
        assert train_a != train_b

    def test_make_cluster_jitter_defaults(self):
        hpc = make_cluster(2, 2, HPC_PROFILE)
        commodity = make_cluster(2, 2, COMMODITY_PROFILE)
        assert hpc.jitter < commodity.jitter

    def test_make_cluster_explicit_jitter(self):
        assert make_cluster(2, 2, HPC_PROFILE, jitter=0.0).jitter == 0.0

    def test_run_algorithm_by_name(self, tiny_split):
        train, test = tiny_split
        cluster = make_cluster(1, 2, HPC_PROFILE, jitter=0.0)
        run = RunConfig(duration=0.005, eval_interval=0.001, seed=1)
        hyper = HyperParams(k=4, lambda_=0.01, alpha=0.1, beta=0.01)
        trace = run_algorithm("NOMAD", train, test, cluster, hyper, run)
        assert trace.algorithm == "NOMAD"

    def test_unknown_algorithm(self, tiny_split):
        train, test = tiny_split
        cluster = make_cluster(1, 2, HPC_PROFILE)
        with pytest.raises(ExperimentError, match="unknown algorithm"):
            run_algorithm(
                "SVD++", train, test, cluster,
                HyperParams(k=4), RunConfig(duration=0.01, eval_interval=0.002),
            )

    def test_registry_contains_paper_algorithms(self):
        # run_algorithm runs each of them on the simulated engine.
        for name in ("NOMAD", "DSGD", "DSGD++", "FPSGD**", "CCD++",
                     "GraphLab-ALS"):
            assert ALGORITHMS[name].simulated is not None

    def test_same_seed_same_initialization_across_algorithms(self, tiny_split):
        """§5.1: all algorithms start from the same initial parameters."""
        import numpy as np

        from repro.baselines.dsgd import DSGDSimulation
        from repro.core.nomad import NomadSimulation

        train, test = tiny_split
        cluster = make_cluster(1, 2, HPC_PROFILE, jitter=0.0)
        run = RunConfig(duration=0.005, eval_interval=0.001, seed=11)
        hyper = HyperParams(k=4, lambda_=0.01, alpha=0.1, beta=0.01)
        nomad = NomadSimulation(train, test, cluster, hyper, run)
        dsgd = DSGDSimulation(train, test, cluster, hyper, run)
        assert np.allclose(nomad.factors.w, dsgd.factors.w)
        assert np.allclose(nomad.factors.h, dsgd.factors.h)


class TestExperimentRegistry:
    def test_every_table_and_figure_present(self):
        expected = {
            "table1", "table2", "fig05", "fig06_07", "fig08", "fig09_10",
            "fig11", "fig12", "fig13", "fig14", "fig15_17", "fig18_19",
            "fig20", "fig21_23",
        }
        assert expected <= set(EXPERIMENT_REGISTRY)

    def test_ablations_present(self):
        assert {"ablation_jitter", "ablation_hybrid", "ablation_balance"} <= set(
            EXPERIMENT_REGISTRY
        )

    def test_unknown_experiment(self):
        with pytest.raises(ExperimentError, match="unknown experiment"):
            run_experiment("fig99")

    def test_unknown_scale(self):
        with pytest.raises(ExperimentError, match="unknown scale"):
            run_experiment("fig05", scale="gigantic")

    def test_table_experiments_run_fast(self):
        result = run_experiment("table1")
        assert result.tables["hyperparameters"]
        result = run_experiment("table2")
        assert len(result.tables["measured"]) == 3

    def test_fig14_tiny_runs_end_to_end(self):
        """One real figure driver exercised in-tests (the cheapest sweep)."""
        result = run_experiment("fig14", scale="tiny")
        assert len(result.series) == 4
        rows = result.tables["dimension"]
        floors = {row["k"]: row["best_rmse"] for row in rows}
        # k=2 underfits the rank-4 planted truth.
        assert floors[2] > floors[8]


class TestReport:
    def make_result(self):
        trace = Trace(algorithm="NOMAD", n_workers=2)
        trace.add(0.0, 0, 2.0)
        trace.add(1.0, 50, 0.5)
        return ExperimentResult(
            experiment_id="figXX",
            title="A test figure",
            series={"netflix/NOMAD": trace},
            tables={"stats": [{"a": 1, "b": None}, {"a": 2, "b": 3.5}]},
            notes=["a note"],
        )

    def test_ascii_table_alignment(self):
        text = ascii_table([{"x": 1, "yy": "abc"}, {"x": 22, "yy": "d"}])
        lines = text.strip().split("\n")
        assert len(lines) == 4
        assert lines[0].startswith("x ")

    def test_ascii_table_empty(self):
        assert "(empty)" in ascii_table([], title="t")

    def test_none_rendered_as_dash(self):
        text = ascii_table([{"a": None}])
        assert "-" in text.split("\n")[2]

    def test_format_trace_downsamples(self):
        trace = Trace(algorithm="X", n_workers=1)
        for t in range(50):
            trace.add(float(t), t, 2.0 - 0.01 * t)
        line = format_trace("label", trace)
        assert line.count("@") == 8

    def test_render_result_contains_everything(self):
        text = render_result(self.make_result())
        assert "figXX" in text
        assert "netflix/NOMAD" in text
        assert "stats" in text
        assert "a note" in text

    def test_csv_export(self, tmp_path):
        result = self.make_result()
        written = result_to_csv_dir(result, str(tmp_path))
        assert len(written) == 2
        series_csv = next(p for p in written if "table" not in p)
        content = open(series_csv).read()
        assert content.startswith("time,updates,rmse")


class TestCLI:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig08" in out
        assert "table2" in out

    def test_run_table(self, capsys):
        assert main(["run", "--experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "hyperparameters" in out

    def test_run_with_outdir(self, tmp_path, capsys):
        code = main(
            ["run", "--experiment", "table2", "--outdir", str(tmp_path)]
        )
        assert code == 0
        assert list(tmp_path.iterdir())

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["run", "--experiment", "nope"])

    def test_parser_has_scale_choices(self):
        parser = build_parser()
        args = parser.parse_args(
            ["run", "--experiment", "fig05", "--scale", "tiny"]
        )
        assert args.scale == "tiny"

    def test_fit_command_smoke(self, capsys):
        assert main(["fit", "--duration", "0.002"]) == 0
        out = capsys.readouterr().out
        assert "NOMAD on simulated" in out

    def test_fit_list_prints_matrix(self, capsys):
        assert main(["fit", "--list"]) == 0
        out = capsys.readouterr().out
        assert "NOMAD" in out and "multiprocess" in out

    def test_fit_rejects_unsupported_pair(self, capsys):
        assert main(["fit", "--algorithm", "dsgd", "--engine", "threaded"]) == 2
        err = capsys.readouterr().err
        assert "supported combinations" in err

    def test_fit_rejects_workers_on_simulated(self, capsys):
        code = main(["fit", "--engine", "simulated", "--workers", "4"])
        assert code == 2
        assert "--workers" in capsys.readouterr().err
