"""One driver per table/figure of the paper's evaluation (§5, appendices).

Every driver returns an :class:`~repro.experiments.harness.ExperimentResult`
whose series/tables correspond to the curves/panels of the original figure.
Durations are expressed in *simulated seconds* on the calibrated cluster
model (see :class:`repro.simulator.cluster.HardwareProfile` for the
calibration rationale) and scale with the ``scale`` argument:

* ``"tiny"``   — CI-sized smoke runs (quarter duration),
* ``"small"``  — the default benchmark scale,
* ``"medium"`` — longer runs for cleaner curves (3× duration).

The registry at the bottom maps experiment ids to drivers; the CLI and the
benchmark suite both go through :func:`run_experiment`.
"""

from __future__ import annotations

from typing import Callable

from ..config import HyperParams, RunConfig
from ..core.load_balance import LeastQueuePolicy, UniformPolicy
from ..core.nomad import NomadOptions
from ..datasets.ratings import train_test_split
from ..datasets.registry import PROFILES, paper_statistics
from ..datasets.synthetic import make_netflix_like
from ..errors import ExperimentError
from ..metrics.summary import (
    speedup_efficiency,
    throughput_by_config,
    time_to_threshold_table,
    trace_summary,
)
from ..rng import RngFactory
from ..simulator.cluster import Cluster
from ..simulator.network import COMMODITY_PROFILE, HPC_PROFILE
from .harness import (
    ExperimentResult,
    TEST_FRACTION,
    build_dataset,
    make_cluster,
    run_algorithm,
)

__all__ = ["EXPERIMENT_REGISTRY", "run_experiment"]

_SCALE_FACTORS = {"tiny": 0.25, "small": 1.0, "medium": 3.0}
_DATASETS = ("netflix", "yahoo", "hugewiki")

#: RMSE levels counting as "converged" for time-to-threshold tables.  The
#: surrogates plant rank-4 truth with noise 0.1; these sit comfortably
#: between the starting RMSE (~2) and each dataset's achievable floor.
_THRESHOLDS = {"netflix": 0.30, "yahoo": 0.80, "hugewiki": 0.30}

#: Per-dataset base simulated durations (seconds) at "small" scale.
_DURATIONS = {"netflix": 0.10, "yahoo": 0.15, "hugewiki": 0.10}


def _scale_factor(scale: str) -> float:
    if scale not in _SCALE_FACTORS:
        raise ExperimentError(
            f"unknown scale {scale!r}; available: {sorted(_SCALE_FACTORS)}"
        )
    return _SCALE_FACTORS[scale]


def _run_config(base_duration: float, scale: str, seed: int) -> RunConfig:
    duration = base_duration * _scale_factor(scale)
    return RunConfig(duration=duration, eval_interval=duration / 12, seed=seed)


# ----------------------------------------------------------------------
# Tables 1 and 2
# ----------------------------------------------------------------------
def table1(scale: str = "small", seed: int = 0) -> ExperimentResult:
    """Table 1: hyperparameters (paper values and surrogate values)."""
    result = ExperimentResult(
        experiment_id="table1",
        title="Hyperparameters per dataset (paper Table 1 + surrogate tuning)",
    )
    rows = []
    for profile in PROFILES.values():
        rows.append(
            {
                "dataset": profile.name,
                "paper_k": profile.paper_hyper.k,
                "paper_lambda": profile.paper_hyper.lambda_,
                "paper_alpha": profile.paper_hyper.alpha,
                "paper_beta": profile.paper_hyper.beta,
                "surrogate_k": profile.hyper.k,
                "surrogate_lambda": profile.hyper.lambda_,
                "surrogate_alpha": profile.hyper.alpha,
                "surrogate_beta": profile.hyper.beta,
            }
        )
    result.tables["hyperparameters"] = rows
    return result


def table2(scale: str = "small", seed: int = 0) -> ExperimentResult:
    """Table 2: dataset statistics — paper scale versus generated surrogates."""
    result = ExperimentResult(
        experiment_id="table2",
        title="Dataset statistics (paper Table 2 + measured surrogates)",
    )
    result.tables["declared"] = paper_statistics()
    measured = []
    for name in _DATASETS:
        profile, train, test = build_dataset(name, seed)
        nnz = train.nnz + test.nnz
        measured.append(
            {
                "dataset": name,
                "rows": train.n_rows,
                "cols": train.n_cols,
                "nnz": nnz,
                "ratings_per_item": round(nnz / train.n_cols, 1),
                "train_nnz": train.nnz,
                "test_nnz": test.nnz,
            }
        )
    result.tables["measured"] = measured
    result.notes.append(
        "ratings-per-item ordering preserved: yahoo << netflix << hugewiki"
    )
    return result


# ----------------------------------------------------------------------
# Figure 5: single machine, NOMAD vs FPSGD** vs CCD++
# ----------------------------------------------------------------------
def fig05(scale: str = "small", seed: int = 0) -> ExperimentResult:
    """Figure 5: 30-core single machine (scaled: 8 cores), three datasets."""
    result = ExperimentResult(
        experiment_id="fig05",
        title="Single machine: NOMAD vs FPSGD** vs CCD++ (paper Fig 5)",
    )
    for name in _DATASETS:
        profile, train, test = build_dataset(name, seed)
        run = _run_config(_DURATIONS[name], scale, seed)
        cluster = make_cluster(1, 8, HPC_PROFILE)
        for algo in ("NOMAD", "FPSGD**", "CCD++"):
            trace = run_algorithm(algo, train, test, cluster, profile.hyper, run)
            result.series[f"{name}/{algo}"] = trace
        result.tables[f"time_to_rmse_{name}"] = time_to_threshold_table(
            {
                algo: result.series[f"{name}/{algo}"]
                for algo in ("NOMAD", "FPSGD**", "CCD++")
            },
            _THRESHOLDS[name],
        )
    result.notes.append(
        "expected shape: NOMAD fastest initial convergence on every dataset; "
        "CCD++ slow start (feature-wise passes)"
    )
    return result


# ----------------------------------------------------------------------
# Figures 6-7: single-machine core scaling
# ----------------------------------------------------------------------
def fig06_07(scale: str = "small", seed: int = 0) -> ExperimentResult:
    """Figures 6 and 7: NOMAD core scaling on one machine.

    Left panel of Fig 6 — RMSE as a function of *updates* on yahoo for
    varying core counts; right panel — updates/core/sec per dataset;
    Fig 7 — RMSE versus seconds × cores (linear-speedup overlay).
    """
    result = ExperimentResult(
        experiment_id="fig06_07",
        title="Core scaling on one machine (paper Figs 6-7)",
    )
    core_counts = (2, 4, 8)
    throughput: dict[str, dict[int, object]] = {name: {} for name in _DATASETS}
    for name in _DATASETS:
        profile, train, test = build_dataset(name, seed)
        run = _run_config(_DURATIONS[name], scale, seed)
        for cores in core_counts:
            cluster = make_cluster(1, cores, HPC_PROFILE)
            trace = run_algorithm(
                "NOMAD", train, test, cluster, profile.hyper, run
            )
            result.series[f"{name}/cores={cores}"] = trace
            throughput[name][cores] = trace
    for name in _DATASETS:
        result.tables[f"throughput_{name}"] = throughput_by_config(
            throughput[name]
        )
        result.tables[f"speedup_{name}"] = speedup_efficiency(
            {c: t for c, t in throughput[name].items()}, _THRESHOLDS[name]
        )
    result.notes.append(
        "expected shape: throughput/core roughly flat (near-linear scaling); "
        "yahoo converges faster per update with more cores (smaller blocks, "
        "fresher item parameters)"
    )
    return result


# ----------------------------------------------------------------------
# Figure 8: HPC cluster comparison
# ----------------------------------------------------------------------
def fig08(scale: str = "small", seed: int = 0) -> ExperimentResult:
    """Figure 8: multi-machine HPC cluster, four algorithms, 3 datasets."""
    result = ExperimentResult(
        experiment_id="fig08",
        title="HPC cluster: NOMAD vs DSGD vs DSGD++ vs CCD++ (paper Fig 8)",
    )
    algos = ("NOMAD", "DSGD", "DSGD++", "CCD++")
    for name in _DATASETS:
        profile, train, test = build_dataset(name, seed)
        run = _run_config(_DURATIONS[name], scale, seed)
        cluster = make_cluster(8, 2, HPC_PROFILE)
        for algo in algos:
            trace = run_algorithm(algo, train, test, cluster, profile.hyper, run)
            result.series[f"{name}/{algo}"] = trace
        result.tables[f"time_to_rmse_{name}"] = time_to_threshold_table(
            {algo: result.series[f"{name}/{algo}"] for algo in algos},
            _THRESHOLDS[name],
        )
    result.notes.append(
        "expected shape: NOMAD fastest initial convergence on netflix and "
        "hugewiki; near-tie on yahoo (communication-bound, ~40 ratings/item "
        "per machine)"
    )
    return result


# ----------------------------------------------------------------------
# Figures 9-10: machine scaling on HPC
# ----------------------------------------------------------------------
def fig09_10(scale: str = "small", seed: int = 0) -> ExperimentResult:
    """Figures 9 and 10: NOMAD as a fixed dataset spans more machines."""
    result = ExperimentResult(
        experiment_id="fig09_10",
        title="Machine scaling on HPC (paper Figs 9-10)",
    )
    machine_counts = (1, 2, 4, 8)
    for name in _DATASETS:
        profile, train, test = build_dataset(name, seed)
        run = _run_config(_DURATIONS[name], scale, seed)
        per_config = {}
        for machines in machine_counts:
            cluster = make_cluster(machines, 2, HPC_PROFILE)
            trace = run_algorithm(
                "NOMAD", train, test, cluster, profile.hyper, run
            )
            result.series[f"{name}/machines={machines}"] = trace
            per_config[machines] = trace
        result.tables[f"throughput_{name}"] = throughput_by_config(per_config)
        result.tables[f"speedup_{name}"] = speedup_efficiency(
            per_config, _THRESHOLDS[name]
        )
    result.notes.append(
        "expected shape: near-linear scaling on netflix/hugewiki; yahoo "
        "throughput per worker degrades with machines (too few ratings per "
        "item per machine, §5.3)"
    )
    return result


# ----------------------------------------------------------------------
# Figure 11: commodity cluster comparison
# ----------------------------------------------------------------------
def fig11(scale: str = "small", seed: int = 0) -> ExperimentResult:
    """Figure 11: commodity (1 Gb/s) cluster, four algorithms.

    Core accounting follows §5.4: NOMAD dedicates half its cores to
    communication (2 compute of 4), while the bulk-synchronous baselines
    compute on all 4 — and NOMAD is expected to win regardless.
    """
    result = ExperimentResult(
        experiment_id="fig11",
        title="Commodity cluster: NOMAD vs DSGD vs DSGD++ vs CCD++ (Fig 11)",
    )
    machines = 8
    compute_cores = {"NOMAD": 2, "DSGD": 4, "DSGD++": 4, "CCD++": 4}
    for name in _DATASETS:
        profile, train, test = build_dataset(name, seed)
        run = _run_config(_DURATIONS[name] * 1.5, scale, seed)
        for algo, cores in compute_cores.items():
            cluster = make_cluster(machines, cores, COMMODITY_PROFILE)
            trace = run_algorithm(algo, train, test, cluster, profile.hyper, run)
            result.series[f"{name}/{algo}"] = trace
        result.tables[f"time_to_rmse_{name}"] = time_to_threshold_table(
            {
                algo: result.series[f"{name}/{algo}"]
                for algo in compute_cores
            },
            _THRESHOLDS[name],
        )
    result.notes.append(
        "expected shape: NOMAD's advantage is larger than on HPC (slow "
        "network punishes bulk synchronization); on yahoo NOMAD now wins "
        "clearly (paper §5.4)"
    )
    return result


# ----------------------------------------------------------------------
# Figure 12: dataset and machines grow together
# ----------------------------------------------------------------------
def fig12(scale: str = "small", seed: int = 0) -> ExperimentResult:
    """Figure 12: weak scaling with §5.5's synthetic generator."""
    result = ExperimentResult(
        experiment_id="fig12",
        title="Weak scaling: data grows with machines (paper Fig 12)",
    )
    hyper = HyperParams(k=8, lambda_=0.01, alpha=0.1, beta=0.01)
    algos = ("NOMAD", "DSGD", "DSGD++", "CCD++")
    base_users, items = 600, 200
    factory = RngFactory(seed)
    for machines in (2, 4, 8):
        users = base_users * machines
        full = make_netflix_like(
            n_users=users,
            n_items=items,
            mean_ratings_per_user=25.0,
            rng=factory.stream(f"weak-{machines}"),
            rank=4,
            noise=0.1,
        )
        train, test = train_test_split(
            full, TEST_FRACTION, factory.stream(f"weak-split-{machines}")
        )
        run = _run_config(0.10, scale, seed)
        cluster = make_cluster(machines, 2, HPC_PROFILE)
        for algo in algos:
            trace = run_algorithm(algo, train, test, cluster, hyper, run)
            result.series[f"machines={machines}/{algo}"] = trace
        result.tables[f"summary_machines={machines}"] = [
            trace_summary(result.series[f"machines={machines}/{algo}"])
            for algo in algos
        ]
    result.notes.append(
        "expected shape: NOMAD's lead widens as problem and cluster grow "
        "together (paper §5.5)"
    )
    return result


# ----------------------------------------------------------------------
# Figure 13 (Appendix A): regularization sweep
# ----------------------------------------------------------------------
def fig13(scale: str = "small", seed: int = 0) -> ExperimentResult:
    """Figure 13: NOMAD convergence across regularization strengths."""
    result = ExperimentResult(
        experiment_id="fig13",
        title="Effect of the regularization parameter (paper Fig 13)",
    )
    lambdas = (0.001, 0.01, 0.1, 0.3)
    for name in _DATASETS:
        profile, train, test = build_dataset(name, seed)
        run = _run_config(0.08, scale, seed)
        cluster = make_cluster(4, 2, HPC_PROFILE)
        rows = []
        for lambda_ in lambdas:
            hyper = profile.hyper.with_(lambda_=lambda_)
            trace = run_algorithm("NOMAD", train, test, cluster, hyper, run)
            result.series[f"{name}/lambda={lambda_}"] = trace
            rows.append(
                {
                    "lambda": lambda_,
                    "final_rmse": round(trace.final_rmse(), 5),
                    "best_rmse": round(trace.best_rmse(), 5),
                }
            )
        result.tables[f"lambda_{name}"] = rows
    result.notes.append(
        "expected shape: NOMAD converges reliably for every lambda; "
        "over-regularization raises the final RMSE floor"
    )
    return result


# ----------------------------------------------------------------------
# Figure 14 (Appendix B): latent dimension sweep
# ----------------------------------------------------------------------
def fig14(scale: str = "small", seed: int = 0) -> ExperimentResult:
    """Figure 14: NOMAD convergence across latent dimensions.

    The surrogates plant rank-4 ground truth, so k=2 underfits (elevated
    RMSE floor) while k >= 4 reaches the noise floor — the scaled analogue
    of the paper's capacity discussion.
    """
    result = ExperimentResult(
        experiment_id="fig14",
        title="Effect of the latent dimension (paper Fig 14)",
    )
    dimensions = (2, 4, 8, 16)
    name = "netflix"
    profile, train, test = build_dataset(name, seed)
    cluster = make_cluster(4, 2, HPC_PROFILE)
    rows = []
    for k in dimensions:
        run = _run_config(0.08, scale, seed)
        hyper = profile.hyper.with_(k=k)
        trace = run_algorithm("NOMAD", train, test, cluster, hyper, run)
        result.series[f"{name}/k={k}"] = trace
        rows.append(
            {
                "k": k,
                "final_rmse": round(trace.final_rmse(), 5),
                "best_rmse": round(trace.best_rmse(), 5),
                "updates": trace.total_updates(),
            }
        )
    result.tables["dimension"] = rows
    result.notes.append(
        "expected shape: k=2 underfits the rank-4 truth; k>=4 reaches the "
        "noise floor; larger k costs proportionally more per update"
    )
    return result


# ----------------------------------------------------------------------
# Figures 15-17 (Appendix C): commodity machine scaling
# ----------------------------------------------------------------------
def fig15_17(scale: str = "small", seed: int = 0) -> ExperimentResult:
    """Figures 15-17: NOMAD machine scaling on the commodity network."""
    result = ExperimentResult(
        experiment_id="fig15_17",
        title="Commodity-cluster machine scaling (paper Figs 15-17)",
    )
    machine_counts = (1, 2, 4, 8)
    for name in _DATASETS:
        profile, train, test = build_dataset(name, seed)
        run = _run_config(_DURATIONS[name] * 1.5, scale, seed)
        per_config = {}
        for machines in machine_counts:
            cluster = make_cluster(machines, 2, COMMODITY_PROFILE)
            trace = run_algorithm(
                "NOMAD", train, test, cluster, profile.hyper, run
            )
            result.series[f"{name}/machines={machines}"] = trace
            per_config[machines] = trace
        result.tables[f"throughput_{name}"] = throughput_by_config(per_config)
        result.tables[f"speedup_{name}"] = speedup_efficiency(
            per_config, _THRESHOLDS[name]
        )
    result.notes.append(
        "expected shape: linear-ish scaling on netflix/hugewiki; yahoo "
        "throughput degrades with machines (extreme sparsity per item)"
    )
    return result


# ----------------------------------------------------------------------
# Figures 18-19 (Appendix D): RMSE versus update count on HPC
# ----------------------------------------------------------------------
def fig18_19(scale: str = "small", seed: int = 0) -> ExperimentResult:
    """Figures 18-19: convergence per *update* for core/machine sweeps.

    The paper's point: more workers never hurt convergence per update — and
    on yahoo they help (fresher parameters from smaller blocks).
    """
    result = ExperimentResult(
        experiment_id="fig18_19",
        title="RMSE vs number of updates, HPC (paper Figs 18-19)",
    )
    name = "yahoo"
    profile, train, test = build_dataset(name, seed)
    run = _run_config(_DURATIONS[name], scale, seed)
    for cores in (2, 4, 8):
        cluster = make_cluster(1, cores, HPC_PROFILE)
        trace = run_algorithm("NOMAD", train, test, cluster, profile.hyper, run)
        result.series[f"single/cores={cores}"] = trace
    for machines in (2, 4, 8):
        cluster = make_cluster(machines, 2, HPC_PROFILE)
        trace = run_algorithm("NOMAD", train, test, cluster, profile.hyper, run)
        result.series[f"multi/machines={machines}"] = trace
    rows = []
    for label, trace in result.series.items():
        rows.append(
            {
                "config": label,
                "updates": trace.total_updates(),
                "final_rmse": round(trace.final_rmse(), 5),
                "updates_to_threshold": trace.updates_to_rmse(
                    _THRESHOLDS[name]
                ),
            }
        )
    result.tables["per_update_convergence"] = rows
    result.notes.append(
        "expected shape: updates-to-threshold does not degrade as workers "
        "increase (serializable updates; no staleness penalty)"
    )
    return result


# ----------------------------------------------------------------------
# Figure 20 (Appendix E): algorithm comparison across lambda
# ----------------------------------------------------------------------
def fig20(scale: str = "small", seed: int = 0) -> ExperimentResult:
    """Figure 20: NOMAD vs DSGD vs CCD++ across regularization strengths."""
    result = ExperimentResult(
        experiment_id="fig20",
        title="Lambda grid: NOMAD vs DSGD vs CCD++ (paper Fig 20)",
    )
    name = "netflix"
    profile, train, test = build_dataset(name, seed)
    cluster = make_cluster(8, 2, HPC_PROFILE)
    algos = ("NOMAD", "DSGD", "CCD++")
    for lambda_ in (0.0025, 0.01, 0.04, 0.16):
        run = _run_config(_DURATIONS[name], scale, seed)
        hyper = profile.hyper.with_(lambda_=lambda_)
        rows = {}
        for algo in algos:
            trace = run_algorithm(algo, train, test, cluster, hyper, run)
            result.series[f"lambda={lambda_}/{algo}"] = trace
            rows[algo] = trace
        result.tables[f"lambda={lambda_}"] = time_to_threshold_table(
            rows, _THRESHOLDS[name]
        )
    result.notes.append(
        "expected shape: NOMAD competitive with the better of DSGD/CCD++ at "
        "every lambda (paper Appendix E)"
    )
    return result


# ----------------------------------------------------------------------
# Figures 21-23 (Appendix F): GraphLab comparison
# ----------------------------------------------------------------------
def fig21_23(scale: str = "small", seed: int = 0) -> ExperimentResult:
    """Figures 21-23: NOMAD vs lock-server ALS (GraphLab analogue)."""
    result = ExperimentResult(
        experiment_id="fig21_23",
        title="GraphLab-ALS comparison: single/HPC/commodity (Figs 21-23)",
    )
    environments = {
        "single": make_cluster(1, 8, HPC_PROFILE),
        "hpc": make_cluster(8, 2, HPC_PROFILE),
        "commodity": make_cluster(8, 2, COMMODITY_PROFILE),
    }
    for name in ("netflix", "yahoo"):
        profile, train, test = build_dataset(name, seed)
        for env_name, cluster in environments.items():
            nomad_run = _run_config(_DURATIONS[name], scale, seed)
            # Lock-server ALS needs a longer window to show any progress;
            # wall cost stays low because its numerics are vectorized.
            graphlab_run = _run_config(_DURATIONS[name] * 20, scale, seed)
            nomad = run_algorithm(
                "NOMAD", train, test, cluster, profile.hyper, nomad_run
            )
            graphlab = run_algorithm(
                "GraphLab-ALS", train, test, cluster, profile.hyper, graphlab_run
            )
            result.series[f"{name}/{env_name}/NOMAD"] = nomad
            result.series[f"{name}/{env_name}/GraphLab-ALS"] = graphlab
            result.tables[f"{name}_{env_name}"] = time_to_threshold_table(
                {"NOMAD": nomad, "GraphLab-ALS": graphlab},
                _THRESHOLDS[name],
            )
    result.notes.append(
        "expected shape: NOMAD reaches the threshold orders of magnitude "
        "sooner; the gap is widest on the commodity network where lock "
        "round trips dominate (paper Appendix F)"
    )
    return result


# ----------------------------------------------------------------------
# Ablations (stragglers, hybrid circulation, load balancing: one choice varied)
# ----------------------------------------------------------------------
def ablation_jitter(scale: str = "small", seed: int = 0) -> ExperimentResult:
    """Straggler ablation: NOMAD vs DSGD on ideal and noisy clusters.

    Isolates the "curse of the last reducer": with jitter off the
    bulk-synchronous DSGD is nearly as fast as NOMAD; with realistic noise
    NOMAD pulls ahead because barriers pay the per-subepoch max.
    """
    result = ExperimentResult(
        experiment_id="ablation_jitter",
        title="Ablation: compute jitter and the curse of the last reducer",
    )
    name = "netflix"
    profile, train, test = build_dataset(name, seed)
    run = _run_config(_DURATIONS[name], scale, seed)
    for jitter in (0.0, 0.3, 0.6):
        cluster = make_cluster(8, 2, HPC_PROFILE, jitter=jitter)
        for algo in ("NOMAD", "DSGD"):
            trace = run_algorithm(algo, train, test, cluster, profile.hyper, run)
            result.series[f"jitter={jitter}/{algo}"] = trace
        result.tables[f"jitter={jitter}"] = time_to_threshold_table(
            {
                algo: result.series[f"jitter={jitter}/{algo}"]
                for algo in ("NOMAD", "DSGD")
            },
            _THRESHOLDS[name],
        )
    result.notes.append(
        "expected shape: DSGD's time-to-threshold inflates with jitter "
        "while NOMAD's stays nearly flat"
    )
    return result


def ablation_hybrid(scale: str = "small", seed: int = 0) -> ExperimentResult:
    """Hybrid-circulation ablation (§3.4) on the commodity network.

    Disabling intra-machine circulation forces a network hop after every
    processing stop; on a slow network this wastes most of each token's
    life in flight.
    """
    result = ExperimentResult(
        experiment_id="ablation_hybrid",
        title="Ablation: intra-machine token circulation (paper §3.4)",
    )
    from ..core.nomad import NomadSimulation

    name = "yahoo"
    profile, train, test = build_dataset(name, seed)
    run = _run_config(_DURATIONS[name], scale, seed)
    cluster = make_cluster(4, 4, COMMODITY_PROFILE)
    rows = []
    for circulate in (True, False):
        options = NomadOptions(circulate=circulate)
        simulation = NomadSimulation(
            train, test, cluster, profile.hyper, run, options=options
        )
        trace = simulation.run()
        result.series[f"circulate={circulate}"] = trace
        updates = max(simulation.total_updates, 1)
        rows.append(
            {
                "circulate": circulate,
                "network_hops": simulation.network_hops,
                "local_hops": simulation.local_hops,
                "updates_per_network_hop": round(
                    updates / max(simulation.network_hops, 1), 2
                ),
                "final_rmse": round(trace.final_rmse(), 5),
            }
        )
    result.tables["comparison"] = rows
    result.notes.append(
        "expected shape: circulation multiplies the useful work per network "
        "hop by ~the core count, cutting inter-machine traffic for the same "
        "update throughput"
    )
    return result


def ablation_balance(scale: str = "small", seed: int = 0) -> ExperimentResult:
    """Dynamic load balancing ablation (§3.3) on a heterogeneous cluster.

    One machine runs at half speed; the least-queue policy should route
    proportionally less work to it and converge faster than uniform
    routing.
    """
    result = ExperimentResult(
        experiment_id="ablation_balance",
        title="Ablation: dynamic load balancing (paper §3.3)",
    )
    name = "netflix"
    profile, train, test = build_dataset(name, seed)
    run = _run_config(_DURATIONS[name] * 1.5, scale, seed)
    import numpy as np

    speeds = np.ones(4)
    speeds[0] = 0.4  # one straggler machine
    cluster = Cluster(
        4, 2, HPC_PROFILE, machine_speeds=speeds, jitter=0.2
    )
    policies = {
        "uniform": UniformPolicy(),
        "least-queue": LeastQueuePolicy(),
    }
    for label, policy in policies.items():
        options = NomadOptions(policy=policy)
        trace = run_algorithm(
            "NOMAD", train, test, cluster, profile.hyper, run,
            nomad_options=options,
        )
        result.series[label] = trace
    result.tables["comparison"] = time_to_threshold_table(
        dict(result.series), _THRESHOLDS[name]
    )
    result.notes.append(
        "expected shape: least-queue routing outperforms uniform when one "
        "machine is a straggler"
    )
    return result


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
EXPERIMENT_REGISTRY: dict[str, Callable[..., ExperimentResult]] = {
    "table1": table1,
    "table2": table2,
    "fig05": fig05,
    "fig06_07": fig06_07,
    "fig08": fig08,
    "fig09_10": fig09_10,
    "fig11": fig11,
    "fig12": fig12,
    "fig13": fig13,
    "fig14": fig14,
    "fig15_17": fig15_17,
    "fig18_19": fig18_19,
    "fig20": fig20,
    "fig21_23": fig21_23,
    "ablation_jitter": ablation_jitter,
    "ablation_hybrid": ablation_hybrid,
    "ablation_balance": ablation_balance,
}


def run_experiment(
    experiment_id: str,
    scale: str = "small",
    seed: int = 0,
) -> ExperimentResult:
    """Run one registered experiment by id."""
    if experiment_id not in EXPERIMENT_REGISTRY:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; "
            f"available: {sorted(EXPERIMENT_REGISTRY)}"
        )
    return EXPERIMENT_REGISTRY[experiment_id](scale=scale, seed=seed)
