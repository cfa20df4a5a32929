"""Experiment harness reproducing every table and figure of the paper.

* :mod:`~repro.experiments.harness` — dataset/cluster/algorithm assembly.
* :mod:`~repro.experiments.figures` — one driver per paper table/figure;
  see ``EXPERIMENT_REGISTRY`` for the full index.
* :mod:`~repro.experiments.report` — ASCII rendering and CSV export.
"""

from .harness import (
    ExperimentResult,
    build_dataset,
    make_cluster,
    run_algorithm,
)
from .figures import EXPERIMENT_REGISTRY, run_experiment
from .report import render_result, result_to_csv_dir

__all__ = [
    "ExperimentResult",
    "build_dataset",
    "make_cluster",
    "run_algorithm",
    "EXPERIMENT_REGISTRY",
    "run_experiment",
    "render_result",
    "result_to_csv_dir",
]
