"""Assembly layer: datasets, clusters, and algorithm construction.

The figure drivers in :mod:`repro.experiments.figures` compose three
ingredients, all provided here:

* :func:`build_dataset` — generate a registry surrogate and its fixed
  train/test split (one split shared by all algorithms, §5.1).
* :func:`make_cluster` — a simulated topology with the experiment's
  network profile and jitter level.
* :func:`run_algorithm` — run any optimizer by name with a uniform
  signature (a thin wrapper over :func:`repro.fit` on the simulated
  engine, kept because the figure drivers want a bare
  :class:`~repro.simulator.trace.Trace`).

Default jitter levels follow the environments' character: HPC nodes are
lightly noisy, multi-tenant commodity VMs noisier (§5.4's AWS cluster).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..api import fit, resolve_algorithm
from ..config import HyperParams, RunConfig
from ..core.nomad import NomadOptions
from ..datasets.ratings import RatingMatrix, train_test_split
from ..datasets.registry import DatasetProfile, load_profile
from ..errors import ConfigError, ExperimentError
from ..rng import RngFactory
from ..simulator.cluster import Cluster
from ..simulator.network import HPC_PROFILE, NetworkModel
from ..simulator.trace import Trace

__all__ = [
    "ExperimentResult",
    "build_dataset",
    "make_cluster",
    "run_algorithm",
    "HPC_JITTER",
    "COMMODITY_JITTER",
    "TEST_FRACTION",
]

#: Held-out fraction used by every experiment.
TEST_FRACTION = 0.2

#: Transient compute-noise sigma of a dedicated HPC node.
HPC_JITTER = 0.2

#: Transient compute-noise sigma of a multi-tenant commodity VM.
COMMODITY_JITTER = 0.3


@dataclass
class ExperimentResult:
    """Everything a figure driver produces.

    Attributes
    ----------
    experiment_id:
        Registry key, e.g. ``"fig08"``.
    title:
        Human-readable description matching the paper's caption.
    series:
        Label → :class:`~repro.simulator.trace.Trace` convergence curves.
    tables:
        Name → list-of-dict tables (throughput, speedups, statistics).
    notes:
        Free-form remarks recorded by the driver (shape observations).
    """

    experiment_id: str
    title: str
    series: dict[str, Trace] = field(default_factory=dict)
    tables: dict[str, list[dict]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


def build_dataset(
    profile_name: str,
    seed: int,
    row_scale: float = 1.0,
) -> tuple[DatasetProfile, RatingMatrix, RatingMatrix]:
    """Generate a surrogate dataset and its canonical train/test split.

    The split is a function of (profile, seed) only, so every algorithm in
    an experiment sees identical data — the paper's protocol.
    """
    factory = RngFactory(seed)
    profile, full = load_profile(
        profile_name, factory.stream(f"data-{profile_name}"), row_scale
    )
    train, test = train_test_split(
        full, TEST_FRACTION, factory.stream(f"split-{profile_name}")
    )
    return profile, train, test


def make_cluster(
    machines: int,
    cores: int,
    network: NetworkModel = HPC_PROFILE,
    jitter: float | None = None,
) -> Cluster:
    """Build a simulated cluster with environment-appropriate jitter."""
    if jitter is None:
        jitter = (
            COMMODITY_JITTER if network.name.startswith("commodity") else HPC_JITTER
        )
    return Cluster(machines, cores, network, jitter=jitter)


def run_algorithm(
    name: str,
    train: RatingMatrix,
    test: RatingMatrix,
    cluster: Cluster,
    hyper: HyperParams,
    run: RunConfig,
    nomad_options: NomadOptions | None = None,
    **kwargs,
) -> Trace:
    """Run one optimizer by registry name on the simulated engine.

    Delegates to :func:`repro.fit`; ``nomad_options`` is forwarded only
    when the named algorithm is NOMAD (the historic behaviour — figure
    drivers pass one options object across algorithm sweeps).
    """
    try:
        spec = resolve_algorithm(name)
    except ConfigError as error:
        raise ExperimentError(str(error)) from error
    options = nomad_options if spec.accepts_nomad_options else None
    result = fit(
        train,
        test,
        algorithm=spec.name,
        engine="simulated",
        hyper=hyper,
        run=run,
        cluster=cluster,
        options=options,
        **kwargs,
    )
    return result.trace
