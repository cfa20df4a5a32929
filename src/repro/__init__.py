"""repro — a reproduction of NOMAD (Yun et al., VLDB 2014).

NOMAD is a non-locking, stochastic, multi-machine, asynchronous and
decentralized matrix completion algorithm: user factors are partitioned
once, item factors travel between workers as *nomadic tokens*, and the
owner-computes rule makes every update conflict-free — hence serializable —
without a single lock or barrier.

The package provides:

* one entry point, :func:`repro.fit`: any registered algorithm on any
  supporting engine — ``fit(train, test, algorithm="nomad",
  engine="simulated")`` — returning a uniform :class:`repro.FitResult`
  (convergence trace, trained factors, deployable model, timing block),
  with ``init_factors=`` warm starts honored everywhere;
* four stock engines behind the facade: the deterministic discrete-event
  cluster simulator, real thread- and process-based NOMAD runtimes, and
  a socket-based ``"cluster"`` engine whose workers exchange serialized
  token envelopes over localhost TCP with no shared memory — all
  registry entries (:data:`repro.ENGINES`), so future substrates plug in
  without new public classes;
* a streaming subsystem (:mod:`repro.stream`) behind
  :func:`repro.fit_stream`, the one way into the in-process warm-start
  NOMAD trainer: online rating ingestion with §4 fold-in of
  new users/items, prequential scoring, rotating immutable serving
  snapshots, and a stateless :class:`repro.Recommender` serving front;
* an HTTP recommendation service (:mod:`repro.serve`, CLI
  ``repro-nomad serve``): :class:`repro.RecommendationService` answers
  ``/predict`` and ``/recommend`` traffic from the newest snapshot while
  a background trainer folds POSTed ratings in through a live
  :class:`repro.QueueStream`, with optional durable persistence so a
  restarted server resumes from the newest snapshot on disk;
* every baseline of the paper's evaluation (DSGD, DSGD++, FPSGD**, CCD++,
  a GraphLab-style lock-server ALS, Hogwild) in the algorithm registry
  (:data:`repro.ALGORITHMS`);
* shape-preserving surrogates of the Netflix / Yahoo! Music / Hugewiki
  datasets, and the synthetic weak-scaling generator of §5.5;
* an experiment harness regenerating every table and figure
  (:func:`repro.run_experiment`).

Quickstart::

    import repro
    from repro import RunConfig

    profile, train, test = repro.build_dataset("netflix", seed=0)
    result = repro.fit(train, test, algorithm="nomad", engine="simulated",
                       hyper=profile.hyper,
                       run=RunConfig(duration=0.1, eval_interval=0.01))
    print(result.trace.final_rmse())
    print(result.model.recommend(user=0, top_n=5))

Swap ``engine="simulated"`` for ``"threaded"``, ``"multiprocess"``, or
``"cluster"`` to run the same NOMAD protocol on live concurrency
primitives (``duration`` then means real wall seconds).  Unsupported
(algorithm, engine) pairs raise :class:`repro.ConfigError` listing every
valid combination.
"""

from .api import (
    ALGORITHMS,
    ENGINES,
    AlgorithmSpec,
    EngineSpec,
    FitResult,
    FitTiming,
    StreamResult,
    fit,
    fit_stream,
    register_algorithm,
    register_engine,
    supported_pairs,
)
from .config import HyperParams, RunConfig
from .core.load_balance import (
    LeastQueuePolicy,
    PowerOfTwoPolicy,
    RecipientPolicy,
    UniformPolicy,
)
from .core.nomad import NomadOptions
from .core.serializability import (
    UpdateEvent,
    conflict_graph,
    is_serializable,
    replay,
)
from .datasets import (
    RatingMatrix,
    SyntheticSpec,
    load_profile,
    make_low_rank,
    make_netflix_like,
    train_test_split,
)
from .errors import (
    ClusterError,
    ConfigError,
    DataError,
    DivergenceError,
    ExperimentError,
    ReproError,
    ServeError,
    SimulationError,
    TokenConservationError,
    WireError,
    WorkerLostError,
)
from .experiments import (
    EXPERIMENT_REGISTRY,
    ExperimentResult,
    build_dataset,
    render_result,
    run_experiment,
)
from .linalg import FactorPair, init_factors, test_rmse, regularized_objective
from .linalg.losses import AbsoluteLoss, HuberLoss, Loss, SquaredLoss
from .model import CompletionModel
from .rng import RngFactory
from .serve import CacheStats, RecommendationService, ServiceConfig
from .stream import (
    Arrivals,
    DriftStream,
    ModelSnapshot,
    PrequentialTrace,
    QueueStream,
    RatingStream,
    Recommender,
    ReplayStream,
    SnapshotStore,
)
from .simulator import (
    COMMODITY_PROFILE,
    Cluster,
    HardwareProfile,
    HPC_PROFILE,
    NetworkModel,
    PAPER_HARDWARE,
    Trace,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # solver facade
    "fit",
    "fit_stream",
    "FitResult",
    "FitTiming",
    "StreamResult",
    "ALGORITHMS",
    "ENGINES",
    "AlgorithmSpec",
    "EngineSpec",
    "register_algorithm",
    "register_engine",
    "supported_pairs",
    # streaming subsystem
    "Arrivals",
    "RatingStream",
    "ReplayStream",
    "DriftStream",
    "QueueStream",
    "ModelSnapshot",
    "PrequentialTrace",
    "SnapshotStore",
    "Recommender",
    # serving
    "CacheStats",
    "RecommendationService",
    "ServiceConfig",
    # configuration
    "HyperParams",
    "RunConfig",
    # NOMAD options and routing policies
    "NomadOptions",
    "RecipientPolicy",
    "UniformPolicy",
    "LeastQueuePolicy",
    "PowerOfTwoPolicy",
    # serializability
    "UpdateEvent",
    "conflict_graph",
    "is_serializable",
    "replay",
    # datasets
    "RatingMatrix",
    "SyntheticSpec",
    "make_low_rank",
    "make_netflix_like",
    "train_test_split",
    "load_profile",
    # numerics
    "FactorPair",
    "init_factors",
    "test_rmse",
    "regularized_objective",
    "Loss",
    "SquaredLoss",
    "AbsoluteLoss",
    "HuberLoss",
    "CompletionModel",
    # cluster presets
    "Cluster",
    "HardwareProfile",
    "PAPER_HARDWARE",
    "NetworkModel",
    "HPC_PROFILE",
    "COMMODITY_PROFILE",
    "Trace",
    # experiments
    "ExperimentResult",
    "EXPERIMENT_REGISTRY",
    "build_dataset",
    "run_experiment",
    "render_result",
    # rng / errors
    "RngFactory",
    "ReproError",
    "ConfigError",
    "DataError",
    "SimulationError",
    "DivergenceError",
    "ExperimentError",
    "WireError",
    "ClusterError",
    "TokenConservationError",
    "WorkerLostError",
    "ServeError",
]
