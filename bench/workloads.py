"""The seven workloads (four the driver judges, three extended): shapes
and hyperparameters pinned numerically, and the seeded input generation
every run starts from.

Nothing here reads ``repro.datasets.registry``: a later change to the
registry's surrogates must not silently change what the benchmark runs.
Inputs are built with the public ``make_low_rank`` + ``train_test_split``
from ``--seed`` alone, so the same seed gives the same bytes (see
:func:`content_hash`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import zlib
from dataclasses import dataclass

import numpy as np

from repro import HyperParams, SyntheticSpec, make_low_rank, train_test_split
from repro.datasets.ratings import RatingMatrix

__all__ = [
    "Workload",
    "WORKLOADS",
    "EXTENDED",
    "FitInputs",
    "ServeInputs",
    "make_fit_inputs",
    "make_stream_matrix",
    "make_serve_inputs",
    "content_hash",
    "zipf_users",
]

#: Planted rank and observation noise of every generated matrix; the
#: achievable test RMSE is about the noise level.
RANK = 4
NOISE = 0.1
TEST_FRACTION = 0.2


@dataclass(frozen=True)
class Workload:
    """One named set of inputs plus the engine call it drives.

    ``kind`` picks the runner: ``"fit"`` (``repro.fit``), ``"stream"``
    (``repro.fit_stream``) or ``"serve"`` (``RecommendationService`` in a
    child process).  ``rmse_ceiling`` is the correctness bound on the
    final RMSE, pinned from this benchmark's own runs with ~25% headroom;
    ``smoke_*`` are the small shapes of ``--smoke`` (tests only).
    """

    name: str
    kind: str
    rows: int
    cols: int
    density: float
    k: int
    lambda_: float
    alpha: float
    beta: float
    rmse_ceiling: float
    smoke_rows: int
    smoke_cols: int
    engine: str = ""
    window_s: float = 0.0

    @property
    def hyper(self) -> HyperParams:
        return HyperParams(
            k=self.k, lambda_=self.lambda_, alpha=self.alpha, beta=self.beta
        )

    def sized(self, smoke: bool) -> "Workload":
        """This workload at the shape the run uses."""
        if not smoke:
            return self
        return dataclasses.replace(
            self, rows=self.smoke_rows, cols=self.smoke_cols
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # hugewiki shape x8 rows: ~2880 updates per token visit.  alpha is
        # 0.02, not the registry's 0.1, which diverges to NaN at k=32.
        Workload("mp-dense", "fit", 12000, 60, 0.60, 32, 0.01, 0.02, 0.01,
                 rmse_ceiling=0.16, smoke_rows=1500, smoke_cols=60,
                 engine="multiprocess", window_s=2.0),
        # yahoo shape and hypers: ~24 updates per token visit.
        Workload("mp-sparse", "fit", 1000, 1000, 0.06, 8, 0.02, 0.08, 0.001,
                 rmse_ceiling=0.20, smoke_rows=300, smoke_cols=300,
                 engine="multiprocess", window_s=0.5),
        # same inputs as mp-sparse but k=32: 272 bytes per token on the wire.
        Workload("cluster-sparse", "fit", 1000, 1000, 0.06, 32, 0.02, 0.08,
                 0.001, rmse_ceiling=0.22, smoke_rows=300, smoke_cols=300,
                 engine="cluster", window_s=2.0),
        # netflix shape on the simulator (2 machines x 2 cores); alpha is
        # 0.05: the registry's 0.1 diverged on 1 of 30 seeds (seed 2).
        Workload("sim-netflix", "fit", 1200, 160, 0.24, 8, 0.01, 0.05, 0.01,
                 rmse_ceiling=0.16, smoke_rows=300, smoke_cols=80,
                 engine="simulated"),
        # 1000x300 (~15k ratings, ~1.7M updates, ~1 s a trial) so that a
        # run holds enough trials for a quantile over them.
        Workload("stream-replay", "stream", 1000, 300, 0.05, 8, 0.02, 0.08,
                 0.001, rmse_ceiling=0.16, smoke_rows=300, smoke_cols=100),
        # 2000x500 with 60k warm-up ratings (6%) plus test and fresh pools.
        Workload("serve-read", "serve", 2000, 500, 0.075, 8, 0.02, 0.08,
                 0.001, rmse_ceiling=0.25, smoke_rows=400, smoke_cols=150),
        Workload("serve-mixed", "serve", 2000, 500, 0.075, 8, 0.02, 0.08,
                 0.001, rmse_ceiling=0.25, smoke_rows=400, smoke_cols=150),
    )
}

#: Workloads ``BENCHMARK.json`` leaves out, so the driver does not judge
#: them: four workloads are what fits its time limit at a run length
#: that is steady on a shared 2-core host, and these three run more
#: processes and threads at once than that host has cores (a coordinator
#: beside two workers; a service, its trainer and a load generator), so
#: their numbers followed its scheduler.  They run by name and in the
#: all-workloads report like the others.
EXTENDED = frozenset({"cluster-sparse", "serve-read", "serve-mixed"})

#: sim-netflix is fixed work, not fixed time: updates per trial.
SIM_MAX_UPDATES = 250_000
SIM_MAX_UPDATES_SMOKE = 100_000
#: stream-replay: ReplayStream(warmup_fraction, holdouts) and cadence.
STREAM_WARMUP_FRACTION = 0.5
STREAM_HOLDOUT_ROWS = 30
STREAM_HOLDOUT_COLS = 4
STREAM_TRAIN_EVERY = 50
STREAM_ROTATIONS = 16
#: serve: share of the generated ratings that warm the service up; the
#: rest is split between /predict truth pairs and fresh POST /ratings.
SERVE_WARMUP_SHARE = 0.8
SERVE_TEST_SHARE = 0.08
SERVE_CACHE_CAPACITY = 1024
ZIPF_EXPONENT = 1.1


def _rng(seed: int, name: str) -> np.random.Generator:
    """One stream per (seed, workload) so workloads never share draws."""
    return np.random.default_rng([int(seed), zlib.crc32(name.encode())])


def _generate(workload: Workload, seed: int) -> tuple[RatingMatrix, np.random.Generator]:
    rng = _rng(seed, workload.name)
    spec = SyntheticSpec(
        workload.rows, workload.cols, rank=RANK,
        density=workload.density, noise=NOISE,
    )
    return make_low_rank(spec, rng), rng


@dataclass
class FitInputs:
    train: RatingMatrix
    test: RatingMatrix


def make_fit_inputs(workload: Workload, seed: int) -> FitInputs:
    matrix, rng = _generate(workload, seed)
    train, test = train_test_split(matrix, TEST_FRACTION, rng)
    return FitInputs(train, test)


def make_stream_matrix(workload: Workload, seed: int) -> RatingMatrix:
    """The matrix a ``ReplayStream`` replays (warm-up prefix + tail)."""
    return _generate(workload, seed)[0]


@dataclass
class ServeInputs:
    """Warm-up set, held-out (user, item, value) truth for ``/predict``,
    and a pool of never-served ratings for ``POST /ratings``."""

    warmup: RatingMatrix
    test: RatingMatrix
    fresh: RatingMatrix


def make_serve_inputs(workload: Workload, seed: int) -> ServeInputs:
    matrix, rng = _generate(workload, seed)
    order = rng.permutation(matrix.nnz)
    n_warm = int(round(matrix.nnz * SERVE_WARMUP_SHARE))
    n_test = int(round(matrix.nnz * SERVE_TEST_SHARE))
    masks = []
    for picks in (
        order[:n_warm], order[n_warm:n_warm + n_test], order[n_warm + n_test:]
    ):
        mask = np.zeros(matrix.nnz, dtype=bool)
        mask[picks] = True
        masks.append(mask)
    # select() keeps storage order; the fresh pool is sent in a seeded
    # order by the load generator, not in storage order.
    warmup, test, fresh = (matrix.select(mask) for mask in masks)
    return ServeInputs(warmup, test, fresh)


def content_hash(*matrices: RatingMatrix) -> str:
    """sha256 over the triplet bytes of the generated inputs."""
    digest = hashlib.sha256()
    for matrix in matrices:
        digest.update(np.int64(matrix.shape).tobytes())
        for array in (matrix.rows, matrix.cols, matrix.vals):
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def zipf_users(n_users: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` user ids, Zipf(1.1) over a seeded popularity order, so a
    1024-entry LRU holds the head of the distribution and misses its tail."""
    weights = 1.0 / np.arange(1, n_users + 1) ** ZIPF_EXPONENT
    ranks = rng.choice(n_users, size=count, p=weights / weights.sum())
    return rng.permutation(n_users)[ranks]
