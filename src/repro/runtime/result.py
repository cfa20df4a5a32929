"""Shared machinery of the real (wall-clock) NOMAD runtimes.

All live runtimes — threads, shared-memory processes, and the socket
cluster — report the same outcome fields and resolve their run settings
the same way; this module holds both halves once so they can never
drift apart:

* :class:`RuntimeResult` — the common result dataclass (the
  :func:`repro.fit` facade folds it into the uniform
  :class:`~repro.api.result.FitTiming` block); the threaded and
  multiprocess engines return it as is, the cluster engine as its
  :class:`~repro.cluster.coordinator.ClusterResult` subclass.
* :func:`resolve_run_settings` / :func:`resolve_duration` — the
  precedence rules between explicit constructor/``run()`` arguments and
  an optional :class:`~repro.config.RunConfig`.

Timing contract
---------------
``wall_seconds`` covers the parallel section only: it is stamped the
moment the stop signal is raised, *before* sentinel delivery, result
collection, and joins.  All shutdown overhead lands in ``join_seconds``,
so ``updates / wall_seconds`` stays an honest throughput figure.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import RunConfig
from ..errors import ConfigError
from ..linalg.factors import FactorPair

__all__ = [
    "RuntimeResult",
    "resolve_run_settings",
    "resolve_duration",
    "DEFAULT_DURATION",
]

#: Wall-clock budget used when neither ``duration_seconds`` nor a
#: :class:`~repro.config.RunConfig` supplies one (the historical default).
DEFAULT_DURATION = 1.0


def resolve_run_settings(
    seed: int | None,
    kernel_backend: str | None,
    run: RunConfig | None,
) -> tuple[int, str | None]:
    """Resolve ``(seed, kernel_backend)``: explicit argument > run config
    field > legacy default.

    Also rejects ``run.max_updates`` eagerly — real workers cannot be
    halted at an exact global update count, and silently ignoring the
    field would corrupt updates-versus-RMSE comparisons.
    """
    if run is not None and run.max_updates is not None:
        raise ConfigError(
            "max_updates is not supported by the real runtimes (workers "
            "cannot be halted at an exact global update count); use the "
            "simulated engine for update-budget experiments"
        )
    if seed is None:
        seed = run.seed if run is not None else 0
    if kernel_backend is None and run is not None:
        kernel_backend = run.kernel_backend
    return int(seed), kernel_backend


def resolve_duration(
    duration_seconds: float | None, run: RunConfig | None
) -> float:
    """Resolve the wall-clock budget: explicit argument > ``run.duration``
    > :data:`DEFAULT_DURATION`."""
    if duration_seconds is None:
        duration_seconds = (
            run.duration if run is not None else DEFAULT_DURATION
        )
    if duration_seconds <= 0:
        raise ConfigError(
            f"duration_seconds must be > 0, got {duration_seconds}"
        )
    return duration_seconds


@dataclass
class RuntimeResult:
    """Outcome of one real-concurrency NOMAD run.

    Attributes
    ----------
    factors:
        Final (W, H) model.
    updates:
        Total SGD updates applied across all workers.
    wall_seconds:
        Real elapsed time of the parallel section only (stamped at the
        stop signal; see the module docstring).
    rmse:
        Test RMSE of the final model.
    updates_per_worker:
        Per-worker update counts (load-balance diagnostics).
    join_seconds:
        Shutdown overhead: sentinel delivery, result collection, and
        worker joins, reported separately from ``wall_seconds``.
    telemetry:
        Merged :class:`~repro.telemetry.RunTelemetry` when the run was
        started with ``telemetry=True``, else ``None`` (typed loosely
        to keep this module import-light).
    """

    factors: FactorPair
    updates: int
    wall_seconds: float
    rmse: float
    updates_per_worker: list[int]
    join_seconds: float = 0.0
    telemetry: object | None = None
