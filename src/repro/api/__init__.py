"""Unified solver facade: ``repro.fit`` over engine/algorithm registries.

* :func:`~repro.api.facade.fit` — one call to train any registered
  algorithm on any supporting engine.
* :func:`~repro.api.streaming.fit_stream` — the online counterpart:
  warm-start training over an arrival stream with snapshot rotation,
  returning a :class:`~repro.api.result.StreamResult`.
* :class:`~repro.api.result.FitResult` / :class:`~repro.api.result.FitTiming`
  — the single normalized result every engine returns.
* :data:`~repro.api.registry.ALGORITHMS` / :data:`~repro.api.registry.ENGINES`
  — the registries, extensible via :func:`register_algorithm` /
  :func:`register_engine`.

The pre-facade classes (:class:`~repro.core.nomad.NomadSimulation`, the
baselines, :class:`~repro.runtime.threaded.ThreadedNomad`,
:class:`~repro.runtime.multiprocess.MultiprocessNomad`) remain importable
as the low-level API; the engine runners in :mod:`repro.api.engines` are
thin adapters over them.
"""

from .facade import fit
from .registry import (
    ALGORITHMS,
    ENGINES,
    AlgorithmSpec,
    EngineSpec,
    FitRequest,
    check_pair,
    register_algorithm,
    register_engine,
    resolve_algorithm,
    resolve_engine,
    supported_pairs,
)
from .result import FitResult, FitTiming, StreamResult
from .streaming import fit_stream

__all__ = [
    "fit",
    "fit_stream",
    "FitResult",
    "FitTiming",
    "FitRequest",
    "StreamResult",
    "ALGORITHMS",
    "ENGINES",
    "AlgorithmSpec",
    "EngineSpec",
    "register_algorithm",
    "register_engine",
    "resolve_algorithm",
    "resolve_engine",
    "check_pair",
    "supported_pairs",
]
