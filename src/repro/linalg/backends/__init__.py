"""Pluggable SGD kernel backends and their selection policy.

One :class:`~repro.linalg.backends.base.KernelBackend` packages the four
SGD inner-loop variants (column, column-with-loss, entries,
entries-const-step) plus the fused column-batch entry point and the
shard-bound token-burst kernel (``bind_tokens``) behind a single
interface; three implementations ship:

* ``"list"`` — :class:`ListBackend`, scalar Python loops over nested
  lists; fastest *interpreted* option at small latent dimensions where
  ndarray per-call overhead dominates.
* ``"numpy"`` — :class:`NumpyBackend`, sequential updates with
  k-vectorized ndarray arithmetic; fastest *interpreted* option at large
  latent dimensions.
* ``"cext"`` — :class:`CextBackend`, the interpreted cores compiled to C
  at first use (system ``cc``/``gcc``, cached ``.so``, loaded via
  ctypes) over ndarray storage; 1–2 orders of magnitude faster at every
  latent dimension and the only backend whose calls release the GIL.

Selection
---------
Optimizers resolve their backend with :func:`resolve_backend`:

* an explicit name (``"list"`` / ``"numpy"`` / ``"cext"``) always wins —
  ``"cext"`` raises :class:`~repro.errors.ConfigError` naming the
  interpreted fallback if no C toolchain is usable;
* ``"auto"`` (the default) picks ``cext`` whenever a toolchain is
  present; otherwise it falls back to the interpreted crossover — list
  below ``AUTO_NUMPY_MIN_K``, numpy at or above it — except when the
  caller declares ndarray storage (the real runtimes), where numpy is
  native;
* the ``NOMAD_KERNEL_BACKEND`` environment variable supplies the default
  for every :class:`~repro.config.RunConfig` that doesn't set
  ``kernel_backend`` explicitly, and ``NOMAD_CEXT_DISABLE=1`` masks the
  toolchain (pure-interpreted operation, e.g. for CI fallback runs).

The crossover constant's provenance is recorded at ``AUTO_NUMPY_MIN_K``;
``python3 -m bench.run --trace 1`` (the ``linalg.kernel_*`` layer
metrics) is the baseline future backends (numba, GPU) have to beat.
"""

from __future__ import annotations

import os

from ...errors import ConfigError
from .base import KernelBackend
from .cext_backend import CextBackend
from .cext_build import cext_available, cext_unavailable_reason
from .list_backend import ListBackend
from .numpy_backend import NumpyBackend

__all__ = [
    "KernelBackend",
    "ListBackend",
    "NumpyBackend",
    "CextBackend",
    "BACKENDS",
    "AUTO_NUMPY_MIN_K",
    "ENV_VAR",
    "cext_available",
    "cext_unavailable_reason",
    "get_backend",
    "resolve_backend",
]

#: Environment variable supplying the default backend name.
ENV_VAR = "NOMAD_KERNEL_BACKEND"

#: Latent dimension at which ``"auto"`` switches from list to numpy
#: kernels when the compiled backend is unavailable.  Measured on the
#: column kernel on CPython, updates/sec: list 227k vs numpy 143k at
#: k=32, list 97k vs numpy 192k at k=100 — the crossover lies between.
AUTO_NUMPY_MIN_K = 64

#: Registry of instantiable backends, keyed by selection name.  ``cext``
#: is always registered — so it is always a *valid* configuration value —
#: but hands out instances only where a toolchain is usable
#: (:meth:`CextBackend.ensure_available`).
BACKENDS: dict[str, type[KernelBackend]] = {
    ListBackend.name: ListBackend,
    NumpyBackend.name: NumpyBackend,
    CextBackend.name: CextBackend,
}

_INSTANCES: dict[str, KernelBackend] = {}


def get_backend(name: str) -> KernelBackend:
    """Return the (shared, stateless) backend instance registered as ``name``.

    Raises :class:`~repro.errors.ConfigError` for unknown names, and for
    registered backends that are unusable on this box (a backend class
    may veto every hand-out via an ``ensure_available`` classmethod —
    this is how ``"cext"`` degrades into a configuration-time error
    instead of a mid-fit crash when the toolchain is missing).
    """
    try:
        cls = BACKENDS[name]
    except KeyError:
        valid = ", ".join(sorted(set(BACKENDS) | {"auto"}))
        raise ConfigError(
            f"unknown kernel backend {name!r}; valid values are {valid} "
            f"(settable via RunConfig.kernel_backend or ${ENV_VAR})"
        ) from None
    ensure = getattr(cls, "ensure_available", None)
    if ensure is not None:
        ensure()
    if name not in _INSTANCES:
        _INSTANCES[name] = cls()
    return _INSTANCES[name]


def resolve_backend(
    name: str | None = "auto",
    *,
    k: int | None = None,
    storage: str = "list",
) -> KernelBackend:
    """Resolve a configured backend name to an instance.

    Parameters
    ----------
    name:
        ``"list"``, ``"numpy"``, ``"cext"``, or ``"auto"``.  ``None``
        means "not configured": consult ``$NOMAD_KERNEL_BACKEND``,
        falling back to ``"auto"`` (this is how the real runtimes honor
        the env var; :class:`~repro.config.RunConfig` reads it itself).
    k:
        Latent dimension steering the interpreted ``"auto"`` fallback;
        ``None`` defers to the storage default.
    storage:
        ``"list"`` for optimizers that can hold factors in any
        representation, ``"ndarray"`` for callers whose factors must stay
        ndarrays (shared-memory runtimes) — there the interpreted
        ``"auto"`` fallback is the numpy backend regardless of ``k``
        because list kernels on ndarray rows pay numpy-scalar overhead
        per element.

    ``"auto"`` prefers the compiled backend whenever a toolchain is
    present (its ndarray storage and GIL-free calls dominate both
    interpreted backends at every ``k``); the ``k``/``storage`` crossover
    above only decides the fallback.
    """
    if name is None:
        name = os.environ.get(ENV_VAR, "auto")
    if name == "auto":
        if cext_available():
            return get_backend(CextBackend.name)
        if storage == "ndarray":
            return get_backend(NumpyBackend.name)
        if k is not None and k >= AUTO_NUMPY_MIN_K:
            return get_backend(NumpyBackend.name)
        return get_backend(ListBackend.name)
    return get_backend(name)
