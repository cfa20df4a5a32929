"""Pluggable SGD kernel backends and their selection policy.

One :class:`~repro.linalg.backends.base.KernelBackend` packages the three
SGD inner-loop variants (column, entries, entries-const-step) plus the
fused column-batch entry point and the shard-bound token-burst kernel
(``bind_tokens``, which binds the loss too) behind a single interface.  Factors are ``float64`` ndarrays under every backend; two
implementations ship:

* ``"list"`` — :class:`ListBackend`, the interpreted reference: one
  scalar Python loop (:func:`~repro.linalg.backends.list_backend.sgd_core`)
  that defines every update, and the fallback where no C toolchain is
  usable.
* ``"cext"`` — :class:`CextBackend`, the same loop compiled to C at
  first use (system ``cc``/``gcc`` and Python's headers, one cached
  extension module with a plain and an AVX2 build, picked at load);
  1–2 orders of magnitude faster, the only backend whose bursts release
  the GIL, and equal to ``list`` bit for bit.

Selection
---------
Optimizers resolve their backend with :func:`resolve_backend`:

* an explicit name (``"list"`` / ``"cext"``) always wins — ``"cext"``
  raises :class:`~repro.errors.ConfigError` naming the interpreted
  fallback if no C toolchain is usable;
* ``"auto"`` (the default) picks ``cext`` whenever a toolchain is
  present, else ``list``;
* the ``NOMAD_KERNEL_BACKEND`` environment variable supplies the default
  for every :class:`~repro.config.RunConfig` that doesn't set
  ``kernel_backend`` explicitly, and ``NOMAD_CEXT_DISABLE=1`` masks the
  toolchain (pure-interpreted operation, e.g. for CI fallback runs).

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

__all__ = [
    "KernelBackend",
    "ListBackend",
    "CextBackend",
    "BACKENDS",
    "ENV_VAR",
    "cext_available",
    "cext_unavailable_reason",
    "get_backend",
    "resolve_backend",
]

#: Environment variable supplying the default backend name.
ENV_VAR = "NOMAD_KERNEL_BACKEND"

#: Registry of instantiable backends, keyed by selection name.  ``cext``
#: is always registered — so it is always a *valid* configuration value —
#: but hands out instances only where a toolchain is usable
#: (:meth:`CextBackend.ensure_available`).
BACKENDS: dict[str, type[KernelBackend]] = {
    ListBackend.name: ListBackend,
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
    name: str | None = "auto", *, k: int | None = None, storage: str = ""
) -> KernelBackend:
    """Resolve a configured backend name to an instance.

    ``name`` is ``"list"``, ``"cext"``, or ``"auto"`` (``cext`` when a
    toolchain is usable, else ``list``).  ``None`` means "not
    configured": consult ``$NOMAD_KERNEL_BACKEND``, falling back to
    ``"auto"`` (this is how the real runtimes honor the env var;
    :class:`~repro.config.RunConfig` reads it itself).
    """
    # ``k`` and ``storage`` no longer steer anything; they are accepted
    # and ignored because the layer replay in ``bench/layers.py`` still
    # passes them.
    if name is None:
        name = os.environ.get(ENV_VAR, "auto")
    if name == "auto":
        name = CextBackend.name if cext_available() else ListBackend.name
    return get_backend(name)
