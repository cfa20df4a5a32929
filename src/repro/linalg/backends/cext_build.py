"""Build machinery for the compiled ("cext") kernel backend.

Compiles ``nomad_kernels.c`` (shipped next to this module) at first use
with the system C toolchain into a shared library under a per-user cache
directory, then loads it via :mod:`ctypes`.  No build-time dependency is
required beyond a working ``cc``/``gcc``; there is no setup.py extension
step, so source checkouts and wheels behave identically.

Caching
-------
The library file name embeds a SHA-1 over the C source, the compiler
path, and the flag set, so a source or toolchain change compiles a fresh
artifact while an unchanged tree reuses the cached ``.so`` — a second
import never re-invokes the compiler (``compile_count`` lets tests pin
this).  Concurrent builders race benignly: each compiles to a private
temp name and ``os.replace``\\ s it into place atomically.

Fallback
--------
Availability is probed, never assumed: a missing toolchain or a failed
compile records a reason and the selection policy in
:mod:`repro.linalg.backends` falls back to the interpreted reference.
Setting ``$NOMAD_CEXT_DISABLE`` to a non-empty value masks the toolchain
entirely (this is how the pure-python fallback path is exercised
end-to-end on a box that does have a compiler).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile

__all__ = [
    "ENV_DISABLE",
    "ENV_CACHE",
    "CextUnavailable",
    "cext_available",
    "cext_unavailable_reason",
    "load_library",
    "compile_count",
]

#: Set non-empty to mask the toolchain (forces the interpreted fallback).
ENV_DISABLE = "NOMAD_CEXT_DISABLE"

#: Overrides the compiled-artifact cache directory.
ENV_CACHE = "NOMAD_CEXT_CACHE"

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "nomad_kernels.c")

#: -ffp-contract=off keeps the arithmetic per-operation IEEE-identical to
#: the interpreted reference (no FMA contraction), which is what lets the
#: equivalence suite hold the two backends to the same bits.
_CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off", "-fno-fast-math")

#: Number of actual compiler invocations in this process (test hook: a
#: warm cache must leave this untouched).
compile_count = 0

# In-memory memo: one build attempt per process unless reset.
_lib: ctypes.CDLL | None = None
_error: str | None = None
_attempted = False


class CextUnavailable(RuntimeError):
    """The compiled backend cannot be used on this box (reason in args)."""


def _disabled_reason() -> str | None:
    value = os.environ.get(ENV_DISABLE, "")
    if value and value.lower() not in ("0", "false"):
        return f"compiled kernels disabled via ${ENV_DISABLE}"
    return None


def _find_compiler() -> str | None:
    """The C compiler to use: ``$CC`` if set, else ``cc``, else ``gcc``."""
    configured = os.environ.get("CC")
    if configured:
        return shutil.which(configured)
    for candidate in ("cc", "gcc"):
        found = shutil.which(candidate)
        if found:
            return found
    return None


def cache_dir() -> str:
    """Directory holding compiled artifacts (created on demand)."""
    override = os.environ.get(ENV_CACHE)
    if override:
        return override
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return os.path.join(tempfile.gettempdir(), f"repro-nomad-cext-{uid}")


def _artifact_path(compiler: str, source: bytes) -> str:
    digest = hashlib.sha1()
    digest.update(source)
    digest.update(compiler.encode())
    digest.update(" ".join(_CFLAGS).encode())
    return os.path.join(cache_dir(), f"nomad_kernels-{digest.hexdigest()[:16]}.so")


def _build_and_load() -> ctypes.CDLL:
    global compile_count
    compiler = _find_compiler()
    if compiler is None:
        raise CextUnavailable("no C toolchain found (tried $CC, cc, gcc)")
    with open(_SOURCE, "rb") as handle:
        source = handle.read()
    artifact = _artifact_path(compiler, source)
    if not os.path.exists(artifact):
        directory = cache_dir()
        os.makedirs(directory, exist_ok=True)
        fd, scratch = tempfile.mkstemp(suffix=".so", dir=directory)
        os.close(fd)
        try:
            command = [compiler, *_CFLAGS, _SOURCE, "-o", scratch, "-lm"]
            proc = subprocess.run(command, capture_output=True, text=True)
            compile_count += 1
            if proc.returncode != 0:
                tail = (proc.stderr or proc.stdout or "").strip()[-500:]
                raise CextUnavailable(
                    f"C kernel compilation failed ({compiler}): {tail}"
                )
            os.replace(scratch, artifact)  # atomic under concurrent builders
        finally:
            if os.path.exists(scratch):
                os.unlink(scratch)
    return ctypes.CDLL(artifact)


def load_library() -> ctypes.CDLL:
    """The compiled kernel library, building it on first use.

    Raises :class:`CextUnavailable` when disabled, the toolchain is
    missing, or compilation fails; the failure reason is memoized so a
    broken toolchain costs one probe per process, not one per fit.
    """
    global _lib, _error, _attempted
    disabled = _disabled_reason()
    if disabled:
        raise CextUnavailable(disabled)
    if not _attempted:
        _attempted = True
        try:
            _lib = _build_and_load()
        except CextUnavailable as exc:
            _error = str(exc)
        except OSError as exc:
            _error = f"could not build/load compiled kernels: {exc}"
    if _lib is None:
        raise CextUnavailable(_error or "compiled kernels unavailable")
    return _lib


def cext_available() -> bool:
    """Whether the compiled backend can be used right now."""
    try:
        load_library()
    except CextUnavailable:
        return False
    return True


def cext_unavailable_reason() -> str | None:
    """Why the compiled backend is unusable (``None`` when available)."""
    try:
        load_library()
    except CextUnavailable as exc:
        return str(exc)
    return None


def _reset_for_tests() -> None:
    """Forget the in-process build memo (NOT the on-disk cache)."""
    global _lib, _error, _attempted
    _lib = None
    _error = None
    _attempted = False
