"""Build machinery for the compiled ("cext") kernel backend.

Compiles the C shipped next to this module at first use with the system
C toolchain into one Python extension module under a per-user cache
directory, and imports it from there.  No build-time dependency is
required beyond a working ``cc``/``gcc`` and Python's own headers;
there is no setup.py extension step, so source checkouts and wheels
behave identically.

The module is three translation units.  ``nomad_kernels.c`` is
written once and compiled twice: a plain build, and — where the
compiler accepts ``-mavx2`` (x86) — one with ``-mavx2 -mno-fma``, each
under its own variant name.  ``nomad_module.c`` (the native
``TokenKernel`` type and the entries and column entry points) links
both and picks one when it loads, by asking the CPU for AVX2
(``__builtin_cpu_supports``).  Both builds give the same bits; nothing
selects between them but the CPU.

Caching
-------
The artifact's file name embeds a SHA-1 over every C source, the
compiler path, every flag set, and Python's ``EXT_SUFFIX`` and include
directory, so a source, toolchain or interpreter change compiles a fresh
artifact (a 3.11 build never loads into 3.12) while an unchanged tree
reuses the cached one — a second load never re-invokes the compiler
(``compile_count`` lets tests pin this).  Concurrent builders race
benignly: each builds under a private temp name and ``os.replace``\\ s it
into place atomically.  Importing :mod:`repro` builds and loads nothing;
the first ``cext`` use does.

Fallback
--------
Availability is probed, never assumed: a missing toolchain, missing
Python headers or a failed compile records a reason and the selection
policy in :mod:`repro.linalg.backends` falls back to the interpreted
reference.  Setting ``$NOMAD_CEXT_DISABLE`` to a non-empty value masks
the toolchain entirely (this is how the pure-python fallback path is
exercised end-to-end on a box that does have a compiler).
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from types import ModuleType

__all__ = [
    "ENV_DISABLE",
    "ENV_CACHE",
    "MODULE_NAME",
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

#: The loaded extension module's name in :data:`sys.modules`.
MODULE_NAME = "repro.linalg.backends._nomad"

_HERE = os.path.dirname(os.path.abspath(__file__))
_KERNELS = os.path.join(_HERE, "nomad_kernels.c")
_MODULE = os.path.join(_HERE, "nomad_module.c")
#: Every C source the artifact is built from, the header included.
_SOURCES = (os.path.join(_HERE, "nomad_kernels.h"), _KERNELS, _MODULE)

#: -ffp-contract=off keeps the arithmetic per-operation IEEE-identical to
#: the interpreted reference (no FMA contraction), which is what lets the
#: equivalence suite hold the two backends to the same bits.
_CFLAGS = ("-O3", "-fPIC", "-ffp-contract=off", "-fno-fast-math")

#: The builds of nomad_kernels.c, by variant name: the flags each adds.
#: -mno-fma because AVX2 hosts have FMA and a fused multiply-add rounds
#: once where the reference rounds twice.  The first is required; a
#: compiler that rejects a later one's flags (any non-x86 target) builds
#: without it.
_VARIANTS = (("base", ()), ("avx2", ("-mavx2", "-mno-fma")))

#: Number of artifact builds in this process (test hook: a warm cache
#: must leave this untouched).
compile_count = 0

# In-memory memo: one build attempt per process unless reset.
_module: ModuleType | None = None
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


def _python_include() -> str:
    return sysconfig.get_paths()["include"]


def _artifact_path(compiler: str) -> str:
    digest = hashlib.sha1()
    for path in _SOURCES:
        with open(path, "rb") as handle:
            digest.update(handle.read())
    digest.update(compiler.encode())
    digest.update(repr((_CFLAGS, _VARIANTS)).encode())
    suffix = sysconfig.get_config_var("EXT_SUFFIX") or ".so"
    digest.update(suffix.encode())
    digest.update(_python_include().encode())
    return os.path.join(
        cache_dir(), f"nomad_kernels-{digest.hexdigest()[:16]}{suffix}"
    )


def _run(command: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(command, capture_output=True, text=True)


def _failure(compiler: str, proc: subprocess.CompletedProcess) -> str:
    tail = (proc.stderr or proc.stdout or "").strip()[-500:]
    return f"C kernel compilation failed ({compiler}): {tail}"


def _kernel_flags(name: str, flags: tuple[str, ...]) -> tuple[str, ...]:
    """How ``nomad_kernels.c`` is compiled for variant ``name``."""
    return (*_CFLAGS, *flags, f"-DNOMAD_VARIANT={name}")


def _module_flags(include: str, names: list[str]) -> tuple[str, ...]:
    """How ``nomad_module.c`` is compiled beside the variants ``names``."""
    return (
        *_CFLAGS, f"-I{include}",
        *[f"-DNOMAD_HAVE_{name.upper()}" for name in names],
    )


def _build(compiler: str, include: str, artifact: str) -> None:
    """Compile every variant that the compiler accepts, then the module
    linked with them, into ``artifact`` (atomically)."""
    global compile_count
    directory = cache_dir()
    os.makedirs(directory, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=directory) as work:
        compile_count += 1
        built: list[str] = []
        for name, flags in _VARIANTS:
            obj = os.path.join(work, f"{name}.o")
            proc = _run([
                compiler, *_kernel_flags(name, flags), "-c", _KERNELS,
                "-o", obj,
            ])
            if proc.returncode != 0:
                if not built:
                    raise CextUnavailable(_failure(compiler, proc))
                continue  # a target without this instruction set
            built.append(name)
        scratch = os.path.join(work, os.path.basename(artifact))
        proc = _run([
            compiler, *_module_flags(include, built), "-shared", _MODULE,
            *[os.path.join(work, f"{name}.o") for name in built],
            "-o", scratch, "-lm",
        ])
        if proc.returncode != 0:
            raise CextUnavailable(_failure(compiler, proc))
        os.replace(scratch, artifact)  # atomic under concurrent builders


def _build_and_load() -> ModuleType:
    compiler = _find_compiler()
    if compiler is None:
        raise CextUnavailable("no C toolchain found (tried $CC, cc, gcc)")
    include = _python_include()
    if not os.path.exists(os.path.join(include, "Python.h")):
        raise CextUnavailable(f"no Python headers (Python.h) in {include}")
    artifact = _artifact_path(compiler)
    if not os.path.exists(artifact):
        _build(compiler, include, artifact)
    loader = importlib.machinery.ExtensionFileLoader(MODULE_NAME, artifact)
    spec = importlib.util.spec_from_file_location(
        MODULE_NAME, artifact, loader=loader
    )
    module = importlib.util.module_from_spec(spec)
    loader.exec_module(module)
    sys.modules[MODULE_NAME] = module
    return module


def load_library() -> ModuleType:
    """The compiled kernel module, building it on first use.

    Its ``kernels`` attribute holds the entry points of the variant
    picked at load (named by ``variant``).  Raises
    :class:`CextUnavailable` when disabled, the toolchain or Python's
    headers are missing, or compilation fails; the failure reason is
    memoized so a broken toolchain costs one probe per process, not one
    per fit.
    """
    global _module, _error, _attempted
    disabled = _disabled_reason()
    if disabled:
        raise CextUnavailable(disabled)
    if not _attempted:
        _attempted = True
        try:
            _module = _build_and_load()
        except CextUnavailable as exc:
            _error = str(exc)
        except (OSError, ImportError) as exc:
            _error = f"could not build/load compiled kernels: {exc}"
    if _module is None:
        raise CextUnavailable(_error or "compiled kernels unavailable")
    return _module


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
    global _module, _error, _attempted
    _module = None
    _error = None
    _attempted = False
