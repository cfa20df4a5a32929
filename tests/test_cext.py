"""Compiled-backend plumbing: build cache, fallback, and degradation.

Kernel *equivalence* for the cext backend lives in ``test_backends.py``
(held to the list reference); this module covers the machinery around
the compiled artifact instead:

* masking the toolchain (``$NOMAD_CEXT_DISABLE``) turns an explicit
  ``kernel_backend="cext"`` into a configuration-time
  :class:`~repro.errors.ConfigError` naming the fallback — never a
  mid-fit crash — while ``"auto"`` silently degrades to the interpreted
  backends and a fit still completes end-to-end;
* the on-disk build cache is keyed by every C source, the toolchain and
  the interpreter's ABI, so a second load in the same (or a fresh)
  process must not re-invoke the compiler, and importing the package
  builds and loads nothing;
* the two builds the module links (plain and AVX2) give the same bits.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro import fit
from repro.config import RunConfig
from repro.errors import ConfigError
from repro.linalg.backends import (
    CextBackend,
    ListBackend,
    cext_available,
    cext_unavailable_reason,
    get_backend,
    resolve_backend,
)
from repro.linalg.backends import cext_build

needs_cext = pytest.mark.skipif(
    not cext_available(), reason="no usable C toolchain (cext unavailable)"
)

#: The directory ``repro`` imports from, for the fresh interpreters.
_SRC = os.path.dirname(os.path.dirname(repro.__file__))


@pytest.fixture
def masked_toolchain(monkeypatch):
    """Hide the C toolchain, as on a box with no compiler installed."""
    monkeypatch.setenv(cext_build.ENV_DISABLE, "1")


class TestFallback:
    def test_explicit_cext_raises_config_error(self, masked_toolchain):
        with pytest.raises(ConfigError, match="'cext' is unavailable"):
            get_backend("cext")

    def test_error_names_the_fallback(self, masked_toolchain):
        with pytest.raises(ConfigError, match=r"kernel_backend='auto'"):
            resolve_backend("cext")

    def test_reason_mentions_the_mask(self, masked_toolchain):
        reason = cext_unavailable_reason()
        assert reason is not None
        assert cext_build.ENV_DISABLE in reason

    def test_mask_is_dynamic(self, monkeypatch):
        # Masking applies even after a successful load earlier in the
        # process: the env check precedes the in-memory memo.
        if cext_available():
            get_backend("cext")  # warm the instance cache
        monkeypatch.setenv(cext_build.ENV_DISABLE, "1")
        assert not cext_available()
        with pytest.raises(ConfigError):
            get_backend("cext")

    def test_disable_zero_means_enabled(self, monkeypatch):
        monkeypatch.setenv(cext_build.ENV_DISABLE, "0")
        assert cext_build._disabled_reason() is None

    def test_auto_degrades_to_interpreted(self, masked_toolchain):
        assert isinstance(resolve_backend("auto"), ListBackend)
        assert isinstance(
            resolve_backend("auto", k=128, storage="ndarray"), ListBackend
        )

    def test_env_default_cext_fails_at_config_time(
        self, masked_toolchain, monkeypatch, tiny_split, hyper, short_run
    ):
        # $NOMAD_KERNEL_BACKEND=cext on a toolchain-less box: the fit
        # call raises ConfigError up front, before any training step.
        monkeypatch.setenv("NOMAD_KERNEL_BACKEND", "cext")
        train, test = tiny_split
        run = RunConfig(
            duration=short_run.duration,
            eval_interval=short_run.eval_interval,
            seed=short_run.seed,
        )
        assert run.kernel_backend == "cext"
        with pytest.raises(ConfigError, match="'cext' is unavailable"):
            fit(train, test, hyper=hyper, run=run)

    def test_fit_completes_end_to_end_when_masked(
        self, masked_toolchain, tiny_split, hyper, short_run
    ):
        train, test = tiny_split
        result = fit(train, test, hyper=hyper, run=short_run)
        assert result.trace.final_rmse() > 0.0
        assert result.kernel_backend == "list"


class TestBuildCache:
    @pytest.fixture(autouse=True)
    def fresh_memo(self):
        # Each test manipulates the process-wide build memo; restore it
        # so later tests see the default cache directory again.
        yield
        cext_build._reset_for_tests()

    @needs_cext
    def test_second_load_does_not_recompile(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cext_build.ENV_CACHE, str(tmp_path))
        cext_build._reset_for_tests()

        before = cext_build.compile_count
        cext_build.load_library()
        assert cext_build.compile_count == before + 1
        artifacts = [p for p in os.listdir(tmp_path) if p.endswith(".so")]
        assert len(artifacts) == 1

        # A fresh process is simulated by dropping the in-memory memo:
        # the on-disk artifact must satisfy the load with zero compiles.
        cext_build._reset_for_tests()
        cext_build.load_library()
        assert cext_build.compile_count == before + 1

    @needs_cext
    def test_backend_usable_from_cold_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cext_build.ENV_CACHE, str(tmp_path))
        cext_build._reset_for_tests()
        backend = CextBackend()
        w = [[0.5, 0.5]]
        h = [0.5, 0.5]
        n = backend.process_column(w, h, [0], [1.0], [1], 0.1, 0.01, 0.01)
        assert n == 1

    def test_artifact_is_keyed_on_the_interpreter(self, monkeypatch):
        """A build for one Python ABI never loads into another: the
        artifact's name changes with ``EXT_SUFFIX`` and with the include
        directory the module compiled against."""
        compiler = cext_build._find_compiler() or "cc"
        here = cext_build._artifact_path(compiler)
        assert here.endswith(cext_build.sysconfig.get_config_var("EXT_SUFFIX"))
        real = cext_build.sysconfig.get_config_var
        with monkeypatch.context() as patch:
            patch.setattr(
                cext_build.sysconfig, "get_config_var",
                lambda name: (
                    ".cpython-312-x86_64-linux-gnu.so"
                    if name == "EXT_SUFFIX" else real(name)
                ),
            )
            assert cext_build._artifact_path(compiler) != here
        with monkeypatch.context() as patch:
            patch.setattr(
                cext_build, "_python_include", lambda: "/elsewhere/python3.12"
            )
            assert cext_build._artifact_path(compiler) != here

    @needs_cext
    def test_warm_cache_compiles_nothing_in_a_fresh_process(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(cext_build.ENV_CACHE, str(tmp_path))
        cext_build._reset_for_tests()
        cext_build.load_library()  # warms tmp_path
        probe = (
            "from repro.linalg.backends import cext_build as b; "
            "module = b.load_library(); "
            "print(b.compile_count, module.variant)"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": _SRC},
        ).stdout.split()
        assert out == ["0", cext_build.load_library().variant]

    def test_importing_the_package_loads_no_kernel_module(self, tmp_path):
        probe = (
            "import sys, repro; "
            "from repro.linalg.backends import cext_build; "
            "assert cext_build.MODULE_NAME not in sys.modules; "
            "assert cext_build.compile_count == 0"
        )
        subprocess.run(
            [sys.executable, "-c", probe], check=True,
            env={
                **os.environ, "PYTHONPATH": _SRC,
                cext_build.ENV_CACHE: str(tmp_path / "cache"),
            },
        )
        assert not (tmp_path / "cache").exists()

    @pytest.mark.skipif(
        cext_build._find_compiler() is None, reason="no C compiler"
    )
    def test_missing_python_headers_fall_back(self, tmp_path, monkeypatch):
        # A host with a compiler but without Python.h degrades like a
        # host without a compiler: a reason, and "auto" picks list.
        monkeypatch.delenv(cext_build.ENV_DISABLE, raising=False)
        monkeypatch.setattr(cext_build, "_python_include", lambda: str(tmp_path))
        cext_build._reset_for_tests()
        reason = cext_unavailable_reason()
        assert reason is not None and "Python.h" in reason
        assert isinstance(resolve_backend("auto"), ListBackend)

    def test_unavailability_is_memoized(self, monkeypatch):
        # A broken toolchain is probed once per process, not per call.
        # (Clear the disable mask so the probe itself is what fails —
        # this test must behave the same under NOMAD_CEXT_DISABLE=1.)
        monkeypatch.delenv(cext_build.ENV_DISABLE, raising=False)
        monkeypatch.setenv("CC", "definitely-not-a-compiler")
        cext_build._reset_for_tests()
        assert not cext_available()
        monkeypatch.delenv("CC")
        assert not cext_available()  # memoized failure, no re-probe
        cext_build._reset_for_tests()
        assert cext_available() == (cext_build._find_compiler() is not None)


@needs_cext
def test_native_calls_refuse_what_c_cannot_read():
    """The native type checks what it reads: a burst that is not an
    int64 buffer, a factor it may not write, an entry outside ``w`` /
    ``h`` or an order outside the entries are errors, and nothing is
    applied."""
    backend = get_backend("cext")
    w, h = np.ones((4, 2)), np.ones((3, 2))
    indptr = np.array([0, 1, 2, 3], dtype=np.int64)
    shard = (indptr, np.arange(3, dtype=np.int64), np.ones(3))
    counts = np.zeros(3, dtype=np.int64)
    kernel = backend.bind_tokens(w, h, *shard, counts, 0.1, 0.01, 0.01)
    with pytest.raises(TypeError):
        kernel.process_tokens(np.array([0, 1], dtype=np.int32))
    with pytest.raises(TypeError):
        kernel.process_tokens([0, 1])
    frozen = w.copy()
    frozen.flags.writeable = False
    with pytest.raises(TypeError):
        backend.bind_tokens(frozen, h, *shard, counts, 0.1, 0.01, 0.01)
    step = (0.1, 0.01, 0.01)
    with pytest.raises(IndexError):  # item column 5 is outside h
        backend.process_entries(w, h, [0], [5], [1.0], [0], *step, [0])
    with pytest.raises(IndexError):  # order names entry 3 of 1
        backend.process_entries(w, h, [0], [0], [1.0], [0], *step, [3])
    assert counts.tolist() == [0, 0, 0]
    assert np.all(w == 1.0) and np.all(h == 1.0)


def _runnable_variants() -> dict:
    """The kernel builds this CPU runs, by name (none without cext)."""
    if not cext_available():
        return {}
    return dict(cext_build.load_library()._variants)


needs_both_variants = pytest.mark.skipif(
    set(_runnable_variants()) != {"base", "avx2"},
    reason="needs the compiled module with its plain and AVX2 builds "
    "both runnable: cext usable, a compiler that accepts -mavx2 and a "
    "CPU with AVX2",
)

STEP = (0.05, 0.02, 0.05)


def _shard(rng, n_users: int, n_items: int, shape: str):
    """A CSC shard with empty columns and mixed counters, in one of three
    shapes: ``ascending`` (users rise strictly in every column, as in
    ``Shard.csc()``), ``unsorted`` (users drawn with repeats, in any
    order) or ``stream`` (a column store's: an ascending base, then an
    arrival tail in any order that repeats the column's first user and
    the previous column's, so neighbouring columns share a user)."""
    columns = []
    for j in range(n_items):
        size = 0 if j % 5 == 2 else int(rng.integers(1, 30))
        if shape == "unsorted":
            column = rng.integers(0, n_users, size=size)
        else:
            column = np.sort(rng.choice(n_users, size=size, replace=False))
        if shape == "stream" and size:
            tail = rng.integers(0, n_users, size=int(rng.integers(0, 8)))
            shared = columns[-1][:1] if columns else column[:0]
            column = np.concatenate([column, tail, column[:1], shared])
        columns.append(column)
    users = np.concatenate(columns).astype(np.int64)
    indptr = np.cumsum([0] + [c.size for c in columns]).astype(np.int64)
    ratings = 1.0 + 4.0 * rng.random(users.size)
    counts = rng.integers(0, 12, size=users.size).astype(np.int64)
    return indptr, users, ratings, counts


def _with_slack(rng, indptr, users, ratings, counts):
    """The shard with its columns shuffled in the buffers and free slots
    after each (holding values a kernel must not touch), and the ``ends``
    that bind it."""
    n_items = indptr.size - 1
    lengths = np.diff(indptr)
    room = lengths + rng.integers(0, 4, size=n_items)
    starts = np.empty(n_items + 1, dtype=np.int64)
    top = 0
    for j in rng.permutation(n_items):
        starts[j] = top
        top += room[j]
    starts[n_items] = top
    slack = (
        rng.integers(0, int(users.max()) + 1, size=top).astype(np.int64),
        1.0 + 4.0 * rng.random(top),
        rng.integers(0, 12, size=top).astype(np.int64),
    )
    for j in range(n_items):
        lo, hi = indptr[j], indptr[j + 1]
        for buffer, column in zip(slack, (users, ratings, counts)):
            buffer[starts[j]: starts[j] + hi - lo] = column[lo:hi]
    return (starts, *slack, starts[:-1] + lengths)


@needs_both_variants
class TestVariantsAgree:
    """The plain and the AVX2 build of ``nomad_kernels.c`` run the same
    inputs to the same bits (``np.array_equal``), called through the
    module's ``_variants``; ``TestBitForBit`` holds whichever the module
    picked to the interpreted reference."""

    @pytest.mark.parametrize("k", [3, 8, 32, 37])
    @pytest.mark.parametrize("loss_id, loss_param", [(0, 0.0), (1, 0.0), (2, 0.4)])
    # ``paired`` / ``serial`` name the walks the first two shapes took
    # while only ascending columns were paired; the ids are kept so the
    # cases keep their names.  Under the square loss all three pair now.
    @pytest.mark.parametrize(
        "shape", ["ascending", "unsorted", "stream"],
        ids=["paired", "serial", "stream"],
    )
    def test_token_kernels(self, k, loss_id, loss_param, shape):
        seed = {"unsorted": 0, "ascending": 1, "stream": 2}[shape]
        rng = np.random.default_rng(1000 * k + 10 * loss_id + seed)
        n_users, n_items = 60, 25
        shard = _shard(rng, n_users, n_items, shape)
        w0 = 0.5 * rng.random((n_users, k))
        h0 = 0.5 * rng.random((n_items, k))
        burst = rng.integers(0, n_items, size=80).astype(np.int64)
        burst[10:13] = burst[9]  # adjacent repeats run alone
        singles = rng.integers(0, n_items, size=20).tolist()
        # The shard as a plain CSC, then laid out with slack (``ends=``).
        for indptr, users, ratings, counts, ends in (
            (*shard, None), _with_slack(rng, *shard),
        ):
            sides = []
            for variant in _runnable_variants().values():
                w, h, c = w0.copy(), h0.copy(), counts.copy()
                kernel = variant.bind(
                    w, h, indptr, users, ratings, c, loss_id, *STEP,
                    loss_param, ends,
                )
                applied = [kernel.process_tokens(burst)]
                applied += [kernel.process_token(j) for j in singles]
                sides.append((applied, w, h, c))
            (a_applied, *a), (b_applied, *b) = sides
            assert a_applied == b_applied
            lengths = np.diff(shard[0])
            assert a_applied[0] == sum(lengths[burst])
            for x, y in zip(a, b):
                assert np.array_equal(x, y)
            assert not np.array_equal(a[0], w0)

    @pytest.mark.parametrize("k", [3, 8, 32, 37])
    @pytest.mark.parametrize("scheduled", [True, False], ids=["eq11", "const"])
    def test_entries_kernels(self, k, scheduled):
        rng = np.random.default_rng(k + scheduled)
        n_rows, n_cols, nnz = 40, 30, 300
        rows = rng.integers(0, n_rows, size=nnz).astype(np.int64)
        cols = rng.integers(0, n_cols, size=nnz).astype(np.int64)
        ratings = 1.0 + 4.0 * rng.random(nnz)
        order = rng.integers(0, nnz, size=2 * nnz).astype(np.int64)
        counts = rng.integers(0, 12, size=nnz).astype(np.int64)
        w0 = 0.5 * rng.random((n_rows, k))
        h0 = 0.5 * rng.random((n_cols, k))
        sides = []
        for variant in _runnable_variants().values():
            w, h, c = w0.copy(), h0.copy(), counts.copy()
            applied = variant.process_entries(
                w, h, rows, cols, ratings, c, order, *STEP, 0.03, scheduled
            )
            sides.append((applied, w, h, c))
        (a_applied, *a), (b_applied, *b) = sides
        assert a_applied == b_applied == order.size
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
