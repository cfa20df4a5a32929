"""Compiled-backend plumbing: build cache, fallback, and degradation.

Kernel *equivalence* for the cext backend lives in ``test_backends.py``
(held to the list reference); this module covers the machinery around
the compiled artifact instead:

* masking the toolchain (``$NOMAD_CEXT_DISABLE``) turns an explicit
  ``kernel_backend="cext"`` into a configuration-time
  :class:`~repro.errors.ConfigError` naming the fallback — never a
  mid-fit crash — while ``"auto"`` silently degrades to the interpreted
  backends and a fit still completes end-to-end;
* the on-disk build cache is keyed by source+toolchain, so a second
  load in the same (or a fresh) process must not re-invoke the compiler.
"""

from __future__ import annotations

import os

import pytest

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
