"""Tests for the real threaded and multiprocess NOMAD runtimes."""

from __future__ import annotations

import inspect
import threading
import time

import numpy as np
import pytest

from repro.config import HyperParams, RunConfig
from repro.datasets.synthetic import SyntheticSpec, make_low_rank
from repro.errors import (
    ConfigError,
    ReproError,
    TokenConservationError,
    WorkerLostError,
)
from repro.linalg.backends import ListBackend, cext_available
from repro.linalg.factors import init_factors
from repro.linalg.objective import test_rmse as compute_test_rmse
from repro.rng import RngFactory
from repro.runtime import multiprocess as mp_module
from repro.runtime import threaded as threaded_module
from repro.runtime.multiprocess import MultiprocessNomad, _worker_main
from repro.runtime.threaded import ThreadedNomad

HYPER = HyperParams(k=4, lambda_=0.01, alpha=0.1, beta=0.01)


def initial_rmse_for(train, test, seed):
    """RMSE of the untouched seed-determined initialization."""
    factors = init_factors(
        train.n_rows, train.n_cols, HYPER.k, RngFactory(seed).stream("init")
    )
    return compute_test_rmse(factors, test)


class TestThreadedNomad:
    def test_converges(self, small_split):
        train, test = small_split
        runner = ThreadedNomad(train, test, n_workers=3, hyper=HYPER, seed=1)
        result = runner.run(duration_seconds=0.8)
        assert result.updates > 0
        assert result.rmse < initial_rmse_for(train, test, seed=1)

    def test_all_workers_contribute(self, small_split):
        train, test = small_split
        runner = ThreadedNomad(train, test, n_workers=3, hyper=HYPER, seed=1)
        result = runner.run(duration_seconds=0.8)
        assert all(count > 0 for count in result.updates_per_worker)

    def test_factors_finite(self, small_split):
        train, test = small_split
        runner = ThreadedNomad(train, test, n_workers=2, hyper=HYPER, seed=1)
        result = runner.run(duration_seconds=0.4)
        assert np.all(np.isfinite(result.factors.w))
        assert np.all(np.isfinite(result.factors.h))

    def test_single_worker(self, tiny_split):
        train, test = tiny_split
        runner = ThreadedNomad(train, test, n_workers=1, hyper=HYPER, seed=1)
        result = runner.run(duration_seconds=0.3)
        assert result.updates > 0

    def test_bad_args(self, tiny_split):
        train, test = tiny_split
        with pytest.raises(ConfigError):
            ThreadedNomad(train, test, n_workers=0, hyper=HYPER)
        runner = ThreadedNomad(train, test, n_workers=1, hyper=HYPER)
        with pytest.raises(ConfigError):
            runner.run(duration_seconds=0.0)

    def test_shape_mismatch(self, tiny_split, small_split):
        train, _ = tiny_split
        _, other_test = small_split
        with pytest.raises(ConfigError):
            ThreadedNomad(train, other_test, n_workers=1, hyper=HYPER)

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_worker_that_raises_is_named(self, tiny_split, monkeypatch):
        """A thread that raises used to vanish into threading.excepthook
        while run() returned factors."""
        train, test = tiny_split
        real = threaded_module._worker_main

        def worker(worker_id, *args):
            if worker_id == 1:
                raise RuntimeError("worker crashed before reporting")
            real(worker_id, *args)

        monkeypatch.setattr(threaded_module, "_worker_main", worker)
        runner = ThreadedNomad(train, test, 2, HYPER, seed=1)
        with pytest.raises(WorkerLostError, match=r"\[1\]"):
            runner.run(duration_seconds=0.1)


class TestMultiprocessNomad:
    def test_converges(self, small_split):
        train, test = small_split
        runner = MultiprocessNomad(train, test, n_workers=2, hyper=HYPER, seed=1)
        result = runner.run(duration_seconds=1.0)
        assert result.updates > 0
        # Shared-memory writes from children must be visible in the parent:
        # the RMSE must have moved below the untouched initialization's.
        assert result.rmse < initial_rmse_for(train, test, seed=1) - 0.05

    def test_all_workers_contribute(self, small_split):
        train, test = small_split
        runner = MultiprocessNomad(train, test, n_workers=2, hyper=HYPER, seed=1)
        result = runner.run(duration_seconds=1.0)
        assert all(count > 0 for count in result.updates_per_worker)

    def test_factors_finite(self, tiny_split):
        train, test = tiny_split
        runner = MultiprocessNomad(train, test, n_workers=2, hyper=HYPER, seed=1)
        result = runner.run(duration_seconds=0.5)
        assert np.all(np.isfinite(result.factors.w))
        assert np.all(np.isfinite(result.factors.h))

    def test_bad_args(self, tiny_split):
        train, test = tiny_split
        with pytest.raises(ConfigError):
            MultiprocessNomad(train, test, n_workers=0, hyper=HYPER)
        runner = MultiprocessNomad(train, test, n_workers=1, hyper=HYPER)
        with pytest.raises(ConfigError):
            runner.run(duration_seconds=-1.0)

    def test_requires_fork_start_method(self, tiny_split, monkeypatch):
        """Regression: without fork, fail with a clear ConfigError instead
        of crashing inside spawn's pickling of the token rings' locks."""
        train, test = tiny_split
        runner = MultiprocessNomad(train, test, n_workers=1, hyper=HYPER)
        monkeypatch.setattr(
            mp_module.mp, "get_all_start_methods", lambda: ["spawn"]
        )
        with pytest.raises(ConfigError, match="fork"):
            runner.run(duration_seconds=0.1)

    def test_worker_takes_named_hyperparams(self):
        """Regression: hyperparameters cross the process boundary as the
        HyperParams dataclass (named fields), not a positional tuple whose
        reorder could silently swap alpha and lambda."""
        hyper_param = inspect.signature(_worker_main).parameters["hyper"]
        assert hyper_param.annotation == "HyperParams"


class TestSharedMemoryTeardown:
    """Regression: the shared W/H blocks must be unlinked on every exit
    path — a crashing worker or a failed second allocation used to be
    able to leak a block into /dev/shm for the life of the machine."""

    @staticmethod
    def _recording_shm(monkeypatch, fail_on_create=None):
        """Patch SharedMemory to record created block names (and
        optionally fail the Nth create)."""
        from multiprocessing import shared_memory as shm_module

        real = shm_module.SharedMemory
        created = []

        class Recording(real):
            def __init__(self, *args, **kwargs):
                if kwargs.get("create"):
                    if len(created) + 1 == fail_on_create:
                        raise OSError("simulated allocation failure")
                    super().__init__(*args, **kwargs)
                    created.append(self.name)
                else:
                    super().__init__(*args, **kwargs)

        monkeypatch.setattr(shm_module, "SharedMemory", Recording)
        return created, real

    @staticmethod
    def _assert_unlinked(real, names):
        assert names, "test never saw a block created"
        for name in names:
            with pytest.raises(FileNotFoundError):
                real(name=name)

    def test_unlinked_after_clean_run(self, tiny_split, monkeypatch):
        train, test = tiny_split
        created, real = self._recording_shm(monkeypatch)
        runner = MultiprocessNomad(train, test, 1, HYPER, seed=1)
        runner.run(duration_seconds=0.2)
        assert len(created) == 3  # W, H, and the token rings
        self._assert_unlinked(real, created)

    def test_unlinked_when_worker_raises(self, tiny_split, monkeypatch):
        """Workers that die immediately: the run still tears down every
        block (result collection is bounded by the join timeout), then
        names the dead workers instead of returning a model."""
        train, test = tiny_split
        created, real = self._recording_shm(monkeypatch)

        def crashing_worker(*args, **kwargs):
            raise RuntimeError("worker crashed before reporting")

        monkeypatch.setattr(mp_module, "_worker_main", crashing_worker)
        monkeypatch.setattr(mp_module, "_JOIN_TIMEOUT", 0.5)
        runner = MultiprocessNomad(train, test, 2, HYPER, seed=1)
        with pytest.raises(WorkerLostError, match=r"\[0, 1\]") as caught:
            runner.run(duration_seconds=0.1)
        assert isinstance(caught.value, ReproError)
        assert len(created) == 3
        self._assert_unlinked(real, created)

    def test_first_block_unlinked_when_second_allocation_fails(
        self, tiny_split, monkeypatch
    ):
        train, test = tiny_split
        created, real = self._recording_shm(monkeypatch, fail_on_create=2)
        runner = MultiprocessNomad(train, test, 1, HYPER, seed=1)
        with pytest.raises(OSError, match="simulated allocation"):
            runner.run(duration_seconds=0.1)
        assert len(created) == 1
        self._assert_unlinked(real, created)


class TestTokenRings:
    """The mailboxes are shared-memory rings: shutdown never waits on a
    pipe, and the live engine checks token conservation when it stops."""

    def test_shutdown_does_not_depend_on_pipe_capacity(self):
        """Regression: with >= ~10k items the tokens left in the old
        mp.Queue pipes at stop exceeded the 64 KiB pipe buffer, every
        worker blocked flushing its feeder thread, and run() sat through
        _JOIN_TIMEOUT per worker (20 s here) before terminating them."""
        spec = SyntheticSpec(
            n_rows=300, n_cols=20_000, rank=2, density=0.005, noise=0.1
        )
        train = make_low_rank(spec, RngFactory(5).stream("wide"))
        runner = MultiprocessNomad(train, train, 2, HYPER, seed=1)
        result = runner.run(duration_seconds=0.3)
        assert result.join_seconds < 2.0
        assert all(count > 0 for count in result.updates_per_worker)

    ENGINES = pytest.mark.parametrize(
        "engine, module",
        [(MultiprocessNomad, mp_module), (ThreadedNomad, threaded_module)],
        ids=["multiprocess", "threaded"],
    )

    @staticmethod
    def _tampering_worker(monkeypatch, tamper, module=mp_module):
        """Run the real worker after ``tamper(rings)`` in worker 0."""
        real = module._worker_main
        signature = inspect.signature(real)

        def worker(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments
            if bound["worker_id"] == 0:
                tamper(bound["rings"])
            real(*args, **kwargs)

        monkeypatch.setattr(module, "_worker_main", worker)

    @ENGINES
    def test_lost_token_raises_typed_error(
        self, tiny_split, monkeypatch, engine, module
    ):
        train, test = tiny_split
        lost = []

        def drop_one(rings):
            lost.extend(rings.pop_many(0, 1).tolist())

        self._tampering_worker(monkeypatch, drop_one, module)
        runner = engine(train, test, 2, HYPER, seed=1)
        with pytest.raises(TokenConservationError, match="1 item.s. lost") as caught:
            runner.run(duration_seconds=0.2)
        assert isinstance(caught.value, ReproError)
        assert "0 duplicated" in str(caught.value)

    @ENGINES
    def test_duplicated_token_raises_typed_error(
        self, tiny_split, monkeypatch, engine, module
    ):
        train, test = tiny_split
        self._tampering_worker(
            monkeypatch,
            lambda rings: rings.push_many(0, np.array([3], dtype=np.int64)),
            module,
        )
        runner = engine(train, test, 2, HYPER, seed=1)
        with pytest.raises(
            TokenConservationError, match=r"1 duplicated \(first: \[3\]\)"
        ):
            runner.run(duration_seconds=0.2)

    def test_shm_unlinked_when_conservation_fails(
        self, tiny_split, monkeypatch
    ):
        train, test = tiny_split
        created, real = TestSharedMemoryTeardown._recording_shm(monkeypatch)
        self._tampering_worker(monkeypatch, lambda rings: rings.pop_many(0, 1))
        runner = MultiprocessNomad(train, test, 2, HYPER, seed=1)
        with pytest.raises(TokenConservationError):
            runner.run(duration_seconds=0.1)
        assert len(created) == 3
        TestSharedMemoryTeardown._assert_unlinked(real, created)

    def test_telemetry_adds_the_stamp_block(self, tiny_split, monkeypatch):
        train, test = tiny_split
        created, real = TestSharedMemoryTeardown._recording_shm(monkeypatch)
        runner = MultiprocessNomad(
            train, test, 2, HYPER, seed=1, telemetry=True
        )
        result = runner.run(duration_seconds=0.2)
        assert len(created) == 4
        TestSharedMemoryTeardown._assert_unlinked(real, created)
        assert result.telemetry.summary()["hop_latency"]["count"] > 0


class TestTimingSemantics:
    """wall_seconds covers the parallel section only (stamped at the stop
    signal); shutdown cost is reported separately as join_seconds."""

    def test_threaded_wall_excludes_slow_join(self, tiny_split, monkeypatch):
        train, test = tiny_split
        delay = 0.25
        real_join = threading.Thread.join

        def slow_join(self, timeout=None):
            time.sleep(delay)
            return real_join(self, timeout)

        monkeypatch.setattr(threading.Thread, "join", slow_join)
        runner = ThreadedNomad(train, test, n_workers=2, hyper=HYPER, seed=1)
        duration = 0.3
        result = runner.run(duration_seconds=duration)
        assert result.wall_seconds < duration + delay
        assert result.join_seconds >= 2 * delay  # one per worker thread

    def test_multiprocess_wall_excludes_slow_join(
        self, tiny_split, monkeypatch
    ):
        train, test = tiny_split
        delay = 0.25
        context = mp_module._fork_context()
        process_cls = context.Process
        real_join = process_cls.join

        def slow_join(self, timeout=None):
            time.sleep(delay)
            return real_join(self, timeout)

        monkeypatch.setattr(process_cls, "join", slow_join)
        runner = MultiprocessNomad(
            train, test, n_workers=2, hyper=HYPER, seed=1
        )
        duration = 0.3
        result = runner.run(duration_seconds=duration)
        # Collection polls may add a little, but the mocked join delays
        # must land entirely in join_seconds, never in wall_seconds.
        assert result.wall_seconds < duration + delay
        assert result.join_seconds >= 2 * delay


class TestRunConfigSemantics:
    """RunConfig.duration is honored by the real runtimes (it used to be
    silently ignored in favor of the duration_seconds default)."""

    def test_threaded_honors_runconfig_duration(self, tiny_split):
        train, test = tiny_split
        run = RunConfig(duration=0.3, eval_interval=0.1, seed=1)
        runner = ThreadedNomad(train, test, 2, HYPER, run=run)
        result = runner.run()  # no duration_seconds: run.duration applies
        assert 0.3 <= result.wall_seconds < 0.3 + 0.25

    def test_multiprocess_honors_runconfig_duration(self, tiny_split):
        train, test = tiny_split
        run = RunConfig(duration=0.3, eval_interval=0.1, seed=1)
        runner = MultiprocessNomad(train, test, 2, HYPER, run=run)
        result = runner.run()
        # wall_seconds also absorbs process fork/start cost (the clock is
        # stamped before the start loop), so the upper slack is generous
        # to stay robust on loaded CI runners.
        assert 0.3 <= result.wall_seconds < 0.3 + 1.5

    def test_explicit_duration_beats_runconfig(self, tiny_split):
        train, test = tiny_split
        run = RunConfig(duration=5.0, eval_interval=0.1, seed=1)
        runner = ThreadedNomad(train, test, 1, HYPER, run=run)
        result = runner.run(duration_seconds=0.2)
        assert result.wall_seconds < 1.0

    def test_runconfig_supplies_seed_and_backend(self, tiny_split):
        train, test = tiny_split
        run = RunConfig(
            duration=0.2, eval_interval=0.1, seed=17, kernel_backend="list"
        )
        threaded = ThreadedNomad(train, test, 1, HYPER, run=run)
        assert threaded.seed == 17
        assert isinstance(threaded.backend, ListBackend)
        multiprocess = MultiprocessNomad(train, test, 1, HYPER, run=run)
        assert multiprocess.seed == 17
        assert isinstance(multiprocess.backend, ListBackend)
        # Explicit arguments still beat the run config.
        pinned = ThreadedNomad(
            train, test, 1, HYPER, seed=3, kernel_backend="auto", run=run
        )
        assert pinned.seed == 3
        assert pinned.backend.name == ("cext" if cext_available() else "list")

    def test_max_updates_rejected_eagerly(self, tiny_split):
        train, test = tiny_split
        run = RunConfig(
            duration=0.2, eval_interval=0.1, seed=1, max_updates=100
        )
        with pytest.raises(ConfigError, match="max_updates"):
            ThreadedNomad(train, test, 1, HYPER, run=run)
        with pytest.raises(ConfigError, match="max_updates"):
            MultiprocessNomad(train, test, 1, HYPER, run=run)

    def test_legacy_default_without_runconfig(self, tiny_split):
        """No run config and no duration: the historical 1 s default."""
        train, test = tiny_split
        runner = ThreadedNomad(train, test, 1, HYPER, seed=1)
        result = runner.run()
        assert 1.0 <= result.wall_seconds < 1.0 + 0.5


class TestRuntimeBackends:
    def test_auto_resolves_to_cext_or_list(self, tiny_split):
        train, test = tiny_split
        expected = "cext" if cext_available() else "list"
        assert ThreadedNomad(train, test, 1, HYPER).backend.name == expected
        assert MultiprocessNomad(train, test, 1, HYPER).backend.name == expected

    def test_explicit_list_backend_works(self, tiny_split):
        train, test = tiny_split
        runner = ThreadedNomad(
            train, test, n_workers=1, hyper=HYPER, seed=1,
            kernel_backend="list",
        )
        assert isinstance(runner.backend, ListBackend)
        result = runner.run(duration_seconds=0.3)
        assert result.updates > 0
        assert np.all(np.isfinite(result.factors.w))

    def test_unknown_backend_rejected(self, tiny_split):
        train, test = tiny_split
        with pytest.raises(ConfigError):
            ThreadedNomad(train, test, 1, HYPER, kernel_backend="gpu")
        with pytest.raises(ConfigError):
            MultiprocessNomad(train, test, 1, HYPER, kernel_backend="gpu")

    def test_env_var_pins_runtime_backend(self, tiny_split, monkeypatch):
        """$NOMAD_KERNEL_BACKEND applies when no explicit name is given."""
        train, test = tiny_split
        monkeypatch.setenv("NOMAD_KERNEL_BACKEND", "list")
        assert isinstance(
            ThreadedNomad(train, test, 1, HYPER).backend, ListBackend
        )
        assert isinstance(
            MultiprocessNomad(train, test, 1, HYPER).backend, ListBackend
        )
        # An explicit argument still beats the environment.
        monkeypatch.setenv("NOMAD_KERNEL_BACKEND", "bogus")
        assert isinstance(
            ThreadedNomad(train, test, 1, HYPER, kernel_backend="list").backend,
            ListBackend,
        )
