"""Tests for the real threaded and multiprocess NOMAD runtimes."""

from __future__ import annotations

import inspect
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest

from repro.api import fit
from repro.api.registry import resolve_wall_clock_run
from repro.cluster import coordinator as coordinator_module
from repro.config import HyperParams, RunConfig
from repro.datasets.synthetic import SyntheticSpec, make_low_rank
from repro.experiments.harness import build_dataset
from repro.errors import (
    ClusterError,
    ConfigError,
    DivergenceError,
    ReproError,
    SimulationError,
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


def wall(duration, **fields):
    """A live run's config: ``duration`` seconds of wall time."""
    return RunConfig(duration=duration, eval_interval=duration, **fields)


def initial_rmse_for(train, test, seed):
    """RMSE of the untouched seed-determined initialization."""
    factors = init_factors(
        train.n_rows, train.n_cols, HYPER.k, RngFactory(seed).stream("init")
    )
    return compute_test_rmse(factors, test)


class TestThreadedNomad:
    def test_converges(self, small_split):
        train, test = small_split
        runner = ThreadedNomad(
            train, test, n_workers=3, hyper=HYPER, run=wall(0.8, seed=1)
        )
        result = runner.run()
        assert result.updates > 0
        assert result.rmse < initial_rmse_for(train, test, seed=1)

    def test_all_workers_contribute(self, small_split):
        train, test = small_split
        runner = ThreadedNomad(
            train, test, n_workers=3, hyper=HYPER, run=wall(0.8, seed=1)
        )
        result = runner.run()
        assert all(count > 0 for count in result.updates_per_worker)

    def test_factors_finite(self, small_split):
        train, test = small_split
        runner = ThreadedNomad(
            train, test, n_workers=2, hyper=HYPER, run=wall(0.4, seed=1)
        )
        result = runner.run()
        assert np.all(np.isfinite(result.factors.w))
        assert np.all(np.isfinite(result.factors.h))

    def test_single_worker(self, tiny_split):
        train, test = tiny_split
        runner = ThreadedNomad(
            train, test, n_workers=1, hyper=HYPER, run=wall(0.3, seed=1)
        )
        result = runner.run()
        assert result.updates > 0

    def test_bad_args(self, tiny_split):
        train, test = tiny_split
        with pytest.raises(ConfigError):
            ThreadedNomad(train, test, n_workers=0, hyper=HYPER, run=wall(0.1))

    def test_shape_mismatch(self, tiny_split, small_split):
        train, _ = tiny_split
        _, other_test = small_split
        with pytest.raises(ConfigError):
            ThreadedNomad(
                train, other_test, n_workers=1, hyper=HYPER, run=wall(0.1)
            )

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
        runner = ThreadedNomad(train, test, 2, HYPER, run=wall(0.1, seed=1))
        with pytest.raises(WorkerLostError, match=r"\[1\]"):
            runner.run()


class TestMultiprocessNomad:
    def test_converges(self, small_split):
        train, test = small_split
        runner = MultiprocessNomad(
            train, test, n_workers=2, hyper=HYPER, run=wall(1.0, seed=1)
        )
        result = runner.run()
        assert result.updates > 0
        # Shared-memory writes from children must be visible in the parent:
        # the RMSE must have moved below the untouched initialization's.
        assert result.rmse < initial_rmse_for(train, test, seed=1) - 0.05

    def test_all_workers_contribute(self, small_split):
        train, test = small_split
        runner = MultiprocessNomad(
            train, test, n_workers=2, hyper=HYPER, run=wall(1.0, seed=1)
        )
        result = runner.run()
        assert all(count > 0 for count in result.updates_per_worker)

    def test_factors_finite(self, tiny_split):
        train, test = tiny_split
        runner = MultiprocessNomad(
            train, test, n_workers=2, hyper=HYPER, run=wall(0.5, seed=1)
        )
        result = runner.run()
        assert np.all(np.isfinite(result.factors.w))
        assert np.all(np.isfinite(result.factors.h))

    def test_bad_args(self, tiny_split):
        train, test = tiny_split
        with pytest.raises(ConfigError):
            MultiprocessNomad(
                train, test, n_workers=0, hyper=HYPER, run=wall(0.1)
            )

    def test_requires_fork_start_method(self, tiny_split, monkeypatch):
        """Regression: without fork, fail with a clear ConfigError instead
        of crashing inside spawn's pickling of the token rings' locks."""
        train, test = tiny_split
        runner = MultiprocessNomad(
            train, test, n_workers=1, hyper=HYPER, run=wall(0.1)
        )
        monkeypatch.setattr(
            mp_module.mp, "get_all_start_methods", lambda: ["spawn"]
        )
        with pytest.raises(ConfigError, match="fork"):
            runner.run()

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
        runner = MultiprocessNomad(train, test, 1, HYPER, run=wall(0.2, seed=1))
        runner.run()
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
        runner = MultiprocessNomad(train, test, 2, HYPER, run=wall(0.1, seed=1))
        with pytest.raises(WorkerLostError, match=r"\[0, 1\]") as caught:
            runner.run()
        assert isinstance(caught.value, ReproError)
        assert len(created) == 3
        self._assert_unlinked(real, created)

    def test_first_block_unlinked_when_second_allocation_fails(
        self, tiny_split, monkeypatch
    ):
        train, test = tiny_split
        created, real = self._recording_shm(monkeypatch, fail_on_create=2)
        runner = MultiprocessNomad(train, test, 1, HYPER, run=wall(0.1, seed=1))
        with pytest.raises(OSError, match="simulated allocation"):
            runner.run()
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
        runner = MultiprocessNomad(train, train, 2, HYPER, run=wall(0.3, seed=1))
        result = runner.run()
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
        runner = engine(train, test, 2, HYPER, run=wall(0.2, seed=1))
        with pytest.raises(TokenConservationError, match="1 item.s. lost") as caught:
            runner.run()
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
        runner = engine(train, test, 2, HYPER, run=wall(0.2, seed=1))
        with pytest.raises(
            TokenConservationError, match=r"1 duplicated \(first: \[3\]\)"
        ):
            runner.run()

    def test_shm_unlinked_when_conservation_fails(
        self, tiny_split, monkeypatch
    ):
        train, test = tiny_split
        created, real = TestSharedMemoryTeardown._recording_shm(monkeypatch)
        self._tampering_worker(monkeypatch, lambda rings: rings.pop_many(0, 1))
        runner = MultiprocessNomad(train, test, 2, HYPER, run=wall(0.1, seed=1))
        with pytest.raises(TokenConservationError):
            runner.run()
        assert len(created) == 3
        TestSharedMemoryTeardown._assert_unlinked(real, created)

    def test_telemetry_adds_the_stamp_block(self, tiny_split, monkeypatch):
        train, test = tiny_split
        created, real = TestSharedMemoryTeardown._recording_shm(monkeypatch)
        runner = MultiprocessNomad(
            train, test, 2, HYPER, telemetry=True, run=wall(0.2, seed=1)
        )
        result = runner.run()
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
        duration = 0.3
        runner = ThreadedNomad(
            train, test, n_workers=2, hyper=HYPER, run=wall(duration, seed=1)
        )
        result = runner.run()
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
        duration = 0.3
        runner = MultiprocessNomad(
            train, test, n_workers=2, hyper=HYPER, run=wall(duration, seed=1)
        )
        result = runner.run()
        # Collection polls may add a little, but the mocked join delays
        # must land entirely in join_seconds, never in wall_seconds.
        assert result.wall_seconds < duration + delay
        assert result.join_seconds >= 2 * delay


def _shm_blocks() -> set[str]:
    """Names of the shared-memory blocks on this host (empty where
    there is no ``/dev/shm``)."""
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def _live_workers() -> list[str]:
    """Worker threads and child processes of this process still alive."""
    threads = [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith(("nomad-", "cluster-"))
    ]
    return threads + [child.name for child in multiprocessing.active_children()]


class TestInterruptedWait:
    """Regression: the ring engines set ``stop`` only after their timed
    wait returned, so a Ctrl-C or an error in the wait left the workers
    running — threads that kept the interpreter alive, forked children
    working on blocks already unlinked.  The cluster's wait — since the
    one run of every live engine, the same wait — is held to the same
    bar."""

    @pytest.mark.parametrize(
        "engine, extra",
        [
            ("threaded", {}),
            ("multiprocess", {}),
            ("cluster", {"transport": "loopback"}),
        ],
        ids=["threaded", "multiprocess", "cluster"],
    )
    def test_interrupt_stops_every_worker(
        self, tiny_split, monkeypatch, engine, extra
    ):
        train, test = tiny_split
        parent = os.getpid()
        real_sleep = time.sleep
        interrupted = []

        def sleep(seconds):
            # Only the parent's main thread is interrupted: forked
            # children inherit this patch, and idle workers sleep too.
            if (
                not interrupted
                and os.getpid() == parent
                and threading.current_thread() is threading.main_thread()
            ):
                interrupted.append(seconds)
                raise KeyboardInterrupt
            real_sleep(seconds)

        blocks = _shm_blocks()
        assert not _live_workers()
        monkeypatch.setattr(time, "sleep", sleep)
        with pytest.raises(KeyboardInterrupt):
            fit(
                train, test, engine=engine, n_workers=2, hyper=HYPER,
                run=wall(5.0, seed=1), **extra,
            )
        monkeypatch.undo()
        assert interrupted
        deadline = time.monotonic() + 2.0
        while (
            _live_workers() or _shm_blocks() - blocks
        ) and time.monotonic() < deadline:
            real_sleep(0.02)
        assert not _live_workers()
        assert not _shm_blocks() - blocks


def _engines(rows) -> pytest.MarkDecorator:
    return pytest.mark.parametrize(
        "engine, extra", rows, ids=[engine for engine, _ in rows]
    )


#: The three live engines, the cluster over its in-process transport.
LIVE_ENGINES = _engines([
    ("threaded", {}),
    ("multiprocess", {}),
    ("cluster", {"transport": "loopback"}),
])


def _assert_released(blocks: set[str]) -> None:
    """Within 2 s no worker of this process is alive and no shared block
    beyond ``blocks`` exists."""
    deadline = time.monotonic() + 2.0
    while (
        _live_workers() or _shm_blocks() - blocks
    ) and time.monotonic() < deadline:
        time.sleep(0.02)
    assert not _live_workers()
    assert not _shm_blocks() - blocks


class TestFailedWorkerStart:
    """Regression: the ring engines and the loopback cluster started
    their workers before the ``try`` whose ``finally`` stops them, so a
    start that raised left the workers already started running — on
    ``threaded`` a non-daemon thread the interpreter never got past."""

    @LIVE_ENGINES
    def test_failed_start_leaks_no_worker(
        self, tiny_split, monkeypatch, engine, extra
    ):
        train, test = tiny_split
        worker_class = (
            mp_module._fork_context().Process
            if engine == "multiprocess"
            else threading.Thread
        )
        real_start = worker_class.start
        starts = []

        def start(self):
            starts.append(self)
            if len(starts) == 2:
                raise RuntimeError("injected start failure")
            real_start(self)

        blocks = _shm_blocks()
        assert not _live_workers()
        monkeypatch.setattr(worker_class, "start", start)
        with pytest.raises(RuntimeError, match="injected start failure"):
            fit(
                train, test, engine=engine, n_workers=2, hyper=HYPER,
                run=wall(5.0, seed=1), **extra,
            )
        monkeypatch.undo()
        assert len(starts) == 2
        _assert_released(blocks)


class TestDeadWorker:
    """Regression: a worker that died early in a long run surfaced only
    when the whole budget was slept out (``threaded``), and then after
    the full join timeout spent waiting for a report the dead process
    could never send (``multiprocess``).  Every live engine now polls
    liveness in its wait and ends the run in its typed error at once."""

    @LIVE_ENGINES
    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning"
    )
    def test_dead_worker_is_a_typed_error_at_once(
        self, tiny_split, monkeypatch, engine, extra
    ):
        train, test = tiny_split
        if engine == "cluster":
            module, name, error = coordinator_module, "run_worker", ClusterError
        else:
            module = threaded_module if engine == "threaded" else mp_module
            name, error = "_worker_main", WorkerLostError
        real = getattr(module, name)

        def worker(first, *args):
            worker_id = first.worker_id if engine == "cluster" else first
            if worker_id == 1:
                raise RuntimeError("injected worker crash")
            real(first, *args)

        blocks = _shm_blocks()
        assert not _live_workers()
        monkeypatch.setattr(module, name, worker)
        monkeypatch.setattr(threading, "excepthook", lambda args: None)
        started = time.monotonic()
        with pytest.raises(error, match=r"\[1\]"):
            fit(
                train, test, engine=engine, n_workers=2, hyper=HYPER,
                run=wall(3.0, seed=1), **extra,
            )
        assert time.monotonic() - started < 1.5
        monkeypatch.undo()
        _assert_released(blocks)


class TestDivergence:
    """Regression: a live run whose step size diverged returned a
    ``FitResult`` with NaN factors and a NaN RMSE, exit code 0, where
    the simulator raised.  Every live engine now checks its final
    ``W‖H`` after the join and raises the simulator's error type
    (``fit_stream``'s case is in ``tests/test_stream.py``)."""

    @pytest.fixture(scope="class")
    def diverging(self):
        _, train, test = build_dataset("netflix", 0)
        return train, test, HyperParams(k=8, lambda_=0.01, alpha=5.0, beta=0.01)

    @LIVE_ENGINES
    def test_diverged_live_run_is_a_typed_error(self, diverging, engine, extra):
        train, test, hyper = diverging
        blocks = _shm_blocks()
        assert not _live_workers()
        started = time.monotonic()
        with pytest.raises(DivergenceError, match="diverged"):
            fit(
                train, test, engine=engine, n_workers=2, hyper=hyper,
                run=RunConfig(duration=0.5), **extra,
            )
        assert time.monotonic() - started < 2.5
        _assert_released(blocks)

    def test_simulated_divergence_is_the_same_error(self, diverging):
        train, test, hyper = diverging
        with pytest.raises(DivergenceError) as raised:
            fit(train, test, engine="simulated", hyper=hyper,
                run=RunConfig(duration=0.5))
        assert isinstance(raised.value, SimulationError)


class TestRunConfigSemantics:
    """The required RunConfig is the one source of a live run's wall
    budget, seed and kernel backend."""

    def test_threaded_honors_runconfig_duration(self, tiny_split):
        train, test = tiny_split
        run = RunConfig(duration=0.3, eval_interval=0.1, seed=1)
        runner = ThreadedNomad(train, test, 2, HYPER, run=run)
        result = runner.run()
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

    def test_runconfig_supplies_seed_and_backend(self, tiny_split):
        train, test = tiny_split
        run = RunConfig(
            duration=0.2, eval_interval=0.1, seed=17, kernel_backend="list"
        )
        drawn = init_factors(
            train.n_rows, train.n_cols, HYPER.k, RngFactory(17).stream("init")
        )
        for engine in (ThreadedNomad, MultiprocessNomad):
            runner = engine(train, test, 1, HYPER, run=run)
            assert isinstance(runner.backend, ListBackend)
            assert np.array_equal(runner.initial_factors.w, drawn.w)
            assert np.array_equal(runner.initial_factors.h, drawn.h)

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
        """No run config: the wall-clock engines' ``run=None`` policy
        hands the runtime the historical 1 s default."""
        train, test = tiny_split
        run = resolve_wall_clock_run(None)
        assert run.duration == 1.0
        runner = ThreadedNomad(train, test, 1, HYPER, run=run)
        result = runner.run()
        assert 1.0 <= result.wall_seconds < 1.0 + 0.5


class TestRuntimeBackends:
    def test_auto_resolves_to_cext_or_list(self, tiny_split):
        train, test = tiny_split
        expected = "cext" if cext_available() else "list"
        run = wall(0.1, kernel_backend="auto")
        assert ThreadedNomad(train, test, 1, HYPER, run).backend.name == expected
        assert (
            MultiprocessNomad(train, test, 1, HYPER, run).backend.name
            == expected
        )

    def test_explicit_list_backend_works(self, tiny_split):
        train, test = tiny_split
        runner = ThreadedNomad(
            train, test, n_workers=1, hyper=HYPER,
            run=wall(0.3, seed=1, kernel_backend="list"),
        )
        assert isinstance(runner.backend, ListBackend)
        result = runner.run()
        assert result.updates > 0
        assert np.all(np.isfinite(result.factors.w))

    def test_unknown_backend_rejected(self, tiny_split):
        train, test = tiny_split
        with pytest.raises(ConfigError, match="kernel_backend"):
            ThreadedNomad(train, test, 1, HYPER, wall(0.1, kernel_backend="gpu"))

    def test_env_var_pins_runtime_backend(self, tiny_split, monkeypatch):
        """$NOMAD_KERNEL_BACKEND applies when the run config names no
        backend."""
        train, test = tiny_split
        monkeypatch.setenv("NOMAD_KERNEL_BACKEND", "list")
        assert isinstance(
            ThreadedNomad(train, test, 1, HYPER, wall(0.1)).backend,
            ListBackend,
        )
        assert isinstance(
            MultiprocessNomad(train, test, 1, HYPER, wall(0.1)).backend,
            ListBackend,
        )
