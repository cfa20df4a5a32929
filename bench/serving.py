"""The two serve workloads: a ``RecommendationService`` in a child
process, this process as the load generator over real sockets.

Both run the same two phases per service life — an open loop at a
fixed rate over two connections (latency from the due time), then a
closed loop (reads back to back) — and differ in one thing:
``serve-mixed`` also posts fresh ratings and polls ``/snapshot``
throughout and persists snapshots to disk, so its trainer runs beside
the reads.
"""

from __future__ import annotations

import bisect
import itertools
import json
import math
import multiprocessing
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from repro import RecommendationService, ServiceConfig
from repro.serve.cache import LruCache
from repro.serve.persistence import SnapshotPersister
from repro.serve.schemas import IngestRequest, RecommendQuery, RecommendResponse
from repro.stream.serve import Recommender

from . import service_child, workloads
from .loadgen import Done, HttpConnection, Op, drive
from .outcome import Outcome
from .stats import (
    fast_quantile,
    highest_supported_percentile,
    percentile,
    samples_beyond,
)
from .trace import SpanRecorder
from .workloads import ServeInputs, Workload

__all__ = ["run"]

HOST = "127.0.0.1"
READ_RATE = {"serve-read": 1000.0, "serve-mixed": 400.0}
RECOMMEND_SHARE = 0.75  # of reads; the rest are /predict
POST_RATE = 10.0  # batches per second (serve-mixed)
POST_BATCH = 40  # fresh ratings per batch
POLL_RATE = 2.0  # /snapshot polls per second (serve-mixed)
#: Service lives per untraced run: set-up is their median, and the load
#: metrics pool the slices of all of them.
LAUNCHES = 3
#: Share of each service life spent in the open loop; the rest is the
#: closed loop that gives ops_per_s.
OPEN_SHARE = 0.75
#: The open loop is cut into slices this long, each giving a p50 and a
#: p95 (>= 10 reads beyond it at both read rates); the closed loop into
#: shorter ones, each giving a rate.
OPEN_SLICE_S = 1.0
CLOSED_SLICE_S = 0.25
RPS_SLICE_S = 0.5
#: Latency and rate are reported as the value this share of the slices
#: reached (``stats.fast_quantile``).
FAST_SHARE = 0.25
#: Reads pre-built per connection for the closed loop (cycled if spent).
FILLER_OPS = 20_000
_OK = {"read": 200, "poll": 200, "post": 202}


class ChildService:
    """A ``RecommendationService`` in a spawned process."""

    def __init__(self, inputs: ServeInputs, workload: Workload, persist_dir):
        warmup = inputs.warmup
        context = multiprocessing.get_context("spawn")
        self._pipe, child_end = context.Pipe()
        self.process = context.Process(
            target=service_child.serve,
            args=(
                child_end,
                (warmup.n_rows, warmup.n_cols, warmup.rows, warmup.cols,
                 warmup.vals),
                dict(k=workload.k, lambda_=workload.lambda_,
                     alpha=workload.alpha, beta=workload.beta),
                dict(cache_capacity=workloads.SERVE_CACHE_CAPACITY,
                     persist_dir=persist_dir, n_workers=2),
            ),
        )
        self.process.start()
        child_end.close()
        if not self._pipe.poll(60.0):
            self.kill()
            raise TimeoutError("service child never reported ready")
        message = self._pipe.recv()
        if message[0] != "ready":
            self.kill()
            raise RuntimeError(f"service child failed: {message[1]}")
        self.port = message[1]

    def stop(self) -> str | None:
        """Graceful stop; returns the trainer's error text, if any."""
        trainer_error = "service child died before reporting"
        try:
            self._pipe.send("stop")
            if self._pipe.poll(60.0):
                trainer_error = self._pipe.recv()[1]
        except (OSError, EOFError):
            pass
        self.process.join(30.0)
        self.kill()
        return trainer_error

    def kill(self) -> None:
        if self.process.is_alive():
            self.process.terminate()
            self.process.join()
        self._pipe.close()


def _read_ops(
    workload: Workload, inputs: ServeInputs, rng: np.random.Generator,
    count: int, rate: float | None, start_tag: int = 0,
) -> list[Op]:
    """``count`` reads: 75% /recommend for Zipf users, 25% /predict over
    held-out truth pairs (tag = index into ``inputs.test``)."""
    users = workloads.zipf_users(workload.rows, count, rng).tolist()
    is_predict = (rng.random(count) >= RECOMMEND_SHARE).tolist()
    test = inputs.test
    ops = []
    tag = start_tag
    for index in range(count):
        due = index / rate if rate else 0.0
        if is_predict[index]:
            cell = tag % test.nnz
            path = f"/predict?user={test.rows[cell]}&item={test.cols[cell]}"
            ops.append(Op("read", due, "GET", path, tag=cell))
            tag += 1
        else:
            ops.append(
                Op("read", due, "GET", f"/recommend?user={users[index]}&n=10")
            )
    return ops


def _write_ops(
    inputs: ServeInputs, order: np.ndarray, duration: float, first_batch: int
) -> list[Op]:
    """POST /ratings batches at ``POST_RATE`` and /snapshot polls at
    ``POLL_RATE``.  ``order`` is the service life's one send order of
    the fresh pool; batch b takes its b-th slice, so no rating is ever
    posted twice (tag of a post = its batch number)."""
    fresh = inputs.fresh
    ops = []
    for index in range(int(duration * POST_RATE)):
        batch = first_batch + index
        picks = order[batch * POST_BATCH:(batch + 1) * POST_BATCH]
        if len(picks) < POST_BATCH:
            raise AssertionError("fresh-rating pool exhausted")
        body = json.dumps({"ratings": [
            {"user": int(fresh.rows[p]), "item": int(fresh.cols[p]),
             "value": float(fresh.vals[p])}
            for p in picks
        ]}).encode()
        ops.append(
            Op("post", (index + 0.5) / POST_RATE, "POST", "/ratings", body,
               tag=batch)
        )
    for index in itertools.count():
        due = (index + 0.75) / POLL_RATE
        if due >= duration:
            return ops
        ops.append(Op("poll", due, "GET", "/snapshot"))


def _check_statuses(outcome: Outcome, done: list[Done]) -> None:
    outcome.attempted += len(done)
    for item in done:
        if item.status != _OK[item.op.kind]:
            outcome.fail(
                f"{item.op.method} {item.op.path}: status {item.status} "
                f"{item.payload[:80]!r}"
            )


def _squared_errors(inputs: ServeInputs, done: list[Done]) -> list[float]:
    errors = []
    for item in done:
        if item.op.tag >= 0 and item.op.kind == "read" and item.status == 200:
            predicted = json.loads(item.payload)["prediction"]
            errors.append((predicted - float(inputs.test.vals[item.op.tag])) ** 2)
    return errors


def _snapshot_lags(done: list[Done]) -> list[float]:
    """Per /snapshot poll: poll time minus the time the generator had
    sent the ``arrivals_seen``-th accepted rating."""
    posts = sorted(
        (d for d in done if d.op.kind == "post" and d.status == 202),
        key=lambda d: d.sent,
    )
    totals = list(itertools.accumulate(
        json.loads(d.payload)["accepted"] for d in posts
    ))
    lags = []
    for item in done:
        if item.op.kind == "poll" and item.status == 200 and totals:
            seen = json.loads(item.payload)["arrivals_seen"]
            if seen > 0:
                index = min(bisect.bisect_left(totals, seen), len(posts) - 1)
                lags.append(item.done - posts[index].sent)
    return lags


@dataclass
class Launch:
    """One service life: launched, loaded, checked, stopped."""

    setup_s: float
    open_done: list[Done]
    spanned_done: list[Done]
    closed_done: list[Done]
    stats: dict
    idle_round_trip_us: float | None

    @property
    def everything(self) -> list[Done]:
        return self.open_done + self.spanned_done + self.closed_done


def _read_latencies_ms(done: list[Done]) -> list[float]:
    return [d.latency * 1e3 for d in done if d.op.kind == "read"]


def _read_slices(
    done: list[Done], phase_s: float, width: float
) -> tuple[list[list[Done]], float]:
    """The phase's reads grouped by due time into the whole slices of
    ``width`` seconds that ``phase_s`` holds, and the width used: a phase
    shorter than two slices is one slice.  A read due after the last
    whole slice is left out."""
    count = int(phase_s / width)
    if count < 2:
        count, width = 1, phase_s
    slices: list[list[Done]] = [[] for _ in range(count)]
    for item in done:
        index = int(item.op.due / width)
        if item.op.kind == "read" and index < count:
            slices[index].append(item)
    return slices, width


def _launch(
    outcome: Outcome, workload: Workload, inputs: ServeInputs, trial: int,
    seed: int, scratch_dir: str, open_s: float, closed_s: float,
    closed_connections: int = 1, recorder: SpanRecorder | None = None,
) -> Launch:
    """Bring a child service up on ``inputs``; run an open loop of
    ``open_s`` seconds, then a closed loop of ``closed_s`` seconds with
    reads back to back on ``closed_connections`` of the two connections;
    check the service's own view; stop it.  Set-up is everything around
    the load: spawn, warm-up to the first snapshot, graceful stop.

    With ``recorder`` (traced runs) the idle round trip is probed first
    and a second open loop follows the first with every request inside
    an ``http.request`` span: same service life, so the two differ by
    the tracing alone."""
    mixed = workload.name == "serve-mixed"
    rng = np.random.default_rng([seed, 17, trial])
    rate = READ_RATE[workload.name]
    persist_dir = (
        tempfile.mkdtemp(prefix="persist-", dir=scratch_dir) if mixed else None
    )
    idle_us = None
    started = time.perf_counter()
    child = ChildService(inputs, workload, persist_dir)
    launch_s = time.perf_counter() - started
    try:
        port = child.port
        if recorder is not None:
            idle_us = _idle_round_trip_us(port)
        # Warm the connection path and the cache's head (not measured).
        drive(HOST, port, _read_ops(workload, inputs, rng, 200, None))

        batches = 0
        order = rng.permutation(inputs.fresh.nnz)

        def open_loop(recorders=None) -> list[Done]:
            nonlocal batches
            ops = _read_ops(workload, inputs, rng, int(open_s * rate), rate)
            if mixed:
                ops += _write_ops(inputs, order, open_s, batches)
                batches += int(open_s * POST_RATE)
            return drive(HOST, port, ops, recorders=recorders)

        open_done = open_loop()
        spanned_done: list[Done] = []
        if recorder is not None:
            per_thread = [SpanRecorder(workload.name) for _ in range(2)]
            spanned_done = open_loop(per_thread)
            for extra in per_thread:
                recorder.spans.extend(extra.spans)
        fillers = [
            itertools.cycle(_read_ops(
                workload, inputs, rng, FILLER_OPS, None, start_tag=slot * 7919
            )) if slot < closed_connections else None
            for slot in range(2)
        ]
        scheduled = []
        if mixed:
            scheduled = _write_ops(inputs, order, closed_s, batches)
        closed_done = drive(
            HOST, port, scheduled, fillers=fillers, until=closed_s
        )
        _check_statuses(outcome, open_done + spanned_done + closed_done)
        stats = _service_view(outcome, port)
    finally:
        started = time.perf_counter()
        trainer_error = child.stop()
        outcome.check(trainer_error is None, f"trainer_error: {trainer_error}")
        if persist_dir is not None:
            shutil.rmtree(persist_dir, ignore_errors=True)
        stop_s = time.perf_counter() - started
    return Launch(
        launch_s + stop_s, open_done, spanned_done, closed_done, stats, idle_us
    )


def _rmse(inputs: ServeInputs, done: list[Done]) -> float:
    squared = _squared_errors(inputs, done)
    return math.sqrt(sum(squared) / len(squared)) if squared else float("nan")


def run(
    workload: Workload, seed: int, seconds: float, traced: bool, smoke: bool,
    recorder: SpanRecorder | None, scratch_dir: str,
) -> Outcome:
    outcome = Outcome(workload.name)
    ceiling = None if smoke else workload.rmse_ceiling
    started = time.perf_counter()
    inputs = workloads.make_serve_inputs(workload, seed)
    generate_s = time.perf_counter() - started
    outcome.input_hash = workloads.content_hash(
        inputs.warmup, inputs.test, inputs.fresh
    )

    if not traced:
        # LAUNCHES complete service lives, a share of --seconds each
        # (open loop, then one connection back to back).  Latency is
        # taken per open-loop slice and the read rate per closed-loop
        # slice; each reports its fast quartile over the slices of all
        # lives, set-up and RMSE their median over the lives.
        life_s = seconds / LAUNCHES
        open_s, closed_s = life_s * OPEN_SHARE, life_s * (1.0 - OPEN_SHARE)
        setups, rmses, p50s, p95s, rates = [], [], [], [], []
        for trial in range(LAUNCHES):
            launch = _launch(
                outcome, workload, inputs, trial, seed, scratch_dir,
                open_s, closed_s,
            )
            rmse = _rmse(inputs, launch.everything)
            outcome.check_rmse(rmse, ceiling)
            setups.append(generate_s + launch.setup_s)
            rmses.append(rmse)
            for reads in _read_slices(launch.open_done, open_s, OPEN_SLICE_S)[0]:
                latencies = _read_latencies_ms(reads)
                if not smoke and samples_beyond(len(latencies), 95) < 10:
                    outcome.fail(f"only {len(latencies)} reads: p95 unsupported")
                p50s.append(percentile(latencies, 50))
                p95s.append(percentile(latencies, 95))
            slices, width = _read_slices(
                launch.closed_done, closed_s, CLOSED_SLICE_S
            )
            rates += [len(reads) / width for reads in slices]
        outcome.put("setup_s", setups, fast_quantile(setups, "lower", FAST_SHARE))
        outcome.put("rmse_final", rmses)
        outcome.put(
            "ops_per_s", rates, fast_quantile(rates, "higher", FAST_SHARE)
        )
        # Read latency is the serve workloads' own end-to-end number; the
        # driver's end-to-end set leaves it out (see README), so it goes
        # by its layer name in both kinds of run.
        outcome.put(
            "serve.read_p50_ms", p50s, fast_quantile(p50s, "lower", FAST_SHARE)
        )
        outcome.put(
            "serve.read_p95_ms", p95s, fast_quantile(p95s, "lower", FAST_SHARE)
        )
        return outcome

    # ---- traced run: one service life with an untraced and a spanned
    # open loop, then the closed loop over both connections -----------
    launch = _launch(
        outcome, workload, inputs, 0, seed, scratch_dir,
        seconds * 0.3, seconds * 0.3, closed_connections=2, recorder=recorder,
    )
    outcome.check_rmse(_rmse(inputs, launch.everything), ceiling)
    layer = {"datasets.generate_s": generate_s}
    latencies = _read_latencies_ms(launch.open_done)
    traced_latencies = _read_latencies_ms(launch.spanned_done)
    layer["trace.overhead"] = (
        percentile(traced_latencies, 50) / percentile(latencies, 50) - 1.0
    )
    both = latencies + traced_latencies
    supported = highest_supported_percentile(len(both))
    if not smoke and (supported is None or supported < 99):
        outcome.fail(f"{len(both)} reads support p{supported}, not p99")
    layer["serve.read_p50_ms"] = percentile(both, 50)
    layer["serve.read_p95_ms"] = percentile(both, 95)
    layer["serve.read_p99_ms"] = percentile(both, 99)
    layer["serve.loadgen_late_ms_p99"] = percentile(
        [d.late * 1e3 for d in launch.open_done + launch.spanned_done], 99
    )
    layer["serve.cache_hit_rate"] = launch.stats["request_cache"]["hit_rate"]
    layer["serve.rotations_under_load"] = launch.stats["rotations"] - 1
    # Saturation is bistable on two connections (the two handler threads
    # convoy on the GIL, or do not); the median half-second slice is the
    # regime the phase spent most of its time in.
    reads = [d for d in launch.closed_done if d.op.kind == "read"]
    first = min(d.sent for d in reads)
    slices = [0] * max(int(seconds * 0.3 / RPS_SLICE_S), 1)
    for item in reads:
        index = int((item.done - first) / RPS_SLICE_S)
        if index < len(slices):
            slices[index] += 1
    layer["serve.read_rps_max"] = statistics.median(slices) / RPS_SLICE_S
    if workload.name == "serve-mixed":
        posts = [
            d.latency * 1e3 for d in launch.everything if d.op.kind == "post"
        ]
        layer["serve.ingest_p50_ms"] = percentile(posts, 50)
        lags = _snapshot_lags(launch.everything)
        if lags:
            layer["serve.snapshot_lag_s"] = statistics.median(lags)
    rng = np.random.default_rng([seed, 19])
    layer.update(_in_process_layers(workload, inputs, rng, scratch_dir, smoke))
    layer["serve.http_overhead_us"] = (
        launch.idle_round_trip_us - layer["serve.dispatch_hit_us"]
    )
    for name, value in layer.items():
        outcome.put(name, [value])
    return outcome


def _service_view(outcome: Outcome, port: int) -> dict:
    """``/health`` must say ok and ``/stats`` no trainer error; returns
    the stats payload."""
    probe = HttpConnection(HOST, port)
    try:
        status, payload = probe.request("GET", "/health")
        health = json.loads(payload) if status == 200 else {}
        outcome.check(
            health.get("status") == "ok",
            f"/health: {status} {payload[:120]!r}",
        )
        status, payload = probe.request("GET", "/stats")
        stats = json.loads(payload) if status == 200 else {}
        outcome.check(
            status == 200 and stats["trainer"]["error"] is None,
            f"/stats: {status} {payload[:120]!r}",
        )
        return stats
    finally:
        probe.close()


def _idle_round_trip_us(port: int) -> float:
    """p50 of an idle single-connection round trip for one cached
    /recommend (the first request fills the cache)."""
    connection = HttpConnection(HOST, port)
    try:
        laps = []
        for _ in range(300):
            tick = time.perf_counter()
            connection.request("GET", "/recommend?user=0&n=10")
            laps.append(time.perf_counter() - tick)
    finally:
        connection.close()
    return percentile(laps[1:], 50) * 1e6


def _per_call_us(calls, repeat: int = 1) -> float:
    """Mean microseconds per call of the zero-argument ``calls``."""
    started = time.perf_counter()
    for _ in range(repeat):
        for call in calls:
            call()
    return (time.perf_counter() - started) * 1e6 / (repeat * len(calls))


def _in_process_layers(
    workload: Workload, inputs: ServeInputs, rng, scratch_dir: str, smoke: bool,
) -> dict[str, float]:
    """Time the read path's layers by calling their public functions on
    an identically warmed service inside this process."""
    metrics: dict[str, float] = {}
    n_users = min(512, workload.rows)
    service = RecommendationService(
        inputs.warmup, workload.hyper,
        ServiceConfig(cache_capacity=workloads.SERVE_CACHE_CAPACITY, n_workers=2),
    ).start()
    try:
        params = [{"user": [str(u)], "n": ["10"]} for u in range(n_users)]
        metrics["serve.parse_us"] = _per_call_us(
            [lambda p=p: RecommendQuery.from_query(p) for p in params], 4
        )
        cache = LruCache(workloads.SERVE_CACHE_CAPACITY)
        for user in range(n_users):
            cache.put((0, user, 10), ((1, 1.0),) * 10)
        metrics["serve.cache_get_us"] = _per_call_us(
            [lambda u=u: cache.get((0, u, 10)) for u in range(n_users)], 4
        )
        recommender = Recommender(service.store)
        metrics["serve.rank_us"] = _per_call_us(
            [lambda u=u: recommender.recommend(u, top_n=10)
             for u in range(n_users)]
        )
        items = tuple(recommender.recommend(0, top_n=10))
        metrics["serve.serialize_us"] = _per_call_us(
            [lambda u=u: json.dumps(
                RecommendResponse(
                    user=u, snapshot_seq=0, items=items, cached=True
                ).to_payload(),
                sort_keys=True,
            ) for u in range(n_users)], 4
        )
        dispatch = [
            lambda p=p: service.dispatch("GET", "/recommend", p, b"")
            for p in params
        ]
        metrics["serve.dispatch_miss_us"] = _per_call_us(dispatch)
        metrics["serve.dispatch_hit_us"] = _per_call_us(dispatch, 4)
        order = rng.permutation(inputs.fresh.nnz)
        body = _write_ops(inputs, order, 1.0 / POST_RATE, 0)[0].body
        metrics["serve.ingest_parse_us_per_rating"] = _per_call_us(
            [lambda: IngestRequest.from_body(body)] * 50
        ) / POST_BATCH
        persist_dir = tempfile.mkdtemp(prefix="persist-probe-", dir=scratch_dir)
        try:
            persister = SnapshotPersister(persist_dir)
            snapshot = service.store.latest
            metrics["serve.persist_save_ms"] = _per_call_us(
                [lambda: persister.save(snapshot)] * (3 if smoke else 10)
            ) / 1e3
        finally:
            shutil.rmtree(persist_dir, ignore_errors=True)
    finally:
        service.stop()
    return metrics
