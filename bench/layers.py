"""Per-layer measurements of the training path, taken from outside.

A single-process *replay* of the worker stanza every live engine runs —
drain a burst of tokens, gather their columns from the shard, one fused
kernel call, (cluster only) encode, send, decode — over worker 0's real
shard of the workload's own inputs, with a span around each call into a
layer.  Which public function each metric times is listed in
``bench/README.md``; when a later change moves the hot path off one of
them, a benchmark change updates this file, a performance change never
does.
"""

from __future__ import annotations

import contextlib
from time import perf_counter as _now

import numpy as np

from repro import init_factors
from repro.cluster import wire
from repro.cluster.coordinator import DEFAULT_BATCH_SIZE
from repro.cluster.transport import LoopbackHub, TcpTransport
from repro.datasets.ratings import Shard
from repro.linalg.backends import resolve_backend
from repro.partition.partitioners import partition_worker_triplets
from repro.simulator.network import token_bytes

from .trace import SpanRecorder
from .workloads import Workload

__all__ = ["replay_training", "transport_probes"]

N_WORKERS = 2
#: Tokens drained per mailbox visit in every live engine.
BURST = 32
#: Step counters this high keep the eq-(11) step tiny, so a probe that
#: re-applies one column thousands of times cannot diverge.
_COLD_COUNT = 10**6


def replay_training(
    workload: Workload,
    train,
    seed: int,
    recorder: SpanRecorder,
    budget_s: float,
) -> dict[str, float]:
    """Replay worker 0's stanza for ``budget_s`` seconds; returns the
    linalg / datasets / partition (and, for the cluster engine, wire)
    layer metrics.  Spans go to ``recorder``."""
    hyper = workload.hyper
    k = hyper.k
    step = (hyper.alpha, hyper.beta, hyper.lambda_)
    cluster = workload.engine == "cluster"
    metrics: dict[str, float] = {}

    started = _now()
    _, triplets = partition_worker_triplets(train, N_WORKERS)
    shards = [
        Shard(q, train.n_cols, *triplets[q]) for q in range(N_WORKERS)
    ]
    metrics["partition.shard_s"] = _now() - started
    shard = shards[0]

    backend = resolve_backend(None, k=k, storage="ndarray")
    rng = np.random.default_rng([seed, 7])
    factors = init_factors(train.n_rows, train.n_cols, k, rng)
    w, h = factors.w.copy(), factors.h.copy()
    counts = np.zeros(shard.nnz, dtype=np.int64)
    bodies_bytes = 0
    tokens_done = 0
    updates_done = 0

    with contextlib.ExitStack() as stack:
        if cluster:  # the workload's own transport, both ends in-process
            # One Token per item for the whole replay, its h aliasing the
            # factor row: the worker re-sends the tokens it was sent.
            in_flight = [wire.Token(j, 0, h[j]) for j in range(train.n_cols)]
            receiver = stack.enter_context(TcpTransport(1))
            sender = stack.enter_context(TcpTransport(0))
            sender.register_peer(1, "127.0.0.1", receiver.port)
        deadline = _now() + budget_s
        while _now() < deadline:
            burst = rng.integers(0, train.n_cols, size=BURST).tolist()
            with recorder.span("replay.burst"):
                with recorder.span("datasets.gather"):
                    h_cols: list = []
                    col_users: list = []
                    col_ratings: list = []
                    col_counts: list = []
                    for token in burst:
                        users, ratings = shard.column(token)
                        if users.size:
                            lo, hi = shard.column_bounds(token)
                            h_cols.append(h[token])
                            col_users.append(users)
                            col_ratings.append(ratings)
                            col_counts.append(counts[lo:hi])
                with recorder.span("linalg.kernel_batch"):
                    updates_done += backend.process_column_batch(
                        w, h_cols, col_users, col_ratings, col_counts, *step
                    )
                if cluster:
                    tokens = [in_flight[j] for j in burst]
                    with recorder.span("cluster.wire_encode"):
                        bodies = [
                            wire.encode_tokens(
                                tokens[i:i + DEFAULT_BATCH_SIZE], k
                            )
                            for i in range(0, BURST, DEFAULT_BATCH_SIZE)
                        ]
                    with recorder.span("cluster.transport"):
                        for body in bodies:
                            sender.send(1, body)
                        received = [
                            receiver.recv(timeout=5.0) for _ in bodies
                        ]
                    with recorder.span("cluster.wire_decode"):
                        for body in received:
                            wire.decode(body)
            if cluster:
                bodies_bytes += sum(len(body) for body in bodies)
            tokens_done += BURST

    self_time = recorder.self_times()
    burst_total = recorder.totals()["replay.burst"][1]
    micro = 1e6 / tokens_done
    metrics["datasets.gather_us_per_token"] = self_time["datasets.gather"] * micro
    metrics["linalg.kernel_batch_us_per_token"] = (
        self_time["linalg.kernel_batch"] * micro
    )
    metrics["linalg.kernel_batch_ns_per_update"] = (
        self_time["linalg.kernel_batch"] * 1e9 / max(updates_done, 1)
    )
    metrics["trace.replay_glue_share"] = self_time["replay.burst"] / burst_total
    if cluster:
        metrics["cluster.wire_encode_us_per_token"] = (
            self_time["cluster.wire_encode"] * micro
        )
        metrics["cluster.wire_decode_us_per_token"] = (
            self_time["cluster.wire_decode"] * micro
        )
        metrics["cluster.wire_bytes_per_token"] = bodies_bytes / tokens_done
        expected = token_bytes(k) + wire.ENVELOPE_OVERHEAD_BYTES / DEFAULT_BATCH_SIZE
        if abs(metrics["cluster.wire_bytes_per_token"] - expected) > 1e-9:
            raise AssertionError(
                f"wire bytes/token {metrics['cluster.wire_bytes_per_token']} "
                f"!= token_bytes(k) + amortised header {expected}"
            )

    # The C floor: one process_column over a single long column of
    # consecutive users (the best memory order a column can have).
    long_n = 4096
    users = np.arange(long_n) % train.n_rows
    ratings = rng.normal(0.0, 1.0, size=long_n)
    cold = np.full(long_n, _COLD_COUNT, dtype=np.int64)
    h_row = h[0].copy()
    reps = 0
    started = _now()
    while _now() - started < budget_s / 4:
        backend.process_column(w, h_row, users, ratings, cold, *step)
        reps += 1
    metrics["linalg.arith_ns_per_update"] = (
        (_now() - started) * 1e9 / (reps * long_n)
    )
    metrics["linalg.marshal_share"] = 1.0 - (
        metrics["linalg.arith_ns_per_update"]
        / metrics["linalg.kernel_batch_ns_per_update"]
    )

    # Per-token calls over the same kind of token sequence: the unfused
    # column call, and the fused entry point with a batch of one (what
    # the simulator issues).  Only the kernel calls are timed.
    for name, batched in (
        ("linalg.kernel_column_ns_per_update", False),
        ("linalg.kernel_batch1_us_per_token", True),
    ):
        spent = 0.0
        applied = 0
        visits = 0
        deadline = _now() + budget_s / 4
        while _now() < deadline:
            for token in rng.integers(0, train.n_cols, size=BURST).tolist():
                users, ratings = shard.column(token)
                if not users.size:
                    continue
                lo, hi = shard.column_bounds(token)
                tick = _now()
                if batched:
                    applied += backend.process_column_batch(
                        w, (h[token],), (users,), (ratings,),
                        (counts[lo:hi],), *step,
                    )
                else:
                    applied += backend.process_column(
                        w, h[token], users, ratings, counts[lo:hi], *step
                    )
                spent += _now() - tick
                visits += 1
        metrics[name] = (
            spent * 1e6 / visits if batched else spent * 1e9 / max(applied, 1)
        )
    return metrics


def _envelope(k: int, rng: np.random.Generator) -> bytes:
    tokens = [
        wire.Token(int(j), 0, rng.normal(size=k))
        for j in range(DEFAULT_BATCH_SIZE)
    ]
    return wire.encode_tokens(tokens, k)


def _one_way(sender, receiver, body: bytes, budget_s: float) -> float:
    """Mean seconds per envelope, one in flight at a time."""
    sent = 0
    started = _now()
    while _now() - started < budget_s:
        sender.send(1, body)
        if receiver.recv(timeout=5.0) is None:
            raise TimeoutError("transport probe: envelope never arrived")
        sent += 1
    return (_now() - started) / sent


def transport_probes(k: int, seed: int, budget_s: float) -> dict[str, float]:
    """Two ``Transport`` endpoints in this process: TCP one-way latency
    and back-to-back rate, and the loopback hub's cost per envelope."""
    body = _envelope(k, np.random.default_rng([seed, 11]))
    metrics: dict[str, float] = {}
    hub = LoopbackHub()
    hub.transport(1)
    metrics["cluster.loopback_us_per_envelope"] = (
        _one_way(hub.transport(0), hub.transport(1), body, budget_s / 3) * 1e6
    )
    receiver = TcpTransport(1)
    sender = TcpTransport(0)
    try:
        sender.register_peer(1, "127.0.0.1", receiver.port)
        metrics["cluster.tcp_oneway_us_per_envelope"] = (
            _one_way(sender, receiver, body, budget_s / 3) * 1e6
        )
        # Back to back: send a window, then drain it.
        window = 256
        moved = 0
        started = _now()
        while _now() - started < budget_s / 3:
            for _ in range(window):
                sender.send(1, body)
            for _ in range(window):
                if receiver.recv(timeout=5.0) is None:
                    raise TimeoutError("transport probe: envelope lost")
            moved += window
        metrics["cluster.tcp_envelopes_per_s"] = moved / (_now() - started)
    finally:
        sender.close()
        receiver.close()
    return metrics
