"""Single-threaded unit suite for the cluster worker's mailbox
(``cluster/worker.py::TransportMailbox``) and the ``run_worker`` shell
around it: a ``LoopbackHub``, frames the test puts on it, no worker
threads and no sleeps — the style of ``tests/test_loop.py``."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.cluster import wire
from repro.cluster import worker as worker_module
from repro.cluster.transport import COORDINATOR, LoopbackHub
from repro.cluster.worker import WorkerSpec, run_worker
from repro.config import HyperParams
from repro.datasets.ratings import Shard
from repro.errors import ClusterError
from repro.linalg.backends import cext_available, get_backend
from repro.rng import derive_rng
from repro.runtime import loop as loop_module
from repro.runtime.loop import run_token_loop

K = 3
N_COLS = 10
HYPER = HyperParams(k=K, lambda_=0.01, alpha=0.1, beta=0.01)
#: Distinct, recognisable payloads: row j is [j + .1, j + .2, j + .3].
PAYLOADS = np.arange(N_COLS)[:, None] + np.array([0.1, 0.2, 0.3])
#: More than a test here ever has waiting: "everything that is there".
ALL = 4 * N_COLS


def envelope(items, k: int = K, rows=PAYLOADS) -> bytes:
    return wire.encode_tokens(
        [wire.Token(j, 0, rows[j]) for j in items], k
    )


def frames(transport) -> list:
    """Everything delivered to ``transport`` so far, decoded."""
    out = []
    body = transport.recv(timeout=0.0)
    while body is not None:
        out.append(wire.decode(body))
        body = transport.recv(timeout=0.0)
    return out


class Node:
    """Worker 0's mailbox on a fresh hub, with the other nodes' ends."""

    def __init__(self, n_workers=2, batch_size=4, telemetry=False):
        hub = LoopbackHub()
        self.coordinator = hub.transport(COORDINATOR)
        self.peers = {q: hub.transport(q) for q in range(1, n_workers)}
        self.h = np.zeros((N_COLS, K))
        self.put_times = np.zeros(N_COLS) if telemetry else None
        self.mailbox = worker_module.TransportMailbox(
            0, n_workers, batch_size, hub.transport(0), self.h,
            self.put_times,
        )

    def deliver(self, body: bytes) -> None:
        self.coordinator.send(0, body)


def ints(array) -> list[int]:
    assert array.dtype == np.int64
    return array.tolist()


# ----------------------------------------------------------------------
# (i) arrival
# ----------------------------------------------------------------------
def test_delivered_envelopes_pop_in_arrival_order_and_fill_their_rows():
    node = Node(telemetry=True)
    node.deliver(envelope([7, 2]))
    node.deliver(envelope([5]))
    assert node.mailbox.depth(0) == 0  # nothing is read before a pop
    assert ints(node.mailbox.pop_many(0, ALL)) == [7, 2, 5]
    expected = np.zeros((N_COLS, K))
    expected[[7, 2, 5]] = PAYLOADS[[7, 2, 5]]
    np.testing.assert_array_equal(node.h, expected)
    # The arrival stamp is the hop span's start; untouched ids stay 0.
    assert np.all(node.put_times[[7, 2, 5]] > 0)
    assert np.count_nonzero(node.put_times) == 3


def test_pop_is_capped_and_leaves_the_rest_waiting():
    node = Node()
    node.deliver(envelope(range(N_COLS)))
    assert ints(node.mailbox.pop_many(0, 4)) == [0, 1, 2, 3]
    assert node.mailbox.depth(0) == N_COLS - 4
    assert ints(node.mailbox.pop_many(0, ALL)) == [4, 5, 6, 7, 8, 9]
    assert node.mailbox.pop_many(0, ALL).size == 0


# ----------------------------------------------------------------------
# (ii) routing
# ----------------------------------------------------------------------
ITEMS = np.arange(N_COLS, dtype=np.int64)
#: 0, 7 and 9 hop to self; the other seven go to worker 1.
DESTS = np.array([0, 1, 1, 1, 1, 1, 1, 0, 1, 0])


def test_route_keeps_self_hops_local_and_ships_full_envelopes():
    node = Node(batch_size=4)
    node.h[:] = PAYLOADS
    node.mailbox.route(ITEMS, DESTS)
    assert node.mailbox.depth(0) == 3
    (full,) = frames(node.peers[1])
    assert [t.item for t in full.tokens] == [1, 2, 3, 4]
    for token in full.tokens:
        np.testing.assert_array_equal(token.h, PAYLOADS[token.item])
        assert token.queue_hint == 3  # the sender's depth at send time
    # The inbox is not dry yet: the partial envelope waits.
    assert ints(node.mailbox.pop_many(0, ALL)) == [0, 7, 9]
    assert frames(node.peers[1]) == []
    # Now it is: the next (empty) pop flushes it.
    assert node.mailbox.pop_many(0, ALL).size == 0
    (partial,) = frames(node.peers[1])
    assert [t.item for t in partial.tokens] == [5, 6, 8]
    assert {t.queue_hint for t in partial.tokens} == {0}
    assert frames(node.coordinator) == []


@pytest.mark.parametrize(
    "batch_size, on_route, on_dry_pop",
    [
        (1, [[1], [2], [3], [4], [5], [6], [8]], []),
        (N_COLS + 5, [], [[1, 2, 3, 4, 5, 6, 8]]),
    ],
)
def test_envelope_size_extremes(batch_size, on_route, on_dry_pop):
    node = Node(batch_size=batch_size)
    node.mailbox.route(ITEMS, DESTS)
    shipped = [[t.item for t in e.tokens] for e in frames(node.peers[1])]
    assert shipped == on_route
    node.mailbox.pop_many(0, ALL)  # the three self-hops
    node.mailbox.pop_many(0, ALL)  # dry
    shipped = [[t.item for t in e.tokens] for e in frames(node.peers[1])]
    assert shipped == on_dry_pop


def test_a_departing_token_carries_the_rows_current_value():
    node = Node(batch_size=1)
    node.deliver(envelope([4]))
    (item,) = ints(node.mailbox.pop_many(0, ALL))
    node.h[item] *= 2.0  # what a kernel does between pop and route
    node.mailbox.route(np.array([item]), np.array([1]))
    (sent,) = frames(node.peers[1])
    np.testing.assert_array_equal(sent.tokens[0].h, 2.0 * PAYLOADS[4])


# ----------------------------------------------------------------------
# (iii) stop
# ----------------------------------------------------------------------
def test_stop_sets_the_mailbox_sends_one_fin_a_peer_and_is_idempotent():
    node = Node(n_workers=3)
    node.deliver(envelope([1, 2]))
    assert not node.mailbox.is_set()
    node.deliver(wire.encode_stop())
    # Tokens that arrived *before* Stop in the same drain are held too:
    # the model freezes at the stop signal.
    assert node.mailbox.pop_many(0, ALL).size == 0
    assert node.mailbox.is_set()
    for q in (1, 2):
        assert frames(node.peers[q]) == [wire.Fin(worker_id=0)]
    deadline = node.mailbox._drain_deadline
    assert deadline < float("inf")

    node.deliver(wire.encode_stop())  # the coordinator's failure path
    node.deliver(envelope([3]))  # a token that was still in flight
    assert node.mailbox.pop_many(0, ALL).size == 0
    assert node.mailbox._drain_deadline == deadline
    assert frames(node.peers[1]) == frames(node.peers[2]) == []
    assert node.mailbox.depth(0) == 3  # held, never popped
    assert sorted(t.item for t in node.mailbox.held()) == [1, 2, 3]


def test_stop_does_not_flush_unsent_buffers():
    node = Node(batch_size=N_COLS + 5)
    node.mailbox.route(ITEMS, DESTS)
    node.deliver(wire.encode_stop())
    assert node.mailbox.pop_many(0, ALL).size == 0
    assert frames(node.peers[1]) == [wire.Fin(worker_id=0)]


def test_drain_returns_once_every_peer_has_sent_fin():
    node = Node(n_workers=3)
    node.deliver(wire.encode_stop())
    node.deliver(wire.encode_fin(2))
    node.deliver(envelope([6]))  # ordered ahead of worker 1's Fin
    node.deliver(wire.encode_fin(1))
    node.mailbox.pop_many(0, ALL)
    started = time.monotonic()
    node.mailbox.drain()
    assert time.monotonic() - started < 1.0  # no wait: both Fins are in
    assert [t.item for t in node.mailbox.held()] == [6]


def test_unexpected_frame_is_a_cluster_error():
    node = Node()
    node.deliver(wire.encode_ready(1, 4242))
    with pytest.raises(ClusterError, match="worker 0 got unexpected Ready"):
        node.mailbox.pop_many(0, ALL)


# ----------------------------------------------------------------------
# (iv) held
# ----------------------------------------------------------------------
def test_held_is_inbox_and_buffers_each_id_once_with_the_current_row():
    node = Node(batch_size=N_COLS + 5)
    node.deliver(envelope(range(N_COLS)))
    burst = node.mailbox.pop_many(0, ALL)
    node.h[burst] += 100.0  # a kernel's writes
    node.mailbox.route(burst, DESTS)
    held = node.mailbox.held()
    assert [t.item for t in held] == [0, 7, 9, 1, 2, 3, 4, 5, 6, 8]
    for token in held:
        np.testing.assert_array_equal(token.h, PAYLOADS[token.item] + 100.0)


# ----------------------------------------------------------------------
# run_worker: bootstrap frames, forged frames
# ----------------------------------------------------------------------
def spec_for(n_workers: int = 1) -> WorkerSpec:
    """Worker 0 owning four users with one rating in every column."""
    cols = np.arange(N_COLS, dtype=np.int64)
    return WorkerSpec(
        worker_id=0, n_workers=n_workers, n_cols=N_COLS, hyper=HYPER,
        backend_name="list", seed=0, batch_size=4,
        shard_rows=cols % 4, shard_cols=cols, shard_vals=np.ones(N_COLS),
        w_rows=np.arange(4, dtype=np.int64), w_init=np.full((4, K), 0.5),
    )


def run_to_result(spec, queued, pending=None) -> wire.ResultShard:
    """``run_worker`` to completion on frames queued up front (the last
    of them a ``Stop``); returns what it reported."""
    hub = LoopbackHub()
    coordinator = hub.transport(COORDINATOR)
    transports = [hub.transport(q) for q in range(spec.n_workers)]
    for body in queued:
        coordinator.send(0, body)
    run_worker(spec, transports[0], pending=pending)
    (result,) = frames(coordinator)
    return result


def test_pending_bootstrap_frames_are_dispatched_first():
    """A fast peer's tokens — and even its Fin — can overtake ``Peers``
    during the TCP bootstrap; they arrive as ``pending``."""
    pending = [wire.decode(envelope([8, 3])), wire.Fin(worker_id=1)]
    started = time.monotonic()
    result = run_to_result(
        spec_for(n_workers=2), [envelope([5]), wire.encode_stop()], pending
    )
    # Worker 1's Fin was counted, or the drain barrier would have waited
    # out _DRAIN_TIMEOUT for it.
    assert time.monotonic() - started < worker_module._DRAIN_TIMEOUT / 2
    assert result.updates == 0  # Stop was already there at the first pop
    assert [t.item for t in result.held] == [8, 3, 5]
    for token in result.held:
        np.testing.assert_array_equal(token.h, PAYLOADS[token.item])


@pytest.mark.parametrize(
    "forged, complaint",
    [
        (envelope([2, -1]), r"worker 0 .* item\(s\) \[-1\]; .* items \[0, 10\)"),
        (
            envelope([N_COLS], rows=np.zeros((N_COLS + 1, K))),
            r"worker 0 .* item\(s\) \[10\]; .* items \[0, 10\)",
        ),
        (
            envelope([2], k=K + 2, rows=np.zeros((N_COLS, K + 2))),
            r"worker 0 .* with k=5; its table holds k=3",
        ),
    ],
    ids=["negative-item", "item-past-the-end", "foreign-k"],
)
def test_forged_token_frames_are_rejected(forged, complaint):
    """Item ids travel as signed int64 and a decoded envelope names its
    own k: a foreign or corrupt frame must end in a typed error before
    it touches a factor row, not be sliced into the shard or shipped
    home as a held token."""
    with pytest.raises(ClusterError, match=complaint):
        run_to_result(spec_for(), [forged, wire.encode_stop()])


def test_a_rejected_envelope_writes_nothing():
    node = Node()
    node.deliver(envelope([2, -1]))
    with pytest.raises(ClusterError):
        node.mailbox.pop_many(0, ALL)
    assert not node.h.any() and node.mailbox.depth(0) == 0


# ----------------------------------------------------------------------
# (vi) equivalence with looped process_column
# ----------------------------------------------------------------------
class StopAfter:
    """``is_set()`` turns true on poll number ``polls + 1``."""

    def __init__(self, polls: int):
        self.left = polls

    def is_set(self) -> bool:
        self.left -= 1
        return self.left < 0


class RecordingKernel:
    def __init__(self, kernel):
        self._kernel = kernel
        self.n_items, self.nnz = kernel.n_items, kernel.nnz
        #: 32 mean columns: pops that leave part of the inbox waiting,
        #: so self-hops queue behind ids not yet visited.
        self.burst_updates = 32 * kernel.nnz // kernel.n_items
        self.visited: list[int] = []

    def process_tokens(self, burst):
        self.visited.extend(burst.tolist())
        return self._kernel.process_tokens(burst)


@pytest.mark.parametrize(
    "backend_name",
    [
        "list",
        pytest.param(
            "cext",
            marks=pytest.mark.skipif(
                not cext_available(), reason="no C toolchain"
            ),
        ),
    ],
)
def test_loop_over_the_mailbox_equals_looped_process_column(backend_name):
    n_rows, n_cols, polls = 30, 40, 5
    rng = np.random.default_rng(3)
    nnz = 300
    rows = rng.integers(n_rows, size=nnz)
    cols = rng.integers(n_cols - 2, size=nnz)  # two columns stay empty
    vals = rng.random(nnz) * 4.0
    w_init = rng.random((n_rows, K))
    h_init = rng.random((n_cols, K))
    shard = Shard(worker=0, n_cols=n_cols, rows=rows, cols=cols, vals=vals)
    indptr, users, ratings = shard.csc()
    backend = get_backend(backend_name)
    step = (HYPER.alpha, HYPER.beta, HYPER.lambda_)

    hub = LoopbackHub()
    w, h = w_init.copy(), np.zeros((n_cols, K))
    mailbox = worker_module.TransportMailbox(
        0, 1, 4, hub.transport(0), h, None
    )
    order = rng.permutation(n_cols)
    coordinator = hub.transport(COORDINATOR)
    for chunk in np.array_split(order, 7):
        coordinator.send(0, envelope(chunk, rows=h_init))
    kernel = RecordingKernel(
        backend.bind_tokens(
            w, h, indptr, users, ratings, np.zeros(nnz, dtype=np.int64), *step
        )
    )
    limit = loop_module._burst_limit(kernel)
    assert limit == 32 < n_cols
    updates = run_token_loop(
        0, 1, kernel, mailbox, derive_rng(0, "cluster-route-0"),
        StopAfter(polls), None, None,
    )
    held = mailbox.held()
    assert sorted(t.item for t in held) == list(range(n_cols))
    final_h = np.empty_like(h_init)
    for token in held:
        final_h[token.item] = token.h

    # One worker: every hop is a self-hop behind the ids still waiting,
    # so the visit order is the arrival order, over and over.
    assert len(kernel.visited) == (polls + 1) * limit
    assert kernel.visited == (order.tolist() * polls)[: len(kernel.visited)]
    w_ref, h_ref = w_init.copy(), h_init.copy()
    counts = np.zeros(nnz, dtype=np.int64)
    applied = 0
    for j in kernel.visited:
        lo, hi = indptr[j], indptr[j + 1]
        if hi > lo:
            applied += backend.process_column(
                w_ref, h_ref[j], users[lo:hi], ratings[lo:hi], counts[lo:hi],
                *step,
            )
    assert updates == applied > 0
    assert np.array_equal(w, w_ref)
    assert np.array_equal(final_h, h_ref)
