"""Tests for the HTTP recommendation service (repro.serve): schemas,
the request LRU, durable persistence with restart-resume, the queue-fed
live stream source, and the end-to-end service over a real socket."""

from __future__ import annotations

import json
import os
import queue
import re
import socket
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.config import HyperParams
from repro.datasets.ratings import RatingMatrix
from repro.errors import ConfigError, DataError, DivergenceError, ServeError
from repro.linalg.factors import FactorPair
from repro.model import CompletionModel, top_items
from repro.serve import (
    MAX_BATCH,
    MAX_TOP_N,
    PERSIST_VERSION,
    DurablePrequentialTrace,
    DurableSnapshotStore,
    LruCache,
    RecommendationService,
    ServiceConfig,
    SnapshotPersister,
)
from repro.serve.schemas import (
    IngestRequest,
    PredictQuery,
    RecommendQuery,
    SCHEMA_VERSION,
)
from repro.stream import (
    Arrivals,
    ModelSnapshot,
    QueueStream,
    Recommender,
    SnapshotStore,
)


# ---------------------------------------------------------------------------
# Helpers


def make_warmup(n_users=30, n_items=20, nnz=200, seed=0) -> RatingMatrix:
    rng = np.random.default_rng(seed)
    flat = rng.choice(n_users * n_items, size=nnz, replace=False)
    rows, cols = np.divmod(flat, n_items)
    return RatingMatrix(
        n_users, n_items, rows, cols, rng.normal(0.0, 1.0, size=nnz)
    )


def make_snapshot(seq=0, n_users=6, n_items=4, k=3, seed=0) -> ModelSnapshot:
    rng = np.random.default_rng(seed + seq)
    model = CompletionModel(
        FactorPair(
            rng.normal(size=(n_users, k)), rng.normal(size=(n_items, k))
        )
    )
    return ModelSnapshot(
        seq=seq,
        stream_time=float(seq),
        arrivals_seen=seq * 10,
        updates_seen=seq * 100,
        model=model,
    )


def fresh_pairs(warmup: RatingMatrix, count: int):
    """(user, item, value) triples absent from the warm-up matrix."""
    seen = set(zip(warmup.rows.tolist(), warmup.cols.tolist()))
    out = []
    for user in range(warmup.n_rows):
        for item in range(warmup.n_cols):
            if (user, item) not in seen:
                out.append({"user": user, "item": item, "value": 1.0})
                if len(out) == count:
                    return out
    raise AssertionError("warm-up matrix too dense for requested count")


def http_get(url: str):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, json.loads(response.read())


def http_post(url: str, payload) -> tuple[int, dict]:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.loads(response.read())


def http_get_text(url: str) -> tuple[int, str, str]:
    """Raw fetch for non-JSON routes (/metrics is Prometheus text)."""
    with urllib.request.urlopen(url, timeout=30) as response:
        return (
            response.status,
            response.headers.get("Content-Type", ""),
            response.read().decode("utf-8"),
        )


def parse_prometheus(text: str) -> dict[str, float]:
    """Parse a text-format exposition into ``{'name{labels}': value}``.

    Strict enough to catch format regressions: every non-comment line
    must be ``name[{labels}] value``.
    """
    samples: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        assert key, f"malformed sample line: {line!r}"
        samples[key] = float(value)
    return samples


def http_error(callable_, *args):
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        callable_(*args)
    error = excinfo.value
    return error.code, json.loads(error.read())


FAST = dict(
    warmup_epochs=2, train_every=5, snapshot_every=10, final_epochs=1
)


@pytest.fixture
def service():
    svc = RecommendationService(
        make_warmup(), HyperParams(k=4), ServiceConfig(**FAST)
    ).start()
    yield svc
    svc.stop()


# ---------------------------------------------------------------------------
# Schemas


class TestSchemas:
    def test_predict_query_parses(self):
        query = PredictQuery.from_query({"user": ["3"], "item": ["7"]})
        assert (query.user, query.item) == (3, 7)

    @pytest.mark.parametrize(
        "params, match",
        [
            ({"item": ["1"]}, "missing required"),
            ({"user": ["1", "2"], "item": ["1"]}, "more than once"),
            ({"user": ["x"], "item": ["1"]}, "must be an integer"),
            ({"user": ["-1"], "item": ["1"]}, "must be >= 0"),
            ({"user": ["1"], "item": ["1"], "z": ["9"]}, "unknown field"),
        ],
    )
    def test_predict_query_strict(self, params, match):
        with pytest.raises(ServeError, match=match):
            PredictQuery.from_query(params)

    def test_recommend_query_defaults_and_bounds(self):
        assert RecommendQuery.from_query({"user": ["1"]}).n == 10
        with pytest.raises(ServeError, match=">= 1"):
            RecommendQuery.from_query({"user": ["1"], "n": ["0"]})
        with pytest.raises(ServeError, match=f"<= {MAX_TOP_N}"):
            RecommendQuery.from_query(
                {"user": ["1"], "n": [str(MAX_TOP_N + 1)]}
            )

    def test_ingest_parses_batch(self):
        body = json.dumps(
            {"ratings": [{"user": 1, "item": 2, "value": 3.5}]}
        ).encode()
        request = IngestRequest.from_body(body)
        assert request.users.dtype == request.items.dtype == np.int64
        assert request.values.dtype == np.float64
        assert (request.users.tolist(), request.items.tolist(),
                request.values.tolist()) == ([1], [2], [3.5])

    def test_ingest_parses_a_batch_into_arrays_in_body_order(self):
        entries = [
            {"user": 3, "item": 0, "value": 4},
            {"value": 1.5, "item": 7, "user": 0},
            {"user": 2**63 - 1, "item": 1, "value": -2.25},
        ]
        request = IngestRequest.from_body(
            json.dumps({"ratings": entries}).encode()
        )
        assert request.users.tolist() == [3, 0, 2**63 - 1]
        assert request.items.tolist() == [0, 7, 1]
        assert request.values.tolist() == [4.0, 1.5, -2.25]

    @pytest.mark.parametrize(
        "bad, match",
        [
            (1, r"ratings\[2\] must be an object"),
            ({"user": 1, "item": 2}, r"ratings\[2\]: missing required field 'value'"),
            ({"user": 1, "item": 2, "value": 1.0, "x": 0},
             r"ratings\[2\]: unknown field"),
            ({"user": 1.0, "item": 2, "value": 1.0},
             r"ratings\[2\]\.user must be an integer"),
            ({"user": 1, "item": False, "value": 1.0},
             r"ratings\[2\]\.item must be an integer"),
            ({"user": 1, "item": -3, "value": 1.0},
             r"ratings\[2\]\.item must be >= 0"),
            ({"user": -2**64, "item": 2, "value": 1.0},
             r"ratings\[2\]\.user must be >= 0"),
            ({"user": 2**64, "item": 2, "value": 1.0},
             r"ratings\[2\]\.user must be < 2\*\*63"),
            ({"user": 1, "item": 2, "value": None},
             r"ratings\[2\]\.value must be a number"),
            # The value is checked before the ids, as entry by entry.
            ({"user": -1, "item": 2, "value": "x"},
             r"ratings\[2\]\.value must be a number"),
        ],
    )
    def test_ingest_names_the_first_offender(self, bad, match):
        """A batch is refused for its first malformed entry, with the
        message an entry-by-entry check gives, whatever follows it."""
        good = {"user": 0, "item": 1, "value": 2.0}
        entries = [good, good, bad, {"user": -5, "item": 0, "value": 1.0}]
        with pytest.raises(ServeError, match=match):
            IngestRequest.from_body(json.dumps({"ratings": entries}).encode())

    @pytest.mark.parametrize(
        "body, match",
        [
            (b"not json", "not valid JSON"),
            (b"[]", "must be a JSON object"),
            (b'{"ratings": []}', "must not be empty"),
            (b'{"ratings": {}}', "must be a list"),
            (b'{"ratings": [1]}', r"ratings\[0\] must be an object"),
            (b'{"other": 1}', "unknown field"),
            (
                b'{"ratings": [{"user": 1, "item": 2}]}',
                "missing required field 'value'",
            ),
            (
                b'{"ratings": [{"user": true, "item": 2, "value": 1.0}]}',
                "must be an integer",
            ),
            (
                b'{"ratings": [{"user": -1, "item": 2, "value": 1.0}]}',
                "must be >= 0",
            ),
            (
                b'{"ratings": [{"user": 9223372036854775808, "item": 2, '
                b'"value": 1.0}]}',
                r"must be < 2\*\*63",
            ),
            (
                b'{"ratings": [{"user": 1, "item": 2, "value": "hi"}]}',
                "must be a number",
            ),
            (
                b'{"ratings": [{"user": 1, "item": 2, "value": Infinity}]}',
                "must be finite",
            ),
            (
                b'{"ratings": [{"user": 1, "item": 2, "value": NaN}]}',
                "must be finite",
            ),
        ],
    )
    def test_ingest_strict(self, body, match):
        with pytest.raises(ServeError, match=match):
            IngestRequest.from_body(body)

    def test_ingest_batch_cap(self):
        entries = [{"user": 0, "item": i, "value": 1.0} for i in range(3)]
        body = json.dumps({"ratings": entries * (MAX_BATCH // 3 + 1)}).encode()
        with pytest.raises(ServeError, match="batch too large"):
            IngestRequest.from_body(body)


#: Any JSON document: unbounded ints, every float (NaN and the infinities
#: included, which ``json`` writes and reads), strings, lists and objects,
#: with the three field names a rating has drawn often.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(
        st.sampled_from(["user", "item", "value"]) | st.text(max_size=3),
        children, max_size=4,
    ),
    max_leaves=12,
)

#: Bodies that each raised something other than ServeError (a 500): nesting
#: past the recursion limit, an integer past the int-string limit, and an
#: integer value past float64.
_DEEP_BODY = b'{"ratings": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"
_LONG_INT_BODY = (
    b'{"ratings": [{"user": 1, "item": 2, "value": ' + b"9" * 5000 + b"}]}"
)
_HUGE_VALUE_BODY = (
    b'{"ratings": [{"user": 1, "item": 2, "value": 1' + b"0" * 400 + b"}]}"
)


class TestHostileInput:
    """A parser either returns or raises ServeError (a 400), whatever it
    is given: nothing else may reach the handler's 500 branch."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(raw=st.binary() | _JSON.map(
        lambda ratings: json.dumps({"ratings": ratings}).encode()
    ))
    @example(raw=_DEEP_BODY)
    @example(raw=_LONG_INT_BODY)
    @example(raw=_HUGE_VALUE_BODY)
    def test_ingest_body_returns_or_raises_serve_error(self, raw):
        try:
            IngestRequest.from_body(raw)
        except ServeError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(params=st.dictionaries(
        st.sampled_from(["user", "item", "n"]) | st.text(max_size=3),
        st.lists(st.text() | st.integers().map(str), max_size=3),
        max_size=4,
    ))
    @example(params={"user": ["9" * 5000], "item": ["1"], "n": ["1"]})
    def test_queries_return_or_raise_serve_error(self, params):
        for parse in (PredictQuery.from_query, RecommendQuery.from_query):
            try:
                parse(params)
            except ServeError:
                pass


# ---------------------------------------------------------------------------
# Request-level LRU


class TestLruCache:
    def test_capacity_validation(self):
        with pytest.raises(ConfigError, match=">= 0"):
            LruCache(capacity=-1)

    def test_zero_capacity_disables(self):
        cache = LruCache(capacity=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_lru_eviction_order(self):
        cache = LruCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a": "b" is now LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats.evictions == 1

    def test_stats_payload_shape(self):
        cache = LruCache(capacity=4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("missing")
        payload = cache.stats_payload()
        assert payload["hits"] == 1 and payload["misses"] == 1
        assert payload["size"] == 1 and payload["capacity"] == 4
        assert payload["hit_rate"] == 0.5

    def test_clear_counts_one_invalidation(self):
        cache = LruCache(capacity=4)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.clear() == 2
        assert cache.stats.invalidations == 1
        assert cache.clear() == 0  # empty clear is not an invalidation
        assert cache.stats.invalidations == 1


# ---------------------------------------------------------------------------
# Cache observability (the CacheStats shape behind /stats' request_cache)


class TestCacheStats:
    def test_counters_move(self):
        cache = LruCache(capacity=4)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        stats = cache.stats
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.hit_rate == 0.5

    def test_as_dict_shape(self):
        cache = LruCache(capacity=4)
        cache.put("a", 1)
        cache.clear()
        assert cache.stats.invalidations == 1
        payload = cache.stats.as_dict()
        assert set(payload) == {
            "hits", "misses", "invalidations", "evictions", "hit_rate",
        }


# ---------------------------------------------------------------------------
# QueueStream


class TestQueueStream:
    def test_push_drain_close(self, tiny_matrix):
        stream = QueueStream(tiny_matrix)
        stream.push(1, 2, 3.0)
        stream.push(3, 4, 5.0)
        stream.close()
        blocks = list(stream.blocks())
        assert [
            (int(block.users[0]), int(block.items[0])) for block in blocks
        ] == [(1, 2), (3, 4)]
        times = [float(block.times[0]) for block in blocks]
        assert times == sorted(times)  # stamps are non-decreasing
        assert stream.n_events == 2
        assert stream.pending == 0

    def test_a_block_is_counted_and_drained_whole(self, tiny_matrix):
        stream = QueueStream(tiny_matrix)
        stream.push([1, 3, 5], [2, 4, 6], [3.0, 5.0, 7.0])
        assert stream.n_events == stream.pending == 3
        stream.close()
        (block,) = stream.blocks()
        assert isinstance(block, Arrivals)
        assert block.users.tolist() == [1, 3, 5]
        assert block.items.tolist() == [2, 4, 6]
        assert block.values.tolist() == [3.0, 5.0, 7.0]
        assert block.times.shape == (3,)
        assert stream.n_events == 3 and stream.pending == 0

    def test_a_block_with_one_bad_rating_is_refused_whole(self, tiny_matrix):
        """The first offender is named, and nothing of the block is
        counted or queued."""
        stream = QueueStream(tiny_matrix)
        with pytest.raises(DataError, match=r"out of range: \(4, -2\)"):
            stream.push([1, 4, -3], [2, -2, 0], [1.0, 2.0, 3.0])
        with pytest.raises(DataError, match="finite, got inf"):
            stream.push([1, 2, 3], [0, 0, 0], [1.0, np.inf, np.nan])
        assert stream.n_events == stream.pending == 0
        stream.close()
        assert list(stream.blocks()) == []

    def test_close_racing_a_push_drains_every_counted_arrival(
        self, tiny_matrix
    ):
        """Regression: push stamped and counted under its lock but
        enqueued after releasing it, so a close() landing in between
        queued the end sentinel first: the arrival, counted (and
        answered 202 by the service), was never drained.  Here close()
        is started in a thread from inside the enqueue and given time
        to run; it must wait for the push instead."""
        stream = QueueStream(tiny_matrix)
        closers = []

        class RacingQueue(queue.Queue):
            def put(self, item, *args, **kwargs):
                if item is not None and not closers:
                    closer = threading.Thread(target=stream.close)
                    closers.append(closer)
                    closer.start()
                    closer.join(timeout=0.2)
                super().put(item, *args, **kwargs)

        stream._queue = RacingQueue()
        stream.push(1, 2, 3.0)
        closers[0].join(timeout=30)
        assert stream.closed
        drained = sum(block.users.size for block in stream.blocks())
        assert stream.n_events == drained == 1
        assert stream.pending == 0

    def test_push_validation(self, tiny_matrix):
        stream = QueueStream(tiny_matrix)
        with pytest.raises(DataError, match="out of range"):
            stream.push(-1, 0, 1.0)
        with pytest.raises(DataError, match="finite"):
            stream.push(0, 0, float("nan"))
        stream.close()
        stream.close()  # idempotent
        with pytest.raises(DataError, match="closed"):
            stream.push(0, 0, 1.0)

    def test_producers_racing_close_lose_nothing(self, tiny_matrix):
        """Four producers push blocks while close() lands at a varying
        point: every counted arrival is drained, in non-decreasing stamp
        order."""
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(20):
                stream = QueueStream(tiny_matrix)

                def produce(user):
                    for item in range(50):
                        try:
                            stream.push([user, user], [item, item + 50],
                                        [1.0, 2.0])
                        except DataError:  # closed
                            return

                producers = [
                    threading.Thread(target=produce, args=(user,))
                    for user in range(4)
                ]
                for producer in producers:
                    producer.start()
                time.sleep(trial * 1e-4)
                stream.close()
                for producer in producers:
                    producer.join(timeout=30)
                    assert not producer.is_alive()
                blocks = list(stream.blocks())
                assert sum(b.users.size for b in blocks) == stream.n_events
                assert stream.pending == 0
                times = [float(b.times[0]) for b in blocks]
                assert times == sorted(times)
        finally:
            sys.setswitchinterval(interval)

    def test_consumer_blocks_until_close(self, tiny_matrix):
        stream = QueueStream(tiny_matrix)
        drained = []

        def consume():
            drained.extend(stream.blocks())

        consumer = threading.Thread(target=consume)
        consumer.start()
        stream.push(0, 1, 1.0)
        stream.push(2, 3, 2.0)
        stream.close()
        consumer.join(timeout=30)
        assert not consumer.is_alive()
        assert len(drained) == 2


# ---------------------------------------------------------------------------
# Durable persistence


class TestSnapshotPersister:
    def test_save_load_roundtrip(self, tmp_path):
        persister = SnapshotPersister(str(tmp_path))
        snapshot = make_snapshot(seq=3)
        persister.save(snapshot)
        loaded = persister.load(3)
        assert loaded.seq == 3
        assert loaded.arrivals_seen == snapshot.arrivals_seen
        assert loaded.updates_seen == snapshot.updates_seen
        np.testing.assert_allclose(
            loaded.model.factors.w, snapshot.model.factors.w
        )
        np.testing.assert_allclose(
            loaded.model.factors.h, snapshot.model.factors.h
        )

    def test_orphan_npz_is_invisible(self, tmp_path):
        persister = SnapshotPersister(str(tmp_path))
        persister.save(make_snapshot(seq=0))
        # Simulate a crash between the npz and its sidecar: seq 1 has
        # factors on disk but no metadata.
        make_snapshot(seq=1).model.save(persister.model_path(1))
        assert persister.list_seqs() == [0]
        assert persister.load_newest().seq == 0

    def test_empty_directory_has_no_newest(self, tmp_path):
        assert SnapshotPersister(str(tmp_path)).load_newest() is None

    def test_persist_version_skew_raises(self, tmp_path):
        persister = SnapshotPersister(str(tmp_path))
        persister.save(make_snapshot(seq=0))
        meta = json.loads(open(persister.meta_path(0)).read())
        meta["persist_version"] = PERSIST_VERSION + 1
        with open(persister.meta_path(0), "w") as handle:
            json.dump(meta, handle)
        with pytest.raises(DataError, match="unsupported persist_version"):
            persister.load(0)

    def test_npz_format_version_skew_raises(self, tmp_path):
        persister = SnapshotPersister(str(tmp_path))
        snapshot = make_snapshot(seq=0)
        persister.save(snapshot)
        factors = snapshot.model.factors
        np.savez(
            persister.model_path(0),
            w=factors.w,
            h=factors.h,
            format_version=np.int64(99),
        )
        with pytest.raises(DataError, match="version"):
            persister.load(0)

    def test_prune_keeps_newest(self, tmp_path):
        persister = SnapshotPersister(str(tmp_path))
        for seq in range(5):
            persister.save(make_snapshot(seq=seq))
        assert persister.prune(2) == 3
        assert persister.list_seqs() == [3, 4]
        assert not os.path.exists(persister.model_path(0))


class TestDurableSnapshotStore:
    def test_rotate_persists_and_prunes(self, tmp_path):
        store = DurableSnapshotStore(str(tmp_path), max_keep=2)
        for seq in range(4):
            store.rotate(make_snapshot(seq=seq).model.factors, seq, seq, seq)
        assert store.persister.list_seqs() == [2, 3]
        assert store.latest.seq == 3

    def test_resume_adopts_newest_and_continues_sequence(self, tmp_path):
        first = DurableSnapshotStore(str(tmp_path))
        for seq in range(3):
            first.rotate(make_snapshot(seq=seq).model.factors, seq, seq, seq)

        resumed = DurableSnapshotStore(str(tmp_path))
        assert resumed.resumed_seq == 2
        assert resumed.latest.seq == 2
        nxt = resumed.rotate(make_snapshot(seq=9).model.factors, 3.0, 30, 300)
        assert nxt.seq == 3  # continues, never reuses a served seq

    def test_fresh_directory_resumes_nothing(self, tmp_path):
        store = DurableSnapshotStore(str(tmp_path))
        assert store.resumed_seq is None
        assert len(store) == 0

    def test_restart_refuses_a_non_finite_newest_snapshot(self, tmp_path):
        """A NaN model on disk (written by hand, or by a build that did
        not check) is refused at construction, naming its file, and
        never served."""
        persister = SnapshotPersister(str(tmp_path))
        persister.save(make_snapshot(seq=0))
        poisoned = make_snapshot(seq=1)
        w = poisoned.model.factors.w.copy()
        w[0, 0] = np.nan
        persister.save(ModelSnapshot(
            1, 1.0, 10, 100,
            CompletionModel(FactorPair(w, poisoned.model.factors.h)),
        ))
        with pytest.raises(
            DivergenceError,
            match=re.escape(persister.model_path(1)) + ".*non-finite",
        ):
            DurableSnapshotStore(str(tmp_path))

    def test_adopt_rejects_stale_sequence(self, tmp_path):
        store = DurableSnapshotStore(str(tmp_path))
        store.rotate(make_snapshot(seq=0).model.factors, 0, 0, 0)
        store.rotate(make_snapshot(seq=1).model.factors, 1, 1, 1)
        with pytest.raises(ConfigError, match="already rotated past"):
            store.adopt(make_snapshot(seq=0))


class TestDurablePrequentialTrace:
    def test_scores_persist_and_load(self, tmp_path):
        trace = DurablePrequentialTrace(str(tmp_path))
        trace.score(0.1, 1, 3.0, 3.5)
        trace.score(0.2, 2, 2.0, 2.5)
        trace.score(0.3, 3, 0.0, 1.0, cold=True)
        trace.close()
        loaded = DurablePrequentialTrace.load(str(tmp_path))
        assert loaded.scored == 2
        assert loaded.cold == 1
        assert loaded.rmse() == pytest.approx(0.5)

    def test_resume_extends_history(self, tmp_path):
        first = DurablePrequentialTrace(str(tmp_path))
        first.score(0.1, 1, 1.0, 1.5)
        first.close()
        second = DurablePrequentialTrace(str(tmp_path))
        assert second.scored == 1  # history reloaded
        second.score(0.2, 2, 2.0, 2.5)
        second.close()
        assert DurablePrequentialTrace.load(str(tmp_path)).scored == 2

    def test_version_skew_raises(self, tmp_path):
        path = tmp_path / "prequential.jsonl"
        path.write_text('{"persist_version": 99}\n')
        with pytest.raises(DataError, match="unsupported persist_version"):
            DurablePrequentialTrace.load(str(tmp_path))

    def test_malformed_line_raises(self, tmp_path):
        trace = DurablePrequentialTrace(str(tmp_path))
        trace.score(0.1, 1, 1.0, 1.0)
        trace.close()
        with open(trace.path, "a") as handle:
            handle.write("{broken\n")
        with pytest.raises(DataError, match="malformed trace line"):
            DurablePrequentialTrace.load(str(tmp_path))

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(DataError, match="no persisted prequential"):
            DurablePrequentialTrace.load(str(tmp_path))


# ---------------------------------------------------------------------------
# End-to-end service


class TestService:
    def test_round_trip(self, service):
        status, health = http_get(service.url + "/health")
        assert status == 200
        assert health["status"] == "ok"
        assert health["schema_version"] == SCHEMA_VERSION

        _, snapshot = http_get(service.url + "/snapshot")
        assert snapshot["n_users"] == 30 and snapshot["n_items"] == 20
        assert snapshot["k"] == 4

        _, predicted = http_get(service.url + "/predict?user=1&item=2")
        assert predicted["snapshot_seq"] == snapshot["seq"]
        assert not predicted["cold_user"] and not predicted["cold_item"]
        assert isinstance(predicted["prediction"], float)

        _, first = http_get(service.url + "/recommend?user=1&n=3")
        _, second = http_get(service.url + "/recommend?user=1&n=3")
        assert len(first["items"]) == 3
        assert first["cached"] is False and second["cached"] is True
        assert first["items"] == second["items"]

        _, stats = http_get(service.url + "/stats")
        assert stats["requests"]["GET /recommend"] == 2
        assert stats["request_cache"]["hits"] == 1
        assert stats["trainer"]["enabled"] is True

    def test_cold_indices_flagged(self, service):
        _, payload = http_get(service.url + "/predict?user=999&item=999")
        assert payload["cold_user"] and payload["cold_item"]

    def test_http_errors(self, service):
        code, payload = http_error(http_get, service.url + "/nope")
        assert code == 404 and "no such route" in payload["error"]
        code, payload = http_error(http_get, service.url + "/predict?user=1")
        assert code == 400 and "item" in payload["error"]
        code, payload = http_error(
            http_post, service.url + "/health", {"x": 1}
        )
        assert code == 405
        code, payload = http_error(
            http_post, service.url + "/ratings", {"ratings": []}
        )
        assert code == 400

    @pytest.mark.parametrize("length", ["abc", "-1"])
    def test_a_bad_content_length_gets_a_400_and_a_close(
        self, service, length
    ):
        """Raw socket: the 400 comes without the body being read (``-1``
        would read to EOF and never answer), then the server closes."""
        request = (
            f"POST /ratings HTTP/1.1\r\nHost: x\r\n"
            f"Content-Length: {length}\r\n\r\n"
        ).encode()
        with socket.create_connection(
            (service.config.host, service.port), timeout=5
        ) as conn:
            conn.sendall(request)
            reply = b""
            while chunk := conn.recv(65536):  # b"" once the server closes
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        payload = json.loads(body)
        assert payload["status"] == 400
        assert "Content-Length" in payload["error"]

    @pytest.mark.parametrize(
        "raw", [_DEEP_BODY, _LONG_INT_BODY, _HUGE_VALUE_BODY],
        ids=["deep", "long_int", "huge_value"],
    )
    def test_hostile_bodies_get_a_400(self, service, raw):
        request = urllib.request.Request(
            service.url + "/ratings", data=raw, method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=5)
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read())["status"] == 400

    def test_a_refused_ingest_is_still_timed(self):
        # Unstarted: dispatch needs neither the socket nor the trainer.
        svc = RecommendationService(
            make_warmup(), HyperParams(k=3), ServiceConfig()
        )
        svc.store.adopt(make_snapshot())
        with pytest.raises(ServeError):
            svc.dispatch("POST", "/ratings", {}, b'{"ratings": []}')
        _, stats = svc.dispatch("GET", "/stats", {}, b"")
        assert stats["requests"]["POST /ratings"] == 1
        assert stats["latency"]["POST /ratings"]["count"] == 1

    def test_ingest_feeds_training_and_rotation(self, service):
        base_seq = service.store.latest.seq
        ratings = fresh_pairs(service.warmup, 25)
        status, payload = http_post(
            service.url + "/ratings", {"ratings": ratings}
        )
        assert status == 202
        assert payload["accepted"] == 25 and payload["duplicates"] == 0

        # 25 arrivals over snapshot_every=10 → the trainer must rotate.
        deadline = __import__("time").monotonic() + 30
        while service.store.latest.seq == base_seq:
            assert __import__("time").monotonic() < deadline, "no rotation"
            __import__("time").sleep(0.02)

        # Idempotent re-post: everything is a duplicate now.
        _, repost = http_post(service.url + "/ratings", {"ratings": ratings})
        assert repost["accepted"] == 0 and repost["duplicates"] == 25

    @staticmethod
    def _trains_through(service, count):
        """Wait until a snapshot covers ``count`` arrivals; the trainer
        must still be healthy then."""
        deadline = time.monotonic() + 30
        while service.store.latest.arrivals_seen < count:
            assert service.trainer_error is None, service.trainer_error
            assert time.monotonic() < deadline, "no rotation"
            time.sleep(0.02)
        _, health = http_get(service.url + "/health")
        assert health["status"] == "ok"

    def test_reposting_a_warm_up_rating_is_a_duplicate(self, service):
        """The edge checks against the warm-up ratings too: a re-posted
        warm-up cell is never queued, so the trainer never sees it."""
        warmup = service.warmup
        cell = {
            "user": int(warmup.rows[0]), "item": int(warmup.cols[0]),
            "value": 5.0,
        }
        status, payload = http_post(
            service.url + "/ratings", {"ratings": [cell]}
        )
        assert status == 202
        assert payload["accepted"] == 0 and payload["duplicates"] == 1
        ratings = fresh_pairs(warmup, 10)
        _, payload = http_post(
            service.url + "/ratings", {"ratings": [cell] + ratings}
        )
        assert payload["accepted"] == 10 and payload["duplicates"] == 1
        self._trains_through(service, 10)

    def test_a_far_id_refuses_the_whole_batch(self, service):
        """Regression: one rating naming user 10**12 passed the schema
        (ids are only checked >= 0) and was queued; the trainer then
        tried to allocate factor rows up to it (MemoryError), /health
        turned "degraded" and every later ingest got 503.  A batch
        naming an id more than MAX_BATCH past every one held is now
        refused whole, and nothing of it is queued."""
        warmup = service.warmup
        ratings = fresh_pairs(warmup, 9)
        far_user = {"user": 10**12, "item": 0, "value": 1.0}
        code, payload = http_error(
            http_post, service.url + "/ratings",
            {"ratings": ratings + [far_user]},
        )
        assert code == 400 and str(10**12) in payload["error"]
        far_item = {"user": 0, "item": warmup.n_cols + MAX_BATCH, "value": 1.0}
        code, _ = http_error(
            http_post, service.url + "/ratings", {"ratings": [far_item]}
        )
        assert code == 400
        assert service.stream.n_events == 0

        # The last id in reach is accepted, with the refused batch's
        # valid ratings, which were not kept the first time.
        edge_user = {"user": warmup.n_rows + MAX_BATCH - 1, "item": 0,
                     "value": 1.0}
        status, payload = http_post(
            service.url + "/ratings", {"ratings": ratings + [edge_user]}
        )
        assert status == 202
        assert payload["accepted"] == 10 and payload["duplicates"] == 0
        self._trains_through(service, 10)

    def test_stop_finishes_training(self):
        svc = RecommendationService(
            make_warmup(), HyperParams(k=4), ServiceConfig(**FAST)
        ).start()
        _, _ = http_post(
            svc.url + "/ratings", {"ratings": fresh_pairs(svc.warmup, 7)}
        )
        svc.stop()
        assert svc.trainer_error is None
        assert svc.result is not None
        assert svc.result.arrivals == 7
        # The closing rotation reflects every arrival.
        assert svc.store.latest.arrivals_seen == 7

    def test_diverged_trainer_keeps_serving_the_last_finite_snapshot(
        self, service
    ):
        """Regression: one finite but absurd rating (the schema checks
        finiteness only) drove the model to inf/NaN, and every later
        snapshot answered ``nan`` predictions and empty top-N lists
        with /health "ok".  The store now refuses that rotation: the
        trainer stops, reads stay on the last finite snapshot, /health
        says "degraded" and ingest is refused."""
        finite_seq = service.store.latest.seq
        ratings = fresh_pairs(service.warmup, 10)
        ratings[0]["value"] = 1e300
        status, _ = http_post(service.url + "/ratings", {"ratings": ratings})
        assert status == 202

        # 10 arrivals over snapshot_every=10: the trainer reaches the
        # rotation that would publish the diverged model.
        deadline = time.monotonic() + 30
        while service.trainer_error is None:
            assert time.monotonic() < deadline, "trainer never stopped"
            time.sleep(0.02)
        assert service.trainer_error.startswith("DivergenceError")

        _, health = http_get(service.url + "/health")
        assert health["status"] == "degraded"
        assert health["serving_seq"] == finite_seq
        _, predicted = http_get(service.url + "/predict?user=1&item=2")
        assert predicted["snapshot_seq"] == finite_seq
        assert np.isfinite(predicted["prediction"])
        _, top = http_get(service.url + "/recommend?user=1&n=3")
        assert top["snapshot_seq"] == finite_seq and len(top["items"]) == 3
        code, payload = http_error(
            http_post, service.url + "/ratings",
            {"ratings": fresh_pairs(service.warmup, 11)[10:]},
        )
        assert code == 503 and "no trainer" in payload["error"]

    def test_ingest_on_a_closed_stream_counts_nothing(
        self, service, monkeypatch
    ):
        """A batch posted after close() is refused with 503; so is one
        whose stream closes between the check and the push, instead of
        a 202 for part of it.  Neither is counted in /stats."""
        stream = service.stream
        push = stream.push

        def closing_push(*args):
            stream.close()
            return push(*args)

        monkeypatch.setattr(stream, "push", closing_push)
        warmup = service.warmup
        duplicate = {
            "user": int(warmup.rows[0]), "item": int(warmup.cols[0]),
            "value": 5.0,
        }
        batch = {"ratings": [duplicate] + fresh_pairs(warmup, 3)}
        for _ in range(2):  # closing mid-request, then already closed
            code, payload = http_error(
                http_post, service.url + "/ratings", batch
            )
            assert code == 503 and "no trainer" in payload["error"]
        _, stats = http_get(service.url + "/stats")
        ingest = stats["ingest"]
        assert ingest["accepted"] == ingest["duplicates"] == 0
        assert ingest["pushed"] == ingest["pending"] == 0

    def test_double_start_rejected(self, service):
        with pytest.raises(ServeError, match="already started"):
            service.start()


# ---------------------------------------------------------------------------
# One snapshot per read: everything in a reply derives from one store.latest


def shaped_snapshot(seq: int) -> ModelSnapshot:
    """Snapshots whose shape alternates with seq (6x4 / 9x7), so user 7
    and item 5 are cold under even seqs and known under odd ones."""
    grown = 3 * (seq % 2)
    return make_snapshot(seq=seq, n_users=6 + grown, n_items=4 + grown)


class RotatingStore(SnapshotStore):
    """Test double: ``latest`` rotates a different model in right after
    each read, so a handler that reads the store twice for one reply
    sees two snapshots."""

    def __init__(self):
        super().__init__(max_keep=64)
        self.adopt(shaped_snapshot(0))

    @property
    def latest(self) -> ModelSnapshot:
        snapshot = super().latest
        self.adopt(shaped_snapshot(self.rotations))
        return snapshot


def service_over(store: SnapshotStore) -> RecommendationService:
    """An unstarted read-only service answering from ``store``:
    ``dispatch`` needs neither the socket nor the trainer."""
    svc = RecommendationService(
        make_warmup(), HyperParams(k=3), ServiceConfig(train=False)
    )
    svc.store = store
    svc.recommender = Recommender(store)
    return svc


def expected_ranking(snapshot: ModelSnapshot, user: int, n: int):
    model = snapshot.model
    if user < model.n_users:
        return model.recommend(user, top_n=n)
    return top_items(model.factors.h @ model.factors.w.mean(axis=0), n)


def expected_prediction(snapshot: ModelSnapshot, user: int, item: int) -> float:
    model = snapshot.model
    if user < model.n_users and item < model.n_items:
        return model.predict_one(user, item)
    factors = model.factors
    w_row = factors.w[user] if user < model.n_users else factors.w.mean(axis=0)
    h_row = factors.h[item] if item < model.n_items else factors.h.mean(axis=0)
    return float(np.dot(w_row, h_row))


def check_reply(snapshot: ModelSnapshot, route: str, payload: dict) -> None:
    """A read reply must be exactly what the snapshot it names says."""
    model = snapshot.model
    user = payload["user"]
    if route == "/recommend":
        ranking = expected_ranking(snapshot, user, len(payload["items"]))
        assert payload["items"] == [
            {"item": item, "score": score} for item, score in ranking
        ]
    else:
        item = payload["item"]
        assert payload["prediction"] == expected_prediction(snapshot, user, item)
        assert payload["cold_user"] == (user >= model.n_users)
        assert payload["cold_item"] == (item >= model.n_items)


class TestOneSnapshotPerRead:
    def resident(self, store, seq) -> ModelSnapshot:
        return {snapshot.seq: snapshot for snapshot in store.snapshots}[seq]

    @pytest.mark.parametrize("user", [1, 7])
    def test_recommend_is_the_named_snapshots_ranking(self, user):
        store = RotatingStore()
        svc = service_over(store)
        for _ in range(3):  # seqs of both shapes
            status, payload = svc.dispatch(
                "GET", "/recommend", {"user": [str(user)], "n": ["3"]}, b""
            )
            assert status == 200 and payload["cached"] is False
            snapshot = self.resident(store, payload["snapshot_seq"])
            check_reply(snapshot, "/recommend", payload)
            # ... and that same ranking is what the LRU holds under the seq.
            assert svc.cache.get((snapshot.seq, user, 3)) == tuple(
                expected_ranking(snapshot, user, 3)
            )

    @pytest.mark.parametrize("user, item", [(1, 2), (7, 5), (1, 5), (7, 2)])
    def test_predict_is_the_named_snapshots_cell_and_flags(self, user, item):
        store = RotatingStore()
        svc = service_over(store)
        flags = set()
        for _ in range(2):  # an even (6x4) and an odd (9x7) seq
            params = {"user": [str(user)], "item": [str(item)]}
            status, payload = svc.dispatch("GET", "/predict", params, b"")
            assert status == 200
            snapshot = self.resident(store, payload["snapshot_seq"])
            check_reply(snapshot, "/predict", payload)
            flags.add((payload["cold_user"], payload["cold_item"]))
        assert flags == {(user == 7, item == 5), (False, False)}

    def test_handed_a_snapshot_the_recommender_never_reads_the_store(self):
        store = RotatingStore()
        recommender = Recommender(store)
        snapshot = shaped_snapshot(1)
        recommender.recommend(1, top_n=2, snapshot=snapshot)
        recommender.predict(7, 5, snapshot=snapshot)
        assert store.rotations == 1  # nothing read `latest`
        recommender.recommend(1, top_n=2)  # bare: exactly one read
        assert store.rotations == 2

    def test_stats_has_one_cache_block(self):
        svc = service_over(RotatingStore())
        svc.dispatch("GET", "/recommend", {"user": ["1"]}, b"")
        _, stats = svc.dispatch("GET", "/stats", {}, b"")
        assert stats["schema_version"] == SCHEMA_VERSION == 3
        assert "recommender_cache" not in stats
        assert stats["request_cache"]["misses"] == 1

    def test_readers_race_a_rotating_store(self):
        """Four unlocked reader threads against a store rotated in a
        loop: every reply matches the snapshot it names, and the LRU
        accounts for every /recommend."""
        store = SnapshotStore()
        history = {0: store.adopt(shaped_snapshot(0))}
        svc = service_over(store)
        stop = threading.Event()
        replies = [[] for _ in range(4)]
        errors = []

        def rotate():
            while not stop.is_set():
                snapshot = shaped_snapshot(store.rotations)
                history[snapshot.seq] = store.adopt(snapshot)
                time.sleep(0)

        def read(out, offset):
            try:
                turn = offset
                while not stop.is_set():
                    turn += 1
                    user = turn % 8
                    if turn % 2:
                        request = "/recommend", {"user": [str(user)], "n": ["3"]}
                    else:
                        request = "/predict", {
                            "user": [str(user)], "item": [str(turn % 7)]
                        }
                    status, payload = svc.dispatch("GET", *request, b"")
                    assert status == 200
                    out.append((request[0], payload))
            except Exception as error:
                errors.append(error)
                stop.set()

        threads = [threading.Thread(target=rotate)] + [
            threading.Thread(target=read, args=(out, index))
            for index, out in enumerate(replies)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave mid-handler, not per 5 ms
        try:
            for thread in threads:
                thread.start()
            stop.wait(0.3)
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)

        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert len(history) > 2  # the store really rotated under the readers
        flat = [reply for out in replies for reply in out]
        for route, payload in flat:
            check_reply(history[payload["snapshot_seq"]], route, payload)
        recommends = sum(route == "/recommend" for route, _ in flat)
        assert recommends > 0
        stats = svc.cache.stats
        assert stats.hits + stats.misses == recommends


class TestObservability:
    """PR 10 acceptance: /metrics scrapes as Prometheus text and /stats
    carries per-route latency quantiles."""

    def test_metrics_scrape_parses(self, service):
        http_get(service.url + "/predict?user=1&item=2")
        http_get(service.url + "/recommend?user=1&n=3")
        http_get(service.url + "/recommend?user=1&n=3")  # cache hit

        status, content_type, text = http_get_text(service.url + "/metrics")
        assert status == 200
        assert content_type == "text/plain; version=0.0.4; charset=utf-8"
        assert text.endswith("\n")

        samples = parse_prometheus(text)
        assert samples['repro_serve_requests_total{route="GET /predict"}'] == 1
        assert samples['repro_serve_requests_total{route="GET /recommend"}'] == 2

        # Per-route latency quantiles plus the sum/count pair.
        for quantile in ("0.5", "0.95", "0.99"):
            key = (
                "repro_serve_request_latency_seconds"
                f'{{quantile="{quantile}",route="GET /predict"}}'
            )
            assert samples[key] >= 0.0
        assert (
            samples[
                'repro_serve_request_latency_seconds_count{route="GET /predict"}'
            ]
            == 1
        )

        # Cache hit rate: 1 hit / (1 hit + 1 miss) on /recommend.
        assert samples["repro_serve_cache_hit_rate"] == pytest.approx(0.5)
        assert samples["repro_serve_cache_hits_total"] == 1
        assert samples["repro_serve_cache_misses_total"] == 1

        assert samples["repro_serve_snapshot_seq"] == service.store.latest.seq
        assert samples["repro_serve_uptime_seconds"] > 0.0

        # Every sample family is documented: one HELP and one TYPE per name.
        for name in ("repro_serve_requests_total", "repro_serve_cache_hit_rate"):
            assert f"# HELP {name} " in text
            assert f"# TYPE {name} " in text

    def test_metrics_scrape_counts_itself(self, service):
        http_get_text(service.url + "/metrics")
        _, _, text = http_get_text(service.url + "/metrics")
        samples = parse_prometheus(text)
        # The request counter ticks on dispatch entry, so the in-flight
        # scrape sees itself; latency is observed only after responding.
        assert samples['repro_serve_requests_total{route="GET /metrics"}'] == 2
        assert (
            samples[
                'repro_serve_request_latency_seconds_count{route="GET /metrics"}'
            ]
            == 1
        )

    def test_stats_latency_quantiles(self, service):
        http_get(service.url + "/predict?user=1&item=2")
        _, stats = http_get(service.url + "/stats")
        latency = stats["latency"]
        predict = latency["GET /predict"]
        assert predict["count"] == 1
        assert predict["mean"] > 0.0
        assert predict["p50"] <= predict["p95"] <= predict["p99"]
        # /stats itself is observed, but only after it responds: the
        # in-flight request is not yet in its own latency block.
        assert "GET /stats" not in latency or latency["GET /stats"]["count"] >= 0


class TestServiceRestart:
    """The acceptance criterion: a killed-and-restarted server serves
    from the newest persisted snapshot."""

    def run_and_stop(self, root, warmup):
        config = ServiceConfig(persist_dir=str(root), **FAST)
        svc = RecommendationService(warmup, HyperParams(k=4), config).start()
        http_post(
            svc.url + "/ratings", {"ratings": fresh_pairs(warmup, 12)}
        )
        svc.stop()
        assert svc.trainer_error is None
        return svc.store.latest.seq

    def test_restart_serves_newest_persisted_snapshot(self, tmp_path):
        warmup = make_warmup()
        final_seq = self.run_and_stop(tmp_path, warmup)
        assert final_seq > 0  # the run actually rotated

        # Read-only replica: serves exactly the newest persisted
        # snapshot, no trainer involved.
        replica = RecommendationService(
            warmup,
            HyperParams(k=4),
            ServiceConfig(persist_dir=str(tmp_path), train=False),
        ).start()
        try:
            _, snapshot = http_get(replica.url + "/snapshot")
            assert snapshot["seq"] == final_seq
            assert replica.store.resumed_seq == final_seq

            # Predictions match the persisted factors bit-for-bit.
            persisted = replica.store.persister.load(final_seq).model
            _, payload = http_get(replica.url + "/predict?user=1&item=2")
            assert payload["prediction"] == pytest.approx(
                persisted.predict_one(1, 2)
            )
            assert payload["snapshot_seq"] == final_seq

            # No trainer → ingest is refused, not silently dropped.
            code, _ = http_error(
                http_post,
                replica.url + "/ratings",
                {"ratings": [{"user": 0, "item": 0, "value": 1.0}]},
            )
            assert code == 503
        finally:
            replica.stop()

    def test_training_restart_continues_sequence(self, tmp_path):
        warmup = make_warmup()
        final_seq = self.run_and_stop(tmp_path, warmup)

        svc = RecommendationService(
            warmup,
            HyperParams(k=4),
            ServiceConfig(persist_dir=str(tmp_path), **FAST),
        ).start()
        try:
            assert svc.store.resumed_seq == final_seq
            # The sequence moves forward from the resumed snapshot —
            # serving-cache keys can never collide across the restart.
            assert svc.store.latest.seq >= final_seq
            # The prequential history survived the restart too.
            assert svc.prequential.scored >= 1
        finally:
            svc.stop()

    def test_replica_requires_persisted_snapshot(self, tmp_path):
        svc = RecommendationService(
            make_warmup(),
            HyperParams(k=4),
            ServiceConfig(persist_dir=str(tmp_path), train=False),
        )
        with pytest.raises(ServeError, match="persisted snapshot"):
            svc.start()
