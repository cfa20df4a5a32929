"""The HTTP recommendation service: rotating snapshots behind a socket.

:class:`RecommendationService` wires the streaming subsystem's pieces
into one long-running process:

* a :class:`~repro.stream.sources.QueueStream` carries ``POST /ratings``
  traffic to a background :func:`repro.fit_stream` trainer thread —
  served traffic becomes training data;
* the trainer rotates immutable snapshots into a shared
  :class:`~repro.stream.snapshots.SnapshotStore` (the durable subclass
  when a persistence directory is configured); a read handler takes
  ``store.latest`` exactly once and derives everything in its reply —
  the numbers (through the stateless
  :class:`~repro.stream.serve.Recommender`), ``snapshot_seq``, the
  ``cold_*`` flags, the cache key — from that one object, so a reply
  can never mix two rotations and reads hold no model lock;
* a request-level :class:`~repro.serve.cache.LruCache` keyed on
  ``(snapshot seq, user, n)`` — the service's one cache — makes rotation
  invalidate the cached working set atomically: no clear()-vs-insert
  race between handler threads and the rotating trainer.

The HTTP layer is the stdlib ``ThreadingHTTPServer``: one handler thread
per connection, all sharing the service object; the only locks are the
cache's own, the ingest path's and the request counters'.
Routes (all JSON, schemas in :mod:`repro.serve.schemas`):

* ``GET /health`` — liveness + trainer status (``degraded`` once the
  trainer has died — e.g. on a diverged model, which the store refuses
  to rotate in, so reads keep answering from the last finite snapshot);
* ``GET /snapshot`` — metadata of the serving snapshot;
* ``GET /predict?user=&item=`` — one scored cell;
* ``GET /recommend?user=&n=`` — top-N for one user;
* ``POST /ratings`` — batch ingest (idempotent: already-rated cells are
  counted as duplicates and skipped, never re-queued — the trainer
  treats a duplicate arrival as corruption, so the edge filters them;
  a batch naming an id more than ``MAX_BATCH`` past every one held is
  refused whole with 400; the rest is queued as one block; 503, with
  nothing counted, once no trainer drains the stream);
* ``GET /stats`` — request, cache, ingest, and trainer counters, plus
  per-route latency quantiles (p50/p95/p99);
* ``GET /metrics`` — the same counters in Prometheus text exposition
  (the one non-JSON route), scrape-ready.

Every dispatched request, refused or not, lands in a per-route latency
:class:`~repro.telemetry.Histogram` (recorded under the requests lock).

Restart story: with ``persist_dir`` set, every rotation lands on disk
and a new process resumes serving from the newest persisted snapshot
*before* its own trainer has rotated anything; the trainer warm-starts
from the persisted factors (truncated to the warm-up shape) so training
continues rather than restarting from random initialization.
"""

from __future__ import annotations

import json
import threading
import time
import traceback
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

import numpy as np

from ..api.streaming import fit_stream
from ..config import HyperParams
from ..datasets.ratings import RatingMatrix
from ..errors import ConfigError, DataError, ReproError, ServeError
from ..linalg.factors import FactorPair
from ..stream.dynamic import RatedCells
from ..stream.serve import Recommender
from ..stream.snapshots import PrequentialTrace, SnapshotStore
from ..stream.sources import QueueStream
from ..telemetry import Histogram, clock
from ..telemetry.prometheus import (
    CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE,
    Metric,
    Sample,
    render,
)
from .cache import LruCache
from .persistence import DurablePrequentialTrace, DurableSnapshotStore
from .schemas import (
    MAX_BATCH,
    ErrorResponse,
    HealthResponse,
    IngestRequest,
    IngestResponse,
    PredictQuery,
    PredictResponse,
    RecommendQuery,
    RecommendResponse,
    SnapshotResponse,
    StatsResponse,
)

__all__ = ["ServiceConfig", "RecommendationService"]

#: nomadlint NMD001: the service never touches factor matrices directly —
#: all model access goes through immutable snapshots.
__nomad_owner_contexts__ = ()


@dataclass(frozen=True)
class ServiceConfig:
    """Everything configurable about one service process.

    Attributes
    ----------
    host, port:
        Bind address; port 0 picks an ephemeral port (read it back from
        :attr:`RecommendationService.port` after :meth:`~RecommendationService.start`).
    persist_dir:
        Run directory for durable snapshots + prequential trace; ``None``
        keeps everything in memory (a restart starts cold).
    cache_capacity:
        Request-level LRU capacity; 0 disables response caching.
    max_snapshots:
        Snapshot history depth (resident, and on-disk when persisting).
    warmup_epochs, train_every, epochs_per_train, final_epochs,
    snapshot_every:
        Trainer cadence, exactly as in :func:`repro.fit_stream`.
    n_workers:
        Trainer worker count (``None`` = library default).
    train:
        ``False`` runs a read-only replica: no trainer thread, ingest
        returns 503, and a persisted snapshot must exist to serve from.
    startup_timeout:
        Seconds :meth:`~RecommendationService.start` waits for the first
        snapshot before giving up.
    """

    host: str = "127.0.0.1"
    port: int = 0
    persist_dir: str | None = None
    cache_capacity: int = 1024
    max_snapshots: int = 8
    warmup_epochs: int = 5
    train_every: int = 50
    epochs_per_train: int = 1
    final_epochs: int = 5
    snapshot_every: int = 200
    n_workers: int | None = None
    train: bool = True
    startup_timeout: float = 30.0


class RecommendationService:
    """One recommendation-serving process over a warm-up rating matrix.

    Lifecycle: construct → :meth:`start` (spawns the trainer, waits for
    the first serving snapshot, binds the socket) → traffic →
    :meth:`stop` (closes the ingest stream, lets the trainer finish its
    convergence sweeps and final rotation — persisted, when durable —
    then shuts the socket down).  Also a context manager.

    Parameters
    ----------
    warmup:
        Initial training set; also seeds the ingest duplicate check, so
        re-posting a warm-up rating counts as a duplicate.
    hyper:
        Model hyperparameters (``None`` = library defaults).
    config:
        A :class:`ServiceConfig`; ``None`` = all defaults.
    """

    def __init__(
        self,
        warmup: RatingMatrix,
        hyper: HyperParams | None = None,
        config: ServiceConfig | None = None,
    ):
        if not isinstance(warmup, RatingMatrix):
            raise ConfigError(
                f"warmup must be a RatingMatrix, got {type(warmup).__name__}"
            )
        self.config = config if config is not None else ServiceConfig()
        self.hyper = hyper if hyper is not None else HyperParams()
        self.warmup = warmup

        if self.config.persist_dir is not None:
            self.store: SnapshotStore = DurableSnapshotStore(
                self.config.persist_dir, max_keep=self.config.max_snapshots
            )
            self.prequential: PrequentialTrace = DurablePrequentialTrace(
                self.config.persist_dir
            )
        else:
            self.store = SnapshotStore(max_keep=self.config.max_snapshots)
            self.prequential = PrequentialTrace()

        self.stream = QueueStream(warmup)
        self.recommender = Recommender(self.store)
        self.cache = LruCache(self.config.cache_capacity)

        # Ingest dedup: the trainer treats a duplicate (user, item) as
        # data corruption, so the service filters at the edge with the
        # trainer's own check over the warm-up set, adding each pair it
        # accepts.  The id counts bound how far a batch may reach.
        self._rated = RatedCells(warmup)
        self._n_users, self._n_items = warmup.n_rows, warmup.n_cols
        self._ingest_lock = threading.Lock()
        self._ingest_accepted = 0
        self._ingest_duplicates = 0

        self._requests_lock = threading.Lock()
        self._requests: dict[str, int] = {}
        # Per-route latency histograms; handler threads write them
        # under _requests_lock.
        self._latency: dict[str, Histogram] = {}

        self._httpd: ThreadingHTTPServer | None = None
        self._server_thread: threading.Thread | None = None
        self._trainer: threading.Thread | None = None
        self._init_factors: FactorPair | None = None
        self._started_at: float | None = None
        #: The trainer's StreamResult once the ingest stream closes.
        self.result = None
        #: Message of a trainer-thread failure (``/health`` degrades).
        self.trainer_error: str | None = None
        #: Full traceback of that failure, for operator diagnosis.
        self.trainer_traceback: str | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _resume_init_factors(self) -> FactorPair | None:
        """Warm-start factors from a resumed snapshot, when compatible.

        The persisted model may be larger than the warm-up matrix (the
        previous process folded in new users/items); truncating to the
        warm-up shape continues training for the entities the warm-up
        covers — the grown rows re-fold-in if their ratings re-arrive.
        """
        if not len(self.store):
            return None
        factors = self.store.latest.model.factors
        if (
            factors.k == self.hyper.k
            and factors.n_rows >= self.warmup.n_rows
            and factors.n_cols >= self.warmup.n_cols
        ):
            return FactorPair(
                factors.w[: self.warmup.n_rows].copy(),
                factors.h[: self.warmup.n_cols].copy(),
            )
        return None

    def _train(self) -> None:
        try:
            self.result = fit_stream(
                self.stream,
                hyper=self.hyper,
                n_workers=self.config.n_workers,
                init_factors=self._init_factors,
                warmup_epochs=self.config.warmup_epochs,
                train_every=self.config.train_every,
                epochs_per_train=self.config.epochs_per_train,
                final_epochs=self.config.final_epochs,
                snapshot_every=self.config.snapshot_every,
                store=self.store,
                prequential=self.prequential,
            )
        except Exception as error:  # surfaced via /health + /stats
            self.trainer_error = f"{type(error).__name__}: {error}"
            self.trainer_traceback = traceback.format_exc()
            # Nothing drains the queue any more: ingest answers 503.
            self.stream.close()

    def start(self) -> "RecommendationService":
        """Spawn the trainer, wait for a serving snapshot, bind the
        socket.  Returns ``self`` so ``service = Service(...).start()``
        reads naturally."""
        if self._httpd is not None:
            raise ServeError("service already started")
        self._started_at = time.monotonic()
        if self.config.train:
            self._init_factors = self._resume_init_factors()
            self._trainer = threading.Thread(
                target=self._train, name="repro-serve-trainer", daemon=True
            )
            self._trainer.start()
        deadline = time.monotonic() + self.config.startup_timeout
        while not len(self.store):
            if self.trainer_error is not None:
                raise ServeError(
                    f"trainer failed during warm-up: {self.trainer_error}"
                )
            if not self.config.train:
                raise ServeError(
                    "train=False requires a persisted snapshot to serve "
                    "from; the run directory has none"
                )
            if time.monotonic() > deadline:
                raise ServeError(
                    f"no serving snapshot within "
                    f"{self.config.startup_timeout}s of start"
                )
            time.sleep(0.01)
        self._httpd = ThreadingHTTPServer(
            (self.config.host, self.config.port), _build_handler(self)
        )
        self._server_thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve-http",
            daemon=True,
        )
        self._server_thread.start()
        return self

    def stop(self) -> None:
        """Graceful shutdown: close ingest, let the trainer converge and
        rotate its final snapshot (persisted, when durable), then shut
        the socket down.  Idempotent."""
        self.stream.close()
        if self._trainer is not None:
            self._trainer.join()
            self._trainer = None
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._server_thread is not None:
            self._server_thread.join()
            self._server_thread = None
        if isinstance(self.prequential, DurablePrequentialTrace):
            self.prequential.close()

    def close(self) -> None:
        """Alias of :meth:`stop` (resource-discipline spelling)."""
        self.stop()

    def __enter__(self) -> "RecommendationService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def port(self) -> int:
        """The bound port (resolves port 0 to the ephemeral pick)."""
        if self._httpd is None:
            raise ServeError("service is not started")
        return int(self._httpd.server_address[1])

    @property
    def url(self) -> str:
        """Base URL of the running service."""
        return f"http://{self.config.host}:{self.port}"

    @property
    def uptime_seconds(self) -> float:
        """Seconds since :meth:`start`."""
        if self._started_at is None:
            return 0.0
        return time.monotonic() - self._started_at

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def dispatch(
        self,
        method: str,
        path: str,
        params: dict[str, list[str]],
        body: bytes,
    ) -> tuple[int, dict | str]:
        """Route one request to its handler; returns (status, payload).

        A ``dict`` payload goes out as JSON; a ``str`` payload (the
        ``/metrics`` exposition) goes out verbatim as Prometheus text.
        :class:`~repro.errors.ServeError` (and the library's config/data
        errors) map to 400; anything else the HTTP layer turns into 500.
        """
        route = path.rstrip("/") or "/"
        key = f"{method} {route}"
        with self._requests_lock:
            self._requests[key] = self._requests.get(key, 0) + 1
        handlers = {
            ("GET", "/health"): lambda: self._handle_health(),
            ("GET", "/snapshot"): lambda: self._handle_snapshot(),
            ("GET", "/predict"): lambda: self._handle_predict(params),
            ("GET", "/recommend"): lambda: self._handle_recommend(params),
            ("GET", "/stats"): lambda: self._handle_stats(),
            ("GET", "/metrics"): lambda: self._handle_metrics(),
            ("POST", "/ratings"): lambda: self._handle_ingest(body),
        }
        handler = handlers.get((method, route))
        if handler is None:
            known_routes = {r for _, r in handlers}
            if route in known_routes:
                return 405, ErrorResponse(
                    f"method {method} not allowed on {route}", 405
                ).to_payload()
            return 404, ErrorResponse(f"no such route: {route}", 404).to_payload()
        started = clock()
        try:
            return handler()
        finally:
            self._observe(key, started)

    def _observe(self, route_key: str, started: float) -> None:
        """Fold one handled request into the route's latency histogram."""
        elapsed = clock() - started
        with self._requests_lock:
            histogram = self._latency.get(route_key)
            if histogram is None:
                histogram = Histogram()
                self._latency[route_key] = histogram
            histogram.add(elapsed)

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def _handle_health(self) -> tuple[int, dict]:
        status = "ok" if self.trainer_error is None else "degraded"
        return 200, HealthResponse(
            status=status,
            serving_seq=self.store.latest.seq,
            uptime_seconds=self.uptime_seconds,
        ).to_payload()

    def _handle_snapshot(self) -> tuple[int, dict]:
        snapshot = self.store.latest
        model = snapshot.model
        return 200, SnapshotResponse(
            seq=snapshot.seq,
            stream_time=snapshot.stream_time,
            arrivals_seen=snapshot.arrivals_seen,
            updates_seen=snapshot.updates_seen,
            n_users=model.n_users,
            n_items=model.n_items,
            k=model.k,
            rotations=self.store.rotations,
        ).to_payload()

    def _handle_predict(self, params: dict[str, list[str]]) -> tuple[int, dict]:
        query = PredictQuery.from_query(params)
        snapshot = self.store.latest
        model = snapshot.model
        return 200, PredictResponse(
            user=query.user,
            item=query.item,
            prediction=self.recommender.predict(
                query.user, query.item, snapshot=snapshot
            ),
            snapshot_seq=snapshot.seq,
            cold_user=query.user >= model.n_users,
            cold_item=query.item >= model.n_items,
        ).to_payload()

    def _handle_recommend(self, params: dict[str, list[str]]) -> tuple[int, dict]:
        query = RecommendQuery.from_query(params)
        snapshot = self.store.latest
        key = (snapshot.seq, query.user, query.n)
        items = self.cache.get(key)
        cached = items is not None
        if not cached:
            items = tuple(
                self.recommender.recommend(
                    query.user, top_n=query.n, snapshot=snapshot
                )
            )
            self.cache.put(key, items)
        return 200, RecommendResponse(
            user=query.user,
            snapshot_seq=snapshot.seq,
            items=items,
            cached=cached,
        ).to_payload()

    @staticmethod
    def _ingest_unavailable() -> tuple[int, dict]:
        return 503, ErrorResponse(
            "ingest unavailable: no trainer is draining the stream", 503
        ).to_payload()

    def _handle_ingest(self, body: bytes) -> tuple[int, dict]:
        if not self.config.train or self.stream.closed:
            return self._ingest_unavailable()
        request = IngestRequest.from_body(body)
        users, items, values = request.users, request.items, request.values
        with self._ingest_lock:
            # The trainer grows a factor row for every id up to the
            # largest it sees, so one far past every id held would stall
            # it or exhaust its memory: such a batch is refused whole.
            far = np.flatnonzero(
                (users >= self._n_users + MAX_BATCH)
                | (items >= self._n_items + MAX_BATCH)
            )
            if far.size:
                t = int(far[0])
                raise ServeError(
                    f"rating ({users[t]}, {items[t]}) lies more than "
                    f"{MAX_BATCH} past the {self._n_users} users and "
                    f"{self._n_items} items held"
                )
            # One duplicate check for the batch; a repeat inside it
            # counts as a duplicate of its first occurrence.
            fresh = ~self._rated.contains(users, items)
            duplicates = users.size - int(np.count_nonzero(fresh))
            users, items, values = users[fresh], items[fresh], values[fresh]
            if users.size:
                try:
                    self.stream.push(users, items, values)
                except DataError:  # closed between the check and the push
                    return self._ingest_unavailable()
                self._rated.add(users, items)
                self._n_users = max(self._n_users, int(users.max()) + 1)
                self._n_items = max(self._n_items, int(items.max()) + 1)
            self._ingest_accepted += users.size
            self._ingest_duplicates += duplicates
        return 202, IngestResponse(
            accepted=users.size,
            duplicates=duplicates,
            pending=self.stream.pending,
        ).to_payload()

    def _handle_stats(self) -> tuple[int, dict]:
        with self._requests_lock:
            requests = dict(self._requests)
            latency = {
                route: {
                    "count": histogram.count,
                    "mean": histogram.mean,
                    **histogram.quantiles(),
                }
                for route, histogram in self._latency.items()
            }
        with self._ingest_lock:
            ingest = {
                "accepted": self._ingest_accepted,
                "duplicates": self._ingest_duplicates,
                "pending": self.stream.pending,
                "pushed": self.stream.n_events,
            }
        trainer = {
            "enabled": self.config.train,
            "running": self._trainer is not None and self._trainer.is_alive(),
            "finished": self.result is not None,
            "error": self.trainer_error,
        }
        return 200, StatsResponse(
            serving_seq=self.store.latest.seq,
            rotations=self.store.rotations,
            uptime_seconds=self.uptime_seconds,
            requests=requests,
            latency=latency,
            request_cache=self.cache.stats_payload(),
            ingest=ingest,
            trainer=trainer,
        ).to_payload()

    #: /stats quantile keys -> Prometheus ``quantile`` label values.
    _QUANTILE_LABELS = {"p50": "0.5", "p95": "0.95", "p99": "0.99"}

    def _handle_metrics(self) -> tuple[int, str]:
        """``GET /metrics`` — Prometheus text exposition.

        Unversioned by design (the exposition format is its own
        contract); everything here also appears in ``/stats`` as JSON.
        """
        with self._requests_lock:
            requests = dict(self._requests)
            latency = {
                route: (histogram.count, histogram.total, histogram.quantiles())
                for route, histogram in self._latency.items()
            }
        cache = self.cache.stats_payload()
        with self._ingest_lock:
            accepted = self._ingest_accepted
            duplicates = self._ingest_duplicates
        lookups = cache["hits"] + cache["misses"]
        hit_rate = cache["hits"] / lookups if lookups else 0.0
        quantile_samples = [
            Sample(value, {"route": route, "quantile": label})
            for route, (_, _, quantiles) in sorted(latency.items())
            for key, label in self._QUANTILE_LABELS.items()
            for value in (quantiles[key],)
        ]
        metrics = [
            Metric(
                "repro_serve_requests_total",
                "counter",
                "HTTP requests dispatched, by method and route.",
                [
                    Sample(count, {"route": route})
                    for route, count in sorted(requests.items())
                ],
            ),
            Metric(
                "repro_serve_request_latency_seconds",
                "gauge",
                "Per-route request latency quantiles, in seconds.",
                quantile_samples,
            ),
            Metric(
                "repro_serve_request_latency_seconds_sum",
                "counter",
                "Total seconds spent handling requests, by route.",
                [
                    Sample(total, {"route": route})
                    for route, (_, total, _) in sorted(latency.items())
                ],
            ),
            Metric(
                "repro_serve_request_latency_seconds_count",
                "counter",
                "Requests measured into the latency histogram, by route.",
                [
                    Sample(count, {"route": route})
                    for route, (count, _, _) in sorted(latency.items())
                ],
            ),
            Metric(
                "repro_serve_cache_hit_rate",
                "gauge",
                "Request-cache hit rate since start (hits / lookups).",
                [Sample(hit_rate)],
            ),
            Metric(
                "repro_serve_cache_hits_total",
                "counter",
                "Request-cache hits since start.",
                [Sample(cache["hits"])],
            ),
            Metric(
                "repro_serve_cache_misses_total",
                "counter",
                "Request-cache misses since start.",
                [Sample(cache["misses"])],
            ),
            Metric(
                "repro_serve_snapshot_seq",
                "gauge",
                "Sequence number of the serving snapshot.",
                [Sample(self.store.latest.seq)],
            ),
            Metric(
                "repro_serve_snapshot_rotations_total",
                "counter",
                "Snapshot rotations since start.",
                [Sample(self.store.rotations)],
            ),
            Metric(
                "repro_serve_ingest_accepted_total",
                "counter",
                "Ratings accepted for training.",
                [Sample(accepted)],
            ),
            Metric(
                "repro_serve_ingest_duplicates_total",
                "counter",
                "Duplicate ratings rejected at the edge.",
                [Sample(duplicates)],
            ),
            Metric(
                "repro_serve_uptime_seconds",
                "gauge",
                "Seconds since the service started.",
                [Sample(self.uptime_seconds)],
            ),
        ]
        return 200, render(metrics)


def _build_handler(service: RecommendationService):
    """The per-connection handler class, closed over one service."""

    class Handler(BaseHTTPRequestHandler):
        # HTTP/1.1 keeps connections alive across requests — the load
        # generator and real clients reuse sockets.  Every response
        # carries Content-Length, which 1.1 requires.
        protocol_version = "HTTP/1.1"
        server_version = "repro-serve"
        # Headers and body go out as separate small writes; with Nagle
        # on they collide with the client's delayed ACK and every
        # keep-alive round trip stalls ~40 ms.
        disable_nagle_algorithm = True

        def log_message(self, format, *args):  # noqa: A002 - stdlib name
            pass  # request logging is the /stats endpoint's job

        def _respond(self, status: int, payload: dict | str) -> None:
            if isinstance(payload, str):  # /metrics: Prometheus text
                body = payload.encode("utf-8")
                content_type = PROMETHEUS_CONTENT_TYPE
            else:
                body = json.dumps(payload, sort_keys=True).encode("utf-8")
                content_type = "application/json"
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _handle(self, method: str) -> None:
            split = urlsplit(self.path)
            params = parse_qs(split.query, keep_blank_values=True)
            body = b""
            if method == "POST":
                length = int(self.headers.get("Content-Length") or 0)
                if length:
                    body = self.rfile.read(length)
            try:
                status, payload = service.dispatch(
                    method, split.path, params, body
                )
            except (ServeError, ConfigError, DataError) as error:
                status = 400
                payload = ErrorResponse(str(error), 400).to_payload()
            except ReproError as error:
                status = 500
                payload = ErrorResponse(str(error), 500).to_payload()
            except Exception as error:
                # The client gets only the type name; the traceback goes
                # to the server's stderr, where an operator can see it.
                traceback.print_exc()
                status = 500
                payload = ErrorResponse(
                    f"internal error: {type(error).__name__}", 500
                ).to_payload()
            self._respond(status, payload)

        def do_GET(self):
            self._handle("GET")

        def do_POST(self):
            self._handle("POST")

    return Handler
