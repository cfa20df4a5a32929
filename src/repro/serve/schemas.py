"""Versioned request/response schemas of the recommendation service.

Every payload the HTTP layer accepts or emits goes through a dataclass
here, so the wire contract is one importable module instead of dict
literals scattered through handlers.  Responses carry
``"schema_version"`` (:data:`SCHEMA_VERSION`) the way the model npz
format carries ``format_version`` — a client can detect skew instead of
misparsing.

Parsing is *strict*: unknown query parameters or JSON keys, missing
fields, wrong types, out-of-range indices, and non-finite ratings all
raise :class:`~repro.errors.ServeError` naming the offending field — the
service maps these to HTTP 400 with an :class:`ErrorResponse` body, so a
malformed request can never be half-honored.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ..errors import ServeError

__all__ = [
    "SCHEMA_VERSION",
    "MAX_TOP_N",
    "MAX_BATCH",
    "PredictQuery",
    "RecommendQuery",
    "IngestRequest",
    "HealthResponse",
    "SnapshotResponse",
    "PredictResponse",
    "RecommendResponse",
    "IngestResponse",
    "StatsResponse",
    "ErrorResponse",
]

#: Wire-contract version stamped into every response body.  History:
#:   1 — initial contract (health/snapshot/predict/recommend/ratings/stats).
#:   2 — ``GET /metrics`` (Prometheus text, unversioned by design) and a
#:       per-route ``latency`` quantile block in ``/stats``.
#:   3 — ``/stats`` carries one cache block, ``request_cache``; the second
#:       (the ``Recommender``'s own, deleted with that cache) is gone.
SCHEMA_VERSION = 3

#: Largest ``n`` a recommend request may ask for.
MAX_TOP_N = 1000

#: Largest ratings batch one ingest POST may carry; also how far past
#: every id it holds the service lets a batch's ids reach.
MAX_BATCH = 10_000


# ----------------------------------------------------------------------
# Strict field parsing
# ----------------------------------------------------------------------
def _reject_unknown(given: set[str], allowed: set[str], where: str) -> None:
    unknown = sorted(given - allowed)
    if unknown:
        raise ServeError(
            f"{where}: unknown field(s) {unknown}; allowed: {sorted(allowed)}"
        )


def _query_int(
    params: dict[str, list[str]],
    name: str,
    default: int | None = None,
    minimum: int = 0,
    maximum: int | None = None,
) -> int:
    """One integer query parameter, strictly validated."""
    values = params.get(name)
    if not values:
        if default is not None:
            return default
        raise ServeError(f"missing required query parameter {name!r}")
    if len(values) > 1:
        raise ServeError(f"query parameter {name!r} given more than once")
    text = values[0]
    try:
        value = int(text)
    except ValueError:
        raise ServeError(
            f"query parameter {name!r} must be an integer, got {text!r}"
        ) from None
    if value < minimum:
        raise ServeError(f"query parameter {name!r} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ServeError(f"query parameter {name!r} must be <= {maximum}, got {value}")
    return value


def _body_number(entry: dict, name: str, index: int) -> float:
    value = entry[name]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ServeError(
            f"ratings[{index}].{name} must be a number, got "
            f"{type(value).__name__}"
        )
    return float(value)


def _body_index(entry: dict, name: str, index: int) -> int:
    value = entry[name]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServeError(
            f"ratings[{index}].{name} must be an integer, got "
            f"{type(value).__name__}"
        )
    if value < 0:
        raise ServeError(f"ratings[{index}].{name} must be >= 0, got {value}")
    if value >= 2**63:  # ids are int64 from here on
        raise ServeError(f"ratings[{index}].{name} must be < 2**63, got {value}")
    return value


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PredictQuery:
    """``GET /predict?user=&item=``."""

    user: int
    item: int

    @classmethod
    def from_query(cls, params: dict[str, list[str]]) -> "PredictQuery":
        _reject_unknown(set(params), {"user", "item"}, "/predict")
        return cls(
            user=_query_int(params, "user"),
            item=_query_int(params, "item"),
        )


@dataclass(frozen=True)
class RecommendQuery:
    """``GET /recommend?user=&n=`` (``n`` optional, default 10)."""

    user: int
    n: int = 10

    @classmethod
    def from_query(cls, params: dict[str, list[str]]) -> "RecommendQuery":
        _reject_unknown(set(params), {"user", "n"}, "/recommend")
        return cls(
            user=_query_int(params, "user"),
            n=_query_int(params, "n", default=10, minimum=1, maximum=MAX_TOP_N),
        )


@dataclass(frozen=True, eq=False)
class IngestRequest:
    """``POST /ratings`` body: ``{"ratings": [{"user", "item", "value"}, ...]}``.

    The whole batch is validated before any rating is accepted — a
    malformed entry rejects the request without side effects.  The
    ratings come out as three aligned arrays, ``users`` / ``items``
    (``int64``) and ``values`` (``float64``), in body order.
    """

    users: np.ndarray
    items: np.ndarray
    values: np.ndarray

    @classmethod
    def from_body(cls, raw: bytes) -> "IngestRequest":
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ServeError(f"request body is not valid JSON: {error}") from None
        if not isinstance(body, dict):
            raise ServeError(
                f"request body must be a JSON object, got "
                f"{type(body).__name__}"
            )
        _reject_unknown(set(body), {"ratings"}, "/ratings body")
        if "ratings" not in body:
            raise ServeError("/ratings body: missing required field 'ratings'")
        entries = body["ratings"]
        if not isinstance(entries, list):
            raise ServeError(
                f"'ratings' must be a list, got {type(entries).__name__}"
            )
        if not entries:
            raise ServeError("'ratings' must not be empty")
        if len(entries) > MAX_BATCH:
            raise ServeError(
                f"'ratings' batch too large: {len(entries)} > {MAX_BATCH}"
            )
        columns = _columns(entries)
        if columns is None:
            _refuse(entries)
        return cls(*columns)


def _columns(entries: list) -> tuple[np.ndarray, ...] | None:
    """A well-formed batch's ``(users, items, values)`` arrays, checked a
    column at a time; ``None`` when any entry breaks a rule (then
    :func:`_refuse` finds which).  JSON gives ``int`` / ``float`` /
    ``bool`` exactly, so ``type(...) is int`` is the integer check with
    ``bool`` refused."""
    try:
        if any(type(entry) is not dict or len(entry) != 3 for entry in entries):
            return None
        users = [entry["user"] for entry in entries]
        items = [entry["item"] for entry in entries]
        values = [entry["value"] for entry in entries]
    except KeyError:
        return None
    if {*map(type, users), *map(type, items)} != {int}:
        return None
    if not {*map(type, values)} <= {int, float}:
        return None
    try:
        users = np.array(users, dtype=np.int64)
        items = np.array(items, dtype=np.int64)
        values = np.array(values, dtype=np.float64)
    except OverflowError:  # an id past int64, or a value past float64
        return None
    if (users.min() < 0 or items.min() < 0
            or np.count_nonzero(np.isfinite(values)) < values.size):
        return None
    return users, items, values


def _refuse(entries: list) -> None:
    """Raise the :class:`~repro.errors.ServeError` of a batch's first
    malformed entry, checking entry by entry."""
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ServeError(
                f"ratings[{index}] must be an object, got "
                f"{type(entry).__name__}"
            )
        _reject_unknown(
            set(entry), {"user", "item", "value"}, f"ratings[{index}]"
        )
        for field_name in ("user", "item", "value"):
            if field_name not in entry:
                raise ServeError(
                    f"ratings[{index}]: missing required field "
                    f"{field_name!r}"
                )
        value = _body_number(entry, "value", index)
        if value != value or value in (float("inf"), float("-inf")):
            raise ServeError(
                f"ratings[{index}].value must be finite, got {value}"
            )
        _body_index(entry, "user", index)
        _body_index(entry, "item", index)


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------
def _versioned(payload: dict) -> dict:
    payload["schema_version"] = SCHEMA_VERSION
    return payload


@dataclass(frozen=True)
class HealthResponse:
    """``GET /health``."""

    status: str
    serving_seq: int
    uptime_seconds: float

    def to_payload(self) -> dict:
        return _versioned(
            {
                "status": self.status,
                "serving_seq": self.serving_seq,
                "uptime_seconds": round(self.uptime_seconds, 3),
            }
        )


@dataclass(frozen=True)
class SnapshotResponse:
    """``GET /snapshot`` — metadata of the snapshot answering traffic."""

    seq: int
    stream_time: float
    arrivals_seen: int
    updates_seen: int
    n_users: int
    n_items: int
    k: int
    rotations: int

    def to_payload(self) -> dict:
        return _versioned(
            {
                "seq": self.seq,
                "stream_time": round(self.stream_time, 3),
                "arrivals_seen": self.arrivals_seen,
                "updates_seen": self.updates_seen,
                "n_users": self.n_users,
                "n_items": self.n_items,
                "k": self.k,
                "rotations": self.rotations,
            }
        )


@dataclass(frozen=True)
class PredictResponse:
    """``GET /predict`` — one scored cell."""

    user: int
    item: int
    prediction: float
    snapshot_seq: int
    cold_user: bool
    cold_item: bool

    def to_payload(self) -> dict:
        return _versioned(
            {
                "user": self.user,
                "item": self.item,
                "prediction": self.prediction,
                "snapshot_seq": self.snapshot_seq,
                "cold_user": self.cold_user,
                "cold_item": self.cold_item,
            }
        )


@dataclass(frozen=True)
class RecommendResponse:
    """``GET /recommend`` — ranked top-N for one user."""

    user: int
    snapshot_seq: int
    items: tuple[tuple[int, float], ...]
    cached: bool

    def to_payload(self) -> dict:
        return _versioned(
            {
                "user": self.user,
                "snapshot_seq": self.snapshot_seq,
                "items": [
                    {"item": item, "score": score} for item, score in self.items
                ],
                "cached": self.cached,
            }
        )


@dataclass(frozen=True)
class IngestResponse:
    """``POST /ratings`` — what happened to the batch."""

    accepted: int
    duplicates: int
    pending: int

    def to_payload(self) -> dict:
        return _versioned(
            {
                "accepted": self.accepted,
                "duplicates": self.duplicates,
                "pending": self.pending,
            }
        )


@dataclass(frozen=True)
class StatsResponse:
    """``GET /stats`` — service observability counters.

    ``latency`` (schema v2) maps each ``"METHOD /route"`` key of
    ``requests`` to ``{"count", "mean", "p50", "p95", "p99"}`` seconds,
    from the service's per-route latency histograms.
    """

    serving_seq: int
    rotations: int
    uptime_seconds: float
    requests: dict
    latency: dict
    request_cache: dict
    ingest: dict
    trainer: dict

    def to_payload(self) -> dict:
        return _versioned(
            {
                "serving_seq": self.serving_seq,
                "rotations": self.rotations,
                "uptime_seconds": round(self.uptime_seconds, 3),
                "requests": dict(self.requests),
                "latency": dict(self.latency),
                "request_cache": dict(self.request_cache),
                "ingest": dict(self.ingest),
                "trainer": dict(self.trainer),
            }
        )


@dataclass(frozen=True)
class ErrorResponse:
    """Any non-2xx outcome, in one shape."""

    error: str
    status: int

    def to_payload(self) -> dict:
        return _versioned({"error": self.error, "status": self.status})
