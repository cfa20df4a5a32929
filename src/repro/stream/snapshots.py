"""Snapshot rotation and the prequential RMSE trace of a stream.

Serving and training decouple through immutable snapshots: the trainer
keeps mutating its live factors while the serving layer answers from the
newest :class:`ModelSnapshot` — a frozen, read-only copy rotated in on a
cadence by :class:`SnapshotStore`.  Rotation is a factor copy (O((m+n)k)),
which is what makes freshness cheap compared to retraining from scratch;
``benchmarks/test_stream_engine.py`` records the measured gap.

Stream accuracy is tracked *prequentially* (test-then-train): every
arrival is first scored against the current snapshot, then handed to the
trainer.  The resulting :class:`PrequentialTrace` is an honest online
error estimate — each rating is predicted strictly before any model has
trained on it.  Arrivals whose user or item the serving snapshot has
never seen cannot be scored and are tallied separately as *cold*.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import ConfigError, DataError, DivergenceError
from ..linalg.factors import FactorPair
from ..model import CompletionModel

__all__ = [
    "ModelSnapshot",
    "PrequentialTrace",
    "SnapshotStore",
]


@dataclass(frozen=True)
class ModelSnapshot:
    """One immutable serving model.

    Attributes
    ----------
    seq:
        Rotation sequence number, 0 for the warm-start snapshot; the
        serving cache keys its entries on it.
    stream_time:
        Stream timestamp (seconds) at which the snapshot was rotated in.
    arrivals_seen:
        Arrivals the trainer had ingested when the snapshot was taken.
    updates_seen:
        Cumulative SGD updates behind the snapshot.
    model:
        The frozen :class:`~repro.model.CompletionModel`; its factor
        arrays are read-only copies, decoupled from the live trainer.
    """

    seq: int
    stream_time: float
    arrivals_seen: int
    updates_seen: int
    model: CompletionModel

    @cached_property
    def mean_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Mean (W row, H row) — the serving layer's cold-start fallback.

        Computed on first use, never at rotation (the trainer's path),
        and kept: the factors are frozen, so the means cannot go stale.
        """
        factors = self.model.factors
        return factors.w.mean(axis=0), factors.h.mean(axis=0)


class PrequentialTrace:
    """Test-then-train error series over one stream.

    Scored arrivals are kept block by block as four aligned columns in
    stream order, read back as arrays: :attr:`times`, :attr:`arrivals`
    (1-based arrival numbers), :attr:`predicted` and :attr:`actual`.

    Attributes
    ----------
    cold:
        Arrivals that could not be scored because the serving snapshot
        had never seen their user or item (they still train the model).
    """

    _DTYPES = (np.float64, np.int64, np.float64, np.float64)

    def __init__(self) -> None:
        self._blocks: list[list[np.ndarray]] = []
        self._scored = 0
        self.cold = 0

    def score(self, times, arrivals, predicted, actual, cold=None) -> None:
        """Append a block of arrivals, in stream order (scalars are a
        block of one).  ``cold`` marks the ones the serving snapshot
        could not score: they are counted, and their ``predicted`` is
        not read."""
        block = [
            np.array(column, dtype=dtype).reshape(-1)
            for column, dtype in zip(
                (times, arrivals, predicted, actual), self._DTYPES
            )
        ]
        if cold is not None:
            cold = np.asarray(cold, dtype=bool).reshape(-1)
            n_cold = int(np.count_nonzero(cold))
            if n_cold:
                self.cold += n_cold
                block = [column[~cold] for column in block]
        self._blocks.append(block)
        self._scored += block[0].size

    def _column(self, index: int) -> np.ndarray:
        if not self._blocks:
            return np.empty(0, dtype=self._DTYPES[index])
        return np.concatenate([block[index] for block in self._blocks])

    @property
    def times(self) -> np.ndarray:
        """Stream time of each scored arrival."""
        return self._column(0)

    @property
    def arrivals(self) -> np.ndarray:
        """1-based arrival number of each scored arrival."""
        return self._column(1)

    @property
    def predicted(self) -> np.ndarray:
        """The serving snapshot's prediction of each scored arrival."""
        return self._column(2)

    @property
    def actual(self) -> np.ndarray:
        """The rating each scored arrival carried."""
        return self._column(3)

    @property
    def scored(self) -> int:
        """Number of scored arrivals."""
        return self._scored

    def _errors(self, window: int | None = None) -> np.ndarray:
        """Signed errors ``predicted - actual`` of the last ``window``
        scored arrivals (all of them for ``None``)."""
        if not self._scored:
            raise DataError("prequential trace has no scored arrivals")
        start = 0 if window is None else max(0, self._scored - window)
        return self.predicted[start:] - self.actual[start:]

    def rmse(self) -> float:
        """RMSE over every scored arrival."""
        errors = self._errors()
        return float(np.sqrt(np.mean(errors * errors)))

    def windowed_rmse(self, window: int) -> float:
        """RMSE over the last ``window`` scored arrivals (recency view)."""
        if window < 1:
            raise ConfigError(f"window must be >= 1, got {window}")
        errors = self._errors(window)
        return float(np.sqrt(np.mean(errors * errors)))

    def __len__(self) -> int:
        return self.scored

    def __repr__(self) -> str:
        if not self._scored:
            return f"PrequentialTrace(empty, cold={self.cold})"
        return (
            f"PrequentialTrace(scored={self.scored}, cold={self.cold}, "
            f"rmse={self.rmse():.4f})"
        )


def _require_finite(factors: FactorPair, refusal: str) -> None:
    """Raise :class:`~repro.errors.DivergenceError` with ``refusal`` when
    ``factors`` hold a non-finite value: only a finite model is served."""
    if not (np.isfinite(factors.w).all() and np.isfinite(factors.h).all()):
        raise DivergenceError(refusal)


class SnapshotStore:
    """Rotates immutable model snapshots on a cadence.

    Parameters
    ----------
    max_keep:
        How many of the newest snapshots stay resident (older ones are
        dropped; the newest is never dropped).  Serving reads only the
        newest, but keeping a short history enables A/B comparisons and
        rollback.

    Notes
    -----
    :meth:`rotate` deep-copies the factors and marks the copies
    read-only, so a snapshot can never observe later training updates —
    the immutability lock-free serving and its seq-keyed cache rely on.
    It is the one place a model becomes servable, so it is also where a
    non-finite model is refused.
    """

    def __init__(self, max_keep: int = 8):
        if max_keep < 1:
            raise ConfigError(f"max_keep must be >= 1, got {max_keep}")
        self.max_keep = int(max_keep)
        self._snapshots: list[ModelSnapshot] = []
        self._next_seq = 0
        self.rotation_seconds: list[float] = []

    def rotate(
        self,
        factors: FactorPair,
        stream_time: float,
        arrivals_seen: int,
        updates_seen: int,
    ) -> ModelSnapshot:
        """Freeze the given factors as the new serving snapshot.

        Factors holding a non-finite value raise
        :class:`~repro.errors.DivergenceError` before anything is built:
        the store keeps serving its last finite snapshot, and a durable
        subclass persists nothing.
        """
        _require_finite(
            factors,
            f"factors diverged after {updates_seen} updates; refusing "
            f"to rotate them in (seq {self._next_seq}); reduce alpha or "
            "increase beta/lambda",
        )
        w = np.ascontiguousarray(factors.w, dtype=np.float64).copy()
        h = np.ascontiguousarray(factors.h, dtype=np.float64).copy()
        w.setflags(write=False)
        h.setflags(write=False)
        snapshot = ModelSnapshot(
            seq=self._next_seq,
            stream_time=float(stream_time),
            arrivals_seen=int(arrivals_seen),
            updates_seen=int(updates_seen),
            model=CompletionModel(FactorPair(w, h)),
        )
        self._snapshots.append(snapshot)
        self._next_seq += 1
        if len(self._snapshots) > self.max_keep:
            del self._snapshots[: len(self._snapshots) - self.max_keep]
        return snapshot

    def adopt(
        self, snapshot: ModelSnapshot, source: str | None = None
    ) -> ModelSnapshot:
        """Install an externally-built snapshot (e.g. one reloaded from
        disk by :class:`repro.serve.persistence.DurableSnapshotStore`)
        and resume the rotation sequence *after* it.

        The snapshot must be newer than anything already resident — the
        sequence number is the serving cache's validity key, so it can
        never move backwards — and finite, as :meth:`rotate` requires:
        a non-finite one raises :class:`~repro.errors.DivergenceError`
        naming ``source`` (where it came from, e.g. its file) and is not
        installed.
        """
        if snapshot.seq < self._next_seq:
            raise ConfigError(
                f"cannot adopt snapshot seq {snapshot.seq}; store has "
                f"already rotated past it (next seq {self._next_seq})"
            )
        _require_finite(
            snapshot.model.factors,
            f"{source or f'snapshot seq {snapshot.seq}'} holds non-finite "
            "factors; refusing to serve it",
        )
        self._snapshots.append(snapshot)
        self._next_seq = snapshot.seq + 1
        if len(self._snapshots) > self.max_keep:
            del self._snapshots[: len(self._snapshots) - self.max_keep]
        return snapshot

    @property
    def latest(self) -> ModelSnapshot:
        """The newest snapshot (serving reads this)."""
        if not self._snapshots:
            raise DataError("snapshot store is empty; rotate one first")
        return self._snapshots[-1]

    @property
    def rotations(self) -> int:
        """Total snapshots ever rotated in (not just resident ones)."""
        return self._next_seq

    @property
    def snapshots(self) -> list[ModelSnapshot]:
        """The resident snapshots, oldest first."""
        return list(self._snapshots)

    def __len__(self) -> int:
        return len(self._snapshots)

    def __repr__(self) -> str:
        if not self._snapshots:
            return "SnapshotStore(empty)"
        newest = self._snapshots[-1]
        return (
            f"SnapshotStore(resident={len(self._snapshots)}, "
            f"rotations={self._next_seq}, newest_seq={newest.seq})"
        )
