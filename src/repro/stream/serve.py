"""Serving front: answer traffic from the newest snapshot.

A :class:`Recommender` stands between request traffic and a
:class:`~repro.stream.snapshots.SnapshotStore`.  It holds no state
of its own: every call ranks or scores from *one* immutable snapshot —
the one it is handed, or the store's newest, read exactly once — so any
number of threads may share it without a lock and an answer can never
mix two rotations.  Caching is the caller's business (the HTTP service
keeps one seq-keyed LRU, :class:`repro.serve.cache.LruCache`).

A user or item the serving snapshot has never seen falls back to the
mean factor row — the average-user approximation, which degrades to
popularity ranking.  The HTTP service tells its clients when an answer
is such a fallback (``cold_user`` / ``cold_item``).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ..model import top_items
from .snapshots import ModelSnapshot, SnapshotStore

__all__ = ["Recommender"]

#: Which factor matrix (0 = W, 1 = H) holds the rows of each entity kind.
_AXIS = {"user": 0, "item": 1}


class Recommender:
    """Top-N and point-prediction serving over rotating snapshots.

    Parameters
    ----------
    store:
        Snapshot store to serve from; must hold at least one snapshot by
        the time the first request arrives.
    """

    def __init__(self, store: SnapshotStore):
        self.store = store

    def _row(self, snapshot: ModelSnapshot, kind: str, index: int) -> np.ndarray:
        """Factor row of one ``"user"`` or ``"item"``, falling back to
        the mean row when the snapshot does not cover it."""
        axis = _AXIS[kind]
        factors = snapshot.model.factors
        matrix = (factors.w, factors.h)[axis]
        if 0 <= index < matrix.shape[0]:
            return matrix[index]
        return snapshot.mean_rows[axis]

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------
    def predict(
        self, user: int, item: int, snapshot: ModelSnapshot | None = None
    ) -> float:
        """Predicted rating from ``snapshot`` (default: the newest).

        Unknown users and items fall back to the mean factor row.
        """
        if snapshot is None:
            snapshot = self.store.latest
        return float(
            np.dot(
                self._row(snapshot, "user", user),
                self._row(snapshot, "item", item),
            )
        )

    def recommend(
        self,
        user: int,
        top_n: int = 10,
        exclude: np.ndarray | None = None,
        snapshot: ModelSnapshot | None = None,
    ) -> list[tuple[int, float]]:
        """Top-N items for ``user`` from ``snapshot`` (default: the
        newest).  An unknown user is served from the mean user row."""
        if top_n < 1:
            raise ConfigError(f"top_n must be >= 1, got {top_n}")
        if snapshot is None:
            snapshot = self.store.latest
        w_row = self._row(snapshot, "user", user)
        return top_items(snapshot.model.factors.h @ w_row, top_n, exclude)

    # ------------------------------------------------------------------
    @property
    def serving_seq(self) -> int:
        """Sequence number of the snapshot answering current traffic."""
        return self.store.latest.seq
