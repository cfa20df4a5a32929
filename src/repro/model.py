"""A trained matrix-completion model: prediction, recommendation, persistence.

The optimizers in this library produce raw :class:`~repro.linalg.factors.FactorPair`
objects; :class:`CompletionModel` wraps one with the downstream API a
recommender deployment needs — vectorized scoring, top-N recommendation
with seen-item masking, evaluation, and round-trippable persistence —
so example applications and users never touch factor internals.
"""

from __future__ import annotations

import os
from typing import Union

import numpy as np

from .datasets.ratings import RatingMatrix
from .errors import ConfigError, DataError
from .linalg.factors import FactorPair
from .linalg.objective import predict, test_rmse

__all__ = ["CompletionModel", "FORMAT_VERSION", "top_items"]

PathLike = Union[str, os.PathLike]

_NPZ_KEYS = ("w", "h")


def top_items(
    scores: np.ndarray,
    top_n: int,
    exclude: np.ndarray | None = None,
) -> list[tuple[int, float]]:
    """Rank an item-score vector: the one top-N policy of the library.

    Shared by :meth:`CompletionModel.recommend` and the serving layer's
    cold-start path so the edge-case semantics can never drift apart:
    ``top_n`` clamps to the catalog size, excluded items never appear,
    and masking everything yields ``[]``.  ``scores`` is not mutated.
    """
    n_items = scores.shape[0]
    if exclude is not None:
        exclude = np.asarray(exclude, dtype=np.int64)
        if exclude.size and (exclude.min() < 0 or exclude.max() >= n_items):
            raise ConfigError("exclude contains an out-of-range item")
        scores = scores.copy()
        scores[exclude] = -np.inf
    top_n = min(top_n, n_items)
    best = np.argpartition(scores, -top_n)[-top_n:]
    best = best[np.argsort(scores[best])[::-1]]
    return [
        (int(item), float(scores[item]))
        for item in best
        if np.isfinite(scores[item])
    ]

#: Current on-disk model format.  History:
#:   1 — (implicit; no marker) bare ``w``/``h`` arrays.
#:   2 — adds the ``format_version`` marker itself.
#: Files without a marker load as version 1; an unknown version raises
#: :class:`~repro.errors.DataError` naming what was found.
FORMAT_VERSION = 2

_READABLE_VERSIONS = (1, 2)


class CompletionModel:
    """A completed rating matrix backed by trained factors.

    Parameters
    ----------
    factors:
        Trained (W, H) pair, e.g. ``NomadSimulation(...).factors`` after a
        run, or ``ThreadedNomad(train, test, n_workers, hyper,
        run).run().factors``.

    Examples
    --------
    >>> import numpy as np
    >>> w = np.array([[1.0, 0.0], [0.0, 1.0]])
    >>> h = np.array([[2.0, 0.0], [0.0, 3.0], [1.0, 1.0]])
    >>> model = CompletionModel(FactorPair(w, h))
    >>> model.predict_one(0, 0)
    2.0
    >>> model.recommend(0, top_n=2)
    [(0, 2.0), (2, 1.0)]
    """

    def __init__(self, factors: FactorPair):
        self.factors = factors

    @property
    def n_users(self) -> int:
        """Number of users the model covers."""
        return self.factors.n_rows

    @property
    def n_items(self) -> int:
        """Number of items the model covers."""
        return self.factors.n_cols

    @property
    def k(self) -> int:
        """Latent dimension."""
        return self.factors.k

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def predict_one(self, user: int, item: int) -> float:
        """Predicted rating ``⟨w_user, h_item⟩`` for one cell."""
        self._check_user(user)
        self._check_item(item)
        return float(np.dot(self.factors.w[user], self.factors.h[item]))

    def predict_pairs(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Vectorized predictions for paired index arrays."""
        users = np.asarray(users, dtype=np.int64)
        items = np.asarray(items, dtype=np.int64)
        if users.shape != items.shape:
            raise ConfigError("users and items must have equal shapes")
        if users.size and (users.min() < 0 or users.max() >= self.n_users):
            raise ConfigError("user index out of range")
        if items.size and (items.min() < 0 or items.max() >= self.n_items):
            raise ConfigError("item index out of range")
        return predict(self.factors, users, items)

    def score_items(self, user: int) -> np.ndarray:
        """Predicted rating of every item for one user (length n_items)."""
        self._check_user(user)
        return self.factors.h @ self.factors.w[user]

    def recommend(
        self,
        user: int,
        top_n: int = 10,
        exclude: np.ndarray | None = None,
    ) -> list[tuple[int, float]]:
        """Top-N items for ``user`` by predicted rating.

        Parameters
        ----------
        user:
            User index.
        top_n:
            Number of recommendations (>= 1).  Values beyond ``n_items``
            are clamped: the result can never exceed the catalog.
        exclude:
            Item indices to mask out — typically the user's already-rated
            items (pass ``train.items_of_user(user)[0]``).

        Returns
        -------
        list of ``(item, score)`` pairs, best first.  Excluded items are
        never returned, so the list holds ``min(top_n, n_items -
        len(exclude))`` entries; excluding *every* item yields ``[]``
        (an empty list, not an error — "nothing left to recommend" is a
        valid answer, and callers wanting to treat it as exceptional can
        test the length).
        """
        if top_n < 1:
            raise ConfigError(f"top_n must be >= 1, got {top_n}")
        return top_items(self.score_items(user), top_n, exclude)

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def rmse(self, ratings: RatingMatrix) -> float:
        """Root-mean-square error against observed ratings."""
        if ratings.shape != (self.n_users, self.n_items):
            raise ConfigError(
                f"rating matrix shape {ratings.shape} does not match model "
                f"({self.n_users}, {self.n_items})"
            )
        return test_rmse(self.factors, ratings)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: PathLike) -> None:
        """Write the factors to ``path`` in compressed npz form.

        The file carries a ``format_version`` key (currently
        :data:`FORMAT_VERSION`) so future layout changes can be detected
        on load instead of failing obscurely downstream.
        """
        np.savez_compressed(
            path,
            w=self.factors.w,
            h=self.factors.h,
            format_version=np.int64(FORMAT_VERSION),
        )

    @classmethod
    def load(cls, path: PathLike) -> "CompletionModel":
        """Load a model previously written by :meth:`save`.

        Legacy files (written before versioning existed, carrying no
        ``format_version`` key) are accepted as version 1.  A file whose
        version this build cannot read raises
        :class:`~repro.errors.DataError` naming the found version.
        """
        with np.load(path) as payload:
            if "format_version" in payload:
                version = int(payload["format_version"])
            else:
                version = 1
            if version not in _READABLE_VERSIONS:
                raise DataError(
                    f"{path}: unsupported model format_version {version}; "
                    f"this build reads versions {list(_READABLE_VERSIONS)}"
                )
            missing = [key for key in _NPZ_KEYS if key not in payload]
            if missing:
                raise DataError(f"{path}: missing npz keys {missing}")
            return cls(FactorPair(payload["w"], payload["h"]))

    # ------------------------------------------------------------------
    def _check_user(self, user: int) -> None:
        if not 0 <= user < self.n_users:
            raise ConfigError(f"user {user} out of range [0, {self.n_users})")

    def _check_item(self, item: int) -> None:
        if not 0 <= item < self.n_items:
            raise ConfigError(f"item {item} out of range [0, {self.n_items})")

    def __repr__(self) -> str:
        return (
            f"CompletionModel(users={self.n_users}, items={self.n_items}, "
            f"k={self.k})"
        )
