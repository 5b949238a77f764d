"""k-nearest-neighbours classifier over flow features."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.features.normalize import ZScoreScaler
from repro.flows.record import FlowRecord
from repro.ids.base import FlowIDS


class KNNIDS(FlowIDS):
    """Brute-force kNN; score is the attack fraction of the k nearest
    training points. Training sets are subsampled to ``max_train`` to
    bound the O(n*m) distance computation."""

    name = "kNN"
    supervised = True

    def __init__(self, *, k: int = 5, max_train: int = 4000, seed: int = 0) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = k
        self.max_train = max_train
        self.seed = seed
        self._x: np.ndarray | None = None
        self._y: np.ndarray | None = None
        self._scaler = ZScoreScaler()

    @classmethod
    def default_config(cls) -> dict:
        return {"k": 5, "max_train": 4000}

    def fit(
        self,
        flows: Sequence[FlowRecord],
        features: np.ndarray,
        labels: np.ndarray | None,
    ) -> None:
        if labels is None:
            raise ValueError("kNN requires labels")
        x = np.asarray(features, dtype=np.float64)
        y = np.asarray(labels).ravel().astype(int)
        if x.shape[0] > self.max_train:
            from repro.utils.rng import SeededRNG

            idx = SeededRNG(self.seed, "knn").permutation(x.shape[0])[: self.max_train]
            x, y = x[idx], y[idx]
        self._x = self._scaler.fit(x).transform(x)
        self._y = y

    def anomaly_scores(
        self, flows: Sequence[FlowRecord], features: np.ndarray
    ) -> np.ndarray:
        if self._x is None or self._y is None:
            raise RuntimeError("kNN used before fit()")
        x = self._scaler.transform(np.atleast_2d(np.asarray(features, dtype=np.float64)))
        k = min(self.k, self._x.shape[0])
        scores = np.empty(x.shape[0])
        # Chunked distance computation keeps memory bounded.
        chunk = 512
        for start in range(0, x.shape[0], chunk):
            block = x[start : start + chunk]
            d2 = ((block[:, None, :] - self._x[None, :, :]) ** 2).sum(axis=2)
            nearest = np.argpartition(d2, k - 1, axis=1)[:, :k]
            scores[start : start + chunk] = self._y[nearest].mean(axis=1)
        return scores
