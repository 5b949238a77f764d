"""Logistic regression via full-batch gradient descent."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.features.normalize import ZScoreScaler
from repro.flows.record import FlowRecord
from repro.ids.base import FlowIDS


class LogisticRegressionIDS(FlowIDS):
    """L2-regularised logistic regression over flow features."""

    name = "LogisticRegression"
    supervised = True

    def __init__(
        self,
        *,
        learning_rate: float = 0.1,
        iterations: int = 300,
        l2: float = 1e-4,
    ) -> None:
        self.learning_rate = learning_rate
        self.iterations = iterations
        self.l2 = l2
        self._weights: np.ndarray | None = None
        self._bias = 0.0
        self._scaler = ZScoreScaler()

    @classmethod
    def default_config(cls) -> dict:
        return {"learning_rate": 0.1, "iterations": 300, "l2": 1e-4}

    def fit(
        self,
        flows: Sequence[FlowRecord],
        features: np.ndarray,
        labels: np.ndarray | None,
    ) -> None:
        if labels is None:
            raise ValueError("LogisticRegression requires labels")
        x = np.asarray(features, dtype=np.float64)
        x = self._scaler.fit(x).transform(x)
        y = np.asarray(labels, dtype=np.float64).ravel()
        n, d = x.shape
        weights = np.zeros(d)
        bias = 0.0
        for _ in range(self.iterations):
            z = x @ weights + bias
            p = 1.0 / (1.0 + np.exp(-np.clip(z, -60, 60)))
            error = p - y
            weights -= self.learning_rate * (x.T @ error / n + self.l2 * weights)
            bias -= self.learning_rate * float(error.mean())
        self._weights = weights
        self._bias = bias

    def anomaly_scores(
        self, flows: Sequence[FlowRecord], features: np.ndarray
    ) -> np.ndarray:
        if self._weights is None:
            raise RuntimeError("LogisticRegression used before fit()")
        x = self._scaler.transform(np.asarray(features, dtype=np.float64))
        z = x @ self._weights + self._bias
        return 1.0 / (1.0 + np.exp(-np.clip(z, -60, 60)))
