"""A small autoencoder with online (single-instance) training.

This is the KitNET building block: a one-hidden-layer sigmoid
autoencoder trained by plain SGD one instance at a time, scoring inputs
by reconstruction RMSE. Inputs are expected in [0, 1] (Kitsune's
OnlineMinMaxScaler handles that upstream).
"""

from __future__ import annotations

import math

import numpy as np

from repro.ml.activations import sigmoid
from repro.ml.dense import DenseLayer
from repro.ml.optimizers import SGD
from repro.utils.rng import SeededRNG

_FLOAT64 = np.dtype(np.float64)


def _as_row(x: np.ndarray) -> np.ndarray:
    """``x`` as a (1, d) float64 matrix, without copying when possible.

    The per-packet scoring loops (KitNET's execute path feeds one
    feature-group slice per autoencoder per packet) hand in 1-D float64
    arrays; reshaping those to a row is a view. Anything else takes the
    general conversion path.
    """
    if type(x) is np.ndarray and x.ndim == 1 and x.dtype == _FLOAT64:
        return x.reshape(1, -1)
    return np.atleast_2d(np.asarray(x, dtype=np.float64))


class Autoencoder:
    """``d -> hidden -> d`` sigmoid autoencoder with RMSE scoring."""

    def __init__(
        self,
        dim: int,
        *,
        hidden_ratio: float = 0.75,
        learning_rate: float = 0.1,
        rng: SeededRNG,
    ) -> None:
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        hidden = max(1, int(math.ceil(dim * hidden_ratio)))
        self.dim = dim
        self.hidden_dim = hidden
        self.encoder = DenseLayer(dim, hidden, sigmoid, rng=rng.child("enc"))
        self.decoder = DenseLayer(hidden, dim, sigmoid, rng=rng.child("dec"))
        self.optimizer = SGD(learning_rate)
        self.samples_trained = 0

    def reconstruct(self, x: np.ndarray) -> np.ndarray:
        return self.decoder.forward(self.encoder.forward(x))

    def _score_forward(self, matrix: np.ndarray) -> np.ndarray:
        """Execute-phase forward pass over a ``(n, dim)`` matrix.

        Uses ``np.einsum`` rather than BLAS ``@``: einsum's accumulation
        order over the contracted axis depends only on that axis'
        length, so each row's reconstruction is bit-identical whether it
        is scored alone or inside a batch — the property the batched
        KitNET engine's parity contract rests on (see
        :mod:`repro.ml.batched`). GEMM kernels round differently as the
        batch dimension changes. Training keeps the BLAS path: its
        forward cache feeds backprop and has no batching counterpart.
        """
        matrix = np.ascontiguousarray(matrix)
        hidden = self.encoder.activation.f(
            np.einsum("ni,ih->nh", matrix, self.encoder.weights)
            + self.encoder.bias
        )
        return self.decoder.activation.f(
            np.einsum("nh,ho->no", hidden, self.decoder.weights)
            + self.decoder.bias
        )

    def score(self, x: np.ndarray) -> float:
        """Reconstruction RMSE of a single instance."""
        x = _as_row(x)
        reconstruction = self._score_forward(x)
        return float(np.sqrt(np.mean((reconstruction - x) ** 2)))

    def train_score(self, x: np.ndarray) -> float:
        """One online SGD step; returns the *pre-update* RMSE.

        Returning the pre-update score mirrors KitNET's execute-then-
        train semantics during its training phase.
        """
        x = _as_row(x)
        reconstruction = self.reconstruct(x)
        rmse = float(np.sqrt(np.mean((reconstruction - x) ** 2)))
        grad = 2.0 * (reconstruction - x) / x.size
        grad = self.decoder.backward(grad)
        self.encoder.backward(grad)
        self.optimizer.step(self.decoder.parameters())
        self.optimizer.step(self.encoder.parameters())
        self.samples_trained += 1
        return rmse

    def score_batch(self, matrix: np.ndarray) -> np.ndarray:
        """Row-wise RMSE for a matrix of instances (no training).

        Bit-identical to calling :meth:`score` on each row — the
        batched 2-D forward next to the 1-D fast path. Empty inputs
        (zero rows) score to an empty array instead of dying in a
        shape check downstream.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.size == 0:
            return np.empty(0)
        matrix = np.atleast_2d(matrix)
        reconstruction = self._score_forward(matrix)
        return np.sqrt(np.mean((reconstruction - matrix) ** 2, axis=1))
