"""A small autoencoder with online (single-instance) training.

This is the KitNET building block: a one-hidden-layer sigmoid
autoencoder trained by plain SGD one instance at a time
(:mod:`repro.ml.batched_train` runs the steps), scoring inputs by
reconstruction RMSE. Inputs are expected in [0, 1] (Kitsune's
OnlineMinMaxScaler handles that upstream).
"""

from __future__ import annotations

import math

import numpy as np

from repro.ml.activations import sigmoid
from repro.ml.dense import DenseLayer
from repro.ml.optimizers import SGD
from repro.utils.rng import SeededRNG


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

    def score_batch(self, matrix: np.ndarray) -> np.ndarray:
        """Row-wise reconstruction RMSE for a matrix of instances (no
        training). Empty inputs (zero rows) score to an empty array.

        The forward pass uses ``np.einsum`` rather than BLAS ``@``:
        einsum's accumulation order over the contracted axis depends
        only on that axis' length, so each row's score is bit-identical
        whether it is scored alone or inside a batch. GEMM kernels
        round differently as the batch dimension changes. Training
        (:mod:`repro.ml.batched_train`) keeps the BLAS path.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.size == 0:
            return np.empty(0)
        matrix = np.ascontiguousarray(np.atleast_2d(matrix))
        hidden = self.encoder.activation.f(
            np.einsum("ni,ih->nh", matrix, self.encoder.weights)
            + self.encoder.bias
        )
        reconstruction = self.decoder.activation.f(
            np.einsum("nh,ho->no", hidden, self.decoder.weights)
            + self.decoder.bias
        )
        return np.sqrt(np.mean((reconstruction - matrix) ** 2, axis=1))
