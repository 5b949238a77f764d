"""A single-layer LSTM regressor with truncated BPTT, in numpy.

HELAD's temporal component: it learns to predict the next value of the
anomaly-score time series; large prediction error marks temporal
anomalies. Small hidden sizes (8-32) train comfortably without BLAS
acceleration.
"""

from __future__ import annotations

import numpy as np

from repro.ml.activations import _sigmoid as sigmoid_fn
from repro.utils.rng import SeededRNG


class LSTMRegressor:
    """LSTM + linear head, trained on sliding windows of a 1-D series."""

    def __init__(
        self,
        input_dim: int = 1,
        hidden_dim: int = 16,
        *,
        learning_rate: float = 0.05,
        rng: SeededRNG,
    ) -> None:
        if input_dim <= 0 or hidden_dim <= 0:
            raise ValueError("dimensions must be positive")
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.learning_rate = learning_rate
        concat = input_dim + hidden_dim
        scale = 1.0 / np.sqrt(concat)
        # Gate weight matrices: input, forget, output, candidate.
        self.w = {
            gate: rng.normal(0.0, scale, size=(concat, hidden_dim))
            for gate in ("i", "f", "o", "g")
        }
        self.b = {gate: np.zeros(hidden_dim) for gate in ("i", "f", "o", "g")}
        self.b["f"] += 1.0  # forget-gate bias trick: start remembering
        self.w_head = rng.normal(0.0, 1.0 / np.sqrt(hidden_dim), size=hidden_dim)
        self.b_head = 0.0

    # -- forward -------------------------------------------------------
    def _step(self, x, h, c):
        z = np.concatenate([x, h])
        i = sigmoid_fn(z @ self.w["i"] + self.b["i"])
        f = sigmoid_fn(z @ self.w["f"] + self.b["f"])
        o = sigmoid_fn(z @ self.w["o"] + self.b["o"])
        g = np.tanh(z @ self.w["g"] + self.b["g"])
        c_new = f * c + i * g
        h_new = o * np.tanh(c_new)
        return h_new, c_new, (z, i, f, o, g, c, c_new, h_new)

    def predict_window(self, window: np.ndarray) -> float:
        """Predict the value following ``window`` (shape (T,) or (T, d))."""
        window = self._shape(window)
        h = np.zeros(self.hidden_dim)
        c = np.zeros(self.hidden_dim)
        for x in window:
            h, c, _ = self._step(x, h, c)
        return float(h @ self.w_head + self.b_head)

    def predict_windows(self, windows: np.ndarray) -> np.ndarray:
        """:meth:`predict_window` over N windows at once (shape (N, T)
        or (N, T, d)); returns shape (N,), bit-identical per row.

        Each contraction is ``np.matmul`` on a stack of ``(1, k)``
        slices, so numpy runs the same per-slice product as the 1-D
        ``z @ W`` in :meth:`_step`; a 2-D GEMM or ``einsum`` sums in a
        different order and moves some results by an ulp.
        """
        windows = np.asarray(windows, dtype=np.float64)
        if windows.ndim == 2:
            windows = windows[:, :, None]
        if windows.ndim != 3 or windows.shape[2] != self.input_dim:
            raise ValueError(
                f"windows shape {windows.shape} is not (N, T, "
                f"{self.input_dim})"
            )
        n = windows.shape[0]
        h = np.zeros((n, self.hidden_dim))
        c = np.zeros((n, self.hidden_dim))

        def gate(z, name):
            return np.matmul(z, self.w[name])[:, 0, :] + self.b[name]

        for t in range(windows.shape[1]):
            z = np.concatenate([windows[:, t, :], h], axis=1)[:, None, :]
            i = sigmoid_fn(gate(z, "i"))
            f = sigmoid_fn(gate(z, "f"))
            o = sigmoid_fn(gate(z, "o"))
            g = np.tanh(gate(z, "g"))
            c = f * c + i * g
            h = o * np.tanh(c)
        return np.matmul(h[:, None, :], self.w_head[:, None])[:, 0, 0] + (
            self.b_head
        )

    def train_window(self, window: np.ndarray, target: float) -> float:
        """One BPTT step on (window -> target); returns squared error."""
        window = self._shape(window)
        h = np.zeros(self.hidden_dim)
        c = np.zeros(self.hidden_dim)
        caches = []
        for x in window:
            h, c, cache = self._step(x, h, c)
            caches.append(cache)
        prediction = float(h @ self.w_head + self.b_head)
        error = prediction - target

        grad_w = {gate: np.zeros_like(self.w[gate]) for gate in self.w}
        grad_b = {gate: np.zeros_like(self.b[gate]) for gate in self.b}
        grad_head_w = error * h
        grad_head_b = error

        dh = error * self.w_head
        dc = np.zeros(self.hidden_dim)
        for cache in reversed(caches):
            z, i, f, o, g, c_prev, c_new, _h_new = cache
            tanh_c = np.tanh(c_new)
            do = dh * tanh_c
            dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
            di = dc * g
            dg = dc * i
            df = dc * c_prev
            dc_prev = dc * f
            pre = {
                "i": di * i * (1 - i),
                "f": df * f * (1 - f),
                "o": do * o * (1 - o),
                "g": dg * (1 - g * g),
            }
            dz = np.zeros_like(z)
            for gate, delta in pre.items():
                grad_w[gate] += np.outer(z, delta)
                grad_b[gate] += delta
                dz += self.w[gate] @ delta
            dh = dz[self.input_dim:]
            dc = dc_prev

        clip = 1.0
        lr = self.learning_rate
        for gate in self.w:
            np.clip(grad_w[gate], -clip, clip, out=grad_w[gate])
            np.clip(grad_b[gate], -clip, clip, out=grad_b[gate])
            self.w[gate] -= lr * grad_w[gate]
            self.b[gate] -= lr * grad_b[gate]
        self.w_head -= lr * np.clip(grad_head_w, -clip, clip)
        self.b_head -= lr * float(np.clip(grad_head_b, -clip, clip))
        return error * error

    def _shape(self, window: np.ndarray) -> np.ndarray:
        window = np.asarray(window, dtype=np.float64)
        if window.ndim == 1:
            window = window[:, None]
        if window.shape[1] != self.input_dim:
            raise ValueError(
                f"window feature dim {window.shape[1]} != {self.input_dim}"
            )
        return window
