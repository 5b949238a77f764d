"""A single-layer LSTM regressor with truncated BPTT, in numpy.

HELAD's temporal component: it learns to predict the next value of the
anomaly-score time series; large prediction error marks temporal
anomalies. Small hidden sizes (8-32) train comfortably without BLAS
acceleration.
"""

from __future__ import annotations

import numpy as np

from repro.ml.activations import _sigmoid as sigmoid_fn
from repro.ml.batched_train import _arena
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

    def predict_windows(self, windows: np.ndarray) -> np.ndarray:
        """Predict the value following each of N windows (shape (N, T)
        or (N, T, d)); returns shape (N,), bit-identical per row to the
        per-step forward pass in ``tests/lstm_oracle.py``.

        Each contraction is ``np.matmul`` on a stack of ``(1, k)``
        slices, so numpy runs the same per-slice product as that
        reference's 1-D ``z @ W``; a 2-D GEMM or ``einsum`` sums in a
        different order and moves some results by an ulp.
        """
        windows = self._shape_windows(windows)
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

    def train_windows(self, windows: np.ndarray, targets) -> np.ndarray:
        """Sequential BPTT/SGD over N windows (shape (N, T) or
        (N, T, d)) against ``targets`` (shape (N,)); returns the N
        squared errors, each taken before its window's update.

        Bit-identical to a loop of the per-step BPTT reference
        (``tests/lstm_oracle.py``). The gates, biases and head live in
        one flat arena with a same-layout gradient arena, so clipping
        and the SGD step are one ufunc each. A forward step is one
        stacked ``np.matmul`` whose ``(1, k) @ (k, h)`` slices run the
        GEMV of the 1-D ``z @ W[gate]`` (a fused ``(k, 4h)`` GEMM may
        round differently). A backward step forms all four deltas as
        ``(A * M[t]) * Q[t] * OM[t]``, the reference's
        ``(d * gate) * (1 - gate)`` order, from factors hoisted out of
        the time loop. The ``z ⊗ δ`` outer products are summed after
        the loop, in the reference's backward-time order from ``+0.0``.
        The trained parameters are copied back into ``w``, ``b``,
        ``w_head`` and ``b_head`` before returning.
        """
        windows = self._shape_windows(windows)
        targets = np.asarray(targets, dtype=np.float64)
        if targets.shape != windows.shape[:1]:
            raise ValueError(
                f"{targets.size} targets for {windows.shape[0]} windows"
            )
        n, steps, d = windows.shape
        hd = self.hidden_dim
        k = d + hd
        gates = ("i", "f", "o", "g")
        shapes = [(4, k, hd), (4, hd), (hd,), (1,)]
        params, (w, b, w_head, b_head) = _arena(shapes)
        grads, (grad_w, grad_b, grad_head_w, grad_head_b) = _arena(shapes)
        for row, gate in enumerate(gates):
            w[row] = self.w[gate]
            b[row] = self.b[gate]
        w_head[:] = self.w_head
        b_head[0] = self.b_head
        b_col = b[:, None, :]
        lr = self.learning_rate

        # Buffers reused by every window, and per-step views of them.
        # Row t of ``z`` is z_t = [x_t, h_{t-1}]: h_t lands in row t + 1
        # (row 0 keeps h_{-1} = 0), and c_t in row t + 1 of ``c``.
        z = np.zeros((steps + 1, k))
        c = np.zeros((steps + 1, hd))
        q = np.ones((steps, 4, hd))     # Q[t]: i, f, o, 1.0
        m = np.empty((steps, 4, hd))    # M[t]: g, c_{t-1}, tanh c_t, i
        om = np.empty((steps, 4, hd))   # OM[t]: 1-i, 1-f, 1-o, 1-g*g
        d_tanh = np.empty((steps, hd))  # 1 - tanh(c_t)^2
        deltas = np.empty((steps, 4, hd))  # backward-time order
        z_back = z[:steps][::-1]
        outer = np.empty((steps, 4, k, hd))  # z_t ⊗ δ_t, backward time
        pre = np.empty((4, 1, hd))
        back = np.empty((4, k, 1))
        dz = np.empty(k)
        dh0 = np.empty(hd)
        dc = np.empty(hd)
        scratch = np.empty(hd)
        h = z[steps, d:]
        dh_next = dz[d:]
        forward = [
            (z[t][None, None, :], q[t, :3], q[t, 0], q[t, 1], q[t, 2],
             m[t, 0], c[t], c[t + 1], m[t, 2], z[t + 1, d:])
            for t in range(steps)
        ]
        backward = [
            (q[t, 1], q[t, 2], d_tanh[t], m[t], m[t, 2], q[t], om[t],
             deltas[steps - 1 - t], deltas[steps - 1 - t, 2],
             deltas[steps - 1 - t][:, :, None])
            for t in range(steps - 1, -1, -1)
        ]
        errors = np.empty(n)
        for s in range(n):
            z[:steps, :d] = windows[s]
            for z_t, ifo, i, f, o, g, c_prev, c_t, tanh_c, h_t in forward:
                np.matmul(z_t, w, out=pre)
                pre += b_col
                ifo[:] = sigmoid_fn(pre[:3, 0])
                np.tanh(pre[3, 0], out=g)
                np.multiply(f, c_prev, out=c_t)
                c_t += i * g
                np.tanh(c_t, out=tanh_c)
                np.multiply(o, tanh_c, out=h_t)
            error = float(h @ w_head + b_head[0]) - targets[s]
            errors[s] = error * error

            # Recurrence-free factors, once per window.
            m[:, 1] = c[:steps]
            m[:, 3] = q[:, 0]
            np.subtract(1, q, out=om)
            np.multiply(m[:, 0], m[:, 0], out=om[:, 3])
            np.subtract(1, om[:, 3], out=om[:, 3])
            np.multiply(m[:, 2], m[:, 2], out=d_tanh)
            np.subtract(1.0, d_tanh, out=d_tanh)

            np.multiply(error, w_head, out=dh0)
            dh = dh0
            dc.fill(0.0)
            for (f, o, d_tanh_t, m_t, tanh_c, q_t, om_t,
                 delta, delta_o, delta_col) in backward:
                np.multiply(dh, o, out=scratch)
                scratch *= d_tanh_t
                dc += scratch
                # A = [dc, dc, dh, dc]: dc everywhere, then the o row.
                np.multiply(dc, m_t, out=delta)
                np.multiply(dh, tanh_c, out=delta_o)
                delta *= q_t
                delta *= om_t
                np.matmul(w, delta_col, out=back)
                np.add.reduce(back[:, :, 0], axis=0, initial=0.0, out=dz)
                dh = dh_next
                dc *= f

            # ``outer`` is C-ordered with backward time on axis 0, so the
            # reduce adds the products in the reference's order.
            np.multiply(
                z_back[:, None, :, None], deltas[:, :, None, :], out=outer
            )
            np.add.reduce(outer, axis=0, initial=0.0, out=grad_w)
            np.add.reduce(deltas, axis=0, initial=0.0, out=grad_b)
            np.multiply(error, h, out=grad_head_w)
            grad_head_b[0] = error
            np.clip(grads, -1.0, 1.0, out=grads)
            grads *= lr
            params -= grads
        for row, gate in enumerate(gates):
            self.w[gate] = w[row].copy()
            self.b[gate] = b[row].copy()
        self.w_head = w_head.copy()
        self.b_head = float(b_head[0])
        return errors

    def _shape_windows(self, windows: np.ndarray) -> np.ndarray:
        """``(N, T)`` or ``(N, T, d)`` windows as a float ``(N, T, d)``."""
        windows = np.asarray(windows, dtype=np.float64)
        if windows.ndim == 2:
            windows = windows[:, :, None]
        if windows.ndim != 3 or windows.shape[2] != self.input_dim:
            raise ValueError(
                f"windows shape {windows.shape} is not (N, T, "
                f"{self.input_dim})"
            )
        return windows
