"""Reference LSTM training step: BPTT one time step at a time.

This is the straightforward form of
:meth:`repro.ml.lstm.LSTMRegressor.train_windows` for one window: it
runs :meth:`~repro.ml.lstm.LSTMRegressor._step` per time step, keeps a
cache per step, and backpropagates gate by gate with one ``np.outer``
and one ``+=`` per gate and step. It costs ~40 small ufunc calls per
time step, so the shipped regressor trains through the fused-gate
``train_windows`` instead; this function stays only as the oracle it is
checked against (``tests/test_ml_models.py``,
``tests/test_ids_helad_dnn.py`` and ``benchmarks/bench_helad_batch.py``).
"""

from __future__ import annotations

import pickle

import numpy as np

from repro.ml.lstm import LSTMRegressor


def train_window(lstm: LSTMRegressor, window: np.ndarray, target: float) -> float:
    """One BPTT step on (window -> target); returns squared error."""
    window = lstm._shape(window)
    h = np.zeros(lstm.hidden_dim)
    c = np.zeros(lstm.hidden_dim)
    caches = []
    for x in window:
        h, c, cache = lstm._step(x, h, c)
        caches.append(cache)
    prediction = float(h @ lstm.w_head + lstm.b_head)
    error = prediction - target

    grad_w = {gate: np.zeros_like(lstm.w[gate]) for gate in lstm.w}
    grad_b = {gate: np.zeros_like(lstm.b[gate]) for gate in lstm.b}
    grad_head_w = error * h
    grad_head_b = error

    dh = error * lstm.w_head
    dc = np.zeros(lstm.hidden_dim)
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
            dz += lstm.w[gate] @ delta
        dh = dz[lstm.input_dim:]
        dc = dc_prev

    clip = 1.0
    lr = lstm.learning_rate
    for gate in lstm.w:
        np.clip(grad_w[gate], -clip, clip, out=grad_w[gate])
        np.clip(grad_b[gate], -clip, clip, out=grad_b[gate])
        lstm.w[gate] -= lr * grad_w[gate]
        lstm.b[gate] -= lr * grad_b[gate]
    lstm.w_head -= lr * np.clip(grad_head_w, -clip, clip)
    lstm.b_head -= lr * float(np.clip(grad_head_b, -clip, clip))
    return error * error


def helad_fit(ids, packets) -> None:
    """``HELAD.fit`` as a per-packet loop: one ``NetStat.update``, one
    scaler ``fit_transform`` and one ``Autoencoder.train_score`` per
    packet, then one :func:`train_window` per LSTM window."""
    if len(packets) == 0:
        raise ValueError("HELAD.fit needs at least one training packet")
    rmses: list[float] = []
    for packet in packets:
        features = ids.netstat.update(packet)
        scaled = ids.scaler.fit_transform(features)
        rmses.append(ids.autoencoder.train_score(scaled))
    ids.scaler.freeze()
    series = np.asarray(rmses, dtype=np.float64)
    ids._ae_scale = max(float(np.quantile(series, 0.98)), 1e-9)
    squashed = ids._squash(series)
    start = max(ids.window, squashed.size // 2)
    for i in range(start, squashed.size):
        train_window(ids.lstm, squashed[i - ids.window : i], squashed[i])
    ids._score_history = list(squashed[-ids.window :])
    ids.trained = True


def lstm_state(lstm: LSTMRegressor) -> bytes:
    """Every trained LSTM parameter, as bytes."""
    return b"".join(
        [lstm.w[gate].tobytes() for gate in ("i", "f", "o", "g")]
        + [lstm.b[gate].tobytes() for gate in ("i", "f", "o", "g")]
        + [lstm.w_head.tobytes(), np.float64(lstm.b_head).tobytes()]
    )


def helad_state(ids) -> dict:
    """A fitted HELAD's trained state, field by field, as bytes (the
    NetStat database pickled)."""
    ae = ids.autoencoder
    return {
        "lstm": lstm_state(ids.lstm),
        "ae": b"".join(
            layer.tobytes()
            for layer in (ae.encoder.weights, ae.encoder.bias,
                          ae.decoder.weights, ae.decoder.bias)
        ),
        "ae_samples": ae.samples_trained,
        "scaler": ids.scaler.min.tobytes() + ids.scaler.max.tobytes(),
        "scaler_frozen": ids.scaler.frozen,
        "ae_scale": np.float64(ids._ae_scale).tobytes(),
        "history": np.asarray(ids._score_history, dtype=np.float64).tobytes(),
        "netstat": pickle.dumps(ids.netstat),
        "trained": ids.trained,
    }
