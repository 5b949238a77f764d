"""Reference LSTM and HELAD loops: one time step, window or packet at
a time.

These are the straightforward forms of what
:class:`repro.ml.lstm.LSTMRegressor` and :class:`repro.ids.helad.HELAD`
ship as stacked array code. :func:`step` is one LSTM time step;
:func:`predict_window` runs it over one window; :func:`train_window`
backpropagates one window gate by gate, with one ``np.outer`` and one
``+=`` per gate and step (~40 small ufunc calls per time step);
:func:`helad_fit` and :func:`helad_scores` train and score HELAD one
packet at a time. The shipped code runs ``predict_windows``,
``train_windows``, ``HELAD.fit`` and ``HELAD.score_batch`` instead;
these functions stay only as the oracles they are checked against
(``tests/test_ml_models.py``, ``tests/test_ids_helad_dnn.py``,
``tests/test_ml_batched.py`` and ``benchmarks/bench_helad_batch.py``).
"""

from __future__ import annotations

import pickle

import numpy as np

from repro.ml.activations import _sigmoid
from repro.ml.lstm import LSTMRegressor

from tests.kitsune_oracle import (
    ae_score,
    ae_train_score,
    scaler_fit_transform,
    scaler_transform,
)


def _shape(lstm: LSTMRegressor, window: np.ndarray) -> np.ndarray:
    """One ``(T,)`` or ``(T, d)`` window as a float ``(T, d)``."""
    window = np.asarray(window, dtype=np.float64)
    if window.ndim == 1:
        window = window[:, None]
    if window.shape[1] != lstm.input_dim:
        raise ValueError(
            f"window feature dim {window.shape[1]} != {lstm.input_dim}"
        )
    return window


def step(lstm: LSTMRegressor, x, h, c):
    """One LSTM time step; returns ``h``, ``c`` and the backward cache."""
    z = np.concatenate([x, h])
    i = _sigmoid(z @ lstm.w["i"] + lstm.b["i"])
    f = _sigmoid(z @ lstm.w["f"] + lstm.b["f"])
    o = _sigmoid(z @ lstm.w["o"] + lstm.b["o"])
    g = np.tanh(z @ lstm.w["g"] + lstm.b["g"])
    c_new = f * c + i * g
    h_new = o * np.tanh(c_new)
    return h_new, c_new, (z, i, f, o, g, c, c_new, h_new)


def predict_window(lstm: LSTMRegressor, window: np.ndarray) -> float:
    """Predict the value following one window (shape (T,) or (T, d))."""
    h = np.zeros(lstm.hidden_dim)
    c = np.zeros(lstm.hidden_dim)
    for x in _shape(lstm, window):
        h, c, _ = step(lstm, x, h, c)
    return float(h @ lstm.w_head + lstm.b_head)


def train_window(lstm: LSTMRegressor, window: np.ndarray, target: float) -> float:
    """One BPTT step on (window -> target); returns squared error."""
    h = np.zeros(lstm.hidden_dim)
    c = np.zeros(lstm.hidden_dim)
    caches = []
    for x in _shape(lstm, window):
        h, c, cache = step(lstm, x, h, c)
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
    online scaler step and one autoencoder SGD step per packet
    (``tests/kitsune_oracle.py``), then one :func:`train_window` per
    LSTM window."""
    if len(packets) == 0:
        raise ValueError("HELAD.fit needs at least one training packet")
    rmses: list[float] = []
    for packet in packets:
        features = ids.netstat.update(packet)
        scaled = scaler_fit_transform(ids.scaler, features)
        rmses.append(ae_train_score(ids.autoencoder, scaled))
    ids.scaler.freeze()
    series = np.asarray(rmses, dtype=np.float64)
    ids._ae_scale = max(float(np.quantile(series, 0.98)), 1e-9)
    squashed = ids._squash(series)
    start = max(ids.window, squashed.size // 2)
    for i in range(start, squashed.size):
        train_window(ids.lstm, squashed[i - ids.window : i], squashed[i])
    ids._score_history = list(squashed[-ids.window :])
    ids.trained = True


def helad_scores(ids, packets) -> np.ndarray:
    """``HELAD.score_batch`` as a per-packet loop: one ``NetStat.update``,
    one scaler transform and one autoencoder score per packet, then
    the packet's blend of that amplitude with the LSTM's
    :func:`predict_window` over the amplitudes before it."""
    if not ids.trained:
        raise RuntimeError("HELAD scored before fit()")
    scores = np.empty(len(packets))
    history = list(ids._score_history)
    for idx, packet in enumerate(packets):
        scaled = scaler_transform(ids.scaler, ids.netstat.update(packet))
        ae_component = float(ids._squash(ae_score(ids.autoencoder, scaled)))
        if len(history) >= ids.window:
            predicted = predict_window(
                ids.lstm, np.asarray(history[-ids.window :])
            )
            lstm_component = float(np.clip(predicted, 0.0, 1.0))
        else:
            lstm_component = 0.0
        scores[idx] = (
            ids.blend * ae_component + (1.0 - ids.blend) * lstm_component
        )
        history.append(ae_component)
        if len(history) > 4 * ids.window:
            del history[: -2 * ids.window]
    ids._score_history = history[-ids.window :]
    return scores


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
