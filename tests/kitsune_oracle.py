"""Reference KitNET and Kitsune loops: one row or packet at a time.

``KitNET.process_batch`` folds feature-mapping rows inline, trains a
run of rows through the stacked online engine
(:mod:`repro.ml.batched_train`) and scores execute-phase rows through
the packed ensemble (:mod:`repro.ml.batched`). The functions here are
its straightforward per-row forms: :func:`kitnet_process` is one row
through the three phases, built from one autoencoder scored
(:func:`ae_score`) or trained (:func:`ae_train_score`) on one feature
group and one online min-max step (:func:`scaler_fit_transform`,
:func:`scaler_transform`); :func:`kitsune_scores` is one
``NetStat.update`` plus one :func:`kitnet_process` per packet. They
stay only as the oracles the shipped engines are checked against
(``tests/test_ml_batched.py``, ``tests/test_ml_batched_train.py``,
``tests/lstm_oracle.py`` and the ``bench_kitnet_*`` benches).
"""

from __future__ import annotations

import numpy as np


def scaler_transform(scaler, row: np.ndarray) -> np.ndarray:
    """One ``(dim,)`` row scaled into ``scaler``'s learned range."""
    span = scaler.max - scaler.min
    ok = np.isfinite(span) & (span > 0)
    out = np.zeros_like(row)
    out[ok] = (row[ok] - scaler.min[ok]) / span[ok]
    if scaler.clip:
        return np.clip(out, 0.0, 1.0)
    return out


def scaler_fit_transform(scaler, row: np.ndarray) -> np.ndarray:
    """Online training-phase scaling: fold ``row`` into the running
    extrema, then scale it against them."""
    scaler.partial_fit(row)
    return scaler_transform(scaler, row)


def ae_score(ae, x: np.ndarray) -> float:
    """Reconstruction RMSE of one instance, through the execute-phase
    einsum forward (no training)."""
    x = np.ascontiguousarray(x, dtype=np.float64).reshape(1, -1)
    hidden = ae.encoder.activation.f(
        np.einsum("ni,ih->nh", x, ae.encoder.weights) + ae.encoder.bias
    )
    reconstruction = ae.decoder.activation.f(
        np.einsum("nh,ho->no", hidden, ae.decoder.weights) + ae.decoder.bias
    )
    return float(np.sqrt(np.mean((reconstruction - x) ** 2)))


def ae_train_score(ae, x: np.ndarray) -> float:
    """One online SGD step on one instance; returns the *pre-update*
    RMSE (KitNET's execute-then-train semantics)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    reconstruction = ae.decoder.forward(ae.encoder.forward(x))
    rmse = float(np.sqrt(np.mean((reconstruction - x) ** 2)))
    grad = 2.0 * (reconstruction - x) / x.size
    grad = ae.decoder.backward(grad)
    ae.encoder.backward(grad)
    ae.optimizer.step(ae.decoder.parameters())
    ae.optimizer.step(ae.encoder.parameters())
    ae.samples_trained += 1
    return rmse


def kitnet_process(net, row: np.ndarray) -> float:
    """Feed one instance to ``net``; returns its anomaly score (0.0
    while the feature mapper is still collecting)."""
    row = np.asarray(row, dtype=np.float64)
    net.samples_seen += 1
    if net.samples_seen <= net.fm_grace:
        net.mapper.partial_fit(row)
        net.scaler.partial_fit(row)
        if net.samples_seen == net.fm_grace:
            net._build_ensemble()
        return 0.0
    if net.in_training:
        scaled = scaler_fit_transform(net.scaler, row)
        rmses = np.array([
            ae_train_score(ae, scaled[group])
            for ae, group in zip(net.ensemble, net._group_index)
        ])
        return ae_train_score(
            net.output_layer, scaler_fit_transform(net._output_scaler, rmses)
        )
    scaled = scaler_transform(net.scaler, row)
    rmses = np.array([
        ae_score(ae, scaled[group])
        for ae, group in zip(net.ensemble, net._group_index)
    ])
    return ae_score(
        net.output_layer, scaler_transform(net._output_scaler, rmses)
    )


def kitnet_scores(net, rows) -> np.ndarray:
    """One :func:`kitnet_process` per row."""
    return np.array([kitnet_process(net, row) for row in rows])


def kitsune_scores(ids, packets) -> np.ndarray:
    """One ``kitnet_process(NetStat.update(packet))`` per packet."""
    return np.array(
        [kitnet_process(ids.kitnet, ids.netstat.update(p)) for p in packets]
    )
