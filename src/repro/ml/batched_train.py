"""Stacked online training for an autoencoder ensemble.

:mod:`repro.ml.batched` made KitNET's *execute* phase a handful of
stacked einsum contractions; this module is its training counterpart.
:class:`OnlineEnsembleTrainer` packs the per-group weights into shape
buckets and keeps **the exact online trajectory**: rows are still
trained one at a time (SGD is sequential), but each row drives one
stacked forward/backward pass per bucket instead of one Python-level
SGD step per group. Scores, weights and ``samples_trained`` are
**bit-identical** to the per-row reference loop
(``tests/kitsune_oracle.py``); KitNET's ``process_batch`` and
``HELAD.fit`` train through it.

The trainer consumes rows scaled by
:meth:`~repro.features.normalize.OnlineMinMaxScaler.fit_transform_running`
(the vectorized, trajectory-exact online normalisation), so the input
scaler never re-serialises the batch.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.ml.autoencoder import Autoencoder

#: Most rows :class:`OnlineEnsembleTrainer` callers gather per pass, so
#: the stacked inputs stay the same size however long the grace is.
ROWS_PER_PASS = 1024


def _arena(shapes: Sequence[tuple[int, ...]]) -> tuple[np.ndarray, list]:
    """One flat float64 buffer and a C-ordered view of it per shape."""
    sizes = [int(np.prod(shape)) for shape in shapes]
    flat = np.empty(sum(sizes))
    views, offset = [], 0
    for shape, size in zip(shapes, sizes):
        views.append(flat[offset : offset + size].reshape(shape))
        offset += size
    return flat, views


class OnlineEnsembleTrainer:
    """Per-row online SGD over every group, stacked per shape bucket.

    Groups sharing an autoencoder shape form a bucket. For each row,
    every bucket takes one stacked ``np.matmul`` per contraction, and
    each slice of it runs the BLAS routine the 2-D ``x @ W`` call
    picks. (``np.einsum`` accumulates differently, so it is not used
    here.) All buckets' weights, biases and activations live in flat
    buffers with one view per bucket, so each elementwise step of a row
    is one ufunc call for the whole ensemble. Those steps are the ops
    of one autoencoder's online step (:meth:`DenseLayer.forward` and
    :meth:`DenseLayer.backward` through both layers, then
    :meth:`SGD.step`) in the same order, so RMSEs and weights are
    **bit-identical** to training each autoencoder on each row in turn.
    The wrapped autoencoders are stale until :meth:`sync`.
    """

    def __init__(
        self,
        ensemble: Sequence[Autoencoder],
        group_index: Sequence[np.ndarray],
    ) -> None:
        if len(ensemble) != len(group_index):
            raise ValueError(
                f"{len(ensemble)} autoencoders for {len(group_index)} groups"
            )
        rates = {ae.optimizer.learning_rate for ae in ensemble}
        if len(rates) != 1:
            raise ValueError(f"one learning rate expected, got {rates}")
        self.learning_rate = rates.pop()
        self._ensemble = list(ensemble)
        self._enc_act = ensemble[0].encoder.activation
        self._dec_act = ensemble[0].decoder.activation
        self.rows_trained = 0
        by_shape: dict[tuple[int, int], list[int]] = {}
        for position, autoencoder in enumerate(ensemble):
            shape = (autoencoder.dim, autoencoder.hidden_dim)
            by_shape.setdefault(shape, []).append(position)
        self._members = list(by_shape.values())
        dims = [(len(p), d, h) for (d, h), p in by_shape.items()]

        def arena(shape):
            return _arena([shape(b, d, h) for b, d, h in dims])

        #: Group positions in bucket order (the flat buffers' order).
        self._order = np.concatenate(self._members).astype(np.intp)
        self._gather = np.concatenate(
            [np.asarray(group_index[p], dtype=np.intp) for p in self._order]
        )
        # Live weights.
        self._enc_w, enc_w = arena(lambda b, d, h: (b, d, h))
        self._enc_b, enc_b = arena(lambda b, d, h: (b, 1, h))
        self._dec_w, dec_w = arena(lambda b, d, h: (b, h, d))
        self._dec_b, dec_b = arena(lambda b, d, h: (b, 1, d))
        self._weights = list(zip(enc_w, enc_b, dec_w, dec_b))
        for positions, (ew, eb, dw, db) in zip(self._members, self._weights):
            for lane, position in enumerate(positions):
                autoencoder = ensemble[position]
                ew[lane] = autoencoder.encoder.weights
                eb[lane, 0] = autoencoder.encoder.bias
                dw[lane] = autoencoder.decoder.weights
                db[lane, 0] = autoencoder.decoder.bias
        # Per-row scratch, one bucket view each.
        self._x, x = arena(lambda b, d, h: (b, 1, d))
        self._sq, sq = arena(lambda b, d, h: (b, 1, d))
        self._z_out, z_out = arena(lambda b, d, h: (b, 1, d))
        self._delta_dec, delta_dec = arena(lambda b, d, h: (b, 1, d))
        self._z_hidden, z_hidden = arena(lambda b, d, h: (b, 1, h))
        self._hidden, hidden = arena(lambda b, d, h: (b, 1, h))
        self._grad_hidden, grad_hidden = arena(lambda b, d, h: (b, 1, h))
        self._delta_enc, delta_enc = arena(lambda b, d, h: (b, 1, h))
        self._grad_enc_w, grad_enc_w = arena(lambda b, d, h: (b, d, h))
        self._grad_dec_w, grad_dec_w = arena(lambda b, d, h: (b, h, d))
        self._sums, sums = arena(lambda b, d, h: (b,))
        # The per-bucket contractions, as (left, right, out) triples.
        self._encode = list(zip(x, enc_w, z_hidden))
        self._decode = list(zip(hidden, dec_w, z_out))
        self._backprop = [
            (dd, w.transpose(0, 2, 1), gh)
            for dd, w, gh in zip(delta_dec, dec_w, grad_hidden)
        ]
        self._outer = [
            (h.transpose(0, 2, 1), dd, g)
            for h, dd, g in zip(hidden, delta_dec, grad_dec_w)
        ] + [
            (xb.transpose(0, 2, 1), de, g)
            for xb, de, g in zip(x, delta_enc, grad_enc_w)
        ]
        self._reduce = list(zip(sq, sums))
        # Each element's and each group's input width: the divisor of
        # the loss gradient and of the RMSE mean.
        self._width = np.concatenate(
            [np.full(b * d, float(d)) for b, d, h in dims]
        )
        self._group_width = np.concatenate(
            [np.full(b, float(d)) for b, d, h in dims]
        )

    def train_rows(self, scaled: np.ndarray) -> np.ndarray:
        """Train every group on ``scaled`` rows, in row order.

        ``scaled`` is ``(N, dim)``; returns the ``(N, n_groups)``
        pre-update RMSEs. Consecutive calls continue one trajectory.
        """
        inputs = np.asarray(scaled, dtype=np.float64)[:, self._gather]
        n = inputs.shape[0]
        rmses = np.empty((n, len(self._order)))
        lr = self.learning_rate
        enc_act, dec_act = self._enc_act, self._dec_act
        x, hidden, sums = self._x, self._hidden, self._sums
        delta_dec, delta_enc = self._delta_dec, self._delta_enc
        for r in range(n):
            # Copied into a C-ordered buffer: BLAS rounds strided
            # operands differently from the reference's contiguous row.
            x[:] = inputs[r]
            for left, right, out in self._encode:
                np.matmul(left, right, out=out)
            self._z_hidden += self._enc_b
            hidden[:] = enc_act.f(self._z_hidden)
            for left, right, out in self._decode:
                np.matmul(left, right, out=out)
            self._z_out += self._dec_b
            recon = dec_act.f(self._z_out)
            diff = recon - x
            # RMSE: np.mean is this add.reduce, then a divide by count.
            np.square(diff, out=self._sq)
            for squares, total in self._reduce:
                np.add.reduce(squares, axis=(1, 2), out=total)
            np.sqrt(sums / self._group_width, out=rmses[r])
            # Backward, then the SGD steps on the pre-update weights.
            np.multiply(
                2.0 * diff / self._width, dec_act.df(recon), out=delta_dec
            )
            for left, right, out in self._backprop:
                np.matmul(left, right, out=out)
            np.multiply(
                self._grad_hidden, enc_act.df(hidden), out=delta_enc
            )
            for left, right, out in self._outer:
                np.matmul(left, right, out=out)
            self._dec_w -= lr * self._grad_dec_w
            self._dec_b -= lr * delta_dec
            self._enc_w -= lr * self._grad_enc_w
            self._enc_b -= lr * delta_enc
        self.rows_trained += n
        ordered = np.empty_like(rmses)
        ordered[:, self._order] = rmses
        return ordered

    def sync(self) -> None:
        """Scatter the packed weights back into the ensemble objects."""
        for positions, (ew, eb, dw, db) in zip(self._members, self._weights):
            for lane, position in enumerate(positions):
                autoencoder = self._ensemble[position]
                autoencoder.encoder.weights = ew[lane].copy()
                autoencoder.encoder.bias = eb[lane, 0].copy()
                autoencoder.decoder.weights = dw[lane].copy()
                autoencoder.decoder.bias = db[lane, 0].copy()
                autoencoder.samples_trained += self.rows_trained
        self.rows_trained = 0
