"""The HELAD packet anomaly detector."""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.features.netstat import NetStat
from repro.features.normalize import OnlineMinMaxScaler
from repro.ids.base import PacketIDS
from repro.ml.autoencoder import Autoencoder
from repro.ml.batched_train import ROWS_PER_PASS, OnlineEnsembleTrainer
from repro.ml.lstm import LSTMRegressor
from repro.net.packet import Packet
from repro.utils.rng import SeededRNG
from repro.utils.validation import check_fraction


class HELAD(PacketIDS):
    """Autoencoder + LSTM heterogeneous ensemble (Zhong et al. 2020).

    Training (on a presumed-benign stream):

    1. extract damped incremental features per packet;
    2. train the autoencoder online and record its RMSE series;
    3. train the LSTM to predict the next RMSE from a sliding window.

    Scoring: the autoencoder RMSE is scaled by its training-time 98th
    percentile and squashed with ``tanh`` (HELAD normalises anomaly
    scores into a bounded range), then blended with the LSTM's one-step
    *prediction* of that squashed series::

        score = blend * squash(ae) + (1 - blend) * lstm_prediction

    An isolated benign spike gets only the ``blend`` share of its
    amplitude (the LSTM, having seen a calm history, predicts calm),
    while a sustained attack drives both terms up. This temporal
    smoothing is the behavioural difference from Kitsune that shows up
    in the paper's Table IV: HELAD trades recall for precision on
    enterprise traffic and dominates on steady IoT profiles.
    """

    name = "HELAD"
    supervised = False

    def __init__(
        self,
        *,
        window: int = 12,
        hidden_dim: int = 16,
        blend: float = 0.6,
        hidden_ratio: float = 0.5,
        ae_learning_rate: float = 0.1,
        lstm_learning_rate: float = 0.03,
        decays: tuple[float, ...] = (5.0, 3.0, 1.0, 0.1, 0.01),
        seed: int = 0,
        netstat_engine: str = "vector",
    ) -> None:
        if window < 2:
            raise ValueError("window must be >= 2")
        self.window = window
        self.blend = check_fraction("blend", blend)
        # Bit-identical to the scalar AfterImage reference; a pure
        # throughput knob (see docs/PERFORMANCE.md).
        self.netstat = NetStat(decays, engine=netstat_engine)
        rng = SeededRNG(seed, "helad")
        # Unclipped AfterImage normalisation: post-training regime
        # shifts scale past [0, 1] and blow up reconstruction error.
        self.scaler = OnlineMinMaxScaler(self.netstat.feature_count, clip=False)
        self.autoencoder = Autoencoder(
            self.netstat.feature_count,
            hidden_ratio=hidden_ratio,
            learning_rate=ae_learning_rate,
            rng=rng.child("ae"),
        )
        self.lstm = LSTMRegressor(
            input_dim=1,
            hidden_dim=hidden_dim,
            learning_rate=lstm_learning_rate,
            rng=rng.child("lstm"),
        )
        self._score_history: list[float] = []
        self._ae_scale = 1e-9
        self.trained = False

    @classmethod
    def default_config(cls) -> dict:
        """Defaults from the HELAD paper's experiments (window ~ 10-20,
        LSTM hidden 16, blended score with AE-dominant weight)."""
        return {
            "window": 12,
            "hidden_dim": 16,
            "blend": 0.6,
            "hidden_ratio": 0.5,
            "ae_learning_rate": 0.1,
            "lstm_learning_rate": 0.03,
        }

    def _squash(self, ae_rmse):
        """Bounded anomaly amplitude: tanh of the scaled RMSE.

        The single definition of the squash, shared by ``score_batch``,
        ``fit`` and the per-packet test oracle — scalar in, scalar out;
        array in, elementwise array out (``np.tanh`` rounds a value
        identically either way, which the batched==per-packet parity
        contract relies on).
        """
        return np.tanh(ae_rmse / self._ae_scale / 2.0)

    def fit(self, packets: Sequence[Packet]) -> None:
        """Train both ensemble members on a presumed-benign stream.

        Raises ``ValueError`` on an empty stream: with no training
        scores there is no squash scale to normalise by.
        """
        if len(packets) == 0:
            raise ValueError("HELAD.fit needs at least one training packet")
        # The autoencoder half on KitNET's engines: batched features,
        # the running scaler trajectory and the one-lane stacked online
        # trainer, each bit-identical to the per-packet loop.
        features = self.netstat.update_batch(packets)
        trainer = OnlineEnsembleTrainer(
            [self.autoencoder], [np.arange(features.shape[1])]
        )
        series = np.empty(features.shape[0])
        for start in range(0, features.shape[0], ROWS_PER_PASS):
            scaled = self.scaler.fit_transform_running(
                features[start : start + ROWS_PER_PASS]
            )
            series[start : start + scaled.shape[0]] = trainer.train_rows(
                scaled
            )[:, 0]
        trainer.sync()
        self.scaler.freeze()
        self._ae_scale = max(float(np.quantile(series, 0.98)), 1e-9)
        # Train the LSTM to predict the squashed score series one step
        # ahead; only the second half of the series is used, after the
        # autoencoder's online training has mostly converged.
        squashed = self._squash(series)
        start = max(self.window, squashed.size // 2)
        if start < squashed.size:
            windows = sliding_window_view(squashed[:-1], self.window)
            self.lstm.train_windows(
                windows[start - self.window :], squashed[start:]
            )
        self._score_history = list(squashed[-self.window :])
        self.trained = True

    def score_batch(self, packets: Sequence[Packet]) -> np.ndarray:
        """Blended anomaly score per packet, bit-identical to the
        per-packet loop in ``tests/lstm_oracle.py``.

        The autoencoder stage runs over the whole micro-batch (one
        scaler transform, one 2-D forward, one vectorized squash).
        The LSTM reads the history of *autoencoder components*, never
        of blended scores, so every packet's window is known once that
        column is: one stacked :meth:`LSTMRegressor.predict_windows`
        call covers the batch, and the blend is one vectorized step.
        """
        if not self.trained:
            raise RuntimeError("HELAD.score_batch called before fit()")
        features = self.netstat.extract_all(packets)
        scaled = self.scaler.transform(features)
        ae_components = self._squash(self.autoencoder.score_batch(scaled))
        n_history = len(self._score_history)
        series = np.concatenate(
            [np.asarray(self._score_history, dtype=np.float64), ae_components]
        )
        # Packet j's window is series[n_history + j - window : n_history
        # + j]; packets whose history is still shorter than ``window``
        # keep an LSTM component of 0.
        first = min(max(self.window - n_history, 0), len(packets))
        lstm_components = np.zeros(len(packets))
        if first < len(packets):
            windows = sliding_window_view(series[:-1], self.window)
            predicted = self.lstm.predict_windows(
                windows[n_history + first - self.window :]
            )
            lstm_components[first:] = np.clip(predicted, 0.0, 1.0)
        scores = (
            self.blend * ae_components + (1.0 - self.blend) * lstm_components
        )
        self._score_history = series[-self.window :].tolist()
        return scores
