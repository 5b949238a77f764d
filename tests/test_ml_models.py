"""Tests for the autoencoder, LSTM and MLP models."""

import copy

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import given, settings, strategies as st

from repro.ml.autoencoder import Autoencoder
from repro.ml.lstm import LSTMRegressor
from repro.ml.mlp import MLPClassifier
from repro.utils.rng import SeededRNG

from tests.conftest import scaled_examples
from tests.kitsune_oracle import ae_score, ae_train_score
from tests.lstm_oracle import (
    predict_window as oracle_predict_window,
    train_window as oracle_train_window,
)


class TestAutoencoder:
    def test_rejects_bad_dim(self):
        with pytest.raises(ValueError):
            Autoencoder(0, rng=SeededRNG(1))

    def test_hidden_dim_ratio(self):
        ae = Autoencoder(10, hidden_ratio=0.5, rng=SeededRNG(1))
        assert ae.hidden_dim == 5

    def test_training_reduces_reconstruction_error(self):
        rng = SeededRNG(2)
        ae = Autoencoder(6, rng=rng.child("ae"))
        data = rng.uniform(0.3, 0.7, size=(500, 6))
        early = np.mean([ae_train_score(ae, row) for row in data[:50]])
        for row in data[50:]:
            ae_train_score(ae, row)
        late = ae.score_batch(data[:50]).mean()
        assert late < early

    def test_anomaly_scores_higher_than_normal(self):
        rng = SeededRNG(3)
        ae = Autoencoder(8, rng=rng.child("ae"))
        for _ in range(400):
            ae_train_score(ae, rng.uniform(0.45, 0.55, size=8))
        normal, anomaly = ae.score_batch(
            np.vstack([rng.uniform(0.45, 0.55, size=8), np.zeros(8)])
        )
        assert anomaly > 2 * normal

    def test_score_does_not_train(self):
        rng = SeededRNG(4)
        ae = Autoencoder(4, rng=rng.child("ae"))
        rows = rng.uniform(size=(1, 4))
        before = ae.score_batch(rows)
        for _ in range(10):
            ae.score_batch(rows)
        assert np.array_equal(ae.score_batch(rows), before)
        assert ae.samples_trained == 0

    def test_score_batch_matches_score(self):
        rng = SeededRNG(5)
        ae = Autoencoder(4, rng=rng.child("ae"))
        rows = rng.uniform(size=(3, 4))
        batch = ae.score_batch(rows)
        singles = [ae_score(ae, row) for row in rows]
        assert np.array_equal(batch, singles)


class TestLSTM:
    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            LSTMRegressor(input_dim=0, rng=SeededRNG(1))

    def test_learns_constant_series(self):
        lstm = LSTMRegressor(hidden_dim=8, rng=SeededRNG(6))
        series = np.full(200, 0.7)
        errors = lstm.train_windows(
            sliding_window_view(series[:-1], 8), series[8:]
        )
        assert np.mean(errors[-30:]) < np.mean(errors[:30])
        (value,) = lstm.predict_windows(series[None, :8])
        assert value == pytest.approx(0.7, abs=0.15)

    def test_learns_periodic_series(self):
        lstm = LSTMRegressor(hidden_dim=12, learning_rate=0.05,
                             rng=SeededRNG(7))
        t = np.arange(600) * 0.4
        series = 0.5 + 0.3 * np.sin(t)
        errors = lstm.train_windows(
            sliding_window_view(series[:-1], 10), series[10:]
        )
        assert np.mean(errors[-50:]) < 0.5 * np.mean(errors[:50])

    def test_window_shape_validation(self):
        lstm = LSTMRegressor(input_dim=2, rng=SeededRNG(8))
        with pytest.raises(ValueError, match="windows shape"):
            lstm.predict_windows(np.zeros((1, 5, 3)))

    def test_1d_window_accepted(self):
        """A window without a feature axis (an ``(N, T)`` stack) is
        read as ``input_dim == 1``."""
        lstm = LSTMRegressor(rng=SeededRNG(9))
        (value,) = lstm.predict_windows(np.zeros((1, 5)))
        assert np.isfinite(value)


class TestLSTMPredictWindows:
    """``predict_windows`` is bit-identical to a loop of the per-window
    reference ``predict_window`` (``tests/lstm_oracle.py``)."""

    @staticmethod
    def _lstm(input_dim, seed, train_steps):
        lstm = LSTMRegressor(input_dim=input_dim, hidden_dim=16,
                             rng=SeededRNG(seed))
        rng = np.random.default_rng(seed)
        for _ in range(train_steps):
            oracle_train_window(lstm, rng.random((10, input_dim)),
                                rng.random())
        return lstm

    @pytest.mark.parametrize("train_steps", [0, 25])
    @pytest.mark.parametrize("input_dim", [1, 3])
    @pytest.mark.parametrize("steps", [2, 12, 20])
    @pytest.mark.parametrize("n", [0, 1, 5, 300])
    def test_matches_per_window_loop(self, n, steps, input_dim,
                                     train_steps):
        lstm = self._lstm(input_dim, seed=steps * 10 + input_dim,
                          train_steps=train_steps)
        rng = np.random.default_rng(n)
        windows = rng.uniform(-1.0, 2.0, size=(n, steps, input_dim))
        if input_dim == 1:
            windows = windows[:, :, 0]  # the (N, T) form
        batched = lstm.predict_windows(windows)
        looped = np.array(
            [oracle_predict_window(lstm, w) for w in windows],
            dtype=np.float64,
        )
        assert batched.shape == (n,)
        assert batched.tobytes() == looped.tobytes()

    def test_rejects_wrong_feature_dim(self):
        lstm = LSTMRegressor(input_dim=2, rng=SeededRNG(8))
        with pytest.raises(ValueError, match="windows shape"):
            lstm.predict_windows(np.zeros((4, 5, 3)))
        with pytest.raises(ValueError, match="windows shape"):
            lstm.predict_windows(np.zeros((4, 5)))  # implies d=1
        with pytest.raises(ValueError, match="windows shape"):
            lstm.predict_windows(np.zeros(5))


def _assert_same_lstm(got, want):
    for gate in ("i", "f", "o", "g"):
        assert got.w[gate].tobytes() == want.w[gate].tobytes(), gate
        assert got.b[gate].tobytes() == want.b[gate].tobytes(), gate
    assert got.w_head.tobytes() == want.w_head.tobytes()
    assert type(got.b_head) is float
    assert np.float64(got.b_head).tobytes() == (
        np.float64(want.b_head).tobytes()
    )


@st.composite
def _training_run(draw):
    """An LSTM, N windows and N targets for one training run. Large
    rates saturate the +-1 gradient clip; targets reach outside [0, 1];
    some runs use all-zero windows."""
    input_dim = draw(st.sampled_from((1, 3)))
    hidden_dim = draw(st.integers(1, 32))
    steps = draw(st.integers(2, 16))
    n = draw(st.integers(1, 6))
    learning_rate = draw(st.sampled_from((0.001, 0.03, 0.5, 5.0, 40.0)))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        windows = rng.uniform(-2.0, 3.0, size=(n, steps, input_dim))
    else:
        windows = np.zeros((n, steps, input_dim))
    targets = rng.uniform(-2.0, 3.0, size=n)
    lstm = LSTMRegressor(input_dim=input_dim, hidden_dim=hidden_dim,
                         learning_rate=learning_rate, rng=SeededRNG(seed))
    return lstm, windows, targets


class TestLSTMTrainWindows:
    """``train_windows`` is bit-identical to a loop of the per-step
    reference ``train_window`` (``tests/lstm_oracle.py``)."""

    @settings(max_examples=scaled_examples(60), deadline=None)
    @given(run=_training_run())
    def test_matches_oracle_loop(self, run):
        lstm, windows, targets = run
        reference = copy.deepcopy(lstm)
        expected = np.array([
            oracle_train_window(reference, window, target)
            for window, target in zip(windows, targets)
        ], dtype=np.float64)
        errors = lstm.train_windows(windows, targets)
        assert errors.tobytes() == expected.tobytes()
        _assert_same_lstm(lstm, reference)

    @settings(max_examples=scaled_examples(30), deadline=None)
    @given(run=_training_run(), data=st.data())
    def test_consecutive_calls_equal_one_call(self, run, data):
        lstm, windows, targets = run
        split = data.draw(st.integers(0, len(windows)))
        whole = copy.deepcopy(lstm)
        expected = whole.train_windows(windows, targets)
        first = lstm.train_windows(windows[:split], targets[:split])
        second = lstm.train_windows(windows[split:], targets[split:])
        assert np.concatenate([first, second]).tobytes() == (
            expected.tobytes()
        )
        _assert_same_lstm(lstm, whole)

    def test_rejects_bad_shapes(self):
        lstm = LSTMRegressor(input_dim=2, rng=SeededRNG(8))
        with pytest.raises(ValueError, match="windows shape"):
            lstm.train_windows(np.zeros((4, 5, 3)), np.zeros(4))
        with pytest.raises(ValueError, match="targets"):
            lstm.train_windows(np.zeros((4, 5, 2)), np.zeros(3))


class TestMLP:
    def _blobs(self, rng, n=200, d=6, gap=3.0):
        x = np.vstack([rng.normal(0, 1, (n, d)), rng.normal(gap, 1, (n, d))])
        y = np.array([0] * n + [1] * n)
        return x, y

    def test_rejects_bad_architecture(self):
        with pytest.raises(ValueError):
            MLPClassifier(0, rng=SeededRNG(1))
        with pytest.raises(ValueError):
            MLPClassifier(4, hidden_dims=(), rng=SeededRNG(1))

    def test_learns_separable_blobs(self):
        rng = SeededRNG(10)
        x, y = self._blobs(rng.child("data"))
        clf = MLPClassifier(6, (16, 12, 8), rng=rng.child("model"))
        clf.fit(x, y, epochs=10, rng=rng.child("fit"))
        assert (clf.predict(x) == y).mean() > 0.95

    def test_proba_in_unit_interval(self):
        rng = SeededRNG(11)
        x, y = self._blobs(rng.child("data"), n=50)
        clf = MLPClassifier(6, (8,), rng=rng.child("model"))
        clf.fit(x, y, epochs=2, rng=rng.child("fit"))
        proba = clf.predict_proba(x)
        assert np.all((proba >= 0) & (proba <= 1))

    def test_loss_decreases(self):
        rng = SeededRNG(12)
        x, y = self._blobs(rng.child("data"), n=100)
        clf = MLPClassifier(6, (8, 8), rng=rng.child("model"))
        clf.fit(x, y, epochs=8, rng=rng.child("fit"))
        assert clf.loss_history[-1] < clf.loss_history[0]

    def test_fit_validates_shapes(self):
        clf = MLPClassifier(4, (4,), rng=SeededRNG(13))
        with pytest.raises(ValueError):
            clf.fit(np.zeros((3, 4)), np.zeros(2), rng=SeededRNG(14))
        with pytest.raises(ValueError):
            clf.fit(np.zeros((0, 4)), np.zeros(0), rng=SeededRNG(15))

    def test_majority_collapse_on_uninformative_features(self):
        """With constant features and an 80%-attack labelling, BCE's
        minimum is the base rate — predictions are all-positive at the
        0.5 boundary. This is the DNN failure mode from the paper."""
        rng = SeededRNG(16)
        x = np.ones((300, 5))
        y = (rng.random(300) < 0.8).astype(int)
        clf = MLPClassifier(5, (8, 8), rng=rng.child("model"))
        clf.fit(x, y, epochs=20, rng=rng.child("fit"))
        assert clf.predict(x).mean() == 1.0
