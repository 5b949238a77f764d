"""Tests for the HELAD and DNN IDSs."""

import copy

import numpy as np
import pytest

from repro.flows.assembler import FlowAssembler
from repro.ids.dnn import DNNClassifierIDS
from repro.ids.helad import HELAD

from tests.conftest import make_udp_packet
from tests.lstm_oracle import helad_fit, helad_scores, helad_state


class TestHELAD:
    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            HELAD(window=1)
        with pytest.raises(ValueError):
            HELAD(blend=1.5)

    def test_score_before_fit_raises(self):
        with pytest.raises(RuntimeError, match="before fit"):
            HELAD().score_batch([make_udp_packet(0.0)])

    def test_flags_sustained_flood(self):
        benign = [make_udp_packet(float(i) * 0.5, sport=5000,
                                  payload=b"x" * 64)
                  for i in range(600)]
        flood = [make_udp_packet(300.0 + i * 0.001, src="66.6.6.6",
                                 sport=1024 + i, dport=80,
                                 payload=b"z" * 512, label=1)
                 for i in range(300)]
        ids = HELAD(seed=0)
        ids.fit(benign[:500])
        assert ids.trained
        scores = ids.score_batch(benign[500:] + flood)
        benign_scores = scores[:100]
        flood_scores = scores[120:]  # skip the onset ramp
        assert np.median(flood_scores) > np.quantile(benign_scores, 0.95)

    def test_suppresses_isolated_benign_spike(self):
        """One burst packet after a calm history scores below the
        squash ceiling — the LSTM blend dampens singletons."""
        benign = [make_udp_packet(float(i) * 0.5, sport=5000,
                                  payload=b"x" * 64)
                  for i in range(500)]
        ids = HELAD(seed=1, blend=0.6)
        ids.fit(benign[:450])
        spike = make_udp_packet(226.0, src="9.9.9.9", sport=2000,
                                payload=b"q" * 1400)
        scores = ids.score_batch(benign[450:] + [spike])
        assert scores[-1] <= 0.6 * 1.0 + 0.4 * 1.0  # bounded by blend
        assert scores[-1] < 1.0

    def test_default_config(self):
        config = HELAD.default_config()
        assert "window" in config and "blend" in config

    def test_scores_length(self):
        packets = [make_udp_packet(float(i) * 0.1) for i in range(60)]
        ids = HELAD(seed=2, window=4)
        ids.fit(packets[:40])
        assert len(ids.score_batch(packets[40:])) == 20

    def test_fit_on_empty_stream_raises(self):
        ids = HELAD(seed=0)
        with pytest.raises(ValueError, match="at least one"):
            ids.fit([])
        assert not ids.trained
        with pytest.raises(RuntimeError, match="before fit"):
            ids.score_batch([make_udp_packet(0.0)])

    def test_zero_warmup_stream_raises(self):
        from repro.stream import (
            DatasetSource, build_streaming_detector, stream_capture,
        )

        detector = build_streaming_detector("helad", batch_size=64)
        with pytest.raises(ValueError, match="at least one"):
            stream_capture(
                DatasetSource("Mirai", seed=0, scale=0.02),
                detector,
                warmup_packets=0,
                threshold=0.5,
            )


def _varied_packets(n, start=0.0):
    """Packets whose sizes and endpoints vary, so AE scores differ."""
    return [
        make_udp_packet(start + i * 0.07, src=f"10.0.{i % 3}.{i % 5 + 1}",
                        sport=4000 + i % 11, dport=53 + i % 4,
                        payload=b"p" * (20 + (i * 37) % 900))
        for i in range(n)
    ]


class TestHELADFitParity:
    """``fit`` on the stacked engines leaves exactly the state of the
    per-packet reference fit (``tests/lstm_oracle.py``): LSTM, AE
    weights and ``samples_trained``, scaler, ``_ae_scale``,
    ``_score_history`` and the features of the packets that follow."""

    WINDOW = 12

    @staticmethod
    def _assert_same_fit(detector, packets, after):
        reference = copy.deepcopy(detector)
        helad_fit(reference, packets)
        detector.fit(packets)
        assert helad_state(detector) == helad_state(reference)
        assert detector.netstat.update_batch(after).tobytes() == (
            reference.netstat.update_batch(after).tobytes()
        )

    @pytest.mark.parametrize("dataset", ["BoT-IoT", "Stratosphere"])
    def test_table4_iot_cells(self, dataset):
        from repro.core.experiment import ExperimentConfig, build_packet_cell
        from repro.datasets.registry import generate_dataset_uncached

        config = ExperimentConfig("HELAD", dataset, seed=301, scale=0.05)
        detector, data = build_packet_cell(
            config, generate_dataset_uncached(dataset, seed=301, scale=0.05)
        )
        assert len(data.train_packets) > 4 * detector.window
        self._assert_same_fit(
            detector, data.train_packets, data.test_packets[:50]
        )

    @pytest.mark.parametrize(
        "n_train",
        [1, WINDOW - 1, WINDOW, WINDOW + 1, 2 * WINDOW + 1],
    )
    def test_short_streams(self, n_train):
        """Streams where the LSTM half trains zero, one or a few
        windows."""
        packets = _varied_packets(n_train + 20)
        self._assert_same_fit(
            HELAD(seed=4, window=self.WINDOW), packets[:n_train],
            packets[n_train:],
        )

    def test_second_fit_on_fitted_detector(self):
        """A refit sees a frozen scaler: ``fit_transform_running`` must
        follow ``partial_fit``'s frozen no-op."""
        packets = _varied_packets(200)
        detector = HELAD(seed=6, window=self.WINDOW)
        detector.fit(packets[:80])
        assert detector.scaler.frozen
        self._assert_same_fit(detector, packets[80:180], packets[180:])


class TestHELADBatchCarry:
    """``score_batch`` carries the LSTM window across micro-batches and
    matches the per-packet reference bit for bit, including while the
    history is still shorter than the window."""

    WINDOW = 12

    @classmethod
    def _fitted(cls, n_train):
        ids = HELAD(seed=5, window=cls.WINDOW)
        ids.fit(_varied_packets(n_train))
        return ids

    def test_short_history_after_fit(self):
        ids = self._fitted(5)
        assert len(ids._score_history) == 5 < self.WINDOW

    @pytest.mark.parametrize("n_train", [5, 40])
    @pytest.mark.parametrize("chunk", [1, 7, 256])
    def test_chains_match_single_call_and_reference(self, n_train, chunk):
        packets = _varied_packets(300, start=100.0)
        reference = self._fitted(n_train)
        single = self._fitted(n_train)
        chained = self._fitted(n_train)
        expected = helad_scores(reference, packets)
        assert single.score_batch(packets).tobytes() == expected.tobytes()
        assert single._score_history == reference._score_history

        check = self._fitted(n_train)
        parts = []
        for start in range(0, len(packets), chunk):
            batch = packets[start : start + chunk]
            parts.append(chained.score_batch(batch))
            helad_scores(check, batch)
            assert chained._score_history == check._score_history
        assert np.concatenate(parts).tobytes() == expected.tobytes()
        assert chained._score_history == reference._score_history

    @pytest.mark.parametrize("n_batch", [0, 1, 4, 11, 12])
    def test_batches_shorter_than_window(self, n_batch):
        packets = _varied_packets(n_batch, start=50.0)
        reference = self._fitted(5)
        batched = self._fitted(5)
        expected = helad_scores(reference, packets)
        got = batched.score_batch(packets)
        assert got.shape == (n_batch,)
        assert got.tobytes() == expected.tobytes()
        assert batched._score_history == reference._score_history
        # A follow-up batch still agrees once the window has filled.
        more = _varied_packets(20, start=80.0)
        assert (batched.score_batch(more).tobytes()
                == helad_scores(reference, more).tobytes())
        assert batched._score_history == reference._score_history


def _labelled_flows(n_benign=60, n_attack=60):
    packets = []
    for i in range(n_benign):
        packets.append(make_udp_packet(float(i), sport=3000 + i,
                                       payload=b"x" * 100))
    for i in range(n_attack):
        packets.append(make_udp_packet(float(i) + 0.5, sport=10_000 + i,
                                       dport=80, payload=b"z" * 1400,
                                       label=1))
    packets.sort(key=lambda p: p.timestamp)
    flows = FlowAssembler().assemble(packets)
    from repro.flows.netflow import netflow_features, NETFLOW_FEATURE_NAMES
    from repro.features.encoding import FlowVectorEncoder

    encoder = FlowVectorEncoder(NETFLOW_FEATURE_NAMES)
    features = encoder.encode([netflow_features(f) for f in flows])
    labels = np.array([f.label for f in flows])
    return flows, features, labels


class TestDNNClassifierIDS:
    def test_requires_labels(self):
        flows, features, _ = _labelled_flows()
        with pytest.raises(ValueError, match="labels"):
            DNNClassifierIDS().fit(flows, features, None)

    def test_score_before_fit_raises(self):
        flows, features, _ = _labelled_flows()
        with pytest.raises(RuntimeError):
            DNNClassifierIDS().anomaly_scores(flows, features)

    def test_learns_labelled_flows(self):
        flows, features, labels = _labelled_flows()
        ids = DNNClassifierIDS(hidden_dims=(16, 12, 8), epochs=20, seed=0)
        ids.fit(flows, features, labels)
        scores = ids.anomaly_scores(flows, features)
        predictions = (scores >= 0.5).astype(int)
        assert (predictions == labels).mean() > 0.9

    def test_scores_are_probabilities(self):
        flows, features, labels = _labelled_flows(20, 20)
        ids = DNNClassifierIDS(hidden_dims=(8,), epochs=3, seed=1)
        ids.fit(flows, features, labels)
        scores = ids.anomaly_scores(flows, features)
        assert np.all((scores >= 0) & (scores <= 1))

    def test_default_config_shape(self):
        config = DNNClassifierIDS.default_config()
        assert len(config["hidden_dims"]) == 3  # the paper's 3 layers
