"""Tests for the Kitsune reimplementation (feature mapper, KitNET,
end-to-end)."""

import numpy as np
import pytest

from repro.ids.kitsune.feature_mapper import FeatureMapper
from repro.ids.kitsune.kitnet import KitNET
from repro.ids.kitsune.kitsune import Kitsune, grace_periods
from repro.utils.rng import SeededRNG

from tests.conftest import make_udp_packet


class TestFeatureMapper:
    def test_groups_cover_all_features(self):
        rng = SeededRNG(1)
        mapper = FeatureMapper(12, max_group=4)
        for _ in range(50):
            mapper.partial_fit(rng.normal(size=12))
        groups = mapper.finalise()
        flat = sorted(i for g in groups for i in g)
        assert flat == list(range(12))

    def test_group_size_cap(self):
        rng = SeededRNG(2)
        mapper = FeatureMapper(20, max_group=5)
        for _ in range(50):
            mapper.partial_fit(rng.normal(size=20))
        assert all(len(g) <= 5 for g in mapper.finalise())

    def test_correlated_features_cluster_together(self):
        rng = SeededRNG(3)
        mapper = FeatureMapper(6, max_group=3)
        for _ in range(300):
            a = rng.normal()
            b = rng.normal()
            # features 0,1,2 move together; 3,4,5 move together.
            row = np.array([a, a + 0.01 * rng.normal(), a + 0.01 * rng.normal(),
                            b, b + 0.01 * rng.normal(), b + 0.01 * rng.normal()])
            mapper.partial_fit(row)
        groups = mapper.finalise()
        for group in groups:
            block = {0, 1, 2} if group[0] in (0, 1, 2) else {3, 4, 5}
            assert set(group) <= block

    def test_degenerate_grace_falls_back_to_chunks(self):
        mapper = FeatureMapper(10, max_group=4)
        groups = mapper.finalise()
        assert sorted(i for g in groups for i in g) == list(range(10))

    def test_shape_validation(self):
        mapper = FeatureMapper(4)
        with pytest.raises(ValueError):
            mapper.partial_fit(np.zeros(3))


class TestKitNET:
    def _make(self, dim=10, fm=30, ad=120):
        return KitNET(dim, fm_grace=fm, ad_grace=ad, max_group=4,
                      rng=SeededRNG(4))

    def test_phases(self):
        net = self._make()
        rng = SeededRNG(5)
        assert net.in_feature_mapping
        net.process_batch(rng.uniform(size=(30, 10)))
        assert not net.in_feature_mapping and net.in_training
        net.process_batch(rng.uniform(size=(120, 10)))
        assert not net.in_training

    def test_zero_scores_during_fm(self):
        net = self._make()
        rng = SeededRNG(6)
        scores = net.process_batch(rng.uniform(size=(30, 10)))
        assert np.all(scores == 0.0)

    def test_detects_distribution_shift(self):
        net = self._make(fm=50, ad=400)
        rng = SeededRNG(7)
        net.process_batch(rng.uniform(0.4, 0.6, size=(450, 10)))
        normal_scores = net.process_batch(rng.uniform(0.4, 0.6, size=(50, 10)))
        anomaly_scores = net.process_batch(rng.uniform(5.0, 6.0, size=(50, 10)))
        assert np.mean(anomaly_scores) > 3 * np.mean(normal_scores)

    def test_execute_does_not_train(self):
        net = self._make(fm=30, ad=60)
        rng = SeededRNG(8)
        net.process_batch(rng.uniform(size=(90, 10)))
        trained = [ae.samples_trained for ae in net.ensemble]
        net.process_batch(rng.uniform(size=(20, 10)))
        assert [ae.samples_trained for ae in net.ensemble] == trained

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            KitNET(0, rng=SeededRNG(9))
        with pytest.raises(ValueError):
            KitNET(5, fm_grace=0, rng=SeededRNG(9))


class TestKitsuneEndToEnd:
    def test_flags_flood_after_benign_training(self):
        # Benign: sparse periodic telemetry. Attack: high-rate flood
        # from a new source.
        benign = [make_udp_packet(float(i) * 0.5, sport=5000,
                                  payload=b"x" * 64)
                  for i in range(700)]
        flood = [make_udp_packet(350.0 + i * 0.001, src="66.6.6.6",
                                 sport=1024 + i, dport=80,
                                 payload=b"z" * 512, label=1)
                 for i in range(300)]
        ids = Kitsune(fm_grace=100, ad_grace=500, seed=0)
        ids.fit(benign[:600])
        assert ids.trained
        scores = ids.score_batch(benign[600:] + flood)
        benign_scores = scores[:100]
        flood_scores = scores[100:]
        assert np.median(flood_scores) > 5 * np.median(benign_scores)

    def test_default_config_keys(self):
        config = Kitsune.default_config()
        assert {"fm_grace", "ad_grace", "max_group"} <= set(config)

    def test_scores_length_matches_input(self):
        ids = Kitsune(fm_grace=10, ad_grace=20, seed=1)
        packets = [make_udp_packet(float(i) * 0.1) for i in range(40)]
        ids.fit(packets[:30])
        assert len(ids.score_batch(packets[30:])) == 10


class TestGracePeriods:
    def test_scaled_to_the_training_stream(self):
        assert grace_periods(5000) == (500, 4500)
        assert grace_periods(300) == (100, 200)
        assert grace_periods(50) == (100, 100)  # floors of 100 each

    def test_a_given_period_is_kept_and_the_other_fills(self):
        assert grace_periods(1000, fm_grace=300) == (300, 700)
        assert grace_periods(1000, ad_grace=950) == (100, 950)
        assert grace_periods(1000, ad_grace=600) == (400, 600)
        assert grace_periods(1000, fm_grace=50, ad_grace=60) == (50, 60)
