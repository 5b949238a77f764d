"""Parity contracts of the compute engines.

The ``feature_backend`` fixture (in ``conftest.py``) parameterizes each
feature-engine test over every engine this host can run (``scalar``,
plus ``vector-native`` when the C kernel loads): bit-for-bit equality
with the scalar AfterImage reference on adversarial streams, across
the batched ``update_batch`` path, at chunk boundaries, under prune
churn, and against the committed golden fixture. The ensemble tests
run once per accepted ``ensemble_backend`` spelling, against the
per-row KitNET loop of ``tests/kitsune_oracle.py`` as the oracle.
"""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.features.netstat import NetStat
from repro.ids.kitsune.kitnet import ENSEMBLE_BACKENDS

from tests.kitsune_oracle import kitnet_scores
from tests.test_features_parity import (
    GOLDEN_PATH, golden_stream, random_stream,
)


class TestFeatureBackendContract:
    """Bit-for-bit vs the scalar reference, for every usable engine."""

    def test_update_batch_matches_scalar_reference(self, feature_backend):
        packets = random_stream(7, count=900)
        reference = NetStat(engine="scalar").extract_all(packets)
        matrix = NetStat(engine=feature_backend).extract_all(packets)
        assert np.array_equal(reference, matrix)

    def test_update_batch_matches_per_packet_loop(self, feature_backend):
        """The batched fast path is pure amortization: identical bits
        to n sequential ``update`` calls on the same extractor."""
        packets = random_stream(8, count=500)
        looped = NetStat(engine=feature_backend)
        rows = np.vstack([looped.update(packet) for packet in packets])
        batched = NetStat(engine=feature_backend)
        assert np.array_equal(rows, batched.update_batch(packets))

    def test_chunked_batches_match_one_batch(self, feature_backend):
        """Chunk boundaries are invisible: feeding the stream in uneven
        batches equals one extract_all."""
        packets = random_stream(9, count=700)
        whole = NetStat(engine=feature_backend).extract_all(packets)
        chunked = NetStat(engine=feature_backend)
        pieces, index = [], 0
        for size in (1, 7, 31, 97, 250):
            pieces.append(chunked.update_batch(packets[index:index + size]))
            index += size
        pieces.append(chunked.update_batch(packets[index:]))
        assert np.array_equal(whole, np.vstack(pieces))

    def test_batch_parity_under_prune_churn(self, feature_backend):
        """Key churn past max_streams forces mid-batch prunes; eviction
        decisions must match the sequential reference exactly."""
        packets = random_stream(10, count=1500)
        scalar = NetStat(engine="scalar", max_streams=40)
        vector = NetStat(engine=feature_backend, max_streams=40)
        assert np.array_equal(
            scalar.extract_all(packets), vector.extract_all(packets)
        )
        assert len(scalar._db) == len(vector._db)

    def test_matches_golden_fixture(self, feature_backend):
        golden = np.load(GOLDEN_PATH)["features"]
        matrix = NetStat(engine=feature_backend).extract_all(golden_stream())
        assert np.array_equal(golden, matrix)

    def test_backend_survives_pickling(self, feature_backend):
        """Persistence round-trips mid-stream state; the revived
        extractor (transient kernel handles rebuilt lazily) continues
        bit-identically."""
        packets = random_stream(11, count=400)
        original = NetStat(engine=feature_backend)
        original.update_batch(packets[:200])
        revived = pickle.loads(pickle.dumps(original))
        tail_a = original.update_batch(packets[200:])
        tail_b = revived.update_batch(packets[200:])
        assert np.array_equal(tail_a, tail_b)
        assert revived.backend == original.backend


@pytest.mark.parametrize("ensemble_backend", ENSEMBLE_BACKENDS)
class TestEnsembleBackendContract:
    """KitNET's packed execute path scores identically per row."""

    def test_backends_score_bit_identically(self, ensemble_backend):
        from repro.ids.kitsune import Kitsune

        packets = random_stream(12, count=600)
        ids = Kitsune(
            fm_grace=100, ad_grace=200, seed=0,
            ensemble_backend=ensemble_backend,
        )
        ids.fit(packets[:300])
        rows = ids.netstat.extract_all(packets[300:])
        reference = kitnet_scores(copy.deepcopy(ids.kitnet), rows)
        assert np.array_equal(reference, ids.kitnet.execute_batch(rows))

    def test_resolved_backend_reported(self, ensemble_backend):
        from repro.ids.kitsune import Kitsune

        ids = Kitsune(fm_grace=10, ad_grace=10,
                      ensemble_backend=ensemble_backend)
        assert ids.kitnet.resolved_ensemble_backend == "batched-einsum"
