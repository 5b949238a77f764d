"""Batched KitNET execution: bit-for-bit parity with the per-row loop.

The packed :class:`~repro.ml.batched.BatchedEnsemble` and every
``*_batch`` surface above it (``Autoencoder.score_batch``,
``KitNET.execute_batch``/``process_batch``, ``Kitsune.score_batch``,
``HELAD.score_batch``) must agree with the per-packet reference
*exactly* — batching is a throughput knob, never a semantic one. The
per-row KitNET and per-packet Kitsune references live in
``tests/kitsune_oracle.py``, the HELAD one in ``tests/lstm_oracle.py``.

A golden fixture pins the KitNET score trajectory for a seeded stream.
Unlike the NetStat golden (pure libm ``pow``/``hypot``), these scores
pass through ``np.exp``, whose SIMD paths may differ in the last ulp
across CPU generations — so the golden compare allows a relative
tolerance of 1e-9 while all in-process parity checks stay exact.
Regenerate after an intentional semantic change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src pytest tests/test_ml_batched.py
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from repro.ids.kitsune.kitnet import KitNET
from repro.ml.autoencoder import Autoencoder
from repro.ml.batched import BatchedEnsemble
from repro.utils.rng import SeededRNG

from tests.kitsune_oracle import (
    ae_score,
    ae_train_score,
    kitnet_scores,
    kitsune_scores,
)
from tests.lstm_oracle import helad_scores

GOLDEN_PATH = Path(__file__).parent / "golden" / "kitnet_scores.npz"


def _stream(n: int, dim: int, seed: int = 11) -> np.ndarray:
    """A deterministic feature stream with a regime shift at the end,
    so execute-phase scores are non-trivial."""
    rng = SeededRNG(seed, "batched-stream")
    calm = rng.uniform(0.2, 0.8, size=(n - n // 5, dim))
    loud = rng.uniform(2.0, 6.0, size=(n // 5, dim))
    return np.vstack([calm, loud])


def _kitnet(dim: int = 24, fm: int = 40, ad: int = 160) -> KitNET:
    return KitNET(
        dim, fm_grace=fm, ad_grace=ad, max_group=5, rng=SeededRNG(4)
    )


class TestAutoencoderScoreBatch:
    def test_score_batch_bit_identical_to_score_loop(self):
        rng = SeededRNG(21)
        ae = Autoencoder(9, rng=rng.child("ae"))
        for _ in range(50):
            ae_train_score(ae, rng.uniform(size=9))
        rows = rng.uniform(-0.5, 1.5, size=(37, 9))
        batch = ae.score_batch(rows)
        singles = np.array([ae_score(ae, row) for row in rows])
        assert np.array_equal(batch, singles)


class TestBatchedEnsemble:
    def _trained(self, n=400):
        net = _kitnet()
        net.process_batch(_stream(n, 24))
        assert not (net.in_feature_mapping or net.in_training)
        return net

    def test_group_rmses_match_per_row_scores(self):
        net = self._trained()
        packed = BatchedEnsemble(
            net.ensemble, net._group_index, net.output_layer
        )
        rng = SeededRNG(31)
        scaled = net.scaler.transform(rng.uniform(0.0, 2.0, size=(25, 24)))
        batched = packed.group_rmses(scaled)
        for n, row in enumerate(scaled):
            for g, group in enumerate(net._group_index):
                assert batched[n, g] == ae_score(net.ensemble[g], row[group])

    def test_rejects_mismatched_shapes(self):
        net = self._trained()
        with pytest.raises(ValueError, match="groups"):
            BatchedEnsemble(net.ensemble[:-1], net._group_index,
                            net.output_layer)
        wrong_output = Autoencoder(
            len(net.ensemble) + 1, rng=SeededRNG(8, "wrong")
        )
        with pytest.raises(ValueError, match="output layer"):
            BatchedEnsemble(net.ensemble, net._group_index, wrong_output)


class TestProcessBatchParity:
    @pytest.mark.parametrize("batch_size", (1, 2, 7, 64))
    def test_bit_identical_across_grace_boundaries(self, batch_size):
        """Micro-batched processing spans fm -> train -> execute (the
        grace boundaries land mid-batch for most sizes) and must match
        the per-row reference bit for bit."""
        rows = _stream(500, 24)
        reference = _kitnet()
        expected = kitnet_scores(reference, rows)

        net = _kitnet()
        got = np.concatenate([
            net.process_batch(rows[i : i + batch_size])
            for i in range(0, len(rows), batch_size)
        ])
        assert np.array_equal(got, expected)
        assert net.samples_seen == reference.samples_seen

    def test_single_call_spanning_all_phases(self):
        rows = _stream(500, 24)
        reference = _kitnet()
        expected = kitnet_scores(reference, rows)
        net = _kitnet()
        assert np.array_equal(net.process_batch(rows), expected)

    def test_execute_batch_rejects_grace_period_rows(self):
        net = _kitnet()
        with pytest.raises(RuntimeError, match="grace"):
            net.execute_batch(np.zeros((3, 24)))

    def test_execute_batch_starts_at_the_boundary_row(self):
        """The row that reaches fm_grace + ad_grace is scored, not
        trained: execute_batch takes it, and not the row before."""
        rows = _stream(300, 24)
        net = _kitnet()
        net.process_batch(rows[:198])
        with pytest.raises(RuntimeError, match="grace"):
            net.execute_batch(rows[198:200])
        assert net.samples_seen == 198
        reference = _kitnet()
        expected = kitnet_scores(reference, rows)
        got = np.concatenate([
            net.process_batch(rows[198:199]), net.execute_batch(rows[199:])
        ])
        assert np.array_equal(got, expected[198:])

    def test_empty_batch(self):
        net = _kitnet()
        assert net.process_batch(np.empty((0, 24))).shape == (0,)


class TestPackedSnapshot:
    def test_pack_is_lazy(self):
        """Training never packs; the boundary row builds the packed
        ensemble once and every later execute row reuses it."""
        rows = _stream(500, 24)
        net = _kitnet()
        net.process_batch(rows[:199])
        assert net._batched_ensemble is None
        net.process_batch(rows[199:200])
        packed = net._batched_ensemble
        assert packed is not None
        net.process_batch(rows[200:])
        assert net._batched_ensemble is packed


class TestGoldenScores:
    def test_scores_match_golden(self):
        rows = _stream(600, 24, seed=13)
        scores = _kitnet().process_batch(rows)
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
            np.savez_compressed(GOLDEN_PATH, scores=scores)
            pytest.skip(f"regenerated {GOLDEN_PATH}")
        if not GOLDEN_PATH.exists():
            pytest.fail(
                "golden fixture missing; regenerate with REPRO_REGEN_GOLDEN=1"
            )
        golden = np.load(GOLDEN_PATH)["scores"]
        assert golden.shape == scores.shape == (600,)
        np.testing.assert_allclose(golden, scores, rtol=1e-9)


class TestPacketIDSBatchSurface:
    def _packets(self, n=1200):
        from tests.conftest import make_udp_packet

        benign = [
            make_udp_packet(float(i) * 0.4, sport=5000, payload=b"x" * 64)
            for i in range(n - 200)
        ]
        flood = [
            make_udp_packet(400.0 + i * 0.001, src="66.6.6.6",
                            sport=1024 + i, dport=80,
                            payload=b"z" * 512, label=1)
            for i in range(200)
        ]
        return benign + flood

    def test_kitsune_score_batch_bit_identical(self):
        from repro.ids.kitsune import Kitsune

        packets = self._packets()
        a = Kitsune(fm_grace=100, ad_grace=500, seed=0)
        b = Kitsune(fm_grace=100, ad_grace=500, seed=0)
        a.fit(packets[:700])
        b.fit(packets[:700])
        assert np.array_equal(
            b.score_batch(packets[700:]), kitsune_scores(a, packets[700:])
        )

    def test_helad_score_batch_bit_identical(self):
        from repro.ids.helad import HELAD

        packets = self._packets()
        a = HELAD(seed=0)
        b = HELAD(seed=0)
        a.fit(packets[:700])
        b.fit(packets[:700])
        # Two consecutive calls also exercise the score-history carry.
        assert np.array_equal(
            b.score_batch(packets[700:1000]),
            helad_scores(a, packets[700:1000]),
        )
        assert np.array_equal(
            b.score_batch(packets[1000:]), helad_scores(a, packets[1000:])
        )

    def test_score_batch_is_the_one_scoring_method(self):
        """A packet IDS implements ``score_batch`` or cannot be built;
        there is no per-packet method to fall back to."""
        from repro.ids.base import PacketIDS

        class FitOnly(PacketIDS):
            name = "FitOnly"

            def fit(self, packets):
                pass

        with pytest.raises(TypeError, match="score_batch"):
            FitOnly()

        class Zeros(FitOnly):
            def score_batch(self, packets):
                return np.zeros(len(packets))

        assert np.array_equal(Zeros().score_batch([None] * 3), np.zeros(3))
        assert not hasattr(PacketIDS, "anomaly_scores")

    def test_streaming_detector_reports_batched_path(self):
        from repro.ids.kitsune import Kitsune
        from repro.stream.detector import PacketStreamDetector

        detector = PacketStreamDetector(
            Kitsune(fm_grace=100, ad_grace=400, seed=0), batch_size=64
        )
        assert detector.scoring_path == "batched"
        packets = self._packets(800)
        detector.warmup(packets[:600])
        from repro.net.columnar import ColumnBatch

        from repro.stream.scores import ScoreBatch

        emitted = ScoreBatch.concat([
            detector.process_columns(ColumnBatch.from_packets(packets[600:])),
            detector.finish(),
        ])
        assert len(emitted) == 200
