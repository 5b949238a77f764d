"""Batched KitNET training: parity with the per-row reference.

The stacked online engine behind ``process_batch`` (see
:mod:`repro.ml.batched_train`) must be **bit-identical** to the
sequential per-row reference — scores, every autoencoder's weights and
``samples_trained``, and both scalers — for any chunking, any
shape-bucket layout, and any mix of per-row and batched calls. The
per-row reference lives in ``tests/kitsune_oracle.py``.
"""

from __future__ import annotations

import pickle
from functools import lru_cache

import numpy as np
import pytest

from repro.features.normalize import OnlineMinMaxScaler
from repro.ids.kitsune.kitnet import KitNET
from repro.ml.autoencoder import Autoencoder
from repro.ml.batched_train import OnlineEnsembleTrainer
from repro.utils.rng import SeededRNG

from tests.kitsune_oracle import (
    ae_score,
    ae_train_score,
    kitnet_process,
    kitnet_scores,
    scaler_fit_transform,
)


def _stream(n: int, dim: int, seed: int = 11) -> np.ndarray:
    rng = SeededRNG(seed, "batched-stream")
    calm = rng.uniform(0.2, 0.8, size=(n - n // 5, dim))
    loud = rng.uniform(2.0, 6.0, size=(n // 5, dim))
    return np.vstack([calm, loud])


def _kitnet(dim: int = 24, fm: int = 40, ad: int = 160, **kwargs) -> KitNET:
    return KitNET(
        dim, fm_grace=fm, ad_grace=ad, max_group=5, rng=SeededRNG(4),
        **kwargs,
    )


def _weights(net: KitNET) -> list[np.ndarray]:
    layers = []
    for ae in [*net.ensemble, net.output_layer]:
        layers += [
            ae.encoder.weights, ae.encoder.bias,
            ae.decoder.weights, ae.decoder.bias,
        ]
    return layers


def _assert_same_state(reference: KitNET, candidate: KitNET) -> None:
    assert candidate.samples_seen == reference.samples_seen
    assert candidate.mapper.groups == reference.mapper.groups
    assert candidate.mapper._count == reference.mapper._count
    for name in ("_sum", "_sum_sq", "_sum_outer"):
        assert np.array_equal(getattr(candidate.mapper, name),
                              getattr(reference.mapper, name))
    for mine, theirs in (
        (candidate.scaler, reference.scaler),
        (candidate._output_scaler, reference._output_scaler),
    ):
        assert np.array_equal(mine.min, theirs.min)
        assert np.array_equal(mine.max, theirs.max)
        assert mine.frozen == theirs.frozen
    mine_weights, their_weights = _weights(candidate), _weights(reference)
    assert len(mine_weights) == len(their_weights)
    for mine, theirs in zip(mine_weights, their_weights):
        assert np.array_equal(mine, theirs)
    assert [
        ae.samples_trained for ae in [*candidate.ensemble,
                                      candidate.output_layer]
    ] == [
        ae.samples_trained for ae in [*reference.ensemble,
                                      reference.output_layer]
    ]


class TestRunningScaler:
    def test_fit_transform_running_matches_per_row_loop(self):
        rng = SeededRNG(5)
        rows = rng.uniform(-3.0, 7.0, size=(200, 6))
        rows[:, 2] = 1.25  # constant column: span 0 maps to 0
        for clip in (False, True):
            serial = OnlineMinMaxScaler(6, clip=clip)
            expected = np.array(
                [scaler_fit_transform(serial, row) for row in rows]
            )
            vector = OnlineMinMaxScaler(6, clip=clip)
            got = vector.fit_transform_running(rows)
            assert np.array_equal(expected, got)
            assert np.array_equal(serial.min, vector.min)
            assert np.array_equal(serial.max, vector.max)

    def test_running_composes_across_chunks(self):
        rng = SeededRNG(6)
        rows = rng.uniform(size=(101, 4))
        serial = OnlineMinMaxScaler(4)
        expected = np.array([scaler_fit_transform(serial, row) for row in rows])
        vector = OnlineMinMaxScaler(4)
        got = np.vstack([
            vector.fit_transform_running(rows[start : start + 17])
            for start in range(0, 101, 17)
        ])
        assert np.array_equal(expected, got)

    def test_empty_and_frozen(self):
        scaler = OnlineMinMaxScaler(3)
        assert scaler.fit_transform_running(np.empty((0, 3))).shape == (0, 3)
        scaler.fit_transform_running(np.arange(6.0).reshape(2, 3))
        scaler.freeze()
        frozen_min = scaler.min.copy()
        out = scaler.fit_transform_running(np.full((2, 3), 99.0))
        assert np.array_equal(scaler.min, frozen_min)  # no fit once frozen
        assert np.array_equal(out, scaler.transform(np.full((2, 3), 99.0)))


class TestAutoencoderTrainBatch:
    def test_empty_batch(self):
        rng = SeededRNG(23)
        ae = Autoencoder(5, rng=rng.child("ae"))
        assert ae.score_batch(np.empty((0, 5))).shape == (0,)
        assert ae.samples_trained == 0

    def test_pickle_roundtrip(self):
        """Activations hold lambdas; __reduce__ must round-trip them so
        pickled detector checkpoints restore their autoencoders."""
        rng = SeededRNG(24)
        ae = Autoencoder(6, rng=rng.child("ae"))
        ae_train_score(ae, rng.uniform(size=6))
        clone = pickle.loads(pickle.dumps(ae))
        row = rng.uniform(size=6)
        assert ae_score(clone, row) == ae_score(ae, row)
        assert clone.encoder.activation is ae.encoder.activation


class TestEngineValidation:
    def _ensemble(self, groups=4, dim=3):
        rng = SeededRNG(30)
        index = [
            np.arange(i * dim, (i + 1) * dim, dtype=np.intp)
            for i in range(groups)
        ]
        ensemble = [
            Autoencoder(dim, rng=rng.child(f"ae-{i}"))
            for i in range(groups)
        ]
        return ensemble, index

    def test_mismatched_lengths(self):
        ensemble, index = self._ensemble()
        with pytest.raises(ValueError, match="autoencoders for"):
            OnlineEnsembleTrainer(ensemble[:-1], index)

    def test_kitnet_train_param_validation(self):
        with pytest.raises(ValueError, match="ad_grace"):
            _kitnet(ad=0)


class TestParallelOnlineParity:
    """The default process_batch, which trains all groups side by side
    in stacked passes, must be bit-identical to the per-row reference."""

    def _reference(self, rows):
        net = _kitnet()
        return net, kitnet_scores(net, rows)

    def test_inline_single_call(self):
        rows = _stream(500, 24)
        reference, expected = self._reference(rows)
        net = _kitnet()
        got = net.process_batch(rows)
        assert np.array_equal(expected, got)
        _assert_same_state(reference, net)

    def test_odd_chunks(self):
        rows = _stream(500, 24)
        reference, expected = self._reference(rows)
        net = _kitnet()
        got = np.concatenate([
            net.process_batch(rows[start : start + 37])
            for start in range(0, 500, 37)
        ])
        assert np.array_equal(expected, got)
        _assert_same_state(reference, net)

    def test_mixed_per_row_and_batched_calls(self):
        rows = _stream(500, 24)
        reference, expected = self._reference(rows)
        net = _kitnet()
        got = np.empty(500)
        got[:97] = [kitnet_process(net, row) for row in rows[:97]]
        got[97:300] = net.process_batch(rows[97:300])
        got[300:310] = [kitnet_process(net, row) for row in rows[300:310]]
        got[310:] = net.process_batch(rows[310:])
        assert np.array_equal(expected, got)
        _assert_same_state(reference, net)

    @pytest.mark.parametrize(
        "cuts",
        [[199], [200], [199, 200], [150, 200], [199, 300], [39, 40, 41],
         [38, 199, 201]],
    )
    def test_cuts_at_phase_boundaries(self, cuts):
        """Row 199 reaches fm_grace + ad_grace = 200: chunks that end
        just before it, end with it, start with it or hold it alone,
        and cuts around the feature-mapping boundary."""
        rows = _stream(500, 24)
        reference, expected = self._reference(rows)
        net = _kitnet()
        got, start = [], 0
        for stop in [*cuts, len(rows)]:
            got.append(net.process_batch(rows[start:stop]))
            start = stop
        assert np.array_equal(expected, np.concatenate(got))
        _assert_same_state(reference, net)

    def test_obs_counters_match_per_row_loop(self):
        """Whatever the chunking, process_batch records the per-row
        loop's training counters: one row trained per training-phase
        row (ad_grace - 1) and the grace progress that row count gives.
        The boundary row, the last of the 200, is scored: it builds the
        packed ensemble, once."""
        from repro import obs

        rows = _stream(500, 24)[:200]  # both grace periods + the boundary
        for chunk in (37, len(rows)):
            obs.reset_registry()
            obs.enable()
            try:
                net = _kitnet()
                for start in range(0, len(rows), chunk):
                    net.process_batch(rows[start : start + chunk])
                snap = obs.get_registry().snapshot()
            finally:
                obs.disable()
            counters = {k: v for k, v in snap["counters"].items()
                        if k.startswith("ml.kitnet.")}
            gauges = {k: v for k, v in snap["gauges"].items()
                      if k.startswith("ml.kitnet.")}
            assert counters == {
                "ml.kitnet.rows_trained": 159,
                "ml.kitnet.batched_builds": 1,
            }
            assert gauges == {
                "ml.kitnet.grace_progress": 159 / 160,
                "ml.kitnet.ensemble_groups": len(net.ensemble),
            }

    def test_kitsune_fit_is_bit_identical_to_per_packet(self):
        """Kitsune.fit now routes through process_batch; the default
        configuration must keep the exact per-packet trajectory."""
        from tests.conftest import make_udp_packet
        from tests.kitsune_oracle import kitsune_scores

        from repro.ids.kitsune import Kitsune

        packets = [
            make_udp_packet(float(i) * 0.4, sport=5000, payload=b"x" * 64)
            for i in range(900)
        ]
        reference = Kitsune(fm_grace=100, ad_grace=500, seed=3)
        kitsune_scores(reference, packets[:600])
        expected = kitsune_scores(reference, packets[600:])

        batched = Kitsune(fm_grace=100, ad_grace=500, seed=3)
        batched.fit(packets[:600])
        got = kitsune_scores(batched, packets[600:])
        assert np.array_equal(expected, got)


@lru_cache(maxsize=None)
def _traffic(dataset: str) -> np.ndarray:
    """Real feature rows: a 1,121-row Mirai or 758-row CICIDS2017 replay."""
    from repro.datasets.registry import generate_dataset_uncached
    from repro.features.netstat import NetStat

    packets = generate_dataset_uncached(dataset, seed=0, scale=0.05).packets
    return NetStat(engine="vector").extract_all(packets)


def _traffic_kitnet(dim: int, **kwargs) -> KitNET:
    return KitNET(dim, fm_grace=200, ad_grace=400, rng=SeededRNG(9), **kwargs)


@lru_cache(maxsize=None)
def _traffic_reference(dataset: str, max_group: int = 10):
    """The per-row oracle loop over a whole replay (read-only)."""
    rows = _traffic(dataset)
    net = _traffic_kitnet(rows.shape[1], max_group=max_group)
    return net, kitnet_scores(net, rows)


class TestOnlineEngineOnTraffic:
    """Stacked online training on real feature streams: bit-identical
    scores and state for any chunking and bucket layout. Each replay
    runs through feature mapping, training and execution, so the
    whole-stream chunk spans all three phases in one call."""

    @pytest.mark.parametrize("chunk", [1, 7, 256, None])
    @pytest.mark.parametrize("dataset", ["Mirai", "CICIDS2017"])
    def test_chunkings(self, dataset, chunk):
        rows = _traffic(dataset)
        reference, expected = _traffic_reference(dataset)
        chunk = chunk or len(rows)
        net = _traffic_kitnet(rows.shape[1])
        got = np.concatenate([
            net.process_batch(rows[start : start + chunk])
            for start in range(0, len(rows), chunk)
        ])
        assert np.array_equal(expected, got)
        _assert_same_state(reference, net)

    def test_layouts_cover_singleton_and_shared_buckets(self):
        """Mirai's grouping mixes shapes: a one-group bucket next to
        buckets holding several groups."""
        reference, _ = _traffic_reference("Mirai")
        sizes = [len(group) for group in reference.mapper.groups]
        counts = {size: sizes.count(size) for size in sizes}
        assert 1 in counts.values() and max(counts.values()) > 1

    def test_one_bucket_layout(self):
        """max_group=1 puts every feature in its own same-shape group:
        a single bucket holding all 100 groups."""
        rows = _traffic("CICIDS2017")
        reference, expected = _traffic_reference("CICIDS2017", max_group=1)
        assert {len(group) for group in reference.mapper.groups} == {1}
        net = _traffic_kitnet(rows.shape[1], max_group=1)
        got = net.process_batch(rows)
        assert np.array_equal(expected, got)
        _assert_same_state(reference, net)

    def test_per_row_calls_between_chunks(self):
        rows = _traffic("Mirai")
        reference, expected = _traffic_reference("Mirai")
        net = _traffic_kitnet(rows.shape[1])
        cuts = [150, 230, 231, 420, 425, 598, 601, len(rows)]
        got, start = [], 0
        for i, stop in enumerate(cuts):
            if i % 2:
                got += [kitnet_process(net, row) for row in rows[start:stop]]
            else:
                got += list(net.process_batch(rows[start:stop]))
            start = stop
        assert np.array_equal(expected, np.array(got))
        _assert_same_state(reference, net)

    def test_engine_matches_train_score_per_group(self):
        """The engine alone, on a uniform four-group layout."""
        rng = SeededRNG(31)
        index = [np.arange(i * 6, (i + 1) * 6) for i in range(4)]
        ensemble = [Autoencoder(6, rng=rng.child(f"ae-{i}")) for i in range(4)]
        reference = pickle.loads(pickle.dumps(ensemble))
        rows = rng.uniform(size=(300, 24))
        engine = OnlineEnsembleTrainer(ensemble, index)
        got = np.vstack([engine.train_rows(rows[:120]),
                         engine.train_rows(rows[120:])])
        engine.sync()
        expected = np.array([
            [ae_train_score(ae, row[group])
             for ae, group in zip(reference, index)]
            for row in rows
        ])
        assert np.array_equal(expected, got)
        for mine, theirs in zip(ensemble, reference):
            assert np.array_equal(mine.encoder.weights, theirs.encoder.weights)
            assert np.array_equal(mine.encoder.bias, theirs.encoder.bias)
            assert np.array_equal(mine.decoder.weights, theirs.decoder.weights)
            assert np.array_equal(mine.decoder.bias, theirs.decoder.bias)
            assert mine.samples_trained == theirs.samples_trained == 300

    def test_engine_rejects_mixed_learning_rates(self):
        rng = SeededRNG(32)
        ensemble = [
            Autoencoder(3, learning_rate=rate, rng=rng.child(str(rate)))
            for rate in (0.1, 0.2)
        ]
        with pytest.raises(ValueError, match="learning rate"):
            OnlineEnsembleTrainer(ensemble, [np.arange(3), np.arange(3, 6)])


class TestCheckpointCompatibility:
    def test_checkpoint_with_retired_parallel_settings(self):
        """Detectors pickled before the stacked online engine carry the
        retired cross-group trainer's attributes, and those pickled
        before the mini-batch mode was deleted carry its settings. They
        must restore and continue bit-identically; nothing reads those
        attributes."""
        rows = _stream(500, 24)
        reference, expected = TestParallelOnlineParity()._reference(rows)
        net = _kitnet()
        first = net.process_batch(rows[:120])  # mid-training
        net.train_workers = None
        net.train_backend = "thread"
        net._sharded_engine = None
        net.train_mode = "online"
        net.train_batch = 32
        net._minibatch_engine = None
        restored = pickle.loads(pickle.dumps(net))
        got = np.concatenate([first, restored.process_batch(rows[120:])])
        assert np.array_equal(expected, got)
        _assert_same_state(reference, restored)

    def test_retired_constructor_knobs_are_gone(self):
        with pytest.raises(TypeError):
            _kitnet(train_workers=2)
        with pytest.raises(TypeError):
            _kitnet(train_backend="thread")
        with pytest.raises(TypeError):
            _kitnet(train_mode="minibatch")
        with pytest.raises(TypeError):
            _kitnet(train_batch=32)


class TestBatchStateSafety:
    def test_empty_inputs_everywhere(self):
        net = _kitnet()
        assert net.process_batch([]).shape == (0,)
        assert net.process_batch(np.empty((0, 24))).shape == (0,)
        assert net.samples_seen == 0
        net.process_batch(_stream(500, 24))
        before = net.samples_seen
        assert net.execute_batch([]).shape == (0,)
        assert net.samples_seen == before

    def test_execute_batch_failure_leaves_counter_intact(self):
        """A scoring failure must not advance samples_seen: the counter
        drives the phase machine, and a corrupted counter used to flip
        detectors back into 'training' on the next row."""
        net = _kitnet()
        net.process_batch(_stream(500, 24))
        before = net.samples_seen
        with pytest.raises(ValueError, match="dimension"):
            net.execute_batch(np.ones((4, 7)))
        assert net.samples_seen == before
        assert not net.in_training  # phase state unharmed

    def test_process_batch_bad_dim_before_any_state_change(self):
        net = _kitnet()
        with pytest.raises(ValueError, match="dimension"):
            net.process_batch(np.ones((4, 7)))
        assert net.samples_seen == 0
