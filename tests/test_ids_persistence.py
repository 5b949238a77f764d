"""Tests for KitNET model persistence and stream checkpoints."""

import hashlib
import os
import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ids.kitsune.kitnet import KitNET
from repro.ids.persistence import (
    checkpoint_filename,
    load_kitnet,
    save_kitnet,
    write_stream_checkpoint,
)
from repro.utils.rng import SeededRNG

from tests.conftest import scaled_examples
from tests.kitsune_oracle import kitnet_scores


def save_stream_checkpoint(directory, detector, *, worker_id, consumed,
                           meta=None) -> Path:
    """Publish one checkpoint of ``detector`` under ``directory`` the way
    a shard worker does: write a temp file, then rename it to its
    canonical name."""
    path = Path(directory) / checkpoint_filename(worker_id, consumed)
    fd, tmp_name = tempfile.mkstemp(dir=directory, prefix=path.name,
                                    suffix=".tmp")
    write_stream_checkpoint(fd, detector, worker_id=worker_id,
                            consumed=consumed, meta=meta)
    os.replace(tmp_name, path)
    return path


@pytest.fixture
def trained_kitnet():
    net = KitNET(12, fm_grace=40, ad_grace=200, max_group=4, rng=SeededRNG(1))
    net.process_batch(SeededRNG(2).uniform(0.3, 0.7, size=(250, 12)))
    assert not net.in_training
    return net


class TestSaveLoad:
    def test_refuses_untrained_model(self, tmp_path):
        net = KitNET(8, fm_grace=100, ad_grace=100, rng=SeededRNG(3))
        with pytest.raises(ValueError, match="grace"):
            save_kitnet(net, tmp_path / "model.npz")

    def test_roundtrip_scores_identical(self, trained_kitnet, tmp_path):
        path = tmp_path / "kitnet.npz"
        save_kitnet(trained_kitnet, path)
        loaded = load_kitnet(path)

        rng = SeededRNG(4)
        rows = rng.uniform(0.0, 1.5, size=(30, 12))
        original = trained_kitnet.process_batch(rows)
        restored = loaded.process_batch(rows)
        assert np.array_equal(restored, original)

    def test_loaded_model_is_in_execute_mode(self, trained_kitnet, tmp_path):
        path = tmp_path / "kitnet.npz"
        save_kitnet(trained_kitnet, path)
        loaded = load_kitnet(path)
        assert not loaded.in_feature_mapping
        assert not loaded.in_training

    def test_groups_preserved(self, trained_kitnet, tmp_path):
        path = tmp_path / "kitnet.npz"
        save_kitnet(trained_kitnet, path)
        loaded = load_kitnet(path)
        assert loaded.mapper.groups == trained_kitnet.mapper.groups

    def test_loaded_model_has_group_index_arrays(self, trained_kitnet,
                                                 tmp_path):
        # Checkpoints bypass _build_ensemble; the gather indices must
        # still be materialised intp arrays, not per-call list lookups.
        path = tmp_path / "kitnet.npz"
        save_kitnet(trained_kitnet, path)
        loaded = load_kitnet(path)
        assert all(
            isinstance(g, np.ndarray) and g.dtype == np.intp
            for g in loaded._group_index
        )
        assert [g.tolist() for g in loaded._group_index] == (
            trained_kitnet.mapper.groups
        )

    def test_loaded_model_batched_execution_matches_per_row(
        self, trained_kitnet, tmp_path
    ):
        path = tmp_path / "kitnet.npz"
        save_kitnet(trained_kitnet, path)
        per_row = load_kitnet(path)
        batched = load_kitnet(path)
        rng = SeededRNG(5)
        rows = rng.uniform(0.0, 1.5, size=(30, 12))
        expected = kitnet_scores(per_row, rows)
        assert np.array_equal(batched.process_batch(rows), expected)

    def test_bad_format_version_rejected(self, trained_kitnet, tmp_path):
        path = tmp_path / "kitnet.npz"
        save_kitnet(trained_kitnet, path)
        _rewrite_meta(path, lambda meta: meta.update(format_version=99))
        with pytest.raises(ValueError, match="format"):
            load_kitnet(path)


def _rewrite_meta(path, mutate) -> None:
    """Round-trip a checkpoint's JSON meta through ``mutate``."""
    import json

    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(bytes(arrays["meta"]).decode())
    mutate(meta)
    arrays["meta"] = np.frombuffer(
        json.dumps(meta).encode(), dtype=np.uint8
    )
    np.savez_compressed(path, **arrays)


class TestSamplesSeenRoundTrip:
    def test_counter_restored_exactly(self, trained_kitnet, tmp_path):
        """The true counter must survive the round trip — the old
        loader hardcoded fm+ad+1, wrong for any detector that had
        executed past the boundary before saving."""
        # Execute well past the grace boundary.
        trained_kitnet.process_batch(
            SeededRNG(7).uniform(0.3, 0.7, size=(75, 12))
        )
        assert trained_kitnet.samples_seen == 325
        path = tmp_path / "kitnet.npz"
        save_kitnet(trained_kitnet, path)
        assert load_kitnet(path).samples_seen == 325

    def test_v1_checkpoint_misspelled_key_still_read(
        self, trained_kitnet, tmp_path
    ):
        """Pre-fix checkpoints stored the counter under a misspelled
        meta key ('decaysamples_seen'); v1 loads must fall back to it
        rather than fabricating fm+ad+1."""
        path = tmp_path / "kitnet.npz"
        save_kitnet(trained_kitnet, path)

        def downgrade(meta):
            meta["format_version"] = 1
            meta["decaysamples_seen"] = meta.pop("samples_seen")

        _rewrite_meta(path, downgrade)
        loaded = load_kitnet(path)
        assert loaded.samples_seen == trained_kitnet.samples_seen
        rng = SeededRNG(8)
        rows = rng.uniform(0.0, 1.5, size=(10, 12))
        expected = kitnet_scores(trained_kitnet, rows)
        assert np.array_equal(loaded.process_batch(rows), expected)

    def test_v1_checkpoint_without_any_counter_key(
        self, trained_kitnet, tmp_path
    ):
        """A v1 checkpoint missing both spellings still loads, with the
        legacy just-past-the-boundary value."""
        path = tmp_path / "kitnet.npz"
        save_kitnet(trained_kitnet, path)

        def strip(meta):
            meta["format_version"] = 1
            meta.pop("samples_seen")

        _rewrite_meta(path, strip)
        loaded = load_kitnet(path)
        assert loaded.samples_seen == (
            trained_kitnet.fm_grace + trained_kitnet.ad_grace + 1
        )
        assert not loaded.in_training


class TestTrainModeRoundTrip:
    def test_format_version_is_2(self, trained_kitnet, tmp_path):
        import json

        path = tmp_path / "kitnet.npz"
        save_kitnet(trained_kitnet, path)
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]).decode())
        assert meta["format_version"] == 2
        assert meta["samples_seen"] == trained_kitnet.samples_seen
        assert "decaysamples_seen" not in meta

    def test_retired_train_mode_keys_are_ignored(self, trained_kitnet,
                                                 tmp_path):
        """v2 files written while KitNET still had a mini-batch training
        mode carry its config. A saved model is past its grace periods,
        so the keys never mattered on load and are ignored now."""
        path = tmp_path / "kitnet.npz"
        save_kitnet(trained_kitnet, path)

        def add_retired_keys(meta):
            assert "train_mode" not in meta and "train_batch" not in meta
            meta.update(train_mode="minibatch", train_batch=24)

        _rewrite_meta(path, add_retired_keys)
        loaded = load_kitnet(path)
        rows = SeededRNG(9).uniform(0.0, 1.5, size=(20, 12))
        expected = kitnet_scores(trained_kitnet, rows)
        assert np.array_equal(loaded.process_batch(rows), expected)


class TestStreamCheckpoints:
    """The sharded engine's crash-resume substrate: atomic, integrity-
    checked snapshots of a live streaming detector."""

    @staticmethod
    def _detector():
        from tests.faultinject import ChannelMeanDetector
        from tests.conftest import make_tcp_packet

        detector = ChannelMeanDetector()
        for i in range(25):
            detector.process(make_tcp_packet(ts=float(i)))
        return detector

    def test_roundtrip_restores_identical_state(self, tmp_path):
        from repro.ids.persistence import load_stream_checkpoint
        from tests.conftest import make_tcp_packet

        detector = self._detector()
        path = save_stream_checkpoint(tmp_path, detector,
                                      worker_id=3, consumed=25,
                                      meta={"note": "unit"})
        checkpoint = load_stream_checkpoint(path)
        assert checkpoint.worker_id == 3
        assert checkpoint.consumed == 25
        assert checkpoint.emitted == detector.items_scored
        assert checkpoint.meta == {"note": "unit"}
        restored = checkpoint.restore_detector()
        probe = make_tcp_packet(ts=99.0)
        assert (restored.process(probe)[0].score
                == detector.process(probe)[0].score)

    def test_latest_prefers_the_newest_consumed_cursor(self, tmp_path):
        from repro.ids.persistence import latest_stream_checkpoint

        detector = self._detector()
        for consumed in (10, 40, 25):
            save_stream_checkpoint(tmp_path, detector, worker_id=0,
                                   consumed=consumed)
        save_stream_checkpoint(tmp_path, detector, worker_id=1,
                               consumed=999)
        path, checkpoint = latest_stream_checkpoint(tmp_path, 0)
        assert checkpoint.consumed == 40
        assert "worker0-" in path.name

    def test_corrupt_newest_falls_back_to_older(self, tmp_path):
        from repro.ids.persistence import (CheckpointCorrupt,
                                           latest_stream_checkpoint,
                                           load_stream_checkpoint)

        detector = self._detector()
        save_stream_checkpoint(tmp_path, detector, worker_id=0,
                               consumed=10)
        newest = save_stream_checkpoint(tmp_path, detector, worker_id=0,
                                        consumed=20)
        blob = newest.read_bytes()
        newest.write_bytes(blob[:-7] + b"garbage")
        with pytest.raises(CheckpointCorrupt):
            load_stream_checkpoint(newest)
        found = latest_stream_checkpoint(tmp_path, 0)
        assert found is not None
        assert found[1].consumed == 10

    def test_truncated_and_foreign_files_are_skipped(self, tmp_path):
        from repro.ids.persistence import latest_stream_checkpoint

        (tmp_path / "worker0-000000000099.ckpt").write_bytes(b"\x00" * 4)
        (tmp_path / "not-a-checkpoint.txt").write_text("hello")
        assert latest_stream_checkpoint(tmp_path, 0) is None
        save_stream_checkpoint(tmp_path, self._detector(), worker_id=0,
                               consumed=5)
        assert latest_stream_checkpoint(tmp_path, 0)[1].consumed == 5

    def test_prune_keeps_the_newest(self, tmp_path):
        from repro.ids.persistence import (checkpoint_filename,
                                           prune_stream_checkpoints)

        detector = self._detector()
        for consumed in (10, 20, 30, 40):
            save_stream_checkpoint(tmp_path, detector, worker_id=0,
                                   consumed=consumed)
        removed = prune_stream_checkpoints(tmp_path, 0, keep=2)
        assert removed == 2
        kept = sorted(p.name for p in tmp_path.iterdir())
        assert kept == [checkpoint_filename(0, 30),
                        checkpoint_filename(0, 40)]
        with pytest.raises(ValueError):
            prune_stream_checkpoints(tmp_path, 0, keep=0)


def _arrays(obj, seen=None):
    """Every ndarray reachable from ``obj`` through attributes and
    containers (each object visited once)."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        children = [*obj.keys(), *obj.values()]
    elif isinstance(obj, (list, tuple, set, frozenset)):
        children = list(obj)
    elif hasattr(obj, "__dict__"):
        children = list(vars(obj).values())
    else:
        return []
    return [array for child in children for array in _arrays(child, seen)]


def _state(obj, path=()):
    """``obj``'s state as plain values that compare with ``==``.

    Arrays become ``(dtype, shape, bytes)``, floats their hex (so NaN
    equals NaN), containers their members in order, and objects their
    class plus their fields — the ``__getstate__`` dict when the class
    defines one (what a checkpoint carries), otherwise ``__dict__`` and
    ``__slots__`` — recursively. Functions compare by qualified name.
    """
    if any(obj is seen for seen in path):
        return ("cycle", type(obj).__qualname__)
    path = (*path, obj)
    if isinstance(obj, np.ndarray):
        return ("array", obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, np.generic):
        return ("scalar", obj.dtype.str, obj.tobytes())
    if isinstance(obj, float):
        return ("float", obj.hex())
    if obj is None or isinstance(obj, (bool, int, str, bytes)):
        return obj
    if callable(obj) and hasattr(obj, "__qualname__"):
        return ("callable", obj.__module__, obj.__qualname__)
    if isinstance(obj, dict):
        return ("dict", [(_state(k, path), _state(v, path))
                         for k, v in obj.items()])
    if isinstance(obj, (list, tuple)):
        return (type(obj).__name__, [_state(v, path) for v in obj])
    if isinstance(obj, (set, frozenset)):
        return ("set", sorted((_state(v, path) for v in obj), key=repr))
    cls = type(obj)
    # ``object.__getstate__`` exists only from Python 3.11, so look for
    # a class-defined one along the MRO instead of comparing with it.
    if any("__getstate__" in vars(klass) for klass in cls.__mro__[:-1]):
        fields = obj.__getstate__()
    else:
        fields = dict(getattr(obj, "__dict__", {}))
        for klass in cls.__mro__:
            for name in getattr(klass, "__slots__", ()):
                if hasattr(obj, name):
                    fields[name] = getattr(obj, name)
    return ("object", cls.__module__, cls.__qualname__, _state(fields, path))


@pytest.fixture(scope="module")
def kitsune_detector():
    """A warmed streaming Kitsune detector: NetStat arrays and KitNET
    weights make up most of its checkpoint, as in a live run."""
    from repro.stream.detector import build_streaming_detector
    from repro.stream.sources import DatasetSource

    packets = list(DatasetSource("Mirai", seed=0, scale=0.02))
    detector = build_streaming_detector("kitsune", seed=0, batch_size=64,
                                        warmup_packets=300)
    detector.warmup(packets[:300])
    return detector


class TestStreamCheckpointFormat:
    """Format 2: one protocol-5 pickle with out-of-band arrays, a
    digest over every byte after its slot, format 1 refused."""

    def test_roundtrip_is_bit_identical_with_writable_arrays(
            self, kitsune_detector, tmp_path):
        from repro.ids.persistence import load_stream_checkpoint

        path = save_stream_checkpoint(tmp_path, kitsune_detector,
                                      worker_id=0, consumed=7)
        checkpoint = load_stream_checkpoint(path)
        assert checkpoint.buffers_at, "arrays should travel out of band"
        restored = checkpoint.restore_detector()
        assert _state(restored) == _state(kitsune_detector)
        arrays = _arrays(restored)
        assert arrays and all(a.flags.writeable for a in arrays)
        assert all(a.flags.aligned for a in arrays)
        # Out-of-band arrays are views into the bytes read, not copies.
        assert any(not a.flags.owndata for a in arrays)

    def test_state_comparison_sees_one_netstat_element(
            self, kitsune_detector, tmp_path):
        from repro.ids.persistence import load_stream_checkpoint

        path = save_stream_checkpoint(tmp_path, kitsune_detector,
                                      worker_id=0, consumed=7)
        restored = load_stream_checkpoint(path).restore_detector()
        assert _state(restored) == _state(kitsune_detector)
        array = next(a for a in _arrays(restored.ids.netstat)
                     if a.dtype == np.float64 and a.size)
        array.flat[array.size // 2] = np.nextafter(
            array.flat[array.size // 2], np.inf
        )
        assert _state(restored) != _state(kitsune_detector)

    def test_format_1_file_is_rejected(self, tmp_path):
        from repro.ids.persistence import (CheckpointCorrupt,
                                           checkpoint_filename,
                                           latest_stream_checkpoint,
                                           load_stream_checkpoint)

        detector = TestStreamCheckpoints._detector()
        save_stream_checkpoint(tmp_path, detector, worker_id=0, consumed=10)
        # The format-1 layout: magic, sha256, then one pickled dict
        # holding the detector's own pickle. Its digest is valid.
        payload = pickle.dumps({
            "format_version": 1, "worker_id": 0, "consumed": 20,
            "emitted": detector.items_scored,
            "detector": pickle.dumps(detector), "meta": {},
        })
        old = tmp_path / checkpoint_filename(0, 20)
        old.write_bytes(b"RPSCKPT1" + hashlib.sha256(payload).digest()
                        + payload)
        with pytest.raises(CheckpointCorrupt, match="format-1"):
            load_stream_checkpoint(old)
        assert latest_stream_checkpoint(tmp_path, 0)[1].consumed == 10


@pytest.fixture(scope="module")
def damaged_checkpoint_dir(kitsune_detector, tmp_path_factory):
    """A directory with a valid older checkpoint (cursor 10) and the
    bytes of a valid newer one (cursor 20), which each example damages."""
    directory = tmp_path_factory.mktemp("damaged")
    save_stream_checkpoint(directory, kitsune_detector, worker_id=0,
                           consumed=10)
    newest = save_stream_checkpoint(directory, kitsune_detector,
                                    worker_id=0, consumed=20)
    return directory, newest, newest.read_bytes()


def _assert_damage_is_never_loaded(directory, newest, damaged) -> None:
    from repro.ids.persistence import (CheckpointCorrupt,
                                       latest_stream_checkpoint,
                                       load_stream_checkpoint)

    newest.write_bytes(damaged)
    with pytest.raises(CheckpointCorrupt):
        load_stream_checkpoint(newest)
    path, checkpoint = latest_stream_checkpoint(directory, 0)
    assert checkpoint.consumed == 10 and path != newest


class TestCheckpointDamageFuzz:
    """Any single-byte flip or truncation of a format-2 file — magic,
    digest, header, pickle, padding or array bytes — is refused, and
    resume falls back to the older valid checkpoint."""

    @settings(max_examples=scaled_examples(60), deadline=None)
    @given(where=st.floats(0.0, 1.0, exclude_max=True),
           mask=st.integers(1, 255))
    def test_byte_flip(self, damaged_checkpoint_dir, where, mask):
        directory, newest, blob = damaged_checkpoint_dir
        damaged = bytearray(blob)
        damaged[int(where * len(blob))] ^= mask
        _assert_damage_is_never_loaded(directory, newest, bytes(damaged))

    @settings(max_examples=scaled_examples(40), deadline=None)
    @given(where=st.floats(0.0, 1.0, exclude_max=True))
    def test_truncation(self, damaged_checkpoint_dir, where):
        directory, newest, blob = damaged_checkpoint_dir
        _assert_damage_is_never_loaded(
            directory, newest, blob[:int(where * len(blob))])

    @pytest.mark.parametrize("offset", [0, 7, 8, 39, 40, 48, -1])
    def test_flip_at_region_boundaries(self, damaged_checkpoint_dir,
                                       offset):
        # Last magic byte (a flip can spell "RPSCKPT1"), digest ends,
        # the header length, and the last array byte.
        directory, newest, blob = damaged_checkpoint_dir
        damaged = bytearray(blob)
        damaged[offset] ^= 0x01
        _assert_damage_is_never_loaded(directory, newest, bytes(damaged))
