"""Tests for the structure-of-arrays AfterImage engine.

Covers the :class:`VectorIncStatDB` drop-in API, the partial-selection
prune (eviction set identical to the scalar reference, including
insertion-order tie-breaks and covariance endpoint eviction), capacity
growth, and pickling.
"""

import pickle
import random

import numpy as np
import pytest

from repro.features import _native
from repro.features.afterimage import DEFAULT_DECAYS, IncStatDB
from repro.features.vector import VectorIncStatDB

NATIVE_AVAILABLE = _native.load_kernel() is not None

#: Kernels exercised by every parity test; "native" is skipped where no
#: C compiler exists.
KERNELS = ["numpy"] + (["native"] if NATIVE_AVAILABLE else [])


class TestVectorIncStatDB:
    def test_1d_output_size(self):
        db = VectorIncStatDB()
        out = db.update_get_1d("k", 100.0, 0.0)
        assert len(out) == 3 * len(DEFAULT_DECAYS)

    def test_2d_output_size(self):
        db = VectorIncStatDB()
        out = db.update_get_2d("a>b", "b>a", 100.0, 0.0)
        assert len(out) == 7 * len(DEFAULT_DECAYS)

    def test_stream_reuse(self):
        db = VectorIncStatDB()
        db.update_get_1d("k", 100.0, 0.0)
        db.update_get_1d("k", 100.0, 0.0)
        assert len(db) == 1

    def test_rejects_empty_decays(self):
        with pytest.raises(ValueError):
            VectorIncStatDB(())

    def test_rejects_unknown_kernel(self):
        with pytest.raises(ValueError):
            VectorIncStatDB(kernel="simd")

    def test_native_kernel_request_without_support(self, monkeypatch):
        monkeypatch.setattr(_native, "load_kernel", lambda: None)
        with pytest.raises(RuntimeError):
            VectorIncStatDB(kernel="native")

    def test_pruning_bounds_memory(self):
        db = VectorIncStatDB(max_streams=10)
        for i in range(50):
            db.update_get_1d(f"k{i}", 1.0, float(i))
        assert len(db) <= 30

    def test_capacity_growth(self):
        db = VectorIncStatDB(capacity=8)
        for i in range(100):
            db.update_get_1d(f"k{i}", 1.0, float(i))
        assert len(db) == 100
        # Values survive the growth reallocations: the slowest-decay
        # weight of the first stream still reflects its first insert
        # (2^(-0.01 * 100) = 0.5 of it) plus the new one.
        out = db.update_get_1d("k0", 1.0, 100.0)
        assert out[12] == 1.5

    def test_pickle_roundtrip(self):
        db = VectorIncStatDB()
        db.update_get_1d("k", 64.0, 1.0)
        clone = pickle.loads(pickle.dumps(db))
        assert db.update_get_1d("k", 64.0, 2.0) == clone.update_get_1d(
            "k", 64.0, 2.0
        )

    def test_kernel_name_reported(self):
        assert VectorIncStatDB(kernel="numpy").kernel_name == "numpy"
        if NATIVE_AVAILABLE:
            assert VectorIncStatDB(kernel="auto").kernel_name == "native"


class TestScalarVectorDBParity:
    """update_get_1d/2d must be bit-for-bit identical to IncStatDB."""

    def _random_ops(self, seed, n=400):
        rng = random.Random(seed)
        ts = 0.0
        ops = []
        for _ in range(n):
            if rng.random() < 0.6:
                ts += rng.choice([0.0, 0.001, 0.5, 40.0])
            key_a = f"s{rng.randrange(12)}"
            key_b = f"s{rng.randrange(12)}"
            value = float(rng.randrange(40, 1500))
            if rng.random() < 0.5:
                ops.append(("1d", key_a, None, value, ts))
            else:
                ops.append(("2d", f"{key_a}>{key_b}", f"{key_b}>{key_a}",
                            value, ts))
        return ops

    @pytest.mark.parametrize("max_streams", [6, 100_000])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_parity(self, seed, max_streams):
        scalar = IncStatDB(max_streams=max_streams)
        vectors = {
            kernel: VectorIncStatDB(max_streams=max_streams, kernel=kernel)
            for kernel in KERNELS
        }
        for kind, key_a, key_b, value, ts in self._random_ops(seed):
            if kind == "1d":
                expected = scalar.update_get_1d(key_a, value, ts)
                for kernel, db in vectors.items():
                    got = db.update_get_1d(key_a, value, ts)
                    assert got == expected, kernel
            else:
                expected = scalar.update_get_2d(key_a, key_b, value, ts)
                for kernel, db in vectors.items():
                    got = db.update_get_2d(key_a, key_b, value, ts)
                    assert got == expected, kernel
            for kernel, db in vectors.items():
                assert len(db) == len(scalar), kernel

    def test_self_conversation_aliasing(self):
        """src == dst makes both direction keys one stream."""
        scalar = IncStatDB()
        expected = [
            scalar.update_get_2d("x>x", "x>x", 100.0, step * 0.1)
            for step in range(5)
        ]
        for kernel in KERNELS:
            db = VectorIncStatDB(kernel=kernel)
            got = [
                db.update_get_2d("x>x", "x>x", 100.0, step * 0.1)
                for step in range(5)
            ]
            assert got == expected, kernel
            assert len(db) == 1


class TestEvictionOrder:
    """The prune must evict exactly the scalar reference's victims."""

    def _surviving_keys(self, db, keys):
        if isinstance(db, IncStatDB):
            return [key for key in keys if key in db._streams]
        return [key for key in keys if key in db._keys]

    def test_stalest_half_evicted(self):
        keys = [f"k{i}" for i in range(9)]
        times = [5.0, 1.0, 8.0, 0.5, 3.0, 9.0, 2.0, 7.0, 6.0]
        survivors = {}
        for name, db in [("scalar", IncStatDB(max_streams=8)),
                         ("vector", VectorIncStatDB(max_streams=8))]:
            for key, ts in zip(keys, times):
                db.update_get_1d(key, 1.0, ts)
            survivors[name] = self._surviving_keys(db, keys)
        # 9 streams > 8 => the 4 stalest (times 0.5, 1, 2, 3) go.
        assert survivors["scalar"] == ["k0", "k2", "k5", "k7", "k8"]
        assert survivors["vector"] == survivors["scalar"]

    def test_tie_break_matches_insertion_order(self):
        # All streams share one timestamp: ties must evict the earliest
        # inserted keys first, exactly like heapq.nsmallest.
        keys = [f"t{i}" for i in range(9)]
        survivors = {}
        for name, db in [("scalar", IncStatDB(max_streams=8)),
                         ("vector", VectorIncStatDB(max_streams=8))]:
            for key in keys:
                db.update_get_1d(key, 1.0, 1.0)
            survivors[name] = self._surviving_keys(db, keys)
        assert survivors["scalar"] == ["t4", "t5", "t6", "t7", "t8"]
        assert survivors["vector"] == survivors["scalar"]

    def test_cov_evicted_with_either_endpoint(self):
        scalar = IncStatDB(max_streams=4)
        vector = VectorIncStatDB(max_streams=4)
        for db in (scalar, vector):
            db.update_get_2d("a>b", "b>a", 10.0, 0.0)   # a>b, b>a
            db.update_get_1d("c", 10.0, 1.0)
            db.update_get_1d("d", 10.0, 2.0)
            # Fifth stream prunes the two stalest (a>b and b>a).
            db.update_get_1d("e", 10.0, 3.0)
        assert "a>b" not in scalar._streams
        assert "a>b" not in scalar._covs and "a>b" not in scalar._cov_pair
        assert "a>b" not in vector._keys
        assert "a>b" not in vector._cov_keys and "a>b" not in vector._cov_pair
        # Re-seen channel re-pairs against fresh streams identically.
        out_s = scalar.update_get_2d("a>b", "b>a", 10.0, 4.0)
        out_v = vector.update_get_2d("a>b", "b>a", 10.0, 4.0)
        assert out_s == out_v

    def test_prune_after_churn_stays_bit_identical(self):
        rng = random.Random(7)
        scalar = IncStatDB(max_streams=5)
        vector = VectorIncStatDB(max_streams=5)
        for step in range(300):
            key = f"k{rng.randrange(20)}"
            ts = step * rng.choice([0.0, 0.01, 1.0])
            expected = scalar.update_get_1d(key, 50.0, ts)
            assert vector.update_get_1d(key, 50.0, ts) == expected
            assert len(vector) == len(scalar)


def test_scalar_prune_uses_partial_selection():
    """Regression: the scalar prune no longer full-sorts (behavioural
    proxy — eviction equals nsmallest of last times)."""
    db = IncStatDB(max_streams=6)
    times = [(f"s{i}", float((i * 37) % 11)) for i in range(7)]
    for key, ts in times:
        db.update_get_1d(key, 1.0, ts)
    expected_evicted = {
        key for key, _ in sorted(times, key=lambda kv: kv[1])[: 7 // 2]
    }
    assert set(times_key for times_key, _ in times) - set(db._streams) \
        == expected_evicted


def _submit_to_mt_pool() -> None:
    from repro.features import vector

    vector._mt_pool().submit(int).result(timeout=20)


def test_mt_pool_works_in_forked_child():
    """Sharded stream workers are forked after the parent may have
    started the group-parallel pool; the child must get a fresh pool
    rather than wait forever on the parent's threads."""
    import multiprocessing

    from repro.features import vector

    vector._mt_pool().submit(int).result()
    child = multiprocessing.get_context("fork").Process(
        target=_submit_to_mt_pool
    )
    child.start()
    child.join(timeout=30)
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == 0
