"""Tests for the structure-of-arrays AfterImage engine.

Covers :class:`VectorIncStatDB` construction, interning, capacity
growth and pickling (including checkpoints that still name a removed
kernel), and the partial-selection prune: crafted packet streams run
through ``NetStat("scalar")`` and ``NetStat("vector-native")`` with a
small ``max_streams`` must agree on every feature, on the number of
tracked streams and on which stream and covariance keys survive, after
every packet — insertion-order tie-breaks and covariance endpoint
eviction included.
"""

import gzip
import pickle
import random
from pathlib import Path

import numpy as np
import pytest

from repro.features import _native
from repro.features.afterimage import DEFAULT_DECAYS, IncStatDB
from repro.features.netstat import NetStat
from repro.features.vector import VectorIncStatDB

from tests.conftest import make_tcp_packet, make_udp_packet

NATIVE_AVAILABLE = _native.load_kernel() is not None

LEGACY_CHECKPOINTS = (
    Path(__file__).parent / "fixtures" / "legacy_netstat_checkpoints.pkl.gz"
)

needs_native = pytest.mark.skipif(
    not NATIVE_AVAILABLE, reason="native AfterImage kernel unavailable"
)


def _scalar_key(key: tuple) -> str:
    """The scalar reference's string key for an interned tuple key."""
    kind = key[0]
    if kind == "mac":
        return f"mac:{key[1]}|{key[2]}"
    if kind == "ip":
        return f"ip:{key[1]}"
    if kind == "ch":
        return f"ch:{key[1]}>{key[2]}"
    return f"sk:{key[1]}:{key[2]}>{key[3]}:{key[4]}"


def _tracked(extractor: NetStat) -> tuple[list[str], list[str]]:
    """Stream and covariance keys in table order, as scalar strings."""
    db = extractor._db
    if isinstance(db, IncStatDB):
        return list(db._streams), list(db._covs)
    return (
        [_scalar_key(key) for key in db._keys],
        [_scalar_key(key) for key in db._cov_keys],
    )


def _assert_lockstep(packets, max_streams: int) -> NetStat:
    """Feed ``packets`` through both engines, comparing after each one;
    the batched path must then reproduce the whole matrix. Returns the
    scalar extractor for further assertions."""
    scalar = NetStat(engine="scalar", max_streams=max_streams)
    vector = NetStat(engine="vector-native", max_streams=max_streams)
    rows = []
    for index, packet in enumerate(packets):
        expected = scalar.update(packet)
        got = vector.update(packet)
        assert np.array_equal(expected, got), f"features at packet {index}"
        assert len(vector._db) == len(scalar._db), f"len at packet {index}"
        assert _tracked(vector) == _tracked(scalar), f"keys at packet {index}"
        rows.append(expected)
    batched = NetStat(engine="vector-native", max_streams=max_streams)
    assert np.array_equal(np.vstack(rows), batched.extract_all(packets))
    assert _tracked(batched) == _tracked(scalar)
    return scalar


def _fan_in(times, dst: str = "10.0.9.9") -> list:
    """Source ``10.0.0.i`` sends one packet to ``dst`` at ``times[i]``;
    each packet creates six streams (MAC, IP, both channel and both
    socket directions)."""
    return [
        make_tcp_packet(ts, src=f"10.0.0.{i}", dst=dst, payload=b"x" * i)
        for i, ts in enumerate(times)
    ]


@needs_native
class TestVectorIncStatDB:
    def _update(self, db: VectorIncStatDB, packet) -> np.ndarray:
        entry = db.packet_entry(
            packet.ether.src_mac, packet.src_ip, packet.dst_ip,
            packet.src_port, packet.dst_port, packet.timestamp,
        )
        out = np.empty(db.feature_count)
        db.update_packet(entry, float(packet.wire_len), packet.timestamp, out)
        return out

    def test_stream_reuse(self):
        db = VectorIncStatDB()
        packet = make_tcp_packet(0.0)
        first = db.packet_entry("m", "10.0.0.1", "10.0.0.2", 1, 2, 0.0)
        again = db.packet_entry("m", "10.0.0.1", "10.0.0.2", 1, 2, 0.5)
        # MAC, IP, two channel and two socket directions.
        assert len(db) == 6
        assert first.rows == again.rows
        assert self._update(db, packet).shape == (20 * len(DEFAULT_DECAYS),)

    def test_rejects_empty_decays(self):
        with pytest.raises(ValueError):
            VectorIncStatDB(())

    def test_native_kernel_request_without_support(self, monkeypatch):
        monkeypatch.setattr(_native, "load_kernel", lambda: None)
        with pytest.raises(RuntimeError, match="unavailable"):
            VectorIncStatDB()

    def test_rejects_more_decays_than_the_kernel_supports(self):
        with pytest.raises(RuntimeError, match="at most"):
            VectorIncStatDB((1.0,) * (_native.MAX_DECAYS + 1))

    def test_pruning_bounds_memory(self):
        extractor = NetStat(engine="vector-native", max_streams=10)
        for packet in _fan_in([float(i) for i in range(50)]):
            extractor.update(packet)
            assert len(extractor._db) <= 10

    def test_capacity_growth(self):
        db = VectorIncStatDB(capacity=8)
        scalar = NetStat(engine="scalar")
        packets = _fan_in([float(i) for i in range(40)])
        packets.append(make_tcp_packet(100.0, src="10.0.0.0", dst="10.0.9.9"))
        for packet in packets:
            expected = scalar.update(packet)
            assert np.array_equal(expected, self._update(db, packet))
        # Six streams per source, none shared.
        assert len(db) == 6 * 40
        assert db._capacity > 8

    def test_pickle_roundtrip(self):
        db = VectorIncStatDB()
        packet = make_tcp_packet(1.0, payload=b"p" * 64)
        self._update(db, packet)
        clone = pickle.loads(pickle.dumps(db))
        later = make_tcp_packet(2.0, payload=b"p" * 64)
        assert np.array_equal(self._update(db, later),
                              self._update(clone, later))


@needs_native
class TestScalarVectorDBParity:
    """Random packet streams, bit-for-bit against the scalar engine."""

    def _random_packets(self, seed, n=400):
        rng = random.Random(seed)
        ips = [f"10.2.0.{i}" for i in range(12)]
        ts = 0.0
        packets = []
        for _ in range(n):
            if rng.random() < 0.6:
                ts += rng.choice([0.0, 0.001, 0.5, 40.0])
            src, dst = rng.choice(ips), rng.choice(ips)
            sport = rng.choice([53, 80, 4242])
            make = make_tcp_packet if rng.random() < 0.5 else make_udp_packet
            packets.append(make(
                ts, src=src, dst=dst, sport=sport,
                dport=rng.choice([53, 80, sport]),
                payload=b"r" * rng.randrange(0, 1400),
            ))
        return packets

    @pytest.mark.parametrize("max_streams", [6, 100_000])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_parity(self, seed, max_streams):
        _assert_lockstep(self._random_packets(seed), max_streams)

    def test_self_conversation_aliasing(self):
        """src == dst makes both channel keys one stream; equal ports
        do the same for the socket keys."""
        packets = [
            make_tcp_packet(step * 0.1, src="10.0.0.7", dst="10.0.0.7",
                            sport=7777, dport=7777 if step % 2 else 80,
                            payload=b"s" * step)
            for step in range(6)
        ]
        scalar = _assert_lockstep(packets, 100_000)
        assert "ch:10.0.0.7>10.0.0.7" in scalar._db._streams
        assert "sk:10.0.0.7:7777>10.0.0.7:7777" in scalar._db._streams


@needs_native
class TestEvictionOrder:
    """The prune must evict exactly the scalar reference's victims."""

    def test_stalest_half_evicted(self):
        times = [5.0, 1.0, 8.0, 0.5, 3.0, 9.0, 2.0, 7.0, 6.0]
        # Revisiting every source afterwards turns a wrong eviction set
        # into wrong features (a recreated stream restarts at weight 1).
        packets = _fan_in(times) + _fan_in([10.0] * len(times))
        scalar = _assert_lockstep(packets, 20)
        streams, _ = _tracked(scalar)
        assert len(streams) < 6 * len(times)  # prunes really fired

    def test_tie_break_matches_insertion_order(self):
        # Every stream shares one timestamp: ties must evict the
        # earliest inserted keys first, exactly like heapq.nsmallest.
        packets = _fan_in([1.0] * 9) + _fan_in([1.0] * 9)
        _assert_lockstep(packets, 20)

    def test_cov_evicted_with_either_endpoint(self):
        a, b, c, d = "10.0.0.1", "10.0.0.2", "10.0.1.1", "10.0.1.2"
        packets = [
            make_tcp_packet(0.0, src=a, dst=b),
            make_tcp_packet(1.0, src=c, dst=d),
            # Refreshes a's forward streams; b>a stays at t=0.
            make_tcp_packet(5.0, src=a, dst=b),
            # A 13th stream prunes six: both t=0 reverse streams of
            # a>b, then the first four of c's t=1 ties.
            make_tcp_packet(6.0, src="10.0.2.1", dst="10.0.2.2"),
        ]
        scalar = _assert_lockstep(packets, 12)
        streams, covs = _tracked(scalar)
        assert f"ch:{a}>{b}" in streams and f"ch:{b}>{a}" not in streams
        assert f"ch:{a}>{b}" not in covs  # its reverse endpoint went
        assert f"ch:{c}>{d}" not in covs  # its forward endpoint went
        assert f"sk:{c}:1234>{d}:80" in covs  # both endpoints survive
        # The re-seen channel re-pairs against a fresh reverse stream.
        _assert_lockstep(packets + [make_tcp_packet(8.0, src=a, dst=b)], 12)

    def test_prune_after_churn_stays_bit_identical(self):
        rng = random.Random(7)
        ts = 0.0
        packets = []
        for _ in range(300):
            ts += rng.choice([0.0, 0.01, 1.0])
            packets.append(make_udp_packet(
                ts, src=f"10.3.0.{rng.randrange(20)}",
                dst=f"10.3.1.{rng.randrange(3)}", payload=b"c" * 50,
            ))
        _assert_lockstep(packets, 12)


def _checkpoint_stream() -> list:
    """The stream behind ``fixtures/legacy_netstat_checkpoints.pkl.gz``."""
    return [
        make_tcp_packet(0.1 * i, src=f"10.0.0.{i % 7}", dst="10.0.9.9",
                        sport=1000 + i % 3, payload=b"x" * i)
        for i in range(30)
    ]


def _legacy_checkpoints() -> dict[str, bytes]:
    """Pickled ``NetStat(engine=E, max_streams=40)`` objects after the
    first 15 packets of :func:`_checkpoint_stream`, one per engine of
    the multi-kernel feature engine (a NumPy row kernel, a thread-pool
    kernel and the ``"vector"`` auto alias). They were written by that
    engine, so their state still carries its ``kernel`` choice and
    row-kernel slice layout."""
    with gzip.open(LEGACY_CHECKPOINTS, "rb") as handle:
        return pickle.load(handle)


class TestCheckpointCompat:
    """Checkpoints whose state still names a removed kernel revive on
    the native kernel and continue bit-identically."""

    @needs_native
    def test_revives_on_native_kernel(self):
        packets = _checkpoint_stream()
        scalar = NetStat(engine="scalar", max_streams=40)
        scalar.update_batch(packets[:15])
        expected = scalar.update_batch(packets[15:])
        checkpoints = _legacy_checkpoints()
        assert len(checkpoints) == 3
        for engine, blob in checkpoints.items():
            assert b"kernel" in blob, engine
            revived = pickle.loads(blob)
            assert revived.backend == "vector-native", engine
            for stale in ("kernel", "_block_1d", "_block_2d"):
                assert stale not in vars(revived._db), engine
            assert np.array_equal(
                expected, revived.update_batch(packets[15:])
            ), engine

    def test_refuses_to_load_without_the_kernel(self, monkeypatch):
        monkeypatch.setattr(_native, "load_kernel", lambda: None)
        for blob in _legacy_checkpoints().values():
            with pytest.raises(RuntimeError, match="unavailable"):
                pickle.loads(blob)


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
