"""Scalar ↔ vector NetStat parity: bit-for-bit, no exceptions.

The vectorized AfterImage engine replaces the per-packet hot path under
every Kitsune/HELAD cell, so any deviation — a reordered float op, a
different pow implementation, a divergent prune — would silently shift
Table IV. These tests enforce the parity contract:

* randomized packet streams (repeated timestamps, ARP and non-IP
  frames, self-conversations, prune-triggering key churn) must produce
  *identical* 100-dim vectors from the scalar reference and the
  native vector engine;
* a golden fixture pins the exact feature values (and therefore the
  feature ordering) of a deterministic stream, so a layout change in
  any engine shows up as a diff against a committed file.

Regenerate the golden fixture after an intentional semantic change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src pytest tests/test_features_parity.py
"""

import os
import random
from pathlib import Path

import numpy as np
import pytest

from repro.features import _native
from repro.features.netstat import NetStat
from repro.net.arp import ARPHeader
from repro.net.ethernet import ETHERTYPE_ARP, EthernetHeader
from repro.net.packet import Packet

from tests.conftest import make_tcp_packet, make_udp_packet

GOLDEN_PATH = Path(__file__).parent / "golden" / "netstat_features.npz"

NATIVE_AVAILABLE = _native.load_kernel() is not None
VECTOR_ENGINES = ["vector-native"] if NATIVE_AVAILABLE else []


def make_arp_packet(ts: float, src: str, dst: str) -> Packet:
    return Packet(
        timestamp=ts,
        ether=EthernetHeader(ethertype=ETHERTYPE_ARP),
        arp=ARPHeader(sender_ip=src, target_ip=dst),
    )


def make_non_ip_packet(ts: float, payload_len: int) -> Packet:
    return Packet(
        timestamp=ts,
        ether=EthernetHeader(ethertype=0x86DD),
        payload=b"v" * payload_len,
    )


def random_stream(seed: int, count: int = 1200) -> list[Packet]:
    """An adversarial packet mix for parity testing."""
    rng = random.Random(seed)
    ips = [f"10.1.{i // 6}.{i % 6}" for i in range(30)]
    packets = []
    ts = 0.0
    for _ in range(count):
        if rng.random() < 0.7:
            # Repeated timestamps (dt == 0) are common in captures and
            # exercise the no-decay branch.
            ts += rng.choice([0.0, 0.0, 0.001, 0.05, 2.0, 45.0])
        src, dst = rng.choice(ips), rng.choice(ips)
        if rng.random() < 0.04:
            dst = src  # self-conversation: both channel keys alias
        sport = rng.choice([80, 443, 1234, 5353])
        dport = rng.choice([80, 53, 8080, sport])
        draw = rng.random()
        if draw < 0.05:
            packets.append(make_arp_packet(ts, src, dst))
        elif draw < 0.08:
            packets.append(make_non_ip_packet(ts, rng.randrange(0, 64)))
        elif draw < 0.55:
            packets.append(make_tcp_packet(
                ts, src=src, dst=dst, sport=sport, dport=dport,
                payload=b"p" * rng.randrange(0, 300),
            ))
        else:
            packets.append(make_udp_packet(
                ts, src=src, dst=dst, sport=sport, dport=dport,
                payload=b"q" * rng.randrange(0, 150),
            ))
    return packets


class TestRandomizedParity:
    @pytest.mark.parametrize("engine", VECTOR_ENGINES)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_for_bit(self, seed, engine):
        packets = random_stream(seed)
        scalar = NetStat(engine="scalar")
        vector = NetStat(engine=engine)
        for index, packet in enumerate(packets):
            expected = scalar.update(packet)
            got = vector.update(packet)
            assert np.array_equal(expected, got), (
                f"{engine}: first divergence at packet {index}, "
                f"features {np.nonzero(expected != got)[0][:5]}"
            )

    @pytest.mark.parametrize("engine", VECTOR_ENGINES)
    @pytest.mark.parametrize("max_streams", [25, 60])
    def test_bit_for_bit_under_prune_churn(self, engine, max_streams):
        """Key churn past max_streams triggers mid-stream prunes; the
        eviction sets — and therefore every post-prune recreated
        stream — must line up exactly."""
        packets = random_stream(3, count=2000)
        scalar = NetStat(engine="scalar", max_streams=max_streams)
        vector = NetStat(engine=engine, max_streams=max_streams)
        matrix_s = scalar.extract_all(packets)
        matrix_v = vector.extract_all(packets)
        assert np.array_equal(matrix_s, matrix_v)
        assert len(scalar._db) == len(vector._db)

    @pytest.mark.parametrize("engine", VECTOR_ENGINES)
    def test_extract_all_matches_update_loop(self, engine):
        packets = random_stream(4, count=300)
        one = NetStat(engine=engine)
        rows = np.vstack([one.update(packet) for packet in packets])
        other = NetStat(engine=engine)
        assert np.array_equal(rows, other.extract_all(packets))

    def test_reduced_decay_set_parity(self):
        packets = random_stream(5, count=400)
        scalar_matrix = NetStat(
            decays=(1.0, 0.1), engine="scalar"
        ).extract_all(packets)
        for engine in VECTOR_ENGINES:
            vector = NetStat(decays=(1.0, 0.1), engine=engine)
            assert np.array_equal(scalar_matrix, vector.extract_all(packets))
            assert vector.feature_count == 40


def golden_stream() -> list[Packet]:
    """Deterministic mixed stream behind the golden fixture."""
    packets = []
    packets.extend(
        make_tcp_packet(i * 0.25, src="10.0.0.1", dst="10.0.0.2",
                        payload=b"a" * (40 + 13 * (i % 7)))
        for i in range(20)
    )
    packets.extend(
        make_udp_packet(3.0 + i * 0.5, src="10.0.0.2", dst="10.0.0.1",
                        sport=53, dport=5353, payload=b"b" * (20 + i))
        for i in range(10)
    )
    packets.append(make_arp_packet(9.0, "10.0.0.3", "10.0.0.1"))
    packets.append(make_non_ip_packet(9.5, 32))
    packets.extend(
        make_tcp_packet(10.0 + i * 0.1, src="10.0.0.3", dst="10.0.0.3",
                        sport=7777, dport=7777)
        for i in range(5)
    )
    return packets


class TestGoldenFeatureVectors:
    """Pins NetStat's exact output (values *and* column ordering)."""

    def _current(self, engine: str) -> np.ndarray:
        return NetStat(engine=engine).extract_all(golden_stream())

    def test_golden_matrix(self):
        matrix = self._current("scalar")
        if os.environ.get("REPRO_REGEN_GOLDEN"):
            GOLDEN_PATH.parent.mkdir(exist_ok=True)
            np.savez_compressed(GOLDEN_PATH, features=matrix)
            pytest.skip("golden fixture regenerated")
        assert GOLDEN_PATH.exists(), (
            "golden fixture missing; regenerate with REPRO_REGEN_GOLDEN=1"
        )
        golden = np.load(GOLDEN_PATH)["features"]
        assert golden.shape == matrix.shape == (37, 100)
        assert np.array_equal(golden, matrix)

    @pytest.mark.parametrize("engine", VECTOR_ENGINES)
    def test_vector_engines_match_golden(self, engine):
        if not GOLDEN_PATH.exists():
            pytest.skip("golden fixture missing")
        golden = np.load(GOLDEN_PATH)["features"]
        assert np.array_equal(golden, self._current(engine))

    def test_block_layout_pinned(self):
        """The 20-feature-per-decay layout: weight slots of the MAC
        block lead, channel block starts at 30, socket at 65."""
        vector = NetStat().update(make_tcp_packet(0.0))
        # First packet of a fresh extractor: every aggregation has
        # weight exactly 1 and std 0.
        assert vector.shape == (100,)
        weight_slots = list(range(0, 30, 3)) + list(range(30, 100, 7))
        assert all(vector[slot] == 1.0 for slot in weight_slots)
        std_slots = list(range(2, 30, 3)) + list(range(32, 100, 7))
        assert all(vector[slot] == 0.0 for slot in std_slots)
