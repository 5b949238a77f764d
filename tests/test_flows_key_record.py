"""Tests for flow keys, running stats and flow records."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.flows.key import FlowKey, flow_key_for_packet
from repro.flows.record import (
    ACTIVE_IDLE_THRESHOLD,
    DirectionStats,
    FlowRecord,
    RunningStats,
)
from repro.net.packet import Packet
from repro.net.tcp import TCPFlags

from tests.conftest import make_tcp_packet, make_udp_packet


class TestFlowKey:
    def test_bidirectional_same_key(self):
        forward = flow_key_for_packet(make_tcp_packet(sport=1000, dport=80))
        backward = flow_key_for_packet(
            make_tcp_packet(src="10.0.0.2", dst="10.0.0.1", sport=80, dport=1000)
        )
        assert forward == backward

    def test_distinct_ports_distinct_keys(self):
        a = flow_key_for_packet(make_tcp_packet(sport=1000))
        b = flow_key_for_packet(make_tcp_packet(sport=1001))
        assert a != b

    def test_protocol_distinguishes(self):
        tcp = flow_key_for_packet(make_tcp_packet(sport=5, dport=6))
        udp = flow_key_for_packet(make_udp_packet(sport=5, dport=6))
        assert tcp != udp

    def test_non_ip_returns_none(self):
        assert flow_key_for_packet(Packet()) is None

    @given(
        st.tuples(
            st.integers(0, 2**32 - 1), st.integers(0, 65535),
            st.integers(0, 2**32 - 1), st.integers(0, 65535),
        )
    )
    def test_canonical_symmetry_property(self, quad):
        from repro.net.addresses import int_to_ip

        src_ip, sport, dst_ip, dport = quad
        a = FlowKey.canonical(int_to_ip(src_ip), sport, int_to_ip(dst_ip),
                              dport, "tcp")
        b = FlowKey.canonical(int_to_ip(dst_ip), dport, int_to_ip(src_ip),
                              sport, "tcp")
        assert a == b


class TestRunningStats:
    def test_empty(self):
        stats = RunningStats()
        assert stats.count == 0
        assert stats.mean == 0.0
        assert stats.std == 0.0
        assert stats.min_or(7.0) == 7.0
        assert stats.max_or(-7.0) == -7.0

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=100))
    def test_matches_numpy_property(self, values):
        stats = RunningStats()
        for value in values:
            stats.add(value)
        np.testing.assert_allclose(stats.mean, np.mean(values), rtol=1e-9,
                                   atol=1e-6)
        np.testing.assert_allclose(stats.variance, np.var(values), rtol=1e-6,
                                   atol=1e-4)
        assert stats.min == min(values)
        assert stats.max == max(values)
        np.testing.assert_allclose(stats.total, sum(values), rtol=1e-9,
                                   atol=1e-6)

    @given(
        st.lists(st.floats(-1e5, 1e5), min_size=1, max_size=40),
        st.lists(st.floats(-1e5, 1e5), min_size=1, max_size=40),
    )
    def test_merge_equals_combined_property(self, left, right):
        a = RunningStats()
        for v in left:
            a.add(v)
        b = RunningStats()
        for v in right:
            b.add(v)
        a.merge(b)
        combined = left + right
        np.testing.assert_allclose(a.mean, np.mean(combined), rtol=1e-8,
                                   atol=1e-6)
        np.testing.assert_allclose(a.variance, np.var(combined), rtol=1e-5,
                                   atol=1e-4)

    def test_merge_empty_is_noop(self):
        a = RunningStats()
        a.add(3.0)
        a.merge(RunningStats())
        assert a.count == 1 and a.mean == 3.0


class TestFlowRecord:
    def _flow(self, packets):
        record = FlowRecord.open(flow_key_for_packet(packets[0]), packets[0])
        for packet in packets[1:]:
            record.add(packet)
        record.close()
        return record

    def test_direction_assignment(self):
        record = self._flow([
            make_tcp_packet(0.0, flags=TCPFlags.SYN),
            make_tcp_packet(0.1, src="10.0.0.2", dst="10.0.0.1", sport=80,
                            dport=1234, flags=TCPFlags.SYN | TCPFlags.ACK),
            make_tcp_packet(0.2, payload=b"abc"),
        ])
        assert record.src_ip == "10.0.0.1"  # initiator
        assert record.forward.packets == 2
        assert record.backward.packets == 1
        assert record.forward.payload_bytes == 3

    def test_flag_counting_and_termination(self):
        record = self._flow([
            make_tcp_packet(0.0, flags=TCPFlags.SYN),
            make_tcp_packet(0.1, flags=TCPFlags.ACK | TCPFlags.PSH),
            make_tcp_packet(0.2, flags=TCPFlags.FIN | TCPFlags.ACK),
        ])
        assert record.flag_count("SYN") == 1
        assert record.flag_count("PSH") == 1
        assert record.flag_count("FIN") == 1
        assert record.flag_count("RST") == 0
        assert record.terminated

    def test_int_masks_match_enum_flag_tests(self):
        """Every 9-bit flag field (the parser keeps the NS bit too)
        counts, orders and terminates exactly as testing each
        ``TCPFlags`` member with ``TCPHeader.has`` would."""
        from repro.flows.assembler import FlowAssembler

        for value in range(0x200):
            packet = make_tcp_packet(0.0, flags=TCPFlags(value))
            header = packet.transport
            record = FlowRecord.open(flow_key_for_packet(packet), packet)
            expected = [(flag.name, 1) for flag in TCPFlags if header.has(flag)]
            closes = header.has(TCPFlags.FIN) or header.has(TCPFlags.RST)
            assert list(record.flag_counts.items()) == expected, value
            assert record.terminated is closes
            assert FlowAssembler._tcp_closed(packet) is closes
            assert record.forward.psh_count == header.has(TCPFlags.PSH)
            assert record.forward.urg_count == header.has(TCPFlags.URG)

    def test_label_any_attack_packet(self):
        record = self._flow([
            make_tcp_packet(0.0),
            make_tcp_packet(0.1, label=1, attack_type="ddos"),
            make_tcp_packet(0.2),
        ])
        assert record.label == 1
        assert record.attack_type == "ddos"

    def test_benign_flow_label(self):
        record = self._flow([make_tcp_packet(0.0), make_tcp_packet(0.1)])
        assert record.label == 0
        assert record.attack_type == ""

    def test_dominant_attack_type(self):
        record = self._flow([
            make_tcp_packet(0.0, label=1, attack_type="scan"),
            make_tcp_packet(0.1, label=1, attack_type="ddos"),
            make_tcp_packet(0.2, label=1, attack_type="ddos"),
        ])
        assert record.attack_type == "ddos"

    def test_active_idle_periods(self):
        gap = ACTIVE_IDLE_THRESHOLD + 5.0
        record = self._flow([
            make_tcp_packet(0.0),
            make_tcp_packet(1.0),
            make_tcp_packet(1.0 + gap),  # idle gap splits activity
            make_tcp_packet(2.0 + gap),
        ])
        assert record.idle_periods.count == 1
        assert record.idle_periods.mean == pytest.approx(gap)
        assert record.active_periods.count == 2

    def test_duration_and_totals(self):
        record = self._flow([
            make_tcp_packet(1.0, payload=b"aa"),
            make_tcp_packet(3.5, payload=b"bbb"),
        ])
        assert record.duration == pytest.approx(2.5)
        assert record.total_packets == 2

    def test_init_window_captured(self):
        stats = DirectionStats()
        stats.add(make_tcp_packet(0.0))
        assert stats.init_window == 65535
