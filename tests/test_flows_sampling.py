"""Tests for random flow sampling and temporal re-sorting."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.flows.key import flow_key_for_packet
from repro.flows.sampling import (
    random_flow_sample,
    random_packet_sample,
    sort_by_timestamp,
)
from repro.utils.rng import SeededRNG

from tests.conftest import make_udp_packet, scaled_examples


def _population(flow_count=10, packets_per_flow=6):
    packets = []
    for f in range(flow_count):
        for i in range(packets_per_flow):
            packets.append(
                make_udp_packet(ts=f + i * 0.01, sport=4000 + f)
            )
    return sort_by_timestamp(packets)


class TestSortByTimestamp:
    def test_sorts(self):
        packets = [make_udp_packet(2.0), make_udp_packet(1.0)]
        out = sort_by_timestamp(packets)
        assert [p.timestamp for p in out] == [1.0, 2.0]

    def test_stable_for_equal_stamps(self):
        a = make_udp_packet(1.0, sport=1)
        b = make_udp_packet(1.0, sport=2)
        out = sort_by_timestamp([a, b])
        assert out == [a, b]


class TestFlowSampling:
    def test_full_fraction_keeps_everything(self):
        packets = _population()
        out = random_flow_sample(packets, 1.0, SeededRNG(1))
        assert len(out) == len(packets)

    def test_flow_integrity(self):
        """A kept flow keeps every one of its packets."""
        packets = _population()
        out = random_flow_sample(packets, 0.5, SeededRNG(2))
        kept_keys = {flow_key_for_packet(p) for p in out}
        for key in kept_keys:
            original = [p for p in packets if flow_key_for_packet(p) == key]
            sampled = [p for p in out if flow_key_for_packet(p) == key]
            assert len(original) == len(sampled)

    def test_fraction_respected_at_flow_level(self):
        packets = _population(flow_count=20)
        out = random_flow_sample(packets, 0.5, SeededRNG(3))
        kept_flows = {flow_key_for_packet(p) for p in out}
        assert len(kept_flows) == 10

    def test_zero_fraction(self):
        assert random_flow_sample(_population(), 0.0, SeededRNG(4)) == []

    def test_deterministic(self):
        packets = _population()
        a = random_flow_sample(packets, 0.3, SeededRNG(5))
        b = random_flow_sample(packets, 0.3, SeededRNG(5))
        assert a == b

    def test_output_sorted(self):
        out = random_flow_sample(_population(), 0.7, SeededRNG(6))
        stamps = [p.timestamp for p in out]
        assert stamps == sorted(stamps)

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            random_flow_sample(_population(), 1.5, SeededRNG(7))

    @settings(max_examples=scaled_examples(25))
    @given(st.floats(0.05, 1.0), st.integers(0, 1000))
    def test_sampled_is_subset_property(self, fraction, seed):
        packets = _population(flow_count=8)
        out = random_flow_sample(packets, fraction, SeededRNG(seed))
        assert len(out) <= len(packets)
        original_ids = {id(p) for p in packets}
        assert all(id(p) in original_ids for p in out)


class TestPacketSampling:
    def test_fraction_respected(self):
        packets = _population()
        out = random_packet_sample(packets, 0.5, SeededRNG(8))
        assert len(out) == len(packets) // 2

    def test_destroys_flow_integrity_usually(self):
        packets = _population(flow_count=10, packets_per_flow=10)
        out = random_packet_sample(packets, 0.3, SeededRNG(9))
        by_flow: dict = {}
        for p in out:
            by_flow.setdefault(flow_key_for_packet(p), []).append(p)
        # At least one flow is partially sampled (the point of the
        # contrast with flow sampling).
        assert any(len(v) < 10 for v in by_flow.values())

    def test_minimum_one_packet(self):
        packets = _population(flow_count=1, packets_per_flow=3)
        out = random_packet_sample(packets, 0.01, SeededRNG(10))
        assert len(out) == 1
