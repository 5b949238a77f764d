"""Cross-module property and fuzz tests.

These target the invariants the pipeline silently relies on: parsers
never crash on garbage (they raise typed errors), flow assembly
conserves packets, feature exporters never emit non-finite values, and
the threshold search respects its budget whenever the budget is
feasible.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.thresholds import fpr_budget_threshold
from repro.datasets.traffic import Network, tcp_conversation
from repro.features.incstat import IncStat
from repro.flows.assembler import FlowAssembler
from repro.flows.cicflow import cicflow_features
from repro.flows.netflow import netflow_features
from repro.net.packet import Packet
from repro.net.pcap import PcapFormatError, PcapReader
from repro.utils.rng import SeededRNG

from tests.conftest import make_udp_packet, scaled_examples


class TestParserFuzz:
    @settings(max_examples=scaled_examples(200))
    @given(st.binary(min_size=0, max_size=200))
    def test_packet_parser_raises_typed_errors_only(self, blob):
        """Arbitrary bytes either parse or raise ValueError — never
        crash with IndexError/struct.error/etc."""
        try:
            Packet.from_bytes(blob)
        except ValueError:
            pass

    @settings(max_examples=scaled_examples(100))
    @given(st.binary(min_size=0, max_size=400))
    def test_pcap_reader_raises_typed_errors_only(self, blob):
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.pcap"
            path.write_bytes(blob)
            try:
                for _ in PcapReader(path):
                    pass
            except (PcapFormatError, ValueError):
                pass

    @settings(max_examples=scaled_examples(100))
    @given(st.binary(min_size=12, max_size=120))
    def test_dns_parser_typed_errors_only(self, blob):
        from repro.net.dns import DNSMessage

        try:
            DNSMessage.from_bytes(blob)
        except ValueError:
            pass


class TestFlowConservation:
    @settings(max_examples=scaled_examples(25), deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 4),      # client index
                st.integers(0, 2),      # server index
                st.floats(0.0, 500.0),  # start time
                st.integers(1, 3),      # exchange rounds
            ),
            min_size=1,
            max_size=12,
        )
    )
    def test_assembler_conserves_ip_packets(self, sessions):
        """Every IP packet lands in exactly one flow."""
        rng = SeededRNG(11, "conserve")
        network = Network(subnet="10.3", rng=rng.child("net"))
        clients = network.hosts(5)
        servers = network.hosts(3)
        packets = []
        for ci, si, start, rounds in sessions:
            packets.extend(
                tcp_conversation(
                    rng, start, clients[ci], servers[si],
                    sport=network.ephemeral_port(), dport=80,
                    request_sizes=[100] * rounds,
                    response_sizes=[300] * rounds,
                )
            )
        packets.sort(key=lambda p: p.timestamp)
        assembler = FlowAssembler()
        flows = assembler.assemble(packets)
        assert sum(f.total_packets for f in flows) == len(packets)

    def test_flow_byte_conservation(self):
        packets = [make_udp_packet(float(i) * 0.1, payload=b"x" * (10 + i))
                   for i in range(20)]
        flows = FlowAssembler().assemble(packets)
        assert sum(f.total_bytes for f in flows) == sum(
            p.wire_len for p in packets
        )


class TestFeatureFiniteness:
    @settings(max_examples=scaled_examples(20), deadline=None)
    @given(
        st.integers(1, 4),             # rounds
        st.integers(0, 5000),          # request size
        st.integers(0, 5000),          # response size
        st.floats(0.001, 10.0),        # think time
    )
    def test_exporters_always_finite(self, rounds, req, resp, think):
        rng = SeededRNG(13, "finite")
        network = Network(subnet="10.4", rng=rng.child("net"))
        client, server = network.hosts(2)
        packets = tcp_conversation(
            rng, 0.0, client, server, sport=40000, dport=443,
            request_sizes=[req] * rounds, response_sizes=[resp] * rounds,
            think_time=think,
        )
        flows = FlowAssembler().assemble(packets)
        for flow in flows:
            for name, value in cicflow_features(flow).items():
                assert np.isfinite(value), f"cicflow {name}"
            for name, value in netflow_features(flow).items():
                assert np.isfinite(value), f"netflow {name}"


#: Bounded stream observations: (value, dt-since-previous) pairs with
#: non-negative time steps, as AfterImage sees them.
_observations = st.lists(
    st.tuples(
        st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False),
        st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False),
    ),
    min_size=1,
    max_size=40,
)


class TestIncStatProperties:
    """Invariants of the damped statistics Kitsune's features rest on."""

    @settings(max_examples=scaled_examples(200))
    @given(_observations, st.sampled_from([5.0, 3.0, 1.0, 0.1, 0.01]),
           st.floats(0.0, 100.0))
    def test_decay_is_monotone_in_time(self, observations, decay, extra_dt):
        """Once observations stop, weight/|LS|/SS can only shrink as the
        decay horizon advances — never grow, never go negative."""
        stat = IncStat(decay)
        now = 0.0
        for value, dt in observations:
            now += dt
            stat.insert(value, now)
        before = (stat.weight, abs(stat.linear_sum), stat.squared_sum)
        stat.decay_to(now + extra_dt)
        after = (stat.weight, abs(stat.linear_sum), stat.squared_sum)
        for b, a in zip(before, after):
            assert 0.0 <= a <= b + 1e-12

    @settings(max_examples=scaled_examples(200))
    @given(
        st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False),
        st.sampled_from([5.0, 1.0, 0.1]),
        st.floats(0.0, 20.0),
        st.floats(0.0, 20.0),
    )
    def test_split_decay_commutes_with_merged_interval(
        self, value, decay, dt1, dt2
    ):
        """insert then decay_to(t1); decay_to(t2) == decay_to(t2)
        directly: decaying across [t0,t1] then [t1,t2] must equal one
        merged [t0,t2] decay (exponential damping is interval-additive)."""
        split = IncStat(decay)
        split.insert(value, 10.0)
        split.decay_to(10.0 + dt1)
        split.decay_to(10.0 + dt1 + dt2)

        merged = IncStat(decay)
        merged.insert(value, 10.0)
        merged.decay_to(10.0 + dt1 + dt2)

        assert split.weight == pytest.approx(merged.weight, rel=1e-9, abs=1e-300)
        assert split.linear_sum == pytest.approx(
            merged.linear_sum, rel=1e-9, abs=1e-300
        )
        assert split.squared_sum == pytest.approx(
            merged.squared_sum, rel=1e-9, abs=1e-300
        )
        assert split.last_time == pytest.approx(merged.last_time)

    @settings(max_examples=scaled_examples(200))
    @given(_observations, st.sampled_from([5.0, 1.0, 0.01]))
    def test_weight_mean_std_invariants(self, observations, decay):
        """With every observation weighted positively: weight > 0 after
        any insert, std/variance are never negative, the mean stays
        inside the observed value envelope, and exported stats are
        finite."""
        stat = IncStat(decay)
        assert stat.stats() == (0.0, 0.0, 0.0)  # empty stream is all-zero
        now = 0.0
        values = []
        for value, dt in observations:
            now += dt
            values.append(value)
            stat.insert(value, now)
            assert stat.weight > 0.0
            assert stat.variance >= 0.0
            assert stat.std >= 0.0
            # A damped mean is a positively-weighted average of the
            # inserted values, so it cannot escape their envelope.
            assert min(values) - 1e-9 <= stat.mean <= max(values) + 1e-9
            weight, mean, std = stat.stats()
            assert all(math.isfinite(x) for x in (weight, mean, std))
            assert std * std == pytest.approx(stat.variance, rel=1e-6, abs=1e-12)


class TestThresholdBudgetProperty:
    @settings(max_examples=scaled_examples(50))
    @given(
        st.lists(st.floats(0.0, 1.0), min_size=10, max_size=120),
        st.integers(0, 10_000),
    )
    def test_fpr_budget_respected_when_feasible(self, raw_scores, seed):
        rng = np.random.default_rng(seed)
        scores = np.array(raw_scores)
        y_true = rng.integers(0, 2, scores.size)
        if y_true.sum() in (0, scores.size):
            return  # degenerate class composition
        threshold = fpr_budget_threshold(y_true, scores, max_fpr=0.1)
        pred = scores >= threshold
        fp = int(np.sum(pred & (y_true == 0)))
        negatives = int(np.sum(y_true == 0))
        # Flagging nothing always satisfies the budget, so the chosen
        # threshold must too.
        assert fp / negatives <= 0.1 + 1e-9
