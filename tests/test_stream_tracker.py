"""StreamingFlowTracker must reproduce FlowAssembler's flow boundaries."""

from __future__ import annotations

from repro.datasets import generate_dataset
from repro.flows.assembler import FlowAssembler
from repro.net.tcp import TCPFlags
from repro.stream.tracker import StreamingFlowTracker

from tests.conftest import make_tcp_packet, make_udp_packet
from tests.flow_oracle import ScanFlowAssembler


def _flow_signature(flow):
    """Identity + boundary signature of one flow."""
    return (
        str(flow.key),
        round(flow.start_time, 9),
        round(flow.end_time, 9),
        flow.total_packets,
        flow.total_bytes,
        flow.label,
    )


def _assert_same_flows(packets, **timeouts):
    batch = FlowAssembler(**timeouts).assemble(packets)
    tracker = StreamingFlowTracker(**timeouts)
    streamed = tracker.add_many(packets)
    streamed.extend(tracker.flush())
    # assemble() sorts by start time; completion order differs — the
    # flow *set* and every boundary must agree exactly.
    assert sorted(map(_flow_signature, streamed)) == sorted(
        map(_flow_signature, batch)
    )
    assert tracker.flows_completed == len(batch)
    # Completion order itself is part of the streaming contract (live
    # DNN/Slips scores follow it): the scan oracle's process() order.
    oracle = ScanFlowAssembler(**timeouts)
    expected = list(oracle.process(packets)) + list(oracle.flush())
    assert list(map(_flow_signature, streamed)) == list(
        map(_flow_signature, expected)
    )
    return streamed


class TestBoundaryParity:
    def test_tcp_close_emits_immediately(self):
        packets = [
            make_tcp_packet(ts=0.0, flags=TCPFlags.SYN),
            make_tcp_packet(ts=0.1, flags=TCPFlags.ACK),
            make_tcp_packet(ts=0.2, flags=TCPFlags.FIN | TCPFlags.ACK),
            make_udp_packet(ts=5.0),
        ]
        tracker = StreamingFlowTracker()
        assert tracker.add(packets[0]) == []
        assert tracker.add(packets[1]) == []
        closed = tracker.add(packets[2])
        assert len(closed) == 1  # FIN closes the flow on that packet
        assert closed[0].total_packets == 3
        assert tracker.open_flows == 0
        tracker.add(packets[3])
        assert tracker.open_flows == 1

    def test_idle_timeout_eviction(self):
        packets = [
            make_udp_packet(ts=0.0, sport=1111),
            make_udp_packet(ts=1.0, sport=1111),
            # 200s of silence: the first flow idles out when this arrives.
            make_udp_packet(ts=201.0, sport=2222),
        ]
        tracker = StreamingFlowTracker(idle_timeout=120.0)
        tracker.add(packets[0])
        tracker.add(packets[1])
        evicted = tracker.add(packets[2])
        assert len(evicted) == 1
        assert evicted[0].end_time == 1.0
        _assert_same_flows(packets, idle_timeout=120.0)

    def test_active_timeout_splits_long_flows(self):
        packets = [
            make_udp_packet(ts=float(t), sport=3333) for t in range(0, 50, 5)
        ]
        streamed = _assert_same_flows(
            packets, idle_timeout=120.0, active_timeout=20.0
        )
        assert len(streamed) > 1  # the long-lived flow was split

    def test_dataset_scale_parity(self):
        """Whole synthetic captures stream to identical flow exports."""
        for name in ("Mirai", "UNSW-NB15"):
            dataset = generate_dataset(name, seed=0, scale=0.03)
            _assert_same_flows(dataset.packets)

    def test_non_ip_packets_counted_not_flowed(self):
        from repro.net.arp import ARPHeader
        from repro.net.ethernet import ETHERTYPE_ARP, EthernetHeader
        from repro.net.packet import Packet

        arp = Packet(
            timestamp=0.0,
            ether=EthernetHeader(ethertype=ETHERTYPE_ARP),
            arp=ARPHeader(sender_ip="10.0.0.1", target_ip="10.0.0.2"),
        )
        tracker = StreamingFlowTracker()
        assert tracker.add(arp) == []
        assert tracker.non_ip_packets == 1
        assert tracker.open_flows == 0
