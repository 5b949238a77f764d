"""Live flow assembly: pushing packets into one :class:`FlowAssembler`
one at a time, or in split batches, completes the same flows in the
same order as a one-shot run, and in the scan oracle's completion
order (``FlowStreamDetector`` feeds each column batch to
``FlowAssembler.process`` as it arrives)."""

from __future__ import annotations

from repro.datasets import generate_dataset
from repro.flows.assembler import FlowAssembler
from repro.net.tcp import TCPFlags

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


def _pushed(packets, cuts, **timeouts):
    """Completed flows of ``packets`` pushed in the batches ``cuts``
    delimit, then flushed."""
    assembler = FlowAssembler(**timeouts)
    flows, start = [], 0
    for stop in [*cuts, len(packets)]:
        flows += assembler.process(packets[start:stop])
        start = stop
    return flows + list(assembler.flush())


def _assert_same_flows(packets, **timeouts):
    oneshot = FlowAssembler(**timeouts)
    expected = list(oneshot.process(packets)) + list(oneshot.flush())
    # The flow set and every boundary agree with the batch export
    # (assemble() sorts by start time, so compare as sets).
    batch = FlowAssembler(**timeouts).assemble(packets)
    assert sorted(map(_flow_signature, expected)) == sorted(
        map(_flow_signature, batch)
    )
    # Completion order is part of the streaming contract (live
    # DNN/Slips scores follow it): the scan oracle's process() order.
    oracle = ScanFlowAssembler(**timeouts)
    scanned = list(oracle.process(packets)) + list(oracle.flush())
    assert list(map(_flow_signature, expected)) == list(
        map(_flow_signature, scanned)
    )
    n = len(packets)
    for cuts in (
        range(1, n),  # one packet at a time
        [n // 3, n // 3 + 1, 2 * n // 3],
        [0, n // 2, n // 2],  # empty batches are no-ops
    ):
        pushed = _pushed(packets, list(cuts), **timeouts)
        assert list(map(_flow_signature, pushed)) == list(
            map(_flow_signature, expected)
        )
    return expected


class TestBoundaryParity:
    def test_tcp_close_emits_immediately(self):
        packets = [
            make_tcp_packet(ts=0.0, flags=TCPFlags.SYN),
            make_tcp_packet(ts=0.1, flags=TCPFlags.ACK),
            make_tcp_packet(ts=0.2, flags=TCPFlags.FIN | TCPFlags.ACK),
            make_udp_packet(ts=5.0),
        ]
        assembler = FlowAssembler()
        assert list(assembler.process(packets[:1])) == []
        assert list(assembler.process(packets[1:2])) == []
        closed = list(assembler.process(packets[2:3]))
        assert len(closed) == 1  # FIN closes the flow on that packet
        assert closed[0].total_packets == 3
        assert assembler.open_flows == 0
        list(assembler.process(packets[3:]))
        assert assembler.open_flows == 1
        _assert_same_flows(packets)

    def test_idle_timeout_eviction(self):
        packets = [
            make_udp_packet(ts=0.0, sport=1111),
            make_udp_packet(ts=1.0, sport=1111),
            # 200s of silence: the first flow idles out when this arrives.
            make_udp_packet(ts=201.0, sport=2222),
        ]
        assembler = FlowAssembler(idle_timeout=120.0)
        assert list(assembler.process(packets[:2])) == []
        evicted = list(assembler.process(packets[2:]))
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
        assembler = FlowAssembler()
        assert list(assembler.process([arp])) == []
        assert assembler.non_ip_packets == 1
        assert assembler.open_flows == 0

    def test_capture_notes_the_detectors_non_ip_count(self):
        """``stream_capture`` reports the live assembler's count; the
        warmup prefix is assembled apart and does not add to it."""
        from repro.net.arp import ARPHeader
        from repro.net.ethernet import ETHERTYPE_ARP, EthernetHeader
        from repro.net.packet import Packet
        from repro.stream import ListSource, build_streaming_detector
        from repro.stream.service import stream_capture

        def arp(ts):
            return Packet(
                timestamp=ts,
                ether=EthernetHeader(ethertype=ETHERTYPE_ARP),
                arp=ARPHeader(sender_ip="10.0.0.1", target_ip="10.0.0.2"),
            )

        packets = [arp(0.0)] + [
            make_udp_packet(ts=0.1 * i, sport=2000 + i) for i in range(1, 40)
        ]
        packets[25:27] = [arp(2.5), arp(2.55)]
        report = stream_capture(
            ListSource(packets, labelled=False),
            build_streaming_detector("Slips", labelled=False),
            warmup_packets=10, threshold=0.5,
        )
        assert report.notes["non_ip_packets"] == 2
