"""The timer-heap ``FlowAssembler`` against the scan oracle.

The shipped assembler queues one deadline lower bound per open flow
and re-checks the exact expiry predicate when the bound passes; the
oracle (``tests/flow_oracle.py``) scans every open flow on every
packet. Random time-sorted streams with small timeouts must yield the
same flows, on the same packet, in the same order, with every
``FlowRecord`` field equal — including boundary gaps of exactly
``idle_timeout``/``active_timeout`` and one ulp either side, TCP
closes followed by a reopen of the same key, non-IP packets and
backward steps inside the sort tolerance.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.flows.assembler import FlowAssembler
from repro.net.packet import Packet
from repro.net.tcp import TCPFlags

from tests.conftest import make_tcp_packet, make_udp_packet, scaled_examples
from tests.flow_oracle import ScanFlowAssembler, record_state

#: (initiator ip, initiator port, responder ip, responder port, proto);
#: the last one shares the first one's endpoints on another protocol.
ENDPOINTS = (
    ("10.0.0.1", 1000, "10.0.0.9", 80, "tcp"),
    ("10.0.0.2", 1001, "10.0.0.9", 80, "tcp"),
    ("10.0.0.3", 53, "10.0.0.9", 53, "udp"),
    ("10.0.0.1", 1000, "10.0.0.9", 80, "udp"),
)
FLAGS = (
    TCPFlags.ACK, TCPFlags.ACK, TCPFlags.ACK | TCPFlags.PSH, TCPFlags.SYN,
    TCPFlags.SYN | TCPFlags.ACK, TCPFlags.URG | TCPFlags.ACK,
    TCPFlags.ECE | TCPFlags.CWR, TCPFlags.FIN | TCPFlags.ACK, TCPFlags.RST,
)
TIMEOUTS = ((0.1, 0.3), (0.3, 0.7), (1.0, 2.5), (2.5, 1.0), (0.7, 0.7))
BASES = (0.0, 0.7, 1e6 + 0.123, 1.6e9)


def _nudge(value: float, ulps: int) -> float:
    direction = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        value = math.nextafter(value, direction)
    return value


def _next_time(draw, times: list[float], idle: float, active: float) -> float:
    """The next timestamp: a plain gap, a gap at a timeout boundary from
    an earlier packet (± one ulp), or a step back inside the 1e-9 sort
    tolerance. Never earlier than that tolerance allows."""
    last = times[-1]
    kind = draw(st.sampled_from(("gap", "gap", "zero", "anchor", "anchor", "back")))
    if kind == "gap":
        return last + draw(st.floats(0.0, 1.5)) * idle
    if kind == "zero":
        return last
    if kind == "back":
        back = last - draw(st.sampled_from((1e-10, 5e-10, 9e-10)))
        return back if back >= last - 1e-9 else last
    anchor = draw(st.sampled_from(times))
    timeout = draw(st.sampled_from((idle, active)))
    candidate = _nudge(anchor + timeout, draw(st.sampled_from((-1, 0, 1))))
    return candidate if candidate >= last else last


def _packet(draw, ts: float) -> Packet:
    which = draw(st.integers(0, len(ENDPOINTS)))
    if which == len(ENDPOINTS):
        return Packet(timestamp=ts)  # non-IP: no flow key
    src, sport, dst, dport, proto = ENDPOINTS[which]
    if draw(st.booleans()):
        src, sport, dst, dport = dst, dport, src, sport
    payload = b"x" * draw(st.sampled_from((0, 1, 40, 600)))
    label = draw(st.sampled_from((0, 0, 1)))
    if proto == "udp":
        return make_udp_packet(
            ts, src=src, dst=dst, sport=sport, dport=dport,
            payload=payload, label=label,
        )
    return make_tcp_packet(
        ts, src=src, dst=dst, sport=sport, dport=dport,
        flags=draw(st.sampled_from(FLAGS)), payload=payload, label=label,
        attack_type="scan" if label else "",
    )


@st.composite
def streams(draw):
    idle, active = draw(st.sampled_from(TIMEOUTS))
    times = [draw(st.sampled_from(BASES))]
    for _ in range(draw(st.integers(0, 60))):
        times.append(_next_time(draw, times, idle, active))
    return idle, active, [_packet(draw, ts) for ts in times]


def _states(flows) -> list[tuple]:
    return [record_state(flow) for flow in flows]


class TestHeapMatchesScan:
    @settings(max_examples=scaled_examples(200), deadline=None)
    @given(streams())
    def test_per_packet_yields_and_flush(self, stream):
        idle, active, packets = stream
        heap = FlowAssembler(idle_timeout=idle, active_timeout=active)
        scan = ScanFlowAssembler(idle_timeout=idle, active_timeout=active)
        for index, packet in enumerate(packets):
            assert _states(heap.process((packet,))) == _states(
                scan.process((packet,))
            ), f"packet {index} emitted different flows"
            assert heap.open_flows == scan.open_flows
        assert heap.non_ip_packets == scan.non_ip_packets
        assert _states(heap.flush()) == _states(scan.flush())
        assert heap.open_flows == 0

    @settings(max_examples=scaled_examples(50), deadline=None)
    @given(streams())
    def test_whole_stream_generator(self, stream):
        idle, active, packets = stream
        heap = FlowAssembler(idle_timeout=idle, active_timeout=active)
        scan = ScanFlowAssembler(idle_timeout=idle, active_timeout=active)
        assert _states(heap.process(packets)) == _states(scan.process(packets))
        assert _states(heap.flush()) == _states(scan.flush())


def _udp(ts: float, sport: int) -> Packet:
    return make_udp_packet(ts, sport=sport)


class TestFlushAndReuse:
    def test_process_flush_process(self):
        """Flows opened after a flush expire on their own deadlines and
        in their own open order, untouched by pre-flush entries."""
        assembler = FlowAssembler(idle_timeout=10.0)
        assert list(assembler.process([_udp(0.0, 1), _udp(1.0, 2)])) == []
        flushed = list(assembler.flush())
        assert [flow.src_port for flow in flushed] == [1, 2]
        assert assembler.open_flows == 0
        # Same keys again, opened in the reverse order: 2 then 1.
        assert list(assembler.process([_udp(5.0, 2), _udp(6.0, 1)])) == []
        assert assembler.open_flows == 2
        # t=15 is past port 1's pre-flush deadline, not the new flows'.
        assert list(assembler.process([_udp(15.0, 3)])) == []
        assert assembler.open_flows == 3
        expired = list(assembler.process([_udp(40.0, 4)]))
        assert [flow.src_port for flow in expired] == [2, 1, 3]
        assert [flow.start_time for flow in expired] == [5.0, 6.0, 15.0]

    def test_fin_closed_predecessor_entry_is_stale(self):
        """A key closed by FIN and reopened later keeps only its new
        flow's place in open order."""
        assembler = FlowAssembler(idle_timeout=10.0)
        packets = [
            make_tcp_packet(0.0, sport=1, flags=TCPFlags.SYN),
            make_tcp_packet(1.0, sport=1, flags=TCPFlags.FIN | TCPFlags.ACK),
            make_tcp_packet(2.0, sport=2, flags=TCPFlags.SYN),
            make_tcp_packet(3.0, sport=1, flags=TCPFlags.SYN),
        ]
        closed = list(assembler.process(packets))
        assert [flow.start_time for flow in closed] == [0.0]
        # Past the closed flow's queued deadline (t=11): nothing expires.
        assert list(assembler.process([_udp(11.5, 9)])) == []
        expired = list(assembler.process([_udp(30.0, 8)]))
        assert [(flow.src_port, flow.start_time) for flow in expired] == [
            (2, 2.0), (1, 3.0), (9, 11.5),
        ]
        assert not any(flow.terminated for flow in expired)

    def test_matches_oracle_across_flush(self):
        first = [_udp(float(t), t % 3) for t in range(6)]
        later = [_udp(100.0 + t, t % 4) for t in range(0, 40, 3)]

        def run(assembler) -> list[tuple]:
            emitted = list(assembler.process(first)) + list(assembler.flush())
            assert assembler.open_flows == 0
            emitted += assembler.process(later)
            emitted += assembler.flush()
            return _states(emitted)

        assert run(FlowAssembler(idle_timeout=4.0, active_timeout=9.0)) == run(
            ScanFlowAssembler(idle_timeout=4.0, active_timeout=9.0)
        )
