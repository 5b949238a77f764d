"""Reference flow assembler: expiry by scanning every open flow.

This is the straightforward form of
:class:`repro.flows.assembler.FlowAssembler`: on every packet it tests
``now - end > idle_timeout or now - start > active_timeout`` against
each open flow and expires the matches in dict (= open) order. It is
quadratic in the number of open flows, so the shipped assembler keeps
a timer heap instead; this class stays only as the oracle the heap is
checked against (``tests/test_flows_expiry_parity.py`` and
``benchmarks/bench_substrates.py``).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.flows.key import FlowKey, flow_key_for_packet
from repro.flows.record import FlowRecord
from repro.net.packet import Packet
from repro.net.tcp import TCPFlags, TCPHeader
from repro.utils.validation import check_positive


class ScanFlowAssembler:
    """Same interface and flows as ``FlowAssembler``, by a full scan."""

    def __init__(
        self, *, idle_timeout: float = 120.0, active_timeout: float = 3600.0
    ) -> None:
        self.idle_timeout = check_positive("idle_timeout", idle_timeout)
        self.active_timeout = check_positive("active_timeout", active_timeout)
        self._active: dict[FlowKey, FlowRecord] = {}
        self._last_seen_ts: float | None = None
        self.non_ip_packets = 0

    def process(self, packets: Iterable[Packet]) -> Iterator[FlowRecord]:
        for packet in packets:
            if (
                self._last_seen_ts is not None
                and packet.timestamp < self._last_seen_ts - 1e-9
            ):
                raise ValueError(
                    "packets must be sorted by timestamp; "
                    f"saw {packet.timestamp} after {self._last_seen_ts}"
                )
            self._last_seen_ts = packet.timestamp
            yield from self._expire(packet.timestamp)
            key = flow_key_for_packet(packet)
            if key is None:
                self.non_ip_packets += 1
                continue
            record = self._active.get(key)
            if record is None:
                self._active[key] = FlowRecord.open(key, packet)
                continue
            record.add(packet)
            if self._tcp_closed(packet):
                record.close()
                del self._active[key]
                yield record

    def flush(self) -> Iterator[FlowRecord]:
        for key in list(self._active):
            record = self._active.pop(key)
            record.close()
            yield record

    def assemble(self, packets: Iterable[Packet]) -> list[FlowRecord]:
        flows = list(self.process(packets))
        flows.extend(self.flush())
        flows.sort(key=lambda flow: (flow.start_time, flow.end_time))
        return flows

    @property
    def open_flows(self) -> int:
        return len(self._active)

    def _expire(self, now: float) -> Iterator[FlowRecord]:
        expired = [
            key
            for key, record in self._active.items()
            if now - record.end_time > self.idle_timeout
            or now - record.start_time > self.active_timeout
        ]
        for key in expired:
            record = self._active.pop(key)
            record.close()
            yield record

    @staticmethod
    def _tcp_closed(packet: Packet) -> bool:
        transport = packet.transport
        return isinstance(transport, TCPHeader) and (
            transport.has(TCPFlags.FIN) or transport.has(TCPFlags.RST)
        )


def record_state(record: FlowRecord) -> tuple:
    """Every field of a flow, in comparable form.

    ``RunningStats`` and ``DirectionStats`` expand to their full
    internal state and the dicts to their item lists, so key order
    (``flag_counts`` insertion order) counts too. Floats compare with
    ``==``; NaN never appears in these records.
    """
    def stats(s):
        return (s.count, s.mean, s._m2, s.min, s.max, s.total)

    def direction(d):
        return (
            d.packets, d.bytes, d.payload_bytes, stats(d.lengths),
            stats(d.iats), d.header_bytes, d.last_timestamp,
            d.init_window, d.psh_count, d.urg_count,
        )

    return (
        record.key, record.src_ip, record.src_port, record.dst_ip,
        record.dst_port, record.protocol, record.start_time,
        record.end_time, direction(record.forward),
        direction(record.backward), list(record.flag_counts.items()),
        stats(record.flow_iats), stats(record.active_periods),
        stats(record.idle_periods), record.attack_packets,
        list(record.attack_types.items()), record.terminated,
        record._last_timestamp, record._active_start,
    )
