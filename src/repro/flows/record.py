"""Flow records: per-direction accumulation of packet statistics.

A :class:`FlowRecord` is built incrementally by the assembler — one
:meth:`FlowRecord.add` call per packet — and holds everything the
CICFlowMeter-style and UNSW-style exporters need: per-direction packet
and byte counts, packet-length and inter-arrival-time distributions,
TCP flag counts, window sizes, active/idle periods, and ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.flows.key import FlowKey
from repro.net.packet import Packet
from repro.net.tcp import TCPFlags, TCPHeader

#: ``(name, mask)`` per TCP flag in :class:`TCPFlags` order, so flag
#: tests stay plain int ``&`` (no enum objects per packet) and
#: ``flag_counts`` keeps that insertion order.
FLAG_MASKS = tuple((flag.name, flag.value) for flag in TCPFlags)
CLOSE_MASK = TCPFlags.FIN.value | TCPFlags.RST.value
_PSH = TCPFlags.PSH.value
_URG = TCPFlags.URG.value


class RunningStats:
    """Streaming count/mean/std/min/max via Welford's algorithm.

    Numerically stable single-pass moments, so million-packet flows can
    be summarised without holding per-packet arrays.
    """

    __slots__ = ("count", "mean", "_m2", "min", "max", "total")

    def __init__(self) -> None:
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.total = 0.0

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def variance(self) -> float:
        """Population variance (0.0 for fewer than two samples)."""
        if self.count < 2:
            return 0.0
        return self._m2 / self.count

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def min_or(self, default: float = 0.0) -> float:
        return self.min if self.count else default

    def max_or(self, default: float = 0.0) -> float:
        return self.max if self.count else default

    def merge(self, other: "RunningStats") -> "RunningStats":
        """Combine two summaries (parallel Welford merge)."""
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self._m2 = other._m2
            self.min = other.min
            self.max = other.max
            self.total = other.total
            return self
        combined = self.count + other.count
        delta = other.mean - self.mean
        self._m2 = (
            self._m2 + other._m2 + delta * delta * self.count * other.count / combined
        )
        self.mean = (self.mean * self.count + other.mean * other.count) / combined
        self.count = combined
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)
        return self


@dataclass
class DirectionStats:
    """Per-direction accumulators (forward = initiator → responder)."""

    packets: int = 0
    bytes: int = 0
    payload_bytes: int = 0
    lengths: RunningStats = field(default_factory=RunningStats)
    iats: RunningStats = field(default_factory=RunningStats)
    header_bytes: int = 0
    last_timestamp: float | None = None
    init_window: int = -1
    psh_count: int = 0
    urg_count: int = 0

    def add(self, packet: Packet) -> None:
        self.packets += 1
        wire_len = packet.wire_len
        self.bytes += wire_len
        self.payload_bytes += len(packet.payload)
        self.lengths.add(float(len(packet.payload)))
        if self.last_timestamp is not None:
            self.iats.add(packet.timestamp - self.last_timestamp)
        self.last_timestamp = packet.timestamp
        self.header_bytes += wire_len - len(packet.payload)
        transport = packet.transport
        if isinstance(transport, TCPHeader):
            if self.init_window < 0:
                self.init_window = transport.window
            flags = int(transport.flags)
            if flags & _PSH:
                self.psh_count += 1
            if flags & _URG:
                self.urg_count += 1


#: Gap of inactivity that splits a flow into separate "active" periods,
#: matching CICFlowMeter's default (in seconds).
ACTIVE_IDLE_THRESHOLD = 5.0


@dataclass
class FlowRecord:
    """A bidirectional flow under construction or completed."""

    key: FlowKey
    src_ip: str
    src_port: int
    dst_ip: str
    dst_port: int
    protocol: str
    start_time: float
    end_time: float = 0.0
    forward: DirectionStats = field(default_factory=DirectionStats)
    backward: DirectionStats = field(default_factory=DirectionStats)
    flag_counts: dict[str, int] = field(default_factory=dict)
    flow_iats: RunningStats = field(default_factory=RunningStats)
    active_periods: RunningStats = field(default_factory=RunningStats)
    idle_periods: RunningStats = field(default_factory=RunningStats)
    attack_packets: int = 0
    attack_types: dict[str, int] = field(default_factory=dict)
    terminated: bool = False
    _last_timestamp: float | None = field(default=None, repr=False)
    _active_start: float | None = field(default=None, repr=False)

    @classmethod
    def open(cls, key: FlowKey, first_packet: Packet) -> "FlowRecord":
        """Open a new flow; the first packet's source is the initiator."""
        record = cls(
            key=key,
            src_ip=first_packet.ip.src_ip,
            src_port=first_packet.src_port or 0,
            dst_ip=first_packet.ip.dst_ip,
            dst_port=first_packet.dst_port or 0,
            protocol=first_packet.protocol_name,
            start_time=first_packet.timestamp,
        )
        record.add(first_packet)
        return record

    def is_forward(self, packet: Packet) -> bool:
        """True if ``packet`` travels initiator → responder."""
        return (
            packet.ip is not None
            and packet.ip.src_ip == self.src_ip
            and (packet.src_port or 0) == self.src_port
        )

    def add(self, packet: Packet) -> None:
        """Fold one packet into the flow."""
        direction = self.forward if self.is_forward(packet) else self.backward
        direction.add(packet)
        self.end_time = packet.timestamp

        if self._last_timestamp is not None:
            gap = packet.timestamp - self._last_timestamp
            self.flow_iats.add(gap)
            if gap > ACTIVE_IDLE_THRESHOLD:
                if self._active_start is not None:
                    self.active_periods.add(self._last_timestamp - self._active_start)
                self.idle_periods.add(gap)
                self._active_start = packet.timestamp
        if self._active_start is None:
            self._active_start = packet.timestamp
        self._last_timestamp = packet.timestamp

        transport = packet.transport
        if isinstance(transport, TCPHeader):
            flags = int(transport.flags)
            counts = self.flag_counts
            for name, mask in FLAG_MASKS:
                if flags & mask:
                    counts[name] = counts.get(name, 0) + 1
            if flags & CLOSE_MASK:
                self.terminated = True

        if packet.label:
            self.attack_packets += 1
            if packet.attack_type:
                self.attack_types[packet.attack_type] = (
                    self.attack_types.get(packet.attack_type, 0) + 1
                )

    def close(self) -> None:
        """Finalise the trailing active period."""
        if self._active_start is not None and self._last_timestamp is not None:
            span = self._last_timestamp - self._active_start
            if span > 0:
                self.active_periods.add(span)
            self._active_start = None

    # -- derived quantities -------------------------------------------
    @property
    def duration(self) -> float:
        return max(self.end_time - self.start_time, 0.0)

    @property
    def total_packets(self) -> int:
        return self.forward.packets + self.backward.packets

    @property
    def total_bytes(self) -> int:
        return self.forward.bytes + self.backward.bytes

    @property
    def label(self) -> int:
        """Flow-level ground truth: attack if any member packet is attack.

        This is the labelling convention the CICIDS2017 authors use
        (a flow touched by attack traffic is an attack flow).
        """
        return 1 if self.attack_packets > 0 else 0

    @property
    def attack_type(self) -> str:
        """The dominant attack family among member packets, or ``""``."""
        if not self.attack_types:
            return ""
        return max(self.attack_types.items(), key=lambda kv: kv[1])[0]

    def flag_count(self, name: str) -> int:
        return self.flag_counts.get(name, 0)
