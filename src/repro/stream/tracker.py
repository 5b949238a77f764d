"""Incremental flow assembly for the streaming path.

:class:`StreamingFlowTracker` is the push-based face of
:class:`~repro.flows.assembler.FlowAssembler`: one packet in, zero or
more *completed* flows out. Flow boundaries (idle timeout, active
timeout, TCP FIN/RST) are exactly the assembler's — the tracker is a
thin per-packet driver over the same state machine, so streaming and
batch flow exports agree flow-for-flow, and completed flows come out in
the assembler's ``process()`` order (``tests/test_stream_tracker.py``).
"""

from __future__ import annotations

from typing import Iterable

from repro.flows.assembler import FlowAssembler
from repro.flows.record import FlowRecord
from repro.net.packet import Packet


class StreamingFlowTracker:
    """Per-packet flow eviction over the batch assembler's semantics."""

    def __init__(
        self, *, idle_timeout: float = 120.0, active_timeout: float = 3600.0
    ) -> None:
        self._assembler = FlowAssembler(
            idle_timeout=idle_timeout, active_timeout=active_timeout
        )
        self.packets_seen = 0
        self.flows_completed = 0

    def add(self, packet: Packet) -> list[FlowRecord]:
        """Consume one packet; return flows it completed (by closing
        them or by advancing time past another flow's timeout)."""
        self.packets_seen += 1
        completed = list(self._assembler.process((packet,)))
        self.flows_completed += len(completed)
        return completed

    def add_many(self, packets: Iterable[Packet]) -> list[FlowRecord]:
        """Consume a burst of packets (micro-batch convenience)."""
        completed: list[FlowRecord] = []
        for packet in packets:
            completed.extend(self.add(packet))
        return completed

    def flush(self) -> list[FlowRecord]:
        """Close and return every still-open flow (end of stream)."""
        remaining = list(self._assembler.flush())
        self.flows_completed += len(remaining)
        return remaining

    @property
    def open_flows(self) -> int:
        return self._assembler.open_flows

    @property
    def non_ip_packets(self) -> int:
        return self._assembler.non_ip_packets
