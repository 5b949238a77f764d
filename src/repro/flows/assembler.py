"""Bidirectional flow assembly with CICFlowMeter-compatible timeouts."""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator

from repro.flows.key import FlowKey, flow_key_for_packet
from repro.flows.record import CLOSE_MASK, FlowRecord
from repro.net.packet import Packet
from repro.net.tcp import TCPHeader
from repro.utils.validation import check_positive

#: Relative slack subtracted from every heap deadline. Covers the
#: rounding of ``end + idle`` against the exact ``now - end > idle``
#: test (a few ulps of the operands), so a heap deadline is never later
#: than the moment the exact predicate first holds.
_DEADLINE_SLACK = 2.0**-48


class FlowAssembler:
    """Groups a packet stream into completed :class:`FlowRecord` objects.

    Follows the flow semantics of CICFlowMeter/Argus:

    * a flow expires after ``idle_timeout`` seconds without a packet;
    * a flow is force-expired after ``active_timeout`` seconds of total
      lifetime (long-lived flows are split);
    * a TCP flow ends when FIN or RST is observed (the closing packet is
      included), matching how the public datasets delimit flows.

    Packets must arrive in non-decreasing timestamp order; the paper's
    methodology sorts sampled packets by timestamp before flow export
    for exactly this reason (Section IV-A-2).

    Expiry is a lazy timer heap: each open flow has an entry keyed by a
    lower bound on the moment it can time out. A packet only inspects
    the entries whose bound has passed, re-checks the exact predicate
    ``now - end > idle_timeout or now - start > active_timeout`` and
    re-schedules the flows that turn out to be still alive. Flows that
    expire on the same packet are emitted in the order they were opened.
    """

    def __init__(
        self, *, idle_timeout: float = 120.0, active_timeout: float = 3600.0
    ) -> None:
        self.idle_timeout = check_positive("idle_timeout", idle_timeout)
        self.active_timeout = check_positive("active_timeout", active_timeout)
        # key -> (open sequence, record); dict order is open order.
        self._active: dict[FlowKey, tuple[int, FlowRecord]] = {}
        # (deadline lower bound, open sequence, key): a sequence names
        # one flow, so ties never order two keys, and it tells a queued
        # entry from the entry of a later flow that reuses the key.
        self._heap: list[tuple[float, int, FlowKey]] = []
        self._opened = 0
        self._last_seen_ts: float | None = None
        self.non_ip_packets = 0

    def process(self, packets: Iterable[Packet]) -> Iterator[FlowRecord]:
        """Consume packets, yielding flows as they complete.

        Call :meth:`flush` afterwards to drain still-open flows.
        """
        active = self._active
        heap = self._heap
        for packet in packets:
            now = packet.timestamp
            last = self._last_seen_ts
            if last is not None and now < last - 1e-9:
                raise ValueError(
                    "packets must be sorted by timestamp; "
                    f"saw {now} after {last} "
                    "(use repro.flows.sampling.sort_by_timestamp first)"
                )
            self._last_seen_ts = now
            if heap and heap[0][0] <= now:
                yield from self._expire(now)
            key = flow_key_for_packet(packet)
            if key is None:
                self.non_ip_packets += 1
                continue
            entry = active.get(key)
            if entry is None:
                self._opened += 1
                record = FlowRecord.open(key, packet)
                active[key] = (self._opened, record)
                self._schedule(self._opened, key, record)
                continue
            seq, record = entry
            moved_back = now < record.end_time
            record.add(packet)
            if self._tcp_closed(packet):
                record.close()
                del active[key]
                yield record
            elif moved_back:
                # The flow's end moved back (within the sort tolerance),
                # so its queued deadline may now be too late.
                self._schedule(seq, key, record)

    def flush(self) -> Iterator[FlowRecord]:
        """Close and yield every still-open flow (end of capture)."""
        for key in list(self._active):
            _, record = self._active.pop(key)
            record.close()
            yield record
        if not self._active:
            self._heap.clear()

    def assemble(self, packets: Iterable[Packet]) -> list[FlowRecord]:
        """Convenience: process + flush into a list sorted by start time."""
        flows = list(self.process(packets))
        flows.extend(self.flush())
        flows.sort(key=lambda flow: (flow.start_time, flow.end_time))
        return flows

    @property
    def open_flows(self) -> int:
        return len(self._active)

    def _deadline(self, record: FlowRecord) -> float:
        """A lower bound on the first ``now`` at which ``record`` expires."""
        start, end = record.start_time, record.end_time
        bound = min(end + self.idle_timeout, start + self.active_timeout)
        scale = abs(start) + abs(end) + self.idle_timeout + self.active_timeout
        return bound - scale * _DEADLINE_SLACK

    def _schedule(self, seq: int, key: FlowKey, record: FlowRecord) -> None:
        heapq.heappush(self._heap, (self._deadline(record), seq, key))

    def _expire(self, now: float) -> Iterator[FlowRecord]:
        active = self._active
        heap = self._heap
        idle, lifetime = self.idle_timeout, self.active_timeout
        expired: list[tuple[int, FlowRecord]] = []
        alive: list[tuple[int, FlowKey, FlowRecord]] = []
        while heap and heap[0][0] <= now:
            _, seq, key = heapq.heappop(heap)
            entry = active.get(key)
            if entry is None or entry[0] != seq:
                continue  # closed, expired or reopened since queued
            record = entry[1]
            if now - record.end_time > idle or now - record.start_time > lifetime:
                del active[key]
                expired.append((seq, record))
            else:
                alive.append((seq, key, record))
        # Re-queue only after the pop loop: a bound still inside the
        # slack must not be popped again for this packet.
        for seq, key, record in alive:
            self._schedule(seq, key, record)
        expired.sort(key=lambda item: item[0])
        for _, record in expired:
            record.close()
            yield record

    @staticmethod
    def _tcp_closed(packet: Packet) -> bool:
        transport = packet.transport
        return isinstance(transport, TCPHeader) and bool(
            int(transport.flags) & CLOSE_MASK
        )
