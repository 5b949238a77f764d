"""Reusable fault-injection harness for the sharded streaming engine.

The product-side seam is :class:`repro.stream.sharded.FaultInjection`
(workers honour it deterministically: kill/stall/slow at an exact shard
packet count). This module adds what tests need around that seam:

* :class:`ChannelMeanDetector` — a picklable stub detector whose state
  is keyed by canonical channel, so its per-packet scores are
  *bit-identical at any worker count* (unlike the NetStat IDSs, whose
  source-keyed aggregations make scores shard-layout-dependent). With
  it, full-report parity — scores, windows, alert episodes — can be
  asserted between faulted, unfaulted, sharded and in-process runs.
* :func:`conversation_packets` — multi-channel labelled traffic whose
  channels spread across shards, with an anomalous burst so alert
  episodes actually open.
* :func:`run_sharded` / :func:`assert_stream_reports_match` — one-call
  capture under a fault spec and strict report comparison.

Kill/stall/slow semantics (``FaultInjection(action=...)``):

``kill``
    SIGKILL the target worker just before it scores shard packet
    ``at_packets``, once a checkpoint writer in flight has finished (so
    every checkpoint taken before the cursor is on disk). Crash-resume
    path: the supervisor respawns it from its newest on-disk checkpoint
    and replays retained packets.
``stall``
    One ``seconds``-long sleep at the trigger — exercises backpressure
    (bounded queues fill; the supervisor blocks rather than buffering
    unboundedly) without killing anything.
``slow``
    ``per_packet_delay`` seconds before every packet from the trigger
    on — a persistently slow shard.
"""

from __future__ import annotations

import numpy as np

from repro.net.columnar import ColumnBatch
from repro.net.packet import Packet
from repro.net.pcap import write_pcap
from repro.stream.detector import ScoreBatch, StreamScore
from repro.stream.shard import shard_key_for_flow
from repro.stream.sharded import FaultInjection, stream_capture_sharded
from repro.stream.sources import ListSource

from tests.conftest import make_tcp_packet
from tests.stream_oracle import batch_of

__all__ = [
    "ChannelMeanDetector",
    "FaultInjection",
    "assert_stream_reports_match",
    "conversation_packets",
    "conversation_pcap",
    "run_sharded",
]


class ChannelMeanDetector:
    """Channel-keyed stub detector: sharding-invariant by construction.

    Scores each packet by its size's deviation from the running mean of
    its *channel* (the shard key), so a worker seeing only its shard's
    channels computes exactly what a single process would. Consumes
    column batches like every streaming detector (``process`` wraps
    one packet into a batch); picklable, so it rides the checkpoint
    path unchanged.
    """

    name = "channel-mean"
    unit = "packet"
    scoring_path = "per-packet"

    def __init__(self, batch_size: int = 1):
        self.batch_size = batch_size
        self.items_scored = 0
        self._state: dict[tuple, tuple[int, float]] = {}

    def _means(self, batch: ColumnBatch) -> list[float]:
        """Fold each row's size into its channel's running mean; the
        mean after each row. Rows are keyed through the batch's flow
        table, with the same channel key the shard key uses."""
        inverse, flows = batch.flow_table()
        keys = [shard_key_for_flow(flow) for flow in flows]
        means = []
        for flow, size in zip(inverse.tolist(), batch.wire_len.tolist()):
            key = keys[flow]
            count, mean = self._state.get(key, (0, 0.0))
            count += 1
            mean += (size - mean) / count
            self._state[key] = (count, mean)
            means.append(mean)
        return means

    def warmup(self, packets) -> None:
        self._means(ColumnBatch.from_packets(packets))

    def process(self, packet) -> list[StreamScore]:
        return self.process_columns(ColumnBatch.from_packets([packet])).rows()

    def process_columns(self, batch: ColumnBatch) -> ScoreBatch:
        means = self._means(batch)
        stamps = batch.timestamps.tolist()
        sizes = batch.wire_len.tolist()
        labels = batch.row_labels()
        attacks = batch.row_attack_types()
        base = self.items_scored
        self.items_scored += len(means)
        return batch_of(
            StreamScore(
                index=base + row,
                timestamp=stamps[row],
                score=abs(sizes[row] - mean) / (1.0 + mean),
                label=labels[row],
                attack_type=attacks[row],
            )
            for row, mean in enumerate(means)
        )

    def finish(self) -> ScoreBatch:
        return ScoreBatch.empty()


def conversation_packets(
    *,
    channels: int = 8,
    packets_per_channel: int = 60,
    anomaly_channel: int = 0,
    anomaly_from: int = 40,
    spacing: float = 0.05,
) -> list[Packet]:
    """Interleaved TCP conversations across ``channels`` host pairs.

    Channel ``anomaly_channel`` switches to oversized labelled packets
    from its ``anomaly_from``-th packet on, so thresholds, windows and
    alert episodes all have something to find.
    """
    packets: list[Packet] = []
    for step in range(packets_per_channel):
        for channel in range(channels):
            anomalous = (channel == anomaly_channel
                         and step >= anomaly_from)
            packets.append(make_tcp_packet(
                ts=step * spacing * channels + channel * spacing,
                src=f"10.0.{channel}.1",
                dst=f"10.0.{channel}.2",
                sport=40000 + channel,
                dport=80,
                payload=b"x" * (900 if anomalous else 40 + channel),
                label=1 if anomalous else 0,
                attack_type="oversize" if anomalous else "",
            ))
    return packets


def conversation_pcap(path, **kwargs):
    """:func:`conversation_packets` written to a capture file (labels
    do not survive pcap, so replays of it are unlabelled)."""
    write_pcap(path, conversation_packets(**kwargs))
    return path


def run_sharded(
    packets: list[Packet],
    *,
    workers: int,
    fault: FaultInjection | None = None,
    warmup_packets: int = 64,
    checkpoint_every: int = 50,
    chunk_packets: int = 16,
    batch_size: int = 1,
    window_seconds: float = 5.0,
    **kwargs,
):
    """One sharded capture of ``packets`` with the harness detector.

    Small chunks and a short checkpoint cadence by default, so kills
    land between checkpoints and retention/replay paths actually run.
    """
    return stream_capture_sharded(
        ListSource(packets),
        ChannelMeanDetector(batch_size=batch_size),
        workers=workers,
        warmup_packets=warmup_packets,
        window_seconds=window_seconds,
        checkpoint_every=checkpoint_every,
        chunk_packets=chunk_packets,
        fault=fault,
        **kwargs,
    )


def assert_stream_reports_match(actual, expected) -> None:
    """Strict parity: scores, threshold, windows and alert episodes."""
    assert actual.n_scored == expected.n_scored
    assert np.array_equal(actual.scores, expected.scores), (
        "per-item scores diverge"
    )
    assert actual.threshold == expected.threshold
    assert actual.alerts == expected.alerts, "alert episodes diverge"
    assert len(actual.windows) == len(expected.windows)
    for left, right in zip(actual.windows, expected.windows):
        assert left.start == right.start
        assert left.items == right.items
        assert left.alerts == right.alerts
    assert (actual.notes["coverage_digest"]
            == expected.notes["coverage_digest"])
