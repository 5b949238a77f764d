"""The sharded streaming engine: parity, transport, lifecycle, errors.

Crash-resume and backpressure live in ``test_stream_faultinject.py``;
this module covers the engine's steady-state contract.
"""

from __future__ import annotations

import multiprocessing
import pickle
import tempfile

import numpy as np
import pytest

from repro.net.columnar import ColumnBatch
from repro.stream.detector import build_streaming_detector
from repro.stream.service import stream_capture
from repro.stream.sharded import (
    FaultInjection,
    coverage_digest,
    stream_capture_sharded,
)
from repro.stream.sources import ListSource

from tests.conftest import make_tcp_packet
from tests.faultinject import (
    ChannelMeanDetector,
    conversation_packets,
    run_sharded,
)


class ExplodingDetector(ChannelMeanDetector):
    """Raises once its packet counter crosses the trip point."""

    def __init__(self, trip_at: int = 30):
        super().__init__()
        self.trip_at = trip_at

    def process_columns(self, batch):
        if self.items_scored >= self.trip_at:
            raise RuntimeError("detector tripped on purpose")
        return super().process_columns(batch)


class TestWireTransport:
    """Workers receive ``take`` slices of column batches: columns only,
    every field NetStat and the report read, no packet objects."""

    @staticmethod
    def _wire(packets):
        batch = ColumnBatch.from_packets(packets)
        return pickle.loads(pickle.dumps(
            batch.take(np.arange(len(batch)))))

    def test_column_slice_carries_every_field_netstat_reads(self):
        packet = make_tcp_packet(ts=4.2, src="10.9.0.1", dst="10.9.0.2",
                                 sport=4444, dport=80, payload=b"z" * 33,
                                 label=1, attack_type="probe")
        wire = self._wire([packet])
        flow = wire.flow_table()[1][0]
        assert wire.timestamps.tolist() == [packet.timestamp]
        assert wire.wire_len.tolist() == [packet.wire_len]
        assert flow.src_mac == packet.ether.src_mac
        assert flow.src_ip == packet.src_ip
        assert flow.dst_ip == packet.dst_ip
        assert flow.src_port == packet.src_port
        assert flow.dst_port == packet.dst_port
        assert wire.row_labels() == [1]
        assert wire.row_attack_types() == ["probe"]

    def test_column_slice_without_ethernet_keys_no_mac(self):
        packet = make_tcp_packet(ts=0.0, src="1.2.3.4", dst="5.6.7.8")
        packet.ether = None
        flow = self._wire([packet]).flow_table()[1][0]
        assert not flow.has_ether
        assert flow.src_mac == "??"

    def test_column_slice_pickles_without_packets(self):
        packets = conversation_packets(channels=2, packets_per_channel=4)
        wire = self._wire(packets)
        assert not wire.can_hydrate
        assert wire.timestamps.tolist() == [p.timestamp for p in packets]
        assert wire.row_labels() == [p.label for p in packets]


class TestShardedParity:
    def test_single_worker_is_bit_identical_to_in_process(self):
        packets = conversation_packets()
        base = stream_capture(
            ListSource(packets), ChannelMeanDetector(),
            warmup_packets=64, window_seconds=5.0,
        )
        sharded = run_sharded(packets, workers=1)
        assert np.array_equal(base.scores, sharded.scores)
        assert base.threshold == sharded.threshold
        assert base.alerts == sharded.alerts

    @pytest.mark.parametrize("workers", [2, 3, 5])
    def test_channel_keyed_detector_full_parity_at_any_count(
            self, workers):
        # ChannelMeanDetector's state is keyed by the shard key, so
        # sharding is invisible to it: scores, threshold, windows and
        # episodes must match the single-process run bit for bit.
        packets = conversation_packets()
        base = stream_capture(
            ListSource(packets), ChannelMeanDetector(),
            warmup_packets=64, window_seconds=5.0,
        )
        sharded = run_sharded(packets, workers=workers)
        assert np.array_equal(base.scores, sharded.scores)
        assert base.alerts == sharded.alerts
        assert sharded.notes["workers_n"] == workers

    def test_kitsune_coverage_invariant_across_counts(self):
        # The real IDS's source-keyed features may shift across shard
        # layouts (the documented tolerance) but coverage may not.
        from repro.stream.sources import DatasetSource

        def run(workers):
            return stream_capture_sharded(
                DatasetSource("Mirai", seed=0, scale=0.02),
                build_streaming_detector("kitsune", seed=0,
                                         batch_size=64,
                                         warmup_packets=400),
                workers=workers, warmup_packets=400,
                window_seconds=5.0,
            )

        one, two = run(1), run(2)
        assert one.n_scored == two.n_scored
        assert (one.notes["coverage_digest"]
                == two.notes["coverage_digest"])

    def test_coverage_digest_is_order_independent_but_multiset_exact(self):
        packets = conversation_packets(channels=3,
                                       packets_per_channel=20)
        report = run_sharded(packets, workers=2, warmup_packets=10)
        emitted_like = [
            type("S", (), {"timestamp": float(p.timestamp),
                           "label": p.label,
                           "attack_type": p.attack_type})()
            for p in packets[10:]
        ]
        assert report.notes["coverage_digest"] == coverage_digest(
            emitted_like)
        assert report.notes["coverage_digest"] != coverage_digest(
            emitted_like[:-1])


class TestLifecycleAndTelemetry:
    def test_zero_warmup_streams_every_packet(self):
        packets = conversation_packets(channels=2,
                                       packets_per_channel=20)
        report = run_sharded(packets, workers=2, warmup_packets=0)
        assert report.n_warmup == 0
        assert report.n_scored == len(packets)

    def test_telemetry_shape_and_checkpoint_cadence(self):
        packets = conversation_packets()
        report = run_sharded(packets, workers=2, checkpoint_every=40)
        rows = report.notes["workers"]
        assert [row["worker"] for row in rows] == [0, 1]
        for row in rows:
            assert row["packets"] > 0
            assert row["pps"] > 0
            assert row["checkpoints_written"] >= 1
            assert row["checkpoint_age_packets"] < 40 + 16  # + chunk
            assert row["restarts"] == 0
        assert sum(row["packets"] for row in rows) == report.n_scored

    def test_explicit_checkpoint_dir_is_kept(self, tmp_path):
        packets = conversation_packets(channels=2,
                                       packets_per_channel=30)
        # No warmup, so the workers score (and checkpoint) every packet.
        run_sharded(packets, workers=2, checkpoint_every=10,
                    warmup_packets=0, checkpoint_dir=tmp_path)
        kept = sorted(p.name for p in tmp_path.iterdir())
        assert kept, "explicit checkpoint dir was emptied"
        assert all(name.endswith(".ckpt") for name in kept)

    def test_pacing_stretches_replay_to_capture_clock(self):
        # 40 packets spaced 25 ms apart ≈ 1 s of capture; pace=4
        # replays it in about a quarter second instead of instantly.
        packets = [
            make_tcp_packet(ts=i * 0.025, src="10.0.0.1",
                            dst="10.0.0.2")
            for i in range(40)
        ]
        report = run_sharded(packets, workers=1, warmup_packets=0,
                             pace=4.0)
        assert report.stream_seconds >= 0.2
        assert report.notes["pace"] == 4.0

    def test_pacing_stretches_columnar_replay(self, tmp_path):
        from repro.net.pcap import write_pcap
        from repro.stream.sources import PcapReplaySource

        pcap = tmp_path / "paced.pcap"
        write_pcap(pcap, [
            make_tcp_packet(ts=i * 0.025, src="10.0.0.1",
                            dst="10.0.0.2")
            for i in range(40)
        ])
        report = stream_capture_sharded(
            PcapReplaySource(pcap), ChannelMeanDetector(), workers=1,
            warmup_packets=0, threshold=0.5, pace=4.0,
            ingest_backend="columnar-mmap",
        )
        assert report.notes["ingest_backend"] == "columnar-mmap"
        assert report.n_scored == 40
        assert report.stream_seconds >= 0.2
        assert report.notes["pace"] == 4.0


class TestErrors:
    def test_worker_exception_propagates_with_traceback(self):
        packets = conversation_packets(channels=2,
                                       packets_per_channel=40)
        with pytest.raises(RuntimeError, match="tripped on purpose"):
            stream_capture_sharded(
                ListSource(packets), ExplodingDetector(trip_at=10),
                workers=2, warmup_packets=0, window_seconds=5.0,
                chunk_packets=8,
            )

    def test_worker_exception_leaves_no_live_children(self):
        packets = conversation_packets(channels=2,
                                       packets_per_channel=40)
        with pytest.raises(RuntimeError):
            stream_capture_sharded(
                ListSource(packets), ExplodingDetector(trip_at=10),
                workers=2, warmup_packets=0, window_seconds=5.0,
                chunk_packets=8,
            )
        for child in multiprocessing.active_children():
            child.join(timeout=5.0)
            assert child.exitcode is not None, "leaked worker process"

    def test_flow_detectors_are_rejected(self):
        detector = build_streaming_detector("dnn", seed=0,
                                            batch_size=32)
        with pytest.raises(ValueError, match="packet-level"):
            stream_capture_sharded(
                ListSource(conversation_packets()), detector,
                workers=2, warmup_packets=10,
            )

    def test_unlabelled_source_requires_threshold(self):
        source = ListSource(conversation_packets(), labelled=False)
        with pytest.raises(ValueError, match="explicit threshold"):
            stream_capture_sharded(
                source, ChannelMeanDetector(), workers=2,
                warmup_packets=10,
            )

    def test_fault_target_must_exist(self):
        with pytest.raises(ValueError, match="fault targets worker"):
            run_sharded(conversation_packets(), workers=2,
                        fault=FaultInjection(worker=5, at_packets=1))

    def test_fault_spec_validation(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultInjection(worker=0, at_packets=1, action="explode")
        with pytest.raises(ValueError, match="at_packets"):
            FaultInjection(worker=0, at_packets=0)

    def test_source_failure_mid_stream_terminates_workers(self):
        class PoisonedSource(ListSource):
            def __iter__(self):
                for i, packet in enumerate(super().__iter__()):
                    if i >= 100:
                        raise OSError("capture interface vanished")
                    yield packet

        with pytest.raises(OSError, match="interface vanished"):
            stream_capture_sharded(
                PoisonedSource(conversation_packets()),
                ChannelMeanDetector(), workers=2, warmup_packets=10,
                chunk_packets=8, window_seconds=5.0,
            )
        for child in multiprocessing.active_children():
            child.join(timeout=5.0)
            assert child.exitcode is not None, "leaked worker process"


class TestScratchCheckpointDir:
    """The checkpoint directory a run creates for itself is removed
    however the run ends; an explicit ``checkpoint_dir`` is kept."""

    @pytest.fixture
    def scratch(self, monkeypatch, tmp_path):
        root = tmp_path / "tmp"
        root.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(root))
        return root

    @staticmethod
    def _explode(**kwargs):
        packets = conversation_packets(channels=2,
                                       packets_per_channel=40)
        with pytest.raises(RuntimeError, match="tripped on purpose"):
            stream_capture_sharded(
                ListSource(packets), ExplodingDetector(trip_at=10),
                workers=2, warmup_packets=0, window_seconds=5.0,
                chunk_packets=8, **kwargs,
            )

    def test_worker_error_leaves_no_scratch_dir(self, scratch):
        self._explode()
        assert list(scratch.glob("repro-stream-ckpt-*")) == []

    def test_crash_loop_leaves_no_scratch_dir(self, scratch):
        fault = FaultInjection(worker=1, at_packets=10, action="kill",
                               repeat_after_restart=True)
        with pytest.raises(RuntimeError, match="max_restarts"):
            run_sharded(conversation_packets(), workers=2, fault=fault,
                        max_restarts=2)
        assert list(scratch.glob("repro-stream-ckpt-*")) == []

    def test_failed_run_keeps_explicit_dir(self, scratch, tmp_path):
        kept = tmp_path / "kept"
        kept.mkdir()
        self._explode(checkpoint_dir=kept)
        # Kept, and empty: the workers failed before their first
        # checkpoint.
        assert kept.is_dir() and list(kept.iterdir()) == []
        assert list(scratch.glob("repro-stream-ckpt-*")) == []
