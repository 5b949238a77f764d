"""Direct unit tests for the streaming service layer.

``stream_capture``'s lifecycle contract — warmup on exactly the prefix,
one ``process`` call per streamed packet (the recorder's
``process_columns`` walks each batch's rows), one ``finish`` at end of
stream (the sink flush), typed errors instead of hangs — was previously
only exercised through the CLI and parity suites; these tests pin it
down at the unit level.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.stream.detector import StreamScore
from repro.stream.service import stream_capture
from repro.stream.sources import ListSource

from tests.conftest import make_tcp_packet
from tests.stream_oracle import batch_of


class RecordingDetector:
    """Logs every lifecycle call; emits scores with a controllable lag.

    ``hold_back`` scores stay buffered until ``finish`` — the stand-in
    for a micro-batching detector whose tail only the end-of-stream
    flush can drain.
    """

    name = "recorder"
    unit = "packet"
    scoring_path = "per-packet"

    def __init__(self, hold_back: int = 0):
        self.batch_size = 1
        self.items_scored = 0
        self.hold_back = hold_back
        self.calls: list[str] = []
        self.warmup_packets: list = []
        self._buffer: list[StreamScore] = []
        self.finished = 0

    def warmup(self, packets) -> None:
        self.calls.append("warmup")
        self.warmup_packets = list(packets)

    def process(self, packet):
        self.calls.append("process")
        score = StreamScore(
            index=self.items_scored, timestamp=packet.timestamp,
            score=float(packet.wire_len), label=packet.label,
            attack_type=packet.attack_type,
        )
        self.items_scored += 1
        self._buffer.append(score)
        if len(self._buffer) > self.hold_back:
            emitted, self._buffer = (self._buffer[:-self.hold_back
                                                  or None],
                                     self._buffer[-self.hold_back:]
                                     if self.hold_back else [])
            return emitted
        return []

    def process_columns(self, batch):
        emitted = []
        for packet in batch.iter_packets():
            emitted.extend(self.process(packet))
        return batch_of(emitted)

    def finish(self):
        self.calls.append("finish")
        self.finished += 1
        emitted, self._buffer = self._buffer, []
        return batch_of(emitted)


def _packets(n, *, label_from=None):
    return [
        make_tcp_packet(
            ts=float(i), src="10.0.0.1", dst="10.0.0.2",
            label=1 if label_from is not None and i >= label_from else 0,
        )
        for i in range(n)
    ]


class TestLifecycle:
    def test_warmup_gets_exactly_the_prefix_then_one_process_per_packet(
            self):
        detector = RecordingDetector()
        stream_capture(ListSource(_packets(10)), detector,
                       warmup_packets=4, threshold=1.0)
        assert detector.calls[0] == "warmup"
        assert [p.timestamp for p in detector.warmup_packets] == [
            0.0, 1.0, 2.0, 3.0]
        assert detector.calls.count("process") == 6
        assert detector.calls[-1] == "finish"
        assert detector.finished == 1

    def test_report_counts_reflect_the_split(self):
        report = stream_capture(
            ListSource(_packets(10)), RecordingDetector(),
            warmup_packets=4, threshold=1.0,
        )
        assert report.n_warmup == 4
        assert report.packets_streamed == 6
        assert report.n_scored == 6

    def test_finish_flushes_held_back_scores_into_the_sink(self):
        # 3 scores ride the end-of-stream flush; the report must still
        # see every streamed packet exactly once, in timestamp order.
        detector = RecordingDetector(hold_back=3)
        report = stream_capture(
            ListSource(_packets(12)), detector,
            warmup_packets=2, threshold=1e9, window_seconds=4.0,
        )
        assert report.n_scored == 10
        assert sum(w.items for w in report.windows) == 10

    def test_entirely_prefixed_capture_still_warms_up(self):
        detector = RecordingDetector()
        report = stream_capture(ListSource(_packets(3)), detector,
                                warmup_packets=8, threshold=1.0)
        assert detector.finished == 1
        assert len(detector.warmup_packets) == 3
        assert report.n_warmup == 3
        assert report.n_scored == 0

    def test_empty_source_yields_an_empty_report(self):
        report = stream_capture(ListSource([]), RecordingDetector(),
                                warmup_packets=0, threshold=1.0)
        assert report.n_scored == 0
        assert report.scores.size == 0
        assert report.windows == []
        assert report.alerts == []

    def test_on_window_fires_per_closed_window(self):
        seen = []
        stream_capture(
            ListSource(_packets(12)), RecordingDetector(),
            warmup_packets=0, threshold=1e9, window_seconds=3.0,
            on_window=seen.append,
        )
        assert len(seen) >= 2
        assert [w.index for w in seen] == sorted(w.index for w in seen)


class TestErrorPropagation:
    def test_detector_failure_propagates(self):
        class Exploding(RecordingDetector):
            def process(self, packet):
                raise RuntimeError("detector blew up")

        with pytest.raises(RuntimeError, match="detector blew up"):
            stream_capture(ListSource(_packets(5)), Exploding(),
                           warmup_packets=1, threshold=1.0)

    def test_source_failure_mid_iteration_propagates(self):
        class PoisonedSource(ListSource):
            def __iter__(self):
                for i, packet in enumerate(super().__iter__()):
                    if i == 3:
                        raise OSError("capture truncated")
                    yield packet

        with pytest.raises(OSError, match="capture truncated"):
            stream_capture(PoisonedSource(_packets(6)),
                           RecordingDetector(),
                           warmup_packets=1, threshold=1.0)

    def test_unlabelled_source_requires_threshold(self):
        source = ListSource(_packets(5), labelled=False)
        with pytest.raises(ValueError, match="explicit threshold"):
            stream_capture(source, RecordingDetector(),
                           warmup_packets=1)

    def test_negative_warmup_rejected(self):
        with pytest.raises(ValueError, match="warmup_packets"):
            stream_capture(ListSource(_packets(3)),
                           RecordingDetector(), warmup_packets=-1,
                           threshold=1.0)


class TestThresholding:
    def test_posthoc_threshold_separates_the_labelled_tail(self):
        # Scores equal wire_len; labelled packets are the same size, so
        # use a big-payload attack tail to split scores cleanly.
        packets = [
            make_tcp_packet(ts=float(i), src="10.0.0.1",
                            dst="10.0.0.2",
                            payload=b"x" * (500 if i >= 8 else 0),
                            label=1 if i >= 8 else 0)
            for i in range(12)
        ]
        report = stream_capture(ListSource(packets),
                                RecordingDetector(),
                                warmup_packets=0)
        assert report.threshold_source == "posthoc:fpr-budget"
        alerts = report.scores >= report.threshold
        assert np.array_equal(alerts, report.y_true.astype(bool))


class TestIngestBackends:
    def test_flow_ids_over_pcap_match_across_ingest_backends(
            self, tmp_path):
        # Flow detectors hydrate each row of the column batches into
        # their assembler, so columnar ingest feeds them the same packets.
        from repro.datasets import generate_dataset
        from repro.ids.dnn import DNNClassifierIDS
        from repro.stream.detector import FlowStreamDetector
        from repro.stream.sources import PcapReplaySource

        pcap = tmp_path / "mirai.pcap"
        generate_dataset("Mirai", seed=0, scale=0.02).to_pcap(pcap)
        reports = {
            ingest: stream_capture(
                PcapReplaySource(pcap),
                # Labels do not survive pcap: the DNN trains on an
                # all-benign prefix, which is enough to compare paths.
                FlowStreamDetector(DNNClassifierIDS(seed=0),
                                   batch_size=16, labelled=True),
                warmup_packets=300, threshold=0.5, window_seconds=60.0,
                ingest_backend=ingest,
            )
            for ingest in ("packet-objects", "columnar-mmap")
        }
        objects, columns = (reports["packet-objects"],
                            reports["columnar-mmap"])
        assert columns.notes["ingest_backend"] == "columnar-mmap"
        assert objects.n_scored > 0
        assert columns.n_scored == objects.n_scored
        assert np.array_equal(columns.scores, objects.scores)
        assert (columns.notes["coverage_digest"]
                == objects.notes["coverage_digest"])

    def test_explicit_columnar_ingest_needs_a_capture_file(self):
        with pytest.raises(ValueError, match="iter_batches"):
            stream_capture(ListSource(_packets(3)), RecordingDetector(),
                           warmup_packets=1, threshold=1.0,
                           ingest_backend="columnar-mmap")

    def test_auto_ingest_falls_back_to_packet_objects(self):
        # The default ingest decodes through mmap only where the source
        # has a capture file; a packet list goes through objects.
        report = stream_capture(ListSource(_packets(5)),
                                RecordingDetector(), warmup_packets=1,
                                threshold=1.0)
        assert report.notes["ingest_backend"] == "packet-objects"
        assert report.n_scored == 4


class TestScoresStayColumns:
    """Scores travel as ``ScoreBatch`` columns from the detector to the
    report: no ``StreamScore`` row is built while a capture streams and
    reports, in process or sharded."""

    def test_capture_builds_no_stream_score(self, tmp_path, monkeypatch):
        from repro.datasets import generate_dataset
        from repro.stream.detector import build_streaming_detector
        from repro.stream.sharded import stream_capture_sharded
        from repro.stream.sources import DatasetSource, PcapReplaySource

        pcap = tmp_path / "mirai.pcap"
        generate_dataset("Mirai", seed=0, scale=0.02).to_pcap(pcap)

        def refuse(self, *args, **kwargs):
            raise AssertionError("a StreamScore row was built")

        monkeypatch.setattr(StreamScore, "__init__", refuse)

        def detector():
            return build_streaming_detector(
                "Kitsune", warmup_packets=250, batch_size=64)

        runs = [
            stream_capture(PcapReplaySource(pcap), detector(),
                           warmup_packets=250, threshold=1e-3,
                           ingest_backend=ingest)
            for ingest in ("packet-objects", "columnar-mmap")
        ]
        # A labelled source carries labels and attack families too.
        runs.append(stream_capture(
            DatasetSource("Mirai", scale=0.02), detector(),
            warmup_packets=250))
        runs.append(stream_capture_sharded(
            PcapReplaySource(pcap), detector(), workers=1,
            warmup_packets=250, threshold=1e-3,
            ingest_backend="columnar-mmap"))
        for report in runs:
            assert report.n_scored > 0
            assert report.alerts and report.windows
        assert runs[2].metrics is not None


class TestReportSeconds:
    def test_note_is_recorded_shown_and_exported(self, tmp_path):
        import json

        from repro.cli import main
        from repro.datasets import generate_dataset

        pcap = tmp_path / "mirai.pcap"
        generate_dataset("Mirai", seed=0, scale=0.02).to_pcap(pcap)
        for workers in ([], ["--workers", "1"]):
            out = tmp_path / "report.json"
            assert main([
                "stream", "--ids", "Kitsune", "--pcap", str(pcap),
                "--train-packets", "250", "--threshold", "0.5",
                "--batch", "64", "--json", str(out), "--quiet", *workers,
            ]) == 0
            seconds = json.loads(out.read_text())["notes"]["report_seconds"]
            assert isinstance(seconds, float) and seconds >= 0.0

        report = stream_capture(ListSource(_packets(10)), RecordingDetector(),
                                warmup_packets=4, threshold=1.0)
        assert report.notes["report_seconds"] >= 0.0
        assert "after the stream" in report.render_summary()
