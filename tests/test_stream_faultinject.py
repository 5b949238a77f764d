"""Crash-resume, backpressure and slow-worker behaviour under faults.

The central claim: a worker SIGKILLed mid-run resumes from its last
checkpoint and the merged run is *bit-identical* to an uninterrupted
one — same scores, same windows, same alert episodes. Two kill points
cover both resume paths: before any checkpoint exists (the worker
forks again from the supervisor's freshly-warmed detector and replays
its shard from packet zero) and between checkpoints (restore
mid-stream state, replay only the retained tail).

Tolerance note: these parity assertions use the channel-keyed harness
detector, for which sharding — and therefore crash-resume at any
worker count — is exactly score-preserving. For the NetStat IDSs the
same crash-resume machinery is bit-exact *at a fixed worker count*
(verified here with Kitsune), while scores across *different* worker
counts follow the documented sharding tolerance (see
``docs/STREAMING.md``): coverage is always exact, Channel/Socket
features are always exact, source-keyed features may differ when a
source spans shards.
"""

from __future__ import annotations

import os
import signal
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.stream import sharded
from repro.stream.detector import ScoreBatch, build_streaming_detector
from repro.stream.service import stream_capture
from repro.stream.sharded import stream_capture_sharded
from repro.stream.sources import DatasetSource, ListSource, PcapReplaySource

from tests.faultinject import (
    ChannelMeanDetector,
    FaultInjection,
    assert_stream_reports_match,
    conversation_packets,
    conversation_pcap,
    run_sharded,
)

WORKERS = 3
CHECKPOINT_EVERY = 50


def _faulted_vs_clean(fault, **kwargs):
    packets = conversation_packets()
    clean = run_sharded(packets, workers=WORKERS,
                        checkpoint_every=CHECKPOINT_EVERY, **kwargs)
    hurt = run_sharded(packets, workers=WORKERS, fault=fault,
                       checkpoint_every=CHECKPOINT_EVERY, **kwargs)
    return clean, hurt


class TestKillResume:
    def test_kill_before_first_checkpoint_resumes_from_genesis(self):
        # "Mid-grace": the worker dies before it ever checkpointed, so
        # resume falls back to the warmed detector at shard packet
        # zero and replays everything.
        fault = FaultInjection(worker=1,
                               at_packets=CHECKPOINT_EVERY // 2,
                               action="kill")
        clean, hurt = _faulted_vs_clean(fault)
        assert hurt.notes["workers"][1]["restarts"] == 1
        assert_stream_reports_match(hurt, clean)

    def test_kill_between_checkpoints_resumes_mid_stream(self):
        # "Mid-execute": at least one periodic checkpoint exists; the
        # worker restores mid-stream state and replays only the tail.
        fault = FaultInjection(worker=1,
                               at_packets=CHECKPOINT_EVERY + 20,
                               action="kill")
        clean, hurt = _faulted_vs_clean(fault)
        assert hurt.notes["workers"][1]["restarts"] == 1
        assert_stream_reports_match(hurt, clean)

    def test_killed_run_matches_uninterrupted_single_process_run(self):
        # The acceptance check end to end: kill a worker, resume from
        # checkpoint, and the merged report — alert episodes included —
        # matches the uninterrupted *single-process* run.
        packets = conversation_packets()
        single = stream_capture(
            ListSource(packets), ChannelMeanDetector(),
            warmup_packets=64, window_seconds=5.0,
        )
        fault = FaultInjection(worker=1,
                               at_packets=CHECKPOINT_EVERY + 7,
                               action="kill")
        hurt = run_sharded(packets, workers=WORKERS, fault=fault,
                           checkpoint_every=CHECKPOINT_EVERY)
        assert hurt.notes["workers"][1]["restarts"] == 1
        assert np.array_equal(single.scores, hurt.scores)
        assert single.threshold == hurt.threshold
        assert single.alerts == hurt.alerts

    def test_kill_resume_is_bit_exact_for_kitsune(self):
        # Same machinery under a real IDS: crash-resume at a fixed
        # worker count reproduces the uninterrupted sharded run's
        # scores exactly (full detector state rides the checkpoint).
        def run(fault=None):
            return stream_capture_sharded(
                DatasetSource("Mirai", seed=0, scale=0.02),
                build_streaming_detector("kitsune", seed=0,
                                         batch_size=64,
                                         warmup_packets=400),
                workers=2, warmup_packets=400, window_seconds=5.0,
                checkpoint_every=40, chunk_packets=32, fault=fault,
            )

        clean = run()
        hurt = run(FaultInjection(worker=1, at_packets=60,
                                  action="kill"))
        assert hurt.notes["workers"][1]["restarts"] == 1
        assert np.array_equal(clean.scores, hurt.scores)
        assert clean.alerts == hurt.alerts
        assert (clean.notes["merged_score_digest"]
                == hurt.notes["merged_score_digest"])

    def test_repeated_crashes_exhaust_max_restarts(self):
        fault = FaultInjection(worker=1, at_packets=10, action="kill",
                               repeat_after_restart=True)
        with pytest.raises(RuntimeError, match="max_restarts"):
            run_sharded(conversation_packets(), workers=WORKERS,
                        fault=fault, max_restarts=2)


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie is not)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    stat = Path(f"/proc/{pid}/stat")
    if not stat.exists():
        return True
    return stat.read_text().rsplit(")", 1)[1].split()[0] not in "ZX"


class TestCheckpointWriters:
    """Each checkpoint is written by a child the worker forks; the
    worker publishes and acknowledges it only once that child exited 0.
    The tests patch the write the child calls (forked workers inherit
    the patch)."""

    def test_failing_writer_sends_no_ack_and_keeps_retaining(
            self, monkeypatch, tmp_path):
        def failing_write(fd, detector, **kwargs):
            os.close(fd)
            raise OSError("disk full")

        packets = conversation_packets()
        clean = run_sharded(packets, workers=WORKERS,
                            checkpoint_every=CHECKPOINT_EVERY)
        monkeypatch.setattr(sharded, "write_stream_checkpoint",
                            failing_write)
        acks = obs.reset_registry().counter("stream.shard.checkpoints_acked")
        kept = tmp_path / "ckpt"
        hurt = run_sharded(packets, workers=WORKERS,
                           checkpoint_every=CHECKPOINT_EVERY,
                           checkpoint_dir=kept)
        assert acks.value == 0
        for row, clean_row in zip(hurt.notes["workers"],
                                  clean.notes["workers"]):
            assert row["checkpoints_written"] == 0
            assert (row["checkpoints_failed"]
                    == clean_row["checkpoints_written"])
            # Nothing was acknowledged: the whole shard stays retained.
            assert row["retained_peak"] == row["packets"]
            assert row["checkpoint_age_packets"] == row["packets"]
        assert sum(row["checkpoints_failed"]
                   for row in hurt.notes["workers"]) > 0
        assert_stream_reports_match(hurt, clean)
        # Nothing: failed writers' temp files are removed and none was
        # published.
        assert list(kept.iterdir()) == []

    def test_kill_with_a_writer_in_flight(self, monkeypatch, tmp_path):
        real_write = sharded.write_stream_checkpoint
        held = tmp_path / "held"

        def holding_write(fd, detector, *, worker_id, consumed):
            mark = tmp_path / f"{worker_id}-{consumed}-{os.getpid()}"
            mark.with_suffix(".start").touch()
            if worker_id == 1:
                try:
                    with held.open("x") as fh:
                        fh.write(mark.name)
                except FileExistsError:
                    pass  # a later writer of worker 1: no hold
                else:
                    # Worker 1's first writer SIGKILLs its own worker,
                    # then outlives it and only writes once orphaned.
                    parent = os.getppid()
                    os.kill(parent, signal.SIGKILL)
                    deadline = time.monotonic() + 10.0
                    while (os.getppid() == parent
                           and time.monotonic() < deadline):
                        time.sleep(0.01)
                    time.sleep(1.0)
            real_write(fd, detector, worker_id=worker_id, consumed=consumed)
            mark.with_suffix(".done").touch()

        made = []
        real_mkdtemp = tempfile.mkdtemp

        def recording_mkdtemp(*args, **kwargs):
            made.append(real_mkdtemp(*args, **kwargs))
            return made[-1]

        packets = conversation_packets()
        clean = run_sharded(packets, workers=WORKERS,
                            checkpoint_every=CHECKPOINT_EVERY)
        monkeypatch.setattr(sharded, "write_stream_checkpoint",
                            holding_write)
        monkeypatch.setattr(tempfile, "mkdtemp", recording_mkdtemp)
        hurt = run_sharded(packets, workers=WORKERS,
                           checkpoint_every=CHECKPOINT_EVERY)
        assert hurt.notes["workers"][1]["restarts"] == 1
        assert_stream_reports_match(hurt, clean)
        assert (hurt.notes["merged_score_digest"]
                == clean.notes["merged_score_digest"])

        starts = sorted(tmp_path.glob("*.start"))
        pids = [int(mark.stem.rsplit("-", 1)[1]) for mark in starts]
        deadline = time.monotonic() + 10.0
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_running, pids)), "a checkpoint writer survived"
        # Every writer finished, the orphan too; the resumed worker
        # wrote the orphan's checkpoint again, and published that one.
        assert all(mark.with_suffix(".done").exists() for mark in starts)
        cursor = held.read_text().rsplit("-", 1)[0]
        assert len(list(tmp_path.glob(f"{cursor}-*.start"))) == 2
        assert all(row["checkpoint_seconds"] > 0
                   for row in hurt.notes["workers"]
                   if row["checkpoints_written"])
        # The run made its own scratch directory and removed it, and
        # the orphan, writing only to its open temp file, recreated
        # nothing.
        assert made and not any(Path(path).exists() for path in made)

    def test_multithreaded_fork_warning_is_silenced_only_there(
            self, monkeypatch):
        # Python 3.12+ warns on fork() once the worker's queue feeder
        # thread runs; the writer's fork silences exactly that warning,
        # and leaves no filter behind.
        message = ("This process (pid=1) is multi-threaded, use of "
                   "fork() may lead to deadlocks in the child.")

        def fork():
            warnings.warn(message, DeprecationWarning, stacklevel=2)
            return 424242  # the parent's side: no child is started

        monkeypatch.setattr(os, "fork", fork)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert sharded._fork_checkpoint_writer(
                -1, None, worker_id=0, consumed=1) == 424242
            assert seen == []
            warnings.warn(message, DeprecationWarning)
        assert len(seen) == 1


class TestStallAndSlow:
    def test_stalled_worker_applies_backpressure_not_data_loss(self):
        # A 0.5 s stall with small bounded queues: the supervisor must
        # block (send_stalls climbs) rather than buffer unboundedly,
        # and the run still finishes with identical output.
        fault = FaultInjection(worker=1, at_packets=20, action="stall",
                               seconds=0.5)
        clean, hurt = _faulted_vs_clean(fault, chunk_packets=4,
                                        queue_chunks=2)
        assert hurt.notes["send_stalls"] > 0
        assert_stream_reports_match(hurt, clean)

    def test_slow_worker_still_produces_identical_output(self):
        fault = FaultInjection(worker=1, at_packets=20, action="slow",
                               per_packet_delay=0.002)
        clean, hurt = _faulted_vs_clean(fault)
        assert_stream_reports_match(hurt, clean)


class TestColumnarIngestFaults:
    """The same faults on a capture decoded by the ``columnar-mmap``
    ingest: the worker splits the column slice holding the trigger row
    and fires there, so the faulted run matches the clean one."""

    @pytest.mark.parametrize("fault", [
        FaultInjection(worker=1, at_packets=CHECKPOINT_EVERY + 20,
                       action="kill"),
        FaultInjection(worker=1, at_packets=20, action="stall",
                       seconds=0.3),
        FaultInjection(worker=1, at_packets=20, action="slow",
                       per_packet_delay=0.002),
    ], ids=lambda fault: fault.action)
    def test_faulted_columnar_replay_matches_clean(self, tmp_path, fault):
        pcap = conversation_pcap(tmp_path / "conversations.pcap")

        def run(fault=None):
            return stream_capture_sharded(
                PcapReplaySource(pcap), ChannelMeanDetector(),
                workers=WORKERS, warmup_packets=64, threshold=0.5,
                window_seconds=5.0, checkpoint_every=CHECKPOINT_EVERY,
                chunk_packets=16, fault=fault,
                ingest_backend="columnar-mmap",
            )

        clean = run()
        replayed = obs.reset_registry().counter(
            "stream.shard.packets_replayed")
        hurt = run(fault)
        assert hurt.notes["ingest_backend"] == "columnar-mmap"
        assert clean.n_scored > 0
        assert_stream_reports_match(hurt, clean)
        if fault.action == "kill":
            # Chunks hold chunk_packets rows whatever the decode batch,
            # so a periodic checkpoint precedes the kill and the resume
            # replays only the rows after it, not the whole shard.
            assert hurt.notes["workers"][1]["restarts"] == 1
            assert 0 < replayed.value < hurt.notes["workers"][1]["packets"]


class ResendingDetector(ChannelMeanDetector):
    """Re-sends its last ``lookback`` scores after a restore.

    The first scores it releases after being restored from a
    checkpoint are those old rows followed by its next new ones, in one
    batch — so the supervisor receives a ``scores`` message that
    straddles its dedup cursor: the head duplicates accepted rows, the
    tail is new. A worker that starts from the warmed detector re-sends
    nothing: it was never restored."""

    def __init__(self, lookback: int = 5):
        super().__init__()
        self.lookback = lookback
        self._recent = ScoreBatch.empty()
        self._resend = False

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._resend = True

    def process_columns(self, batch):
        scored = super().process_columns(batch)
        recent = ScoreBatch.concat([self._recent, scored])
        self._recent = recent.take(
            np.arange(max(0, len(recent) - self.lookback), len(recent)))
        if self._resend:
            self._resend = False
            return recent
        return scored


class TestStraddlingDedup:
    def test_message_straddling_the_cursor_keeps_only_new_rows(self):
        packets = conversation_packets()

        def run(fault=None):
            return stream_capture_sharded(
                ListSource(packets), ResendingDetector(lookback=5),
                workers=WORKERS, warmup_packets=64, window_seconds=5.0,
                checkpoint_every=CHECKPOINT_EVERY, chunk_packets=16,
                fault=fault,
            )

        clean = run()
        # The kill lands in the chunk after the checkpoint at row 64:
        # every row before it was accepted, so the resumed worker's
        # first message is 5 re-sent rows then 16 new ones.
        hurt = run(FaultInjection(worker=1, at_packets=CHECKPOINT_EVERY + 20,
                                  action="kill"))
        dropped = [row["duplicate_scores_dropped"]
                   for row in hurt.notes["workers"]]
        assert dropped == [0, 5, 0]
        assert [row["duplicate_scores_dropped"]
                for row in clean.notes["workers"]] == [0, 0, 0]
        assert hurt.notes["workers"][1]["restarts"] == 1
        assert (hurt.notes["merged_score_digest"]
                == clean.notes["merged_score_digest"])
        assert_stream_reports_match(hurt, clean)
