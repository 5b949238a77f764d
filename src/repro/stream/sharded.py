"""Sharded multi-process streaming: one source, N detector workers.

:func:`stream_capture_sharded` scales :func:`repro.stream.service.stream_capture`
across worker processes. The supervisor owns the
:class:`~repro.stream.sources.PacketSource`, trains the detector on the
warmup prefix exactly as the single-process path does, then fans the
scored phase out by canonical channel key
(:mod:`repro.stream.shard`) — every conversation lands wholly on one
worker, so each worker's NetStat + detector state evolves exactly as a
single process seeing only that traffic would. One merged, order-stable
alert sink consumes all workers' scores.

Operational surface:

* **One wire format** — every source reaches the supervisor as column
  batches (:func:`repro.net.columnar.iter_column_batches`); each
  worker's rows cross the process boundary as compact column slices
  (:meth:`~repro.net.columnar.ColumnBatch.take`), shard ids computed
  once per unique flow (:func:`repro.stream.shard.shard_ids_for_batch`).
* **Backpressure** — every queue is bounded. A slow worker blocks the
  supervisor's dispatch (which in turn stops consuming the source);
  a slow supervisor blocks workers' score puts. Chunks hold at most
  ``chunk_packets`` rows, so end-to-end memory is bounded by
  ``workers x (queue depth + checkpoint interval)`` packets plus one
  source batch; nothing buffers unboundedly.
* **Crash-resume** — workers periodically checkpoint their *entire*
  live state (model + NetStat traffic state) through
  :mod:`repro.ids.persistence`, each in a forked copy-on-write writer
  whose file the worker publishes and acknowledges once it exits 0, so
  checkpoints stay off the scoring path. The supervisor retains each
  worker's column slices since its last acknowledged checkpoint; a
  worker that dies (SIGKILL, OOM) is respawned from its newest valid
  on-disk checkpoint (with none yet, from the warmed detector it first
  forked with, at shard packet zero) and replayed the retained
  packets. Scoring is
  deterministic, so the resumed run re-emits exactly the lost scores;
  duplicates of scores that survived the crash are dropped by index.
  The merged result is bit-identical to an uninterrupted run at the
  same worker count (``tests/test_stream_faultinject.py``).
* **Pacing** — ``pace=R`` replays the stream at R× capture time
  (1.0 = wall-clock realistic replay) instead of as fast as possible:
  no row is dispatched before its capture-clock target.
* **Telemetry** — per-worker packets, scores, busy seconds, checkpoint
  cadence/age, restarts, retention peaks; exported in the stream JSON.

A worker that *raises* (detector bug, malformed input) is fatal: the
error is propagated to the caller with the worker traceback — a
deterministic failure would simply recur under resume. Only process
*death* triggers crash-resume.

Fault injection (``fault=FaultInjection(...)``) is a first-class test
seam: kill/stall/slow a chosen worker at a chosen packet count,
deterministically — the worker splits the column slice holding that
row and fires just before it. ``tests/faultinject.py`` builds the
test harness on top of it.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import queue as queue_mod
import shutil
import signal
import tempfile
import time
import traceback
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from repro import obs
from repro.ids.persistence import (
    checkpoint_filename,
    latest_stream_checkpoint,
    prune_stream_checkpoints,
    write_stream_checkpoint,
)
from repro.net.columnar import ColumnBatch
from repro.stream.detector import StreamingDetector
from repro.stream.scores import ScoreBatch, coverage_digest
from repro.stream.service import (
    StreamReport,
    WindowCallback,
    _close_session,
    _open_session,
    _Streamed,
)
from repro.stream.shard import shard_ids_for_batch
from repro.stream.sources import PacketSource
from repro.utils.validation import check_positive

__all__ = [
    "FaultInjection",
    "coverage_digest",
    "stream_capture_sharded",
]


# --------------------------------------------------------------------------
# Fault injection seam (driven by tests/faultinject.py).

_FAULT_ACTIONS = ("kill", "stall", "slow")


@dataclass(frozen=True)
class FaultInjection:
    """Deterministically disturb one worker at one packet count.

    ``at_packets`` counts the worker's *consumed* shard packets (1-based
    absolute cursor); the fault fires just before that packet is scored:

    * ``kill``  — SIGKILL the worker process (crash-resume path),
      once a checkpoint writer in flight has finished;
    * ``stall`` — sleep ``seconds`` once (backpressure path);
    * ``slow``  — sleep ``per_packet_delay`` per packet from the
      trigger on (sustained backpressure).

    After a kill-triggered restart the supervisor drops the fault
    unless ``repeat_after_restart`` — with it, the worker dies at the
    same cursor every incarnation and the run exhausts
    ``max_restarts`` (the crash-loop test).
    """

    worker: int
    at_packets: int
    action: str = "kill"
    seconds: float = 0.0
    per_packet_delay: float = 0.0
    repeat_after_restart: bool = False

    def __post_init__(self) -> None:
        if self.action not in _FAULT_ACTIONS:
            raise ValueError(
                f"unknown fault action {self.action!r}; "
                f"known: {', '.join(_FAULT_ACTIONS)}"
            )
        if self.at_packets < 1:
            raise ValueError("at_packets must be >= 1 (1-based cursor)")


def _split_rows(
    items: list[ColumnBatch], rows: int
) -> tuple[list[ColumnBatch], list[ColumnBatch]]:
    """Split a list of column slices after its first ``rows`` rows; a
    slice straddling the cut becomes two views."""
    head: list[ColumnBatch] = []
    tail: list[ColumnBatch] = []
    for item in items:
        size = len(item)
        if rows >= size:
            head.append(item)
            rows -= size
        elif rows > 0:
            head.append(item.slice(0, rows))
            tail.append(item.slice(rows, size))
            rows = 0
        else:
            tail.append(item)
    return head, tail


def _paced(batches, pace: float):
    """Row slices of ``batches``, each released no earlier than its
    rows' capture-clock targets (stream start + elapsed capture time /
    ``pace``). Rows keep their order: one never overtakes an earlier
    row with a later target."""
    clock = origin = None
    floor = -np.inf
    for batch in batches:
        if not len(batch):
            continue
        if origin is None:
            clock = time.perf_counter()
            origin = float(batch.timestamps[0])
        release = np.maximum.accumulate(
            np.maximum(clock + (batch.timestamps - origin) / pace, floor)
        )
        start = 0
        while start < len(batch):
            now = time.perf_counter()
            stop = int(np.searchsorted(release, now, side="right"))
            if stop > start:
                yield batch.slice(start, stop)
                start = stop
            else:
                time.sleep(release[start] - now)
        floor = release[-1]


def _merge_shards(parts: Sequence[tuple[int, ScoreBatch]]) -> ScoreBatch:
    """Every worker's accepted scores as one order-stable batch.

    One stable ``lexsort`` on (timestamp, shard, per-worker index) — a
    key that is deterministic across runs and across crash-resume:
    per-worker order is the worker's deterministic emission order, and
    cross-worker ties break by shard id. The merged rows are re-indexed
    ``0..n-1`` in that order.
    """
    merged = ScoreBatch.concat(batch for _, batch in parts)
    shard = np.repeat([worker for worker, _ in parts],
                      [len(batch) for _, batch in parts])
    merged = merged.take(np.lexsort((merged.index, shard, merged.timestamp)))
    merged.index = np.arange(len(merged), dtype=np.int64)
    return merged


# --------------------------------------------------------------------------
# Worker process.

#: Published checkpoints each worker keeps on disk: the newest, which a
#: restart resumes from, and one older to fall back on if it is corrupt.
KEEP_CHECKPOINTS = 2


def _fork_checkpoint_writer(fd, detector, *, worker_id, consumed) -> int:
    """Fork a child that writes one checkpoint of ``detector`` to the
    open temp file ``fd``; its pid.

    The child sees a copy-on-write snapshot of the detector at this
    cursor (the Redis BGSAVE pattern), so the worker goes straight back
    to scoring. It exits 0 once the file is written and fsynced, and 1
    if the write raised; it only writes and ``os._exit``s, touching no
    queue, lock or obs registry, and running no atexit hook or
    finalizer. It never names or renames the file: the worker publishes
    it after the child exited 0, so a writer that outlives its worker
    publishes nothing.
    """
    with warnings.catch_warnings():
        # Python 3.12 warns that fork() in a multi-threaded process may
        # deadlock the child on a lock another thread held (here, the
        # result queue's feeder thread). This child takes none of those
        # locks: it pickles, writes one file and _exit()s.
        warnings.filterwarnings("ignore", message=".*multi-threaded",
                                category=DeprecationWarning)
        pid = os.fork()
    if pid:
        return pid
    status = 1
    try:
        # No collections: they would copy pages and could run finalizers.
        gc.disable()
        write_stream_checkpoint(fd, detector,
                                worker_id=worker_id, consumed=consumed)
        status = 0
    except BaseException:
        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(status)


def _worker_main(worker_id, detector, checkpoint, checkpoint_dir, inq,
                 outq, fault) -> None:
    # Forked workers inherit the supervisor's registry contents (its
    # warmup-time training metrics); start from a clean slate so the
    # merged per-worker tree counts every event exactly once. run_id
    # and the enabled flag survive the reset — they describe the
    # invocation, not this process's metric state.
    registry = obs.reset_registry()
    consumed = -1
    try:
        # ``detector`` is the supervisor's, warmed and never advanced
        # past warmup, inherited at fork: the worker scores it from
        # shard packet zero unless it resumes from ``checkpoint``.
        if checkpoint is None:
            consumed = 0
        else:
            detector = checkpoint.restore_detector()
            consumed = checkpoint.consumed
        slow_delay = 0.0
        m_packets = registry.counter("stream.worker.packets")
        m_items = registry.counter("stream.worker.items_scored")
        m_busy = registry.counter("stream.worker.busy_seconds")
        m_ckpts = registry.counter("stream.worker.checkpoints_written")
        m_ckpt_failed = registry.counter("stream.worker.checkpoints_failed")
        m_ckpt_seconds = registry.counter("stream.worker.checkpoint_seconds")
        # Crash-resume baselining: the counters describe the *logical*
        # worker, so a restarted incarnation resumes from the
        # checkpoint cursor instead of zero — merged per-worker packet
        # totals stay exactly equal to the packets the shard consumed,
        # replay or not.
        if consumed:
            m_packets.inc(consumed)
        if detector.items_scored:
            m_items.inc(detector.items_scored)
        obs_on = obs.is_enabled()
        chunk_hist = (
            registry.histogram("stream.worker.chunk_seconds")
            if obs_on else None
        )
        # (pid, cursor, temp file) of the checkpoint writer in flight.
        writer = None

        def reap(block: bool) -> None:
            # Collect the writer if it has exited (or wait for it). Only
            # a writer that exited 0 has its file published and
            # acknowledged: a failed one's is removed and nothing is
            # sent, so the supervisor keeps retaining rows from the
            # previous acknowledged cursor.
            nonlocal writer
            started = time.perf_counter()
            pid, status = os.waitpid(writer[0], 0 if block else os.WNOHANG)
            saved = bool(pid) and os.waitstatus_to_exitcode(status) == 0
            if pid:
                (_, cursor, tmp_name), writer = writer, None
                if saved:
                    os.replace(tmp_name, checkpoint_dir
                               / checkpoint_filename(worker_id, cursor))
                    prune_stream_checkpoints(
                        checkpoint_dir, worker_id, keep=KEEP_CHECKPOINTS
                    )
                    m_ckpts.inc()
                else:
                    os.unlink(tmp_name)
                    m_ckpt_failed.inc()
            m_ckpt_seconds.inc(time.perf_counter() - started)
            if saved:
                # Piggyback a registry snapshot on the ack so the
                # supervisor's periodic exports carry fresh per-worker
                # trees (None when obs is off: no steady-state cost).
                outq.put(("ckpt_ok", worker_id, cursor,
                          obs.process_snapshot() if obs_on else None))

        while True:
            message = inq.get()
            kind = message[0]
            if kind == "chunk":
                emitted: list[ScoreBatch] = []
                started = time.perf_counter()
                chunk_start = consumed
                for rows in message[1]:
                    if (fault is not None
                            and consumed < fault.at_packets
                            <= consumed + len(rows)):
                        # Score up to the trigger row (1-based shard
                        # cursor at_packets), then fire just before it.
                        before = fault.at_packets - consumed - 1
                        if before:
                            emitted.append(detector.process_columns(
                                rows.slice(0, before)))
                            consumed += before
                            rows = rows.slice(before, len(rows))
                        if fault.action == "kill":
                            # Die with no writer in flight, so the
                            # checkpoints on disk depend on the cursor
                            # alone, not on how fast a writer ran.
                            if writer is not None:
                                reap(block=True)
                            os.kill(os.getpid(), signal.SIGKILL)
                        elif fault.action == "stall":
                            time.sleep(fault.seconds)
                        else:  # slow
                            slow_delay = fault.per_packet_delay
                    if slow_delay:
                        time.sleep(slow_delay * len(rows))
                    consumed += len(rows)
                    emitted.append(detector.process_columns(rows))
                scored = ScoreBatch.concat(emitted)
                elapsed = time.perf_counter() - started
                m_busy.inc(elapsed)
                m_packets.inc(consumed - chunk_start)
                if chunk_hist is not None:
                    chunk_hist.observe(elapsed)
                if len(scored):
                    m_items.inc(len(scored))
                    outq.put(("scores", worker_id, scored))
            elif kind == "ckpt":
                # At most one writer in flight: the next waits for it.
                if writer is not None:
                    reap(block=True)
                started = time.perf_counter()
                # The worker makes the temp file, so a writer never
                # creates a path (or recreates a removed directory).
                fd, tmp_name = tempfile.mkstemp(
                    dir=checkpoint_dir, suffix=".tmp",
                    prefix=checkpoint_filename(worker_id, consumed))
                try:
                    pid = _fork_checkpoint_writer(
                        fd, detector, worker_id=worker_id, consumed=consumed)
                finally:
                    os.close(fd)
                writer = (pid, consumed, tmp_name)
                m_ckpt_seconds.inc(time.perf_counter() - started)
            elif kind == "eof":
                if writer is not None:
                    reap(block=True)
                started = time.perf_counter()
                scored = detector.finish()
                m_busy.inc(time.perf_counter() - started)
                if len(scored):
                    m_items.inc(len(scored))
                    outq.put(("scores", worker_id, scored))
                outq.put(("done", worker_id, {
                    "consumed": consumed,
                    "items_scored": detector.items_scored,
                    "checkpoints_written": int(m_ckpts.value),
                    "checkpoints_failed": int(m_ckpt_failed.value),
                    "checkpoint_seconds": m_ckpt_seconds.value,
                    "busy_seconds": m_busy.value,
                }, obs.process_snapshot()))
                return
            else:  # pragma: no cover - protocol bug guard
                raise RuntimeError(f"unknown message kind {kind!r}")
            if writer is not None:
                reap(block=False)
    except BaseException:
        # Report, don't hang the merge queue: the supervisor treats a
        # worker exception as fatal and re-raises with this traceback.
        try:
            outq.put(("error", worker_id, consumed, traceback.format_exc()))
        finally:
            raise


# --------------------------------------------------------------------------
# Supervisor.


@dataclass
class _WorkerState:
    worker_id: int
    process: multiprocessing.Process | None = None
    inq: object = None
    outq: object = None
    sent: int = 0                 # absolute shard cursor dispatched
    next_ckpt_at: int = 0         # send a ckpt marker when sent crosses
    retained: list = field(default_factory=list)
    retained_base: int = 0        # shard cursor of retained[0]'s first row
    retained_rows: int = 0        # rows currently retained
    retained_peak: int = 0        # peak retained rows
    pending: list = field(default_factory=list)
    pending_rows: int = 0
    score_cursor: int = 0         # next expected per-worker score index
    accepted: int = 0
    duplicates_dropped: int = 0
    restarts: int = 0
    fault: FaultInjection | None = None
    eof_sent: bool = False
    done: bool = False
    telemetry: dict = field(default_factory=dict)
    acked_consumed: int = 0
    obs_snapshot: dict | None = None  # latest registry snapshot shipped


class _WorkerFailed(RuntimeError):
    """A worker raised (as opposed to died); carries its traceback."""


def stream_capture_sharded(
    source: PacketSource,
    detector: StreamingDetector,
    *,
    workers: int,
    warmup_packets: int,
    threshold: float | None = None,
    window_seconds: float = 10.0,
    checkpoint_every: int = 5000,
    checkpoint_dir: str | Path | None = None,
    pace: float | None = None,
    chunk_packets: int = 256,
    queue_chunks: int = 8,
    max_restarts: int = 3,
    on_window: WindowCallback | None = None,
    fault: FaultInjection | None = None,
    exporter: "obs.SnapshotExporter | None" = None,
    ingest_backend: str | None = None,
) -> StreamReport:
    """Stream ``source`` through ``workers`` sharded detector processes.

    When ``exporter`` is given, obs is enabled for the run and periodic
    JSONL snapshots carry a per-worker metric tree (each worker ships
    its registry over the result queue; the supervisor folds them with
    :func:`repro.obs.merge_snapshots` under ``workers``/``merged``).

    Semantics match :func:`~repro.stream.service.stream_capture`: the
    same session body warms up, checks and reports; only scoring is
    fanned out. Training on the first ``warmup_packets`` packets
    happens in the supervisor, so every worker starts from one
    identical warmed detector; the rest is scored by the workers.
    ``workers=1`` is bit-identical to the in-process path; at higher
    counts coverage is exact and scores follow the sharding tolerance
    documented in ``docs/STREAMING.md``.

    The ``detector`` object itself is *not* advanced past warmup — the
    workers own forked copies; the caller's instance stays at its
    post-warmup state.
    """
    workers = int(check_positive("workers", workers))
    checkpoint_every = int(check_positive("checkpoint_every", checkpoint_every))
    chunk_packets = int(check_positive("chunk_packets", chunk_packets))
    if detector.unit != "packet":
        raise ValueError(
            "sharded streaming drives packet-level detectors; flow "
            f"detectors ({detector.unit!r} unit) accumulate cross-flow "
            "state that channel sharding does not preserve"
        )
    if pace is not None and pace <= 0:
        raise ValueError(f"pace must be > 0, got {pace}")
    if fault is not None and not 0 <= fault.worker < workers:
        raise ValueError(
            f"fault targets worker {fault.worker}, but there are only "
            f"{workers} worker(s)"
        )

    if "fork" in multiprocessing.get_all_start_methods():
        ctx = multiprocessing.get_context("fork")
    else:  # pragma: no cover - non-POSIX fallback
        ctx = multiprocessing.get_context()

    # ---- Phase 1: warmup, exactly as the single-process path. --------
    # Object sources are columnized chunk_packets packets at a time, so
    # no row waits on more than one chunk's worth of the source.
    resolved_ingest, n_warmup, warmup_seconds, live = _open_session(
        source, detector,
        warmup_packets=warmup_packets,
        threshold=threshold,
        exporter=exporter,
        ingest_backend=ingest_backend,
        batch_size=chunk_packets,
    )

    states = [_WorkerState(worker_id=i) for i in range(workers)]
    for state in states:
        state.next_ckpt_at = checkpoint_every
        if fault is not None and state.worker_id == fault.worker:
            state.fault = fault
    accepted: list[tuple[int, ScoreBatch]] = []
    # Supervisor-side telemetry lives in the obs registry (always on —
    # these are chunk-, ack- and restart-frequency events, far off the
    # per-packet hot path). ``send_stalls`` in the report notes is read
    # back from the counter, bit-compatible with the old nonlocal int.
    registry = obs.get_registry()
    m_stalls = registry.counter("stream.shard.send_stalls")
    m_dispatched = registry.counter("stream.shard.packets_dispatched")
    m_replayed = registry.counter("stream.shard.packets_replayed")
    m_restarts = registry.counter("stream.shard.worker_restarts")
    m_ckpt_acks = registry.counter("stream.shard.checkpoints_acked")
    m_dups = registry.counter("stream.shard.duplicate_scores_dropped")
    registry.gauge("stream.shard.workers_n").set(workers)

    def _obs_tree() -> dict:
        worker_snaps = {
            str(state.worker_id): state.obs_snapshot
            for state in states if state.obs_snapshot is not None
        }
        tree: dict = {"workers": worker_snaps}
        if worker_snaps:
            tree["merged"] = obs.merge_snapshots(list(worker_snaps.values()))
        return tree

    def _handle(message) -> None:
        kind = message[0]
        if kind == "scores":
            # A worker's indexes rise strictly, so rows below the cursor
            # are exactly the ones a resumed worker re-emitted; a batch
            # may straddle the cursor.
            _, worker_id, batch = message
            state = states[worker_id]
            fresh = batch.index >= state.score_cursor
            dropped = len(batch) - int(np.count_nonzero(fresh))
            if dropped:
                state.duplicates_dropped += dropped
                m_dups.inc(dropped)
                batch = batch.take(fresh)
            if len(batch):
                state.score_cursor = int(batch.index[-1]) + 1
                state.accepted += len(batch)
                accepted.append((worker_id, batch))
        elif kind == "ckpt_ok":
            _, worker_id, consumed, snapshot = message
            state = states[worker_id]
            if consumed > state.retained_base:
                _trim_retained(state, consumed)
            state.acked_consumed = max(state.acked_consumed, consumed)
            m_ckpt_acks.inc()
            if snapshot is not None:
                state.obs_snapshot = snapshot
        elif kind == "done":
            _, worker_id, telemetry, snapshot = message
            states[worker_id].done = True
            states[worker_id].telemetry = telemetry
            states[worker_id].obs_snapshot = snapshot
        elif kind == "error":
            _, worker_id, consumed, trace = message
            raise _WorkerFailed(
                f"stream worker {worker_id} failed at shard packet "
                f"{consumed}:\n{trace}"
            )

    def _trim_retained(state: _WorkerState, consumed: int) -> None:
        # Drop retained rows up to the acked cursor.
        _, state.retained = _split_rows(
            state.retained, consumed - state.retained_base
        )
        state.retained_rows -= consumed - state.retained_base
        state.retained_base = consumed

    def _pump() -> None:
        # Each worker has its own result queue, so a killed worker can
        # only ever corrupt its own channel, never a sibling's.
        for state in states:
            if state.outq is None or state.done:
                continue
            while True:
                try:
                    message = state.outq.get_nowait()
                except queue_mod.Empty:
                    break
                _handle(message)

    def _spawn(state: _WorkerState, checkpoint) -> None:
        # The worker restores exactly ``checkpoint``, the one its replay
        # starts from, never a newer file it might find on disk itself;
        # with none, it scores the warmed detector it forks with.
        state.inq = ctx.Queue(maxsize=queue_chunks)
        state.outq = ctx.Queue(maxsize=max(4, queue_chunks))
        state.process = ctx.Process(
            target=_worker_main,
            args=(state.worker_id, detector, checkpoint, checkpoint_dir,
                  state.inq, state.outq, state.fault),
            daemon=True,
        )
        state.process.start()

    def _on_death(state: _WorkerState) -> None:
        exitcode = state.process.exitcode
        state.process.join()
        if exitcode is not None and exitcode >= 0:
            # Graceful interpreter unwind: the queue feeder flushed
            # completely, so the tail is safe to read — it carries the
            # worker's error report (fatal) or its done message.
            while True:
                try:
                    _handle(state.outq.get(timeout=0.2))
                except queue_mod.Empty:
                    break
            if state.done:
                return
        # SIGKILLed (or died without a report). A checkpoint writer it
        # left in flight finishes on its own, but nobody publishes its
        # file. The dead incarnation may have been cut off mid-write,
        # so its queue tail is not trustworthy: discard it unread.
        # Replay re-emits any scores we never accepted, and the dedup
        # cursor drops the rest.
        state.outq.cancel_join_thread()
        _restart(state)

    def _restart(state: _WorkerState) -> None:
        state.restarts += 1
        m_restarts.inc()
        if state.restarts > max_restarts:
            raise RuntimeError(
                f"stream worker {state.worker_id} died "
                f"{state.restarts} times (max_restarts={max_restarts}); "
                "giving up"
            )
        state.inq.cancel_join_thread()
        found = latest_stream_checkpoint(checkpoint_dir, state.worker_id)
        checkpoint = None if found is None else found[1]
        resume_from = 0 if checkpoint is None else checkpoint.consumed
        # The fault fires on an absolute cursor the replay will cross
        # again; drop it unless the test asked for a crash loop.
        if state.fault is not None and not state.fault.repeat_after_restart:
            state.fault = None
        _spawn(state, checkpoint)
        # Replay retention from the checkpoint cursor. Retention covers
        # [retained_base, sent): the newest valid checkpoint is at least
        # the last *acked* one, and with none acked both start at 0.
        assert resume_from >= state.retained_base, "acked checkpoint lost"
        _, replay = _split_rows(
            state.retained, resume_from - state.retained_base
        )
        m_replayed.inc(sum(map(len, replay)))
        was_eof = state.eof_sent
        state.sent = resume_from
        state.next_ckpt_at = (
            resume_from // checkpoint_every + 1
        ) * checkpoint_every
        state.eof_sent = False
        while replay:
            chunk, replay = _split_rows(replay, chunk_packets)
            _dispatch(state, chunk, retain=False)
        if was_eof:
            _send(state, ("eof",))
            state.eof_sent = True

    def _send(state: _WorkerState, message) -> None:
        while True:
            try:
                state.inq.put(message, timeout=0.05)
                return
            except queue_mod.Full:
                m_stalls.inc()
                _pump()
                if state.process.exitcode is not None and not state.done:
                    _on_death(state)

    def _dispatch(state: _WorkerState, rows: list, *, retain: bool) -> None:
        _send(state, ("chunk", rows))
        n_rows = sum(map(len, rows))
        if retain:
            m_dispatched.inc(n_rows)
            state.retained.extend(rows)
            state.retained_rows += n_rows
            state.retained_peak = max(state.retained_peak,
                                      state.retained_rows)
        state.sent += n_rows
        while state.sent >= state.next_ckpt_at:
            _send(state, ("ckpt",))
            state.next_ckpt_at += checkpoint_every

    def _flush_pending(state: _WorkerState, rows: int) -> None:
        # Dispatch the first ``rows`` pending rows as one chunk.
        chunk, state.pending = _split_rows(state.pending, rows)
        state.pending_rows -= rows
        _dispatch(state, chunk, retain=True)

    def _check_liveness() -> None:
        for state in states:
            if (state.process is not None and not state.done
                    and state.process.exitcode is not None):
                _on_death(state)

    packets_streamed = 0
    # The scratch checkpoint directory is removed however the run ends,
    # once every worker has been joined; an explicit one is kept.
    created_dir = checkpoint_dir is None
    if created_dir:
        checkpoint_dir = tempfile.mkdtemp(prefix="repro-stream-ckpt-")
    checkpoint_dir = Path(checkpoint_dir)
    checkpoint_dir.mkdir(parents=True, exist_ok=True)
    try:
        # ---- Phase 2: spawn. -----------------------------------------
        for state in states:
            _spawn(state, None)

        # ---- Phase 3: dispatch. --------------------------------------
        # Shard ids come vectorized off the flow table; each worker's
        # rows are gathered into one compact column slice (``take``
        # drops hydration sources, so it pickles as bare arrays) and
        # cross the boundary in chunks of chunk_packets rows (the last
        # one shorter), whatever the decode batch size, so queue depth
        # and checkpoint cadence are counted in rows.
        stream_start = time.perf_counter()
        for batch in live if pace is None else _paced(live, pace):
            shard_ids = shard_ids_for_batch(batch, workers)
            packets_streamed += len(batch)
            for state in states:
                selected = np.nonzero(shard_ids == state.worker_id)[0]
                if selected.size == 0:
                    continue
                state.pending.append(batch.take(selected))
                state.pending_rows += int(selected.size)
                while state.pending_rows >= chunk_packets:
                    _flush_pending(state, chunk_packets)
                    _pump()
                    if exporter is not None:
                        exporter.maybe_export(_obs_tree)

        # ---- Phase 4: EOF + drain. -----------------------------------
        for state in states:
            if state.pending_rows:
                _flush_pending(state, state.pending_rows)
            _send(state, ("eof",))
            state.eof_sent = True
        while not all(state.done for state in states):
            _pump()
            _check_liveness()
            if exporter is not None:
                exporter.maybe_export(_obs_tree)
            if not all(state.done for state in states):
                time.sleep(0.005)
        stream_end = time.perf_counter()
        stream_seconds = stream_end - stream_start
        for state in states:
            state.process.join()
    except _WorkerFailed as error:
        raise RuntimeError(str(error)) from None
    finally:
        for state in states:
            process = state.process
            if process is not None and process.exitcode is None:
                process.terminate()
                process.join(timeout=2.0)
                if process.exitcode is None:  # pragma: no cover
                    process.kill()
                    process.join()
        for state in states:
            if state.inq is not None:
                state.inq.cancel_join_thread()
            if state.outq is not None:
                state.outq.cancel_join_thread()
        if created_dir:
            # A writer orphaned by a killed worker only writes to its
            # already-open temp file, so the directory can go under it.
            shutil.rmtree(checkpoint_dir)

    # ---- Phase 5: merge into one order-stable sink. ------------------
    emitted = _merge_shards(accepted)

    worker_rows = []
    for state in states:
        consumed = state.telemetry.get("consumed", 0)
        busy = state.telemetry.get("busy_seconds", 0.0)
        worker_rows.append({
            "worker": state.worker_id,
            "packets": consumed,
            "items_scored": state.telemetry.get("items_scored", 0),
            # A shard that saw no packets has no meaningful rate; None
            # (JSON null) instead of a misleading 0.0 pps.
            "pps": consumed / busy if consumed and busy > 0 else None,
            "busy_seconds": busy,
            "checkpoints_written": state.telemetry.get(
                "checkpoints_written", 0),
            "checkpoints_failed": state.telemetry.get(
                "checkpoints_failed", 0),
            # Forking, reaping and waiting on checkpoint writers: time
            # that is neither busy nor idle.
            "checkpoint_seconds": state.telemetry.get(
                "checkpoint_seconds", 0.0),
            "checkpoint_age_packets": consumed - state.acked_consumed,
            "restarts": state.restarts,
            "duplicate_scores_dropped": state.duplicates_dropped,
            "retained_peak": state.retained_peak,
        })
    registry.gauge("stream.shard.retained_peak").set(
        max((state.retained_peak for state in states), default=0)
    )

    # The compute backends in the report's notes are the ones the
    # supervisor's detector resolved to; every worker forks from it.
    return _close_session(
        detector,
        _Streamed(emitted, packets_streamed, stream_seconds, stream_end),
        source=source.describe(),
        labelled=source.labelled,
        threshold=threshold,
        window_seconds=window_seconds,
        on_window=on_window,
        exporter=exporter,
        n_warmup=n_warmup,
        warmup_seconds=warmup_seconds,
        notes={
            "ingest_backend": resolved_ingest,
            "sharded": True,
            "workers_n": workers,
            "shard_key": "canonical-channel",
            "checkpoint_every": checkpoint_every,
            "chunk_packets": chunk_packets,
            "pace": pace,
            "send_stalls": int(m_stalls.value),
            "workers": worker_rows,
        },
        digest_key="merged_score_digest",
        export_extra=_obs_tree,
    )
