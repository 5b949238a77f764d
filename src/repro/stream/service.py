"""The streaming session: source → detector → windows → alerts.

Every stream run goes through one session body. :func:`_open_session`
checks the arguments, resolves the ingest and warms the detector up on
the first ``warmup_packets`` rows; the scores come from the in-process
loop :func:`_stream` or from the sharded engine's workers
(:mod:`repro.stream.sharded`); :func:`_close_session` applies the fixed
or post-hoc threshold, the windows and the alert episodes, and builds
the :class:`StreamReport`, JSON-exportable for CI.

* :func:`stream_capture` runs it over any
  :class:`~repro.stream.sources.PacketSource` (pcap replay, synthetic
  generator, multi-attack mix). Unlabelled sources report alert rates
  only.
* :func:`stream_experiment` runs one Table IV cell, adapted exactly as
  the batch pipeline adapts it (the same
  :func:`~repro.core.experiment.build_packet_cell` /
  :func:`~repro.core.experiment.build_flow_cell` substrate and RNG
  derivations). A packet cell streams its training packets, then its
  test packets, through :func:`stream_capture`'s body; a flow cell
  replays its adapted flows through the same loop and report. Scores,
  threshold and metrics are bit-identical to
  :func:`~repro.core.experiment.run_experiment`'s — streaming is an
  execution mode, not a different experiment.
"""

from __future__ import annotations

import hashlib
import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from repro import obs
from repro.core.experiment import (
    ExperimentConfig,
    build_flow_cell,
    build_packet_cell,
    cross_corpus_requirement,
    experiment_input_kind,
    posthoc_threshold,
)
from repro.core.metrics import MetricReport
from repro.ids.base import InputKind
from repro.ids.registry import backend_notes
from repro.stream.alerts import AlertEpisode, HysteresisAlerter
from repro.stream.detector import (
    FlowStreamDetector,
    PacketStreamDetector,
    StreamingDetector,
)
from repro.stream.metrics import WindowedMetrics, WindowSnapshot
from repro.stream.scores import ScoreBatch, coverage_digest
from repro.stream.sources import ListSource, PacketSource
from repro.net.columnar import ColumnBatch, iter_column_batches

#: Fired with each closed window — the CLI's live summary hook.
WindowCallback = Callable[[WindowSnapshot], None]


@dataclass
class StreamReport:
    """Everything one streaming session produced."""

    ids_name: str
    source: str
    unit: str  # "packet" | "flow"
    labelled: bool
    batch_size: int
    window_seconds: float
    threshold: float
    threshold_source: str  # "fixed" | "posthoc:<strategy>"
    n_warmup: int
    n_scored: int
    packets_streamed: int
    warmup_seconds: float
    stream_seconds: float
    metrics: MetricReport | None
    alert_rate: float
    windows: list[WindowSnapshot]
    alerts: list[AlertEpisode]
    scores: np.ndarray
    y_true: np.ndarray | None
    notes: dict = field(default_factory=dict)

    @property
    def packets_per_second(self) -> float:
        """_Streamed packets over scoring wall time (the bench metric)."""
        if self.stream_seconds <= 0:
            return 0.0
        return self.packets_streamed / self.stream_seconds

    @property
    def items_per_second(self) -> float:
        if self.stream_seconds <= 0:
            return 0.0
        return self.n_scored / self.stream_seconds

    def to_dict(self, *, include_scores: bool = False) -> dict:
        """JSON-serialisable report (the ``--json`` artefact)."""
        payload = {
            "ids": self.ids_name,
            "source": self.source,
            "unit": self.unit,
            "labelled": self.labelled,
            "batch_size": self.batch_size,
            "window_seconds": self.window_seconds,
            "threshold": self.threshold,
            "threshold_source": self.threshold_source,
            "n_warmup": self.n_warmup,
            "n_scored": self.n_scored,
            "packets_streamed": self.packets_streamed,
            "warmup_seconds": self.warmup_seconds,
            "stream_seconds": self.stream_seconds,
            "packets_per_second": self.packets_per_second,
            "items_per_second": self.items_per_second,
            "alert_rate": self.alert_rate,
            "metrics": None,
            "windows": [w.to_dict() for w in self.windows],
            "alerts": [a.to_dict() for a in self.alerts],
            "notes": {k: _jsonable(v) for k, v in self.notes.items()},
        }
        if self.metrics is not None:
            m = self.metrics
            payload["metrics"] = {
                "accuracy": m.accuracy, "precision": m.precision,
                "recall": m.recall, "f1": m.f1,
                "tp": m.tp, "fp": m.fp, "tn": m.tn, "fn": m.fn,
            }
        if self.scores.size:
            payload["score_stats"] = {
                "min": float(self.scores.min()),
                "max": float(self.scores.max()),
                "mean": float(self.scores.mean()),
            }
        if include_scores:
            payload["scores"] = [float(s) for s in self.scores]
        return payload

    def render_summary(self) -> str:
        """The CLI's end-of-stream text block."""
        scoring = self.notes.get("scoring_path")
        report_seconds = self.notes.get("report_seconds")
        lines = [
            f"stream: {self.ids_name} over {self.source}",
            f"  scored {self.n_scored} {self.unit}s "
            f"({self.packets_streamed} packets) in "
            f"{self.stream_seconds:.2f}s — "
            f"{self.packets_per_second:,.0f} pkt/s, warmup on "
            f"{self.n_warmup} item(s) in {self.warmup_seconds:.2f}s"
            + (f", {scoring} scoring" if scoring else "")
            + (f", report {report_seconds:.2f}s after the stream"
               if report_seconds is not None else ""),
            f"  threshold {self.threshold:.6f} ({self.threshold_source}); "
            f"alert rate {self.alert_rate:.1%} across "
            f"{len(self.windows)} windows, {len(self.alerts)} alert "
            f"episode(s)",
        ]
        if self.metrics is not None:
            m = self.metrics
            lines.append(
                f"  accuracy {m.accuracy:.4f}  precision {m.precision:.4f}"
                f"  recall {m.recall:.4f}  f1 {m.f1:.4f}"
            )
        else:
            lines.append("  (unlabelled source: alert rates only)")
        for episode in self.alerts[:10]:
            lines.append("  " + episode.describe())
        if len(self.alerts) > 10:
            lines.append(f"  ... {len(self.alerts) - 10} more episode(s)")
        return "\n".join(lines)


def _jsonable(value):
    if isinstance(value, tuple):
        return list(value)
    return value


def _evaluate_stream(
    emitted: ScoreBatch,
    *,
    labelled: bool,
    threshold: float,
    window_seconds: float,
    on_window: WindowCallback | None,
) -> tuple[WindowedMetrics, HysteresisAlerter]:
    """Replay emitted scores through the window/alert consumers.

    Items are replayed in timestamp order: flow scores are emitted in
    *completion* order, where a long-lived flow's end time can precede
    an already-emitted short flow's — but windowed metrics and episode
    boundaries are defined over stream time, and both consumers require
    non-decreasing timestamps. The sort is stable on emission index, so
    packet streams (already monotonic) replay unchanged.
    """
    windows = WindowedMetrics(window_seconds, on_close=on_window)
    alerter = HysteresisAlerter(threshold)
    ordered = emitted.take(np.lexsort((emitted.index, emitted.timestamp)))
    windows.add_batch(
        ordered.timestamp,
        ordered.score >= threshold,
        ordered.label if labelled else None,
    )
    alerter.update_batch(
        ordered.timestamp, ordered.score,
        ordered.attack_codes, ordered.attack_vocab,
    )
    windows.finalize()
    alerter.finish()
    return windows, alerter


#: Accepted ``ingest_backend`` values. ``"packet-objects"`` decodes
#: :class:`Packet` objects and columnizes them (the reference route);
#: ``"columnar-mmap"`` decodes column batches straight off an mmap'd
#: capture. Scores, coverage and digests are bit-identical.
INGEST_BACKENDS = ("packet-objects", "columnar-mmap")


def resolve_ingest_backend(
    source: PacketSource,
    ingest_backend: str | None = None,
) -> str:
    """Resolve the ingest backend one streaming session will use.

    The default ``None`` decodes through mmap (``"columnar-mmap"``)
    when the source has a capture file to decode column batches from
    (``iter_batches``), else through packet objects. An explicit name
    must be one of :data:`INGEST_BACKENDS`; an explicit
    ``"columnar-mmap"`` on a source without a capture file raises
    instead of silently changing meaning.
    """
    columnar = hasattr(source, "iter_batches")
    if ingest_backend is None:
        return "columnar-mmap" if columnar else "packet-objects"
    if ingest_backend not in INGEST_BACKENDS:
        raise ValueError(
            f"unknown ingest backend {ingest_backend!r}; "
            f"known: {', '.join(INGEST_BACKENDS)}"
        )
    if ingest_backend == "columnar-mmap" and not columnar:
        raise ValueError(
            f"ingest backend 'columnar-mmap' needs a source with column "
            f"batches (iter_batches); {source.describe()} has none, so "
            f"only 'packet-objects' applies"
        )
    return ingest_backend


def _timed_warmup(warm: Callable, *args) -> float:
    """Run ``warm(*args)`` under the ``stream.warmup`` span; return its
    wall seconds."""
    started = time.perf_counter()
    with obs.span("stream.warmup"):
        warm(*args)
    return time.perf_counter() - started


def _open_session(
    source: PacketSource,
    detector: StreamingDetector,
    *,
    warmup_packets: int,
    threshold: float | None,
    exporter: "obs.SnapshotExporter | None",
    ingest_backend: str | None,
    batch_size: int,
) -> tuple[str, int, float, Iterator[ColumnBatch]]:
    """A capture session's first stage, in process or sharded: check
    the arguments, resolve the ingest, read ``source`` as column
    batches of ``batch_size`` rows and train ``detector`` on the first
    ``warmup_packets`` of them.

    The prefix is hydrated into full packets (training happens once,
    off the hot path; batches columnized from objects hand back their
    originals). Returns ``(ingest_backend, n_warmup, warmup_seconds,
    live)``: ``live`` yields the batches after the prefix, the
    straddling one sliced. With ``warmup_packets == 0`` this fits on an
    empty prefix: training-free IDSs accept that, supervised ones raise
    their clear error up front instead of failing mid-stream.
    """
    if warmup_packets < 0:
        raise ValueError(f"warmup_packets must be >= 0, got {warmup_packets}")
    if threshold is None and not source.labelled:
        raise ValueError(
            "unlabelled sources need an explicit threshold "
            "(no ground truth to standardise against)"
        )
    if exporter is not None and not obs.is_enabled():
        obs.enable()
    resolved_ingest = resolve_ingest_backend(source, ingest_backend)
    batches = iter_column_batches(
        source, batch_size, native=resolved_ingest == "columnar-mmap",
    )
    live: Iterator[ColumnBatch] = batches
    prefix: list = []
    for batch in batches:
        take = min(warmup_packets - len(prefix), len(batch))
        prefix.extend(batch.hydrate_range(0, take))
        if take < len(batch):
            rest = batch.slice(take, len(batch)) if take else batch
            live = itertools.chain([rest], batches)
            break
    warmup_seconds = _timed_warmup(detector.warmup, prefix)
    return resolved_ingest, len(prefix), warmup_seconds, live


class _Streamed(NamedTuple):
    """What a session's scoring stage hands to its report."""

    emitted: ScoreBatch
    packets: int  # packets streamed after the warm-up
    seconds: float  # scoring wall time
    ended: float  # ``time.perf_counter()`` when scoring ended


def _stream(
    units: Iterable,
    feed: Callable[..., ScoreBatch],
    finish: Callable[[], ScoreBatch],
    *,
    exporter: "obs.SnapshotExporter | None",
    n_warmup: int,
    size: Callable[..., int] = len,
) -> _Streamed:
    """The in-process scoring loop: ``feed`` every unit (a column batch,
    or a cell's pre-adapted flow), then ``finish``. ``size`` counts a
    unit's packets."""
    obs_on = obs.is_enabled()
    packet_counter = (
        obs.counter("stream.packets_streamed") if obs_on else None
    )
    released: list[ScoreBatch] = []
    packets_streamed = 0
    stream_start = time.perf_counter()
    for unit in units:
        n_packets = size(unit)
        packets_streamed += n_packets
        if packet_counter is not None:
            packet_counter.inc(n_packets)
        scored = feed(unit)
        if len(scored):
            released.append(scored)
            if exporter is not None:
                exporter.maybe_export()
    released.append(finish())
    stream_end = time.perf_counter()
    emitted = ScoreBatch.concat(released)
    if obs_on:
        registry = obs.get_registry()
        registry.counter("stream.items_scored").inc(len(emitted))
        registry.gauge("stream.warmup_items").set(n_warmup)
    return _Streamed(emitted, packets_streamed, stream_end - stream_start,
                    stream_end)


def _close_session(
    detector: StreamingDetector,
    streamed: _Streamed,
    *,
    source: str,
    labelled: bool,
    threshold: float | None,
    window_seconds: float,
    on_window: WindowCallback | None,
    exporter: "obs.SnapshotExporter | None",
    n_warmup: int,
    warmup_seconds: float,
    notes: dict,
    policy: ExperimentConfig | None = None,
    digest_key: str = "score_digest",
    export_extra=None,
) -> StreamReport:
    """Every session's last stage: threshold, window and alert the
    emitted scores into the report, then export the final snapshot.

    ``threshold=None`` resolves the post-hoc threshold with ``policy``
    (:func:`~repro.core.experiment.posthoc_threshold`). The run's own
    ``notes`` come first, then the ones every report carries: scoring
    path, compute backends, run id, the coverage digest and the
    ``digest_key`` digest of the raw float64 scores.
    """
    emitted = streamed.emitted
    scores = emitted.score
    y_true = emitted.label if labelled else None
    if threshold is None:
        resolved = posthoc_threshold(y_true, scores, policy)
        # standard_threshold's default strategy when there is no cell.
        strategy = "fpr-budget" if policy is None else policy.threshold_strategy
        threshold_source = f"posthoc:{strategy}"
    else:
        resolved = float(threshold)
        threshold_source = "fixed"

    windows, alerter = _evaluate_stream(
        emitted,
        labelled=labelled,
        threshold=resolved,
        window_seconds=window_seconds,
        on_window=on_window,
    )
    report = StreamReport(
        ids_name=getattr(detector, "ids", detector).name,
        source=source,
        unit=detector.unit,
        labelled=labelled,
        batch_size=detector.batch_size,
        window_seconds=window_seconds,
        threshold=resolved,
        threshold_source=threshold_source,
        n_warmup=n_warmup,
        n_scored=len(emitted),
        packets_streamed=streamed.packets,
        warmup_seconds=warmup_seconds,
        stream_seconds=streamed.seconds,
        metrics=windows.overall(),
        alert_rate=windows.alert_rate,
        windows=windows.windows,
        alerts=alerter.episodes,
        scores=scores,
        y_true=y_true,
        notes={
            **notes,
            "scoring_path": detector.scoring_path,
            **backend_notes(getattr(detector, "ids", None)),
            "run_id": obs.run_id(),
            # Worker-count- and ingest-invariant; the score digest
            # matches across runs iff their scores are bit-identical.
            "coverage_digest": coverage_digest(emitted),
            digest_key: hashlib.sha256(scores.tobytes()).hexdigest(),
        },
    )
    report.notes["report_seconds"] = time.perf_counter() - streamed.ended
    if exporter is not None:
        exporter.export(export_extra)
    return report


def _capture_session(
    source: PacketSource,
    detector: StreamingDetector,
    *,
    warmup_packets: int,
    threshold: float | None,
    window_seconds: float,
    on_window: WindowCallback | None,
    exporter: "obs.SnapshotExporter | None",
    ingest_backend: str | None = None,
    policy: ExperimentConfig | None = None,
    describe: str | None = None,
    notes: dict | None = None,
) -> StreamReport:
    """:func:`stream_capture`'s body. A streamed packet cell runs it too,
    with its threshold ``policy``, its own ``describe`` string for the
    report's source and its cell ``notes``."""
    ingest, n_warmup, warmup_seconds, live = _open_session(
        source, detector,
        warmup_packets=warmup_packets,
        threshold=threshold,
        exporter=exporter,
        ingest_backend=ingest_backend,
        batch_size=detector.batch_size,
    )
    streamed = _stream(live, detector.process_columns, detector.finish,
                       exporter=exporter, n_warmup=n_warmup)
    return _close_session(
        detector, streamed,
        source=describe or source.describe(),
        labelled=source.labelled,
        threshold=threshold,
        policy=policy,
        window_seconds=window_seconds,
        on_window=on_window,
        exporter=exporter,
        n_warmup=n_warmup,
        warmup_seconds=warmup_seconds,
        notes={
            **(notes or {}),
            "non_ip_packets": getattr(
                getattr(detector, "assembler", None), "non_ip_packets", 0
            ),
            "ingest_backend": ingest,
        },
    )


def stream_capture(
    source: PacketSource,
    detector: StreamingDetector,
    *,
    warmup_packets: int,
    threshold: float | None = None,
    window_seconds: float = 10.0,
    on_window: WindowCallback | None = None,
    exporter: "obs.SnapshotExporter | None" = None,
    ingest_backend: str | None = None,
) -> StreamReport:
    """Stream a raw packet source: train on the first ``warmup_packets``
    packets, score everything after them.

    Unlabelled sources (pcap replay) must pass an explicit
    ``threshold`` — there is no ground truth to standardise against —
    and report alert rates instead of precision/recall. A labelled
    source without one gets the default post-hoc threshold
    (:func:`~repro.core.experiment.posthoc_threshold`).

    ``exporter`` (a :class:`repro.obs.SnapshotExporter`) enables the
    metrics registry and emits periodic snapshots at batch boundaries
    plus one final snapshot.

    Every source reaches the detector as column batches
    (:func:`~repro.net.columnar.iter_column_batches`);
    ``ingest_backend`` selects how they are made
    (:func:`resolve_ingest_backend`). The default ``None`` decodes
    column batches straight off the capture file when the source has
    one; ``"packet-objects"`` iterates decoded :class:`Packet` objects
    and columnizes them one micro-batch at a time, the reference route.
    Scores, coverage and digests are bit-identical across backends —
    ingest is a throughput knob, not a semantic one.
    """
    return _capture_session(
        source, detector,
        warmup_packets=warmup_packets,
        threshold=threshold,
        window_seconds=window_seconds,
        on_window=on_window,
        exporter=exporter,
        ingest_backend=ingest_backend,
    )


def stream_experiment(
    config: ExperimentConfig,
    *,
    batch_size: int = 256,
    window_seconds: float = 10.0,
    threshold: float | None = None,
    dataset_provider=None,
    on_window: WindowCallback | None = None,
    exporter: "obs.SnapshotExporter | None" = None,
) -> StreamReport:
    """Run one Table IV cell as an online streaming session.

    The dataset is adapted exactly as the batch path adapts it. A
    packet cell then streams its training packets followed by its test
    packets through :func:`stream_capture`'s body, warming up on the
    former; a flow cell fits on its adapted training flows and replays
    its test flows. With ``threshold=None`` the cell's standardized
    threshold is applied post hoc, so the final metrics coincide with
    the batch cell's.

    ``exporter`` (a :class:`repro.obs.SnapshotExporter`) enables the
    metrics registry and emits periodic snapshots at micro-batch
    boundaries plus one final snapshot.
    """
    if exporter is not None and not obs.is_enabled():
        obs.enable()
    from repro.datasets import generate_dataset

    provider = dataset_provider or generate_dataset
    dataset = provider(config.dataset_name, seed=config.seed, scale=config.scale)
    cell = dict(
        threshold=threshold,
        policy=config,
        window_seconds=window_seconds,
        on_window=on_window,
        exporter=exporter,
    )
    describe = (f"dataset:{config.dataset_name} "
                f"(seed={config.seed}, scale={config.scale})")

    if experiment_input_kind(config) is InputKind.PACKET:
        ids, data = build_packet_cell(config, dataset)
        return _capture_session(
            ListSource(data.train_packets + data.test_packets),
            PacketStreamDetector(ids, batch_size=batch_size),
            warmup_packets=len(data.train_packets),
            describe=describe,
            notes={**data.notes, "seed": config.seed, "scale": config.scale},
            **cell,
        )

    train_dataset = None
    requirement = cross_corpus_requirement(config)
    if requirement is not None:
        cc_name, cc_seed, cc_scale = requirement
        train_dataset = provider(cc_name, seed=cc_seed, scale=cc_scale)
    ids, data = build_flow_cell(config, dataset, train_dataset)
    detector = FlowStreamDetector(
        ids, schema=config.schema, batch_size=batch_size,
        encoder=data.encoder,
    )
    warmup_seconds = _timed_warmup(
        detector.warmup_flows,
        data.train_flows, data.train_features, data.train_labels,
    )
    streamed = _stream(
        data.test_flows, detector.process_flow, detector.finish,
        exporter=exporter, n_warmup=len(data.train_flows),
        size=lambda flow: flow.total_packets,
    )
    return _close_session(
        detector, streamed,
        source=describe,
        labelled=True,
        n_warmup=len(data.train_flows),
        warmup_seconds=warmup_seconds,
        notes={**data.notes, "seed": config.seed, "scale": config.scale},
        **cell,
    )
