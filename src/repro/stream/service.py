"""The streaming session: source → detector → windows → alerts.

Two entry points:

* :func:`stream_experiment` — the parity-bearing path. It adapts a
  dataset exactly as the batch pipeline does (same
  :func:`~repro.core.experiment.build_packet_cell` /
  :func:`~repro.core.experiment.build_flow_cell` substrate, same RNG
  derivations), trains on the prefix, then pushes the test stream
  through a :class:`~repro.stream.detector.StreamingDetector`. For the
  same config, its per-item scores are bit-identical to
  :func:`~repro.core.experiment.run_experiment` for the packet IDSs —
  streaming is an execution mode, not a different experiment.
* :func:`stream_capture` — the live path: any
  :class:`~repro.stream.sources.PacketSource` (pcap replay, synthetic
  generator, multi-attack mix), streamed as column batches,
  train-on-first-N packets, score the rest. Unlabelled sources report
  alert rates only.

Both produce a :class:`StreamReport`: overall metrics, per-window
snapshots, alert episodes and throughput, JSON-exportable for CI.
"""

from __future__ import annotations

import hashlib
import itertools
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro import obs
from repro.core.experiment import (
    ExperimentConfig,
    build_flow_cell,
    build_packet_cell,
    cross_corpus_requirement,
    experiment_input_kind,
)
from repro.core.metrics import MetricReport
from repro.core.thresholds import standard_threshold
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
from repro.stream.sources import PacketSource
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
        """Streamed packets over scoring wall time (the bench metric)."""
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


def _resolve_threshold(
    config: ExperimentConfig,
    y_true: np.ndarray,
    scores: np.ndarray,
) -> float:
    """The batch pipeline's standardized threshold over the streamed
    scores — identical inputs, identical cut point."""
    return standard_threshold(
        y_true,
        scores,
        strategy=config.threshold_strategy,
        max_fpr=config.max_fpr,
        lambda_fpr=config.lambda_fpr,
        fixed_value=config.fixed_threshold,
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

    The dataset is adapted exactly as the batch path adapts it; the
    test stream is then scored through micro-batched online processing.
    With ``threshold=None`` the standardized batch threshold is applied
    post hoc, so the final metrics coincide with the batch cell's.

    ``exporter`` (a :class:`repro.obs.SnapshotExporter`) enables the
    metrics registry and emits periodic snapshots at micro-batch
    boundaries plus one final snapshot.
    """
    if exporter is not None and not obs.is_enabled():
        obs.enable()
    from repro.datasets import generate_dataset

    provider = dataset_provider or generate_dataset
    dataset = provider(config.dataset_name, seed=config.seed, scale=config.scale)
    kind = experiment_input_kind(config)

    if kind is InputKind.PACKET:
        ids, data = build_packet_cell(config, dataset)
        detector: StreamingDetector = PacketStreamDetector(
            ids, batch_size=batch_size
        )
        train_items = data.train_packets
        stream_items = data.test_packets
        units = (
            ColumnBatch.from_packets(stream_items[start:start + batch_size])
            for start in range(0, len(stream_items), batch_size)
        )
        feed = detector.process_columns
    else:
        train_dataset = None
        requirement = cross_corpus_requirement(config)
        if requirement is not None:
            cc_name, cc_seed, cc_scale = requirement
            train_dataset = provider(cc_name, seed=cc_seed, scale=cc_scale)
        ids, data = build_flow_cell(config, dataset, train_dataset)
        flow_detector = FlowStreamDetector(
            ids,
            schema=config.schema,
            batch_size=batch_size,
            encoder=data.encoder,
        )
        detector = flow_detector
        train_items = data.train_flows
        stream_items = data.test_flows
        units = stream_items
        feed = flow_detector.process_flow

    warmup_start = time.perf_counter()
    with obs.span("stream.warmup"):
        if kind is InputKind.PACKET:
            detector.warmup(train_items)
        else:
            flow_detector.warmup_flows(
                data.train_flows, data.train_features, data.train_labels
            )
    warmup_seconds = time.perf_counter() - warmup_start

    released: list[ScoreBatch] = []
    stream_start = time.perf_counter()
    for unit in units:
        scored = feed(unit)
        if len(scored):
            released.append(scored)
            if exporter is not None:
                exporter.maybe_export()
    released.append(detector.finish())
    emitted = ScoreBatch.concat(released)
    stream_seconds = time.perf_counter() - stream_start

    scores = emitted.score
    y_true = data.y_true
    if threshold is None:
        resolved = _resolve_threshold(config, y_true, scores)
        threshold_source = f"posthoc:{config.threshold_strategy}"
    else:
        resolved = float(threshold)
        threshold_source = "fixed"

    windows, alerter = _evaluate_stream(
        emitted,
        labelled=True,
        threshold=resolved,
        window_seconds=window_seconds,
        on_window=on_window,
    )
    packets_streamed = (
        len(stream_items) if kind is InputKind.PACKET
        else sum(flow.total_packets for flow in stream_items)
    )
    if obs.is_enabled():
        registry = obs.get_registry()
        registry.counter("stream.packets_streamed").inc(packets_streamed)
        registry.counter("stream.items_scored").inc(len(emitted))
        registry.gauge("stream.warmup_items").set(len(train_items))
    notes = dict(data.notes)
    notes["seed"] = config.seed
    notes["scale"] = config.scale
    notes["scoring_path"] = detector.scoring_path
    notes.update(backend_notes(ids))
    notes["run_id"] = obs.run_id()
    if exporter is not None:
        exporter.export()
    return StreamReport(
        ids_name=config.ids_name,
        source=f"dataset:{config.dataset_name} "
               f"(seed={config.seed}, scale={config.scale})",
        unit=detector.unit,
        labelled=True,
        batch_size=batch_size,
        window_seconds=window_seconds,
        threshold=resolved,
        threshold_source=threshold_source,
        n_warmup=len(train_items),
        n_scored=len(emitted),
        packets_streamed=packets_streamed,
        warmup_seconds=warmup_seconds,
        stream_seconds=stream_seconds,
        metrics=windows.overall(),
        alert_rate=windows.alert_rate,
        windows=windows.windows,
        alerts=alerter.episodes,
        scores=scores,
        y_true=y_true,
        notes=notes,
    )


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


def _warm_up(
    detector: StreamingDetector,
    batches: Iterator[ColumnBatch],
    warmup_packets: int,
) -> tuple[int, float, Iterator[ColumnBatch]]:
    """Train ``detector`` on the first ``warmup_packets`` rows.

    The prefix is hydrated into full packets (training happens once,
    off the hot path; batches columnized from objects hand back their
    originals). Returns ``(n_warmup, warmup_seconds, live)``: ``live``
    yields the batches after the prefix, the straddling one sliced.
    With ``warmup_packets == 0`` this fits on an empty prefix:
    training-free IDSs accept that, supervised ones raise their clear
    error up front instead of failing mid-stream.
    """
    batches = iter(batches)
    live: Iterator[ColumnBatch] = batches
    prefix: list = []
    for batch in batches:
        take = min(warmup_packets - len(prefix), len(batch))
        prefix.extend(batch.hydrate_range(0, take))
        if take < len(batch):
            rest = batch.slice(take, len(batch)) if take else batch
            live = itertools.chain([rest], batches)
            break
    started = time.perf_counter()
    with obs.span("stream.warmup"):
        detector.warmup(prefix)
    return len(prefix), time.perf_counter() - started, live


def _capture_report(
    source: PacketSource,
    detector: StreamingDetector,
    emitted: ScoreBatch,
    *,
    threshold: float | None,
    window_seconds: float,
    on_window: WindowCallback | None,
    n_warmup: int,
    packets_streamed: int,
    warmup_seconds: float,
    stream_seconds: float,
    notes: dict,
) -> StreamReport:
    """Threshold, window and alert a live session's scores into its
    report — shared by the in-process and sharded capture engines."""
    labelled = source.labelled
    scores = emitted.score
    y_true = emitted.label if labelled else None
    if threshold is None:
        assert y_true is not None
        resolved = standard_threshold(y_true, scores, strategy="fpr-budget")
        threshold_source = "posthoc:fpr-budget"
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
    return StreamReport(
        ids_name=getattr(detector, "ids", detector).name,
        source=source.describe(),
        unit=detector.unit,
        labelled=labelled,
        batch_size=detector.batch_size,
        window_seconds=window_seconds,
        threshold=resolved,
        threshold_source=threshold_source,
        n_warmup=n_warmup,
        n_scored=len(emitted),
        packets_streamed=packets_streamed,
        warmup_seconds=warmup_seconds,
        stream_seconds=stream_seconds,
        metrics=windows.overall(),
        alert_rate=windows.alert_rate,
        windows=windows.windows,
        alerts=alerter.episodes,
        scores=scores,
        y_true=y_true,
        notes=notes,
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
    and report alert rates instead of precision/recall.

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
        source, detector.batch_size,
        native=resolved_ingest == "columnar-mmap",
    )
    n_warmup, warmup_seconds, live = _warm_up(
        detector, batches, warmup_packets
    )
    obs_on = obs.is_enabled()
    packet_counter = (
        obs.counter("stream.packets_streamed") if obs_on else None
    )
    released: list[ScoreBatch] = []
    packets_streamed = 0
    stream_start = time.perf_counter()
    for batch in live:
        packets_streamed += len(batch)
        if packet_counter is not None:
            packet_counter.inc(len(batch))
        scored = detector.process_columns(batch)
        if len(scored):
            released.append(scored)
            if exporter is not None:
                exporter.maybe_export()
    released.append(detector.finish())
    stream_end = time.perf_counter()
    stream_seconds = stream_end - stream_start
    emitted = ScoreBatch.concat(released)
    if obs_on:
        registry = obs.get_registry()
        registry.counter("stream.items_scored").inc(len(emitted))
        registry.gauge("stream.warmup_items").set(n_warmup)

    report = _capture_report(
        source, detector, emitted,
        threshold=threshold,
        window_seconds=window_seconds,
        on_window=on_window,
        n_warmup=n_warmup,
        packets_streamed=packets_streamed,
        warmup_seconds=warmup_seconds,
        stream_seconds=stream_seconds,
        notes={
            "non_ip_packets": getattr(
                getattr(detector, "assembler", None), "non_ip_packets", 0
            ),
            "scoring_path": detector.scoring_path,
            "ingest_backend": resolved_ingest,
            # coverage_digest matches the sharded engine's (worker-count-
            # and ingest-invariant); score_digest hashes the raw float64
            # scores, so two ingest paths agree iff bit-identical.
            "coverage_digest": coverage_digest(emitted),
            "score_digest": hashlib.sha256(
                emitted.score.tobytes()).hexdigest(),
            **backend_notes(getattr(detector, "ids", None)),
            "run_id": obs.run_id(),
        },
    )
    report.notes["report_seconds"] = time.perf_counter() - stream_end
    if exporter is not None:
        exporter.export()
    return report
