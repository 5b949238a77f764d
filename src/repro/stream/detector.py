"""Streaming adapters over the registry's IDS models.

A :class:`StreamingDetector` turns a batch-interface IDS
(:class:`~repro.ids.base.PacketIDS` / :class:`~repro.ids.base.FlowIDS`)
into a push-based scorer: train on a prefix (``warmup``), then score
the live stream as it arrives in column batches (``process_columns``,
see :class:`~repro.net.columnar.ColumnBatch`) — every source reaches a
detector that way, whatever its ingest backend.

**Parity contract.** The evaluated packet IDSs (Kitsune, HELAD) are
online systems: their internal state advances one packet at a time, so
calling ``score_batch`` on consecutive micro-batches produces the
*bit-identical* score sequence a single batch call would — that is what
makes micro-batching a pure throughput knob rather than a semantic one
(``tests/test_stream_parity.py`` enforces it). The packet IDSs extract
features through the vectorized AfterImage engine by default, itself
bit-identical to the scalar reference (``docs/PERFORMANCE.md``), so the
streaming digests are engine-independent too. Flow IDSs split two
ways: the DNN scores flows row-independently, so completed flows are
scored as they close; Slips accumulates evidence across *all* profile
windows, so its adapter defers scoring to ``finish`` — the only point
where its batch semantics exist at all.
"""

from __future__ import annotations

import abc
import time
import warnings
from typing import Sequence

import numpy as np

from repro import obs
from repro.features.encoding import FlowVectorEncoder
from repro.flows.assembler import FlowAssembler
from repro.flows.record import FlowRecord
from repro.ids.base import FlowIDS, InputKind, PacketIDS
from repro.ids.kitsune import grace_periods
from repro.ids.registry import evaluated_ids_factories
from repro.net.columnar import ColumnBatch
from repro.net.packet import Packet
from repro.stream.scores import NO_LABEL, ScoreBatch, StreamScore
from repro.utils.validation import check_positive

__all__ = [
    "FlowStreamDetector",
    "PacketStreamDetector",
    "ScoreBatch",
    "StreamScore",
    "StreamingDetector",
    "build_streaming_detector",
    "canonical_ids_name",
]


def canonical_ids_name(name: str) -> str:
    """Resolve a (case-insensitive) IDS name to its Table IV spelling."""
    factories = evaluated_ids_factories()
    lowered = {known.lower(): known for known in factories}
    try:
        return lowered[name.lower()]
    except KeyError:
        known = ", ".join(sorted(factories))
        raise KeyError(f"unknown IDS {name!r}; known: {known}") from None


class StreamingDetector(abc.ABC):
    """Push-based scoring facade over one IDS instance."""

    #: What one emitted score row covers.
    unit: str  # "packet" | "flow"
    #: How micro-batches are scored, exported in stream reports and
    #: benches: ``"batched"`` (packet IDSs' ``score_batch``) or
    #: ``"flow-matrix"`` (flow IDSs score encoded matrices natively).
    scoring_path: str

    def __init__(self, *, batch_size: int = 256) -> None:
        self.batch_size = int(check_positive("batch_size", batch_size))
        self.items_scored = 0

    @abc.abstractmethod
    def warmup(self, packets: Sequence[Packet]) -> None:
        """Train on the stream's prefix (fit-on-prefix regime)."""

    @abc.abstractmethod
    def process_columns(self, batch: ColumnBatch) -> ScoreBatch:
        """Consume a column batch of live packets; return the scores it
        released (possibly none)."""

    @abc.abstractmethod
    def finish(self) -> ScoreBatch:
        """Drain buffered work at end of stream."""


class PacketStreamDetector(StreamingDetector):
    """Micro-batched per-packet scoring for Kitsune/HELAD."""

    unit = "packet"
    scoring_path = "batched"

    def __init__(self, ids: PacketIDS, *, batch_size: int = 256) -> None:
        super().__init__(batch_size=batch_size)
        if ids.input_kind is not InputKind.PACKET:
            raise TypeError(f"{ids.name} is not a packet-level IDS")
        self.ids = ids

    def warmup(self, packets: Sequence[Packet]) -> None:
        self.ids.fit(packets)

    def finish(self) -> ScoreBatch:
        # process_columns scores every row it is given; nothing waits.
        return ScoreBatch.empty()

    def process_columns(self, batch: ColumnBatch) -> ScoreBatch:
        """Score a column batch in ``batch_size`` micro-batches.

        The IDSs' ``score_batch`` accepts column batches natively
        (NetStat's columnar path), bit-identical to scoring the
        batch's packets as objects, and micro-batch boundaries do not
        change the scores of these online IDSs. The scores land in one
        :class:`ScoreBatch` beside the batch's own timestamp, label and
        attack columns.
        """
        n = len(batch)
        scores = np.empty(n, dtype=np.float64)
        obs_on = obs.is_enabled()
        for start in range(0, n, self.batch_size):
            stop = min(start + self.batch_size, n)
            sub = batch.slice(start, stop)
            if obs_on:
                started = time.perf_counter()
                scores[start:stop] = self.ids.score_batch(sub)
                registry = obs.get_registry()
                registry.histogram("stream.detector.score_seconds").observe(
                    time.perf_counter() - started
                )
                registry.histogram("stream.detector.batch_size").observe(
                    len(sub)
                )
            else:
                scores[start:stop] = self.ids.score_batch(sub)
        base = self.items_scored
        self.items_scored = base + n
        return ScoreBatch.build(
            np.arange(base, base + n),
            batch.timestamps,
            scores,
            np.zeros(n, dtype=np.int64) if batch.labels is None
            else batch.labels,
            batch.attack_types,
        )


class FlowStreamDetector(StreamingDetector):
    """Flow-level streaming: assemble incrementally, score on close.

    Live packets go through one :class:`FlowAssembler`, whose flow
    boundaries and completion order are the batch export's. Flow IDSs
    already consume encoded feature matrices, so every micro-batch is
    scored in one call (``scoring_path = "flow-matrix"``).

    Slips' adapter is *deferred*: it accumulates completed flows and
    scores them in one call at ``finish`` — Slips' evidence
    accumulation and recidivism are defined over the whole window set,
    so per-flow scoring would silently change its semantics. The DNN
    scores each micro-batch of closed flows as it fills.

    ``process_flow`` lets pre-assembled flows (the batch pipeline's
    adapted flow sample) be replayed directly, bypassing the assembler
    — the parity path used by
    :func:`repro.stream.service.stream_experiment`.
    """

    unit = "flow"
    scoring_path = "flow-matrix"

    def __init__(
        self,
        ids: FlowIDS,
        *,
        schema: str = "netflow",
        batch_size: int = 64,
        encoder: FlowVectorEncoder | None = None,
        labelled: bool = True,
    ) -> None:
        super().__init__(batch_size=batch_size)
        if ids.input_kind is not InputKind.FLOW:
            raise TypeError(f"{ids.name} is not a flow-level IDS")
        self.ids = ids
        self.schema = schema
        # Slips is the only evaluated IDS whose scores couple across
        # flows; its adapter scores at end of stream.
        self.deferred = ids.name == "Slips"
        self.encoder = encoder or self._default_encoder(schema)
        self.assembler = FlowAssembler()
        self.labelled = labelled
        self._buffer: list[FlowRecord] = []
        self._deferred_flows: list[FlowRecord] = []

    @staticmethod
    def _default_encoder(schema: str) -> FlowVectorEncoder:
        """A live stream sees full packets, so every schema feature is
        available — no zero-filled adaptation loss."""
        if schema == "cicflow":
            from repro.flows.cicflow import CICFLOW_FEATURE_NAMES

            return FlowVectorEncoder(CICFLOW_FEATURE_NAMES)
        if schema == "netflow":
            from repro.flows.netflow import NETFLOW_FEATURE_NAMES

            return FlowVectorEncoder(NETFLOW_FEATURE_NAMES)
        raise ValueError(f"unknown flow schema {schema!r}")

    def _encode(self, flows: Sequence[FlowRecord]) -> np.ndarray:
        from repro.core.preprocessing import flow_feature_dicts

        return self.encoder.encode(flow_feature_dicts(flows, self.schema))

    def warmup(self, packets: Sequence[Packet]) -> None:
        """Assemble the prefix into flows and fit the IDS on them."""
        flows = FlowAssembler().assemble(packets)
        features = self._encode(flows)
        labels = (
            np.array([flow.label for flow in flows], dtype=int)
            if self.labelled else None
        )
        if self.ids.supervised and labels is None:
            raise ValueError(
                f"{self.ids.name} is supervised; an unlabelled source "
                "cannot provide its training labels"
            )
        self.warmup_flows(flows, features, labels)

    def warmup_flows(
        self,
        flows: Sequence[FlowRecord],
        features: np.ndarray,
        labels: np.ndarray | None,
    ) -> None:
        """Fit directly on pre-assembled (batch-adapted) flows."""
        self.ids.fit(list(flows), features, labels)

    def process_columns(self, batch: ColumnBatch) -> ScoreBatch:
        """Feed the rows to the flow assembler; score flows as they close.

        Flow assembly reads full headers (TCP flags, payloads), so rows
        are hydrated: free for batches columnized from packet objects,
        one frame decode per row for batches read off a capture file.
        """
        released = [
            self.process_flow(flow)
            for flow in self.assembler.process(batch.iter_packets())
        ]
        return ScoreBatch.concat(released)

    def process_flow(self, flow: FlowRecord) -> ScoreBatch:
        if self.deferred:
            self._deferred_flows.append(flow)
            return ScoreBatch.empty()
        self._buffer.append(flow)
        if len(self._buffer) >= self.batch_size:
            return self._drain()
        return ScoreBatch.empty()

    def finish(self) -> ScoreBatch:
        released = [
            self.process_flow(flow) for flow in self.assembler.flush()
        ]
        if self.deferred and self._deferred_flows:
            flows, self._deferred_flows = self._deferred_flows, []
            released.append(self._emit(flows))
        else:
            released.append(self._drain())
        return ScoreBatch.concat(released)

    def _drain(self) -> ScoreBatch:
        if not self._buffer:
            return ScoreBatch.empty()
        batch, self._buffer = self._buffer, []
        return self._emit(batch)

    def _emit(self, flows: list[FlowRecord]) -> ScoreBatch:
        if obs.is_enabled():
            started = time.perf_counter()
            scores = self.ids.anomaly_scores(flows, self._encode(flows))
            registry = obs.get_registry()
            registry.histogram("stream.detector.score_seconds").observe(
                time.perf_counter() - started
            )
            registry.histogram("stream.detector.flow_batch_size").observe(
                len(flows)
            )
        else:
            scores = self.ids.anomaly_scores(flows, self._encode(flows))
        base = self.items_scored
        self.items_scored = base + len(flows)
        return ScoreBatch.build(
            np.arange(base, base + len(flows)),
            [flow.end_time for flow in flows],
            scores,
            [flow.label if self.labelled else NO_LABEL for flow in flows],
            [flow.attack_type for flow in flows],
        )


def build_streaming_detector(
    ids_name: str,
    *,
    seed: int = 0,
    batch_size: int = 256,
    schema: str = "netflow",
    ids_overrides: dict | None = None,
    labelled: bool = True,
    warmup_packets: int | None = None,
    feature_backend: str | None = None,
) -> StreamingDetector:
    """Construct a streaming adapter for one of the evaluated IDSs.

    The IDS is built from its out-of-the-box ``default_config`` (paper
    Section IV-A-3) plus ``ids_overrides``, mirroring how the batch
    experiment path instantiates it. Pass ``warmup_packets`` (the live
    session's training-prefix length) so Kitsune's grace periods are
    scaled to fit the prefix exactly as the batch path scales them —
    otherwise a short prefix leaves KitNET still in its grace periods
    and 'scores' are silently training-step outputs.

    ``feature_backend`` pins the AfterImage engine of a packet-level
    IDS: a :data:`~repro.features.netstat.ENGINES` name, passed to
    ``NetStat(engine=...)``, which refuses unknown names and a missing
    native kernel. Every engine is bit-identical to the scalar
    reference, so this is a pure throughput knob.
    """
    name = canonical_ids_name(ids_name)
    factory = evaluated_ids_factories()[name]
    kwargs = dict(factory.default_config())
    overrides = dict(ids_overrides or {})
    kwargs.update(overrides)
    if feature_backend is not None:
        if name not in ("Kitsune", "HELAD"):
            raise ValueError(
                f"{name} is a flow-level IDS and does not use the "
                "NetStat feature engine; feature_backend only applies "
                "to packet-level IDSs (Kitsune, HELAD)"
            )
        kwargs["netstat_engine"] = feature_backend
    if name != "Slips":
        kwargs.setdefault("seed", seed)
    if name == "Kitsune" and warmup_packets is not None:
        # Same arithmetic as build_packet_cell in repro.core.experiment;
        # an overridden period is kept and the other fills the prefix.
        kwargs["fm_grace"], kwargs["ad_grace"] = grace_periods(
            warmup_packets,
            fm_grace=overrides.get("fm_grace"),
            ad_grace=overrides.get("ad_grace"),
        )
        total_grace = kwargs["fm_grace"] + kwargs["ad_grace"]
        if total_grace > warmup_packets:
            warnings.warn(
                f"Kitsune grace periods (fm_grace={kwargs['fm_grace']} + "
                f"ad_grace={kwargs['ad_grace']} = {total_grace}) exceed "
                f"the warmup prefix of {warmup_packets} packets; the "
                "detector will still be training when scoring starts "
                "and early 'scores' are training-step outputs",
                RuntimeWarning,
                stacklevel=2,
            )
    ids = factory(**kwargs)
    if ids.input_kind is InputKind.PACKET:
        return PacketStreamDetector(ids, batch_size=batch_size)
    return FlowStreamDetector(
        ids, schema=schema, batch_size=batch_size, labelled=labelled
    )
