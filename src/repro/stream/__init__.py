"""Online streaming detection: live packet streams through the IDSs.

The batch pipeline (:mod:`repro.core`) materialises a dataset, adapts
it, then fits and scores in one shot. This package is the *push* mode
the evaluated systems were actually built for: a
:class:`~repro.stream.sources.PacketSource` feeds packets one at a time
into a :class:`~repro.stream.detector.StreamingDetector`, flows are
assembled incrementally (:class:`~repro.flows.assembler.FlowAssembler`),
scores emerge in micro-batches, and sliding-window metrics
(:class:`~repro.stream.metrics.WindowedMetrics`) plus a hysteresis alert
sink (:class:`~repro.stream.alerts.HysteresisAlerter`) summarise the
stream as it runs.

Contract with the batch path: for the same packets, the streaming
scores are *bit-identical* to the batch pipeline's
(``tests/test_stream_parity.py``). See ``docs/STREAMING.md``.

:func:`~repro.stream.sharded.stream_capture_sharded` scales the live
path across worker processes — flow-consistent sharding
(:mod:`repro.stream.shard`), bounded-queue backpressure, and
checkpointed crash-resume — with a coverage digest that is invariant
across worker counts.

Capture replay decodes through the ``columnar-mmap`` ingest
(:mod:`repro.net.columnar`): the capture is mmap'd and decoded into
column batches that feed batched feature extraction directly, with no
``Packet`` objects on the hot path. Scores, features and coverage
digests are bit-identical to the ``packet-objects`` reference route
(:func:`~repro.stream.service.resolve_ingest_backend`).
"""

from repro.stream.alerts import AlertEpisode, HysteresisAlerter
from repro.stream.detector import (
    FlowStreamDetector,
    PacketStreamDetector,
    ScoreBatch,
    StreamingDetector,
    StreamScore,
    build_streaming_detector,
    canonical_ids_name,
)
from repro.stream.metrics import WindowedMetrics, WindowSnapshot
from repro.stream.sources import (
    DatasetSource,
    ListSource,
    MixedSource,
    PacketSource,
    PcapReplaySource,
)
from repro.stream.service import (
    StreamReport,
    resolve_ingest_backend,
    stream_capture,
    stream_experiment,
)
from repro.stream.shard import (
    shard_ids_for_batch,
    shard_key_for_flow,
    shard_of_key,
)
from repro.stream.sharded import (
    FaultInjection,
    coverage_digest,
    stream_capture_sharded,
)

__all__ = [
    "AlertEpisode",
    "HysteresisAlerter",
    "FlowStreamDetector",
    "PacketStreamDetector",
    "ScoreBatch",
    "StreamingDetector",
    "StreamScore",
    "build_streaming_detector",
    "canonical_ids_name",
    "WindowedMetrics",
    "WindowSnapshot",
    "DatasetSource",
    "ListSource",
    "MixedSource",
    "PacketSource",
    "PcapReplaySource",
    "StreamReport",
    "resolve_ingest_backend",
    "stream_capture",
    "stream_experiment",
    "shard_ids_for_batch",
    "shard_key_for_flow",
    "shard_of_key",
    "FaultInjection",
    "coverage_digest",
    "stream_capture_sharded",
]
