"""Stage-by-stage timing of the packet path a live Kitsune session runs.

The path has four stages, named as in perfbench's traced runs::

    capture bytes --net.decode--> column batches
        --features.extract--> features --ml.train--> trained KitNET
        --ml.execute--> scores

Each stage has a very different cost profile (codec, damped statistics,
ensemble of autoencoders), so a single end-to-end number hides where
the budget goes. :func:`profile_packet_path` times each stage over a
synthetic replay and reports per-packet microseconds, packets/second
and each stage's share — the workflow behind ``repro-cli profile``
(see ``docs/PERFORMANCE.md``). Every stage runs the code a session
runs: the mmap'd column decode of :mod:`repro.net.columnar`,
``NetStat.extract_all`` on each batch, ``KitNET.process_batch`` over
the grace prefix (the stacked online trainer behind ``Kitsune.fit``)
and ``process_batch`` over the rest in the live 256-row micro-batches.
The scalar, per-row and packet-object references are test oracles;
their speedups are rows of the ``BENCH_netstat_throughput``,
``BENCH_ingest_throughput``, ``BENCH_kitnet_batch`` and
``BENCH_kitnet_train`` benches.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.features.netstat import NetStat
from repro.ids.kitsune import grace_periods
from repro.utils.rng import SeededRNG

#: Rows per ``ml.execute`` call: the live stream's default micro-batch.
_EXECUTE_BATCH = 256


@dataclass(frozen=True)
class StageTiming:
    """Wall-clock cost of one pipeline stage over the whole replay."""

    stage: str
    seconds: float
    packets: int

    @property
    def per_packet_us(self) -> float:
        return self.seconds / self.packets * 1e6 if self.packets else 0.0

    @property
    def packets_per_second(self) -> float:
        return self.packets / self.seconds if self.seconds > 0 else 0.0


@dataclass(frozen=True)
class PacketPathProfile:
    """The full stage breakdown for one dataset replay.

    ``feature_backend`` and ``ensemble_backend`` name the engines that
    drove ``features.extract`` (``NetStat.backend``) and the KitNET
    stages.
    """

    dataset: str
    seed: int
    scale: float
    packets: int
    stages: tuple[StageTiming, ...]
    feature_backend: str
    ensemble_backend: str

    @property
    def total_seconds(self) -> float:
        return sum(stage.seconds for stage in self.stages)

    def render(self) -> str:
        total = self.total_seconds
        lines = [
            f"packet path profile: {self.dataset} seed={self.seed} "
            f"scale={self.scale} ({self.packets} packets, "
            f"features={self.feature_backend}, "
            f"ensemble={self.ensemble_backend})",
            f"  {'stage':20s} {'seconds':>9s} {'us/pkt':>9s} "
            f"{'pkt/s':>12s} {'share':>7s}",
        ]
        for stage in self.stages:
            share = stage.seconds / total if total else 0.0
            lines.append(
                f"  {stage.stage:20s} {stage.seconds:9.3f} "
                f"{stage.per_packet_us:9.1f} "
                f"{stage.packets_per_second:12,.0f} {share:6.1%}"
            )
        lines.append(
            f"  {'total':20s} {total:9.3f} "
            f"{total / self.packets * 1e6 if self.packets else 0:9.1f} "
            f"{self.packets / total if total else 0:12,.0f} {1:6.1%}"
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "seed": self.seed,
            "scale": self.scale,
            "packets": self.packets,
            "feature_backend": self.feature_backend,
            "ensemble_backend": self.ensemble_backend,
            "total_seconds": self.total_seconds,
            "stages": [
                {
                    "stage": stage.stage,
                    "seconds": stage.seconds,
                    "per_packet_us": stage.per_packet_us,
                    "packets_per_second": stage.packets_per_second,
                }
                for stage in self.stages
            ],
        }


def kitnet_grace_split(count: int) -> tuple[int, int, int]:
    """Grace-period arithmetic for a ``count``-packet replay: train on
    the first half (:func:`~repro.ids.kitsune.grace_periods` of it, the
    experiment pipeline's per-cell arithmetic), execute the rest.
    Shared by the profile's ``ml.train``/``ml.execute`` stages and the
    ``bench_kitnet_batch`` and ``bench_kitnet_train`` benches so all
    measure the same phases.
    Returns ``(fm_grace, ad_grace, boundary)``; rows past ``boundary``
    are execute-phase.
    """
    fm_grace, ad_grace = grace_periods(count // 2)
    return fm_grace, ad_grace, min(fm_grace + ad_grace, count)


def profile_packet_path(
    dataset: str = "Mirai",
    *,
    seed: int = 0,
    scale: float = 0.2,
    max_packets: int | None = None,
    dataset_provider=None,
) -> PacketPathProfile:
    """Time net.decode → features.extract → ml.train → ml.execute over
    a synthetic dataset replay.

    The replay is written to a scratch capture file first (untimed,
    nanosecond magic so timestamps keep their resolution), so the
    profile starts where a live capture does: at bytes on disk.
    """
    import tempfile
    from pathlib import Path

    import numpy as np

    from repro.ids.kitsune.kitnet import KitNET
    from repro.net.columnar import ColumnarPcapReader
    from repro.net.pcap import write_pcap

    if dataset_provider is None:
        from repro.datasets import generate_dataset as dataset_provider
    data = dataset_provider(dataset, seed=seed, scale=scale)
    packets = list(data.packets)
    if max_packets is not None:
        packets = packets[:max_packets]
    if not packets:
        raise ValueError("profiling needs a non-empty packet stream")
    count = len(packets)

    extractor = NetStat()
    # Column batches keep views into the mmap'd capture, so it must
    # outlive the feature stage.
    with tempfile.TemporaryDirectory(prefix="repro-profile-") as tmp:
        capture = Path(tmp) / "replay.pcap"
        write_pcap(capture, packets, nanosecond=True)

        start = time.perf_counter()
        batches = list(ColumnarPcapReader(capture))
        decode_seconds = time.perf_counter() - start

        start = time.perf_counter()
        features = np.vstack(
            [extractor.extract_all(batch) for batch in batches]
        )
        extract_seconds = time.perf_counter() - start
        del batches

    fm_grace, ad_grace, boundary = kitnet_grace_split(count)
    detector = KitNET(
        extractor.feature_count,
        fm_grace=fm_grace,
        ad_grace=ad_grace,
        rng=SeededRNG(seed, "profile"),
    )
    start = time.perf_counter()
    detector.process_batch(features[:boundary])
    train_seconds = time.perf_counter() - start

    execute_rows = features[boundary:]
    start = time.perf_counter()
    for i in range(0, len(execute_rows), _EXECUTE_BATCH):
        detector.process_batch(execute_rows[i : i + _EXECUTE_BATCH])
    execute_seconds = time.perf_counter() - start

    return PacketPathProfile(
        dataset=data.name,
        seed=seed,
        scale=scale,
        packets=count,
        stages=(
            StageTiming("net.decode", decode_seconds, count),
            StageTiming("features.extract", extract_seconds, count),
            StageTiming("ml.train", train_seconds, boundary),
            StageTiming("ml.execute", execute_seconds, len(execute_rows)),
        ),
        feature_backend=extractor.backend,
        ensemble_backend=detector.resolved_ensemble_backend,
    )
