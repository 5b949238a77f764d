"""Stage-by-stage timing of the per-packet detection path.

The online packet path is a three-stage pipeline::

    capture bytes --ingest--> packets/columns --netstat--> features
                                                  --kitnet--> score

Each stage has a very different cost profile (codec, damped statistics,
ensemble of autoencoders), so a single end-to-end number hides where
the budget goes. :func:`profile_packet_path` times each stage over a
synthetic replay and reports per-packet microseconds, packets/second
and each stage's share — the workflow behind ``repro-cli profile``
(see ``docs/PERFORMANCE.md``). The ``ingest`` stage reads the replay
back from a capture file (written untimed) through the selected ingest
backend — per-packet :class:`~repro.net.pcap.PcapReader` decode for
``packet-objects``, the mmap'd vectorized column decode of
:mod:`repro.net.columnar` for ``columnar-mmap`` — and the ``netstat``
stage consumes whatever that backend produced, so the pair shows the
end-to-end capture-to-features cost of each path. The KitNET stage is split into the
sequential grace periods (``kitnet-train``), the batched training
engine replaying the same prefix (``kitnet-train-batched`` — mini-batch
SGD), the per-packet execute reference
(``kitnet``) and the packed batched engine re-scoring the same rows
(``kitnet-batch``), whose scores are parity-checked bit for bit while
they are timed.

The NetStat stage can be profiled under any feature engine; with
``compare_scalar=True`` (default) the scalar reference is timed too,
which is the quickest way to see the vectorized engine's speedup on a
given machine and traffic mix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.features.netstat import NetStat
from repro.utils.rng import SeededRNG


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

    The KitNET phase is split three ways: ``kitnet-train`` covers the
    grace periods (inherently sequential online SGD), ``kitnet`` is the
    per-packet execute reference, and ``kitnet-batch`` re-scores the
    same execute rows through the packed batched engine — the ratio of
    the last two is the batched speedup, and their scores must agree
    bit for bit (``kitnet_batch_parity``).
    """

    dataset: str
    seed: int
    scale: float
    packets: int
    engine: str
    stages: tuple[StageTiming, ...]
    #: Registered backend names actually driving the profiled stages
    #: (``repro.backends``): the resolved ingest backend behind the
    #: ``ingest`` stage, the feature-engine backend behind ``engine``
    #: and the ensemble backend behind ``kitnet-batch``.
    ingest_backend: str = "packet-objects"
    feature_backend: str = "vector-native"
    ensemble_backend: str = "batched-einsum"
    scalar_netstat_seconds: float | None = None
    batch_size: int = 256
    kitnet_batch_parity: bool | None = None
    #: Flush size of the ``kitnet-train-batched`` stage's mini-batch SGD.
    train_batch: int = 32

    @property
    def total_seconds(self) -> float:
        return sum(stage.seconds for stage in self.stages)

    def _stage_seconds(self, name: str) -> float | None:
        for stage in self.stages:
            if stage.stage == name and stage.seconds > 0:
                return stage.seconds
        return None

    @property
    def netstat_speedup(self) -> float | None:
        """Scalar-reference / profiled-engine NetStat time ratio."""
        if self.scalar_netstat_seconds is None:
            return None
        seconds = self._stage_seconds("netstat")
        return None if seconds is None else self.scalar_netstat_seconds / seconds

    @property
    def kitnet_train_speedup(self) -> float | None:
        """Sequential grace-period / batched-training time ratio."""
        by_name = {stage.stage: stage for stage in self.stages}
        reference = by_name.get("kitnet-train")
        batched = by_name.get("kitnet-train-batched")
        if (
            reference is None or batched is None
            or batched.packets == 0 or batched.seconds <= 0
        ):
            return None
        return reference.seconds / batched.seconds

    @property
    def kitnet_batch_speedup(self) -> float | None:
        """Per-packet execute / batched execute time ratio."""
        by_name = {stage.stage: stage for stage in self.stages}
        reference = by_name.get("kitnet")
        batched = by_name.get("kitnet-batch")
        if (
            reference is None or batched is None
            or batched.packets == 0 or batched.seconds <= 0
        ):
            return None
        return reference.seconds / batched.seconds

    def render(self) -> str:
        total = self.total_seconds
        lines = [
            f"packet path profile: {self.dataset} seed={self.seed} "
            f"scale={self.scale} ({self.packets} packets, "
            f"engine={self.engine}, "
            f"backend={self.feature_backend}, "
            f"ingest={self.ingest_backend})",
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
        speedup = self.netstat_speedup
        if speedup is not None:
            lines.append(
                f"  netstat engine speedup vs scalar reference: "
                f"{speedup:.2f}x (scalar {self.scalar_netstat_seconds:.3f}s)"
            )
        train_speedup = self.kitnet_train_speedup
        if train_speedup is not None:
            lines.append(
                f"  kitnet batched training speedup vs sequential: "
                f"{train_speedup:.2f}x (minibatch, "
                f"train_batch={self.train_batch}, mini-batch trajectory)"
            )
        batch_speedup = self.kitnet_batch_speedup
        if batch_speedup is not None:
            parity = (
                "bit-identical" if self.kitnet_batch_parity
                else "PARITY BROKEN"
            )
            lines.append(
                f"  kitnet batched execute speedup vs per-packet: "
                f"{batch_speedup:.2f}x (batch={self.batch_size}, {parity})"
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "seed": self.seed,
            "scale": self.scale,
            "packets": self.packets,
            "engine": self.engine,
            "ingest_backend": self.ingest_backend,
            "feature_backend": self.feature_backend,
            "ensemble_backend": self.ensemble_backend,
            "total_seconds": self.total_seconds,
            "netstat_speedup": self.netstat_speedup,
            "scalar_netstat_seconds": self.scalar_netstat_seconds,
            "batch_size": self.batch_size,
            "kitnet_batch_speedup": self.kitnet_batch_speedup,
            "kitnet_batch_parity": self.kitnet_batch_parity,
            # The batched training stage is mini-batch SGD, a different
            # trajectory by design, so it makes no parity claim.
            "train_mode": "minibatch",
            "train_batch": self.train_batch,
            "kitnet_train_speedup": self.kitnet_train_speedup,
            "kitnet_train_parity": None,
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
    """Grace-period arithmetic for an execute-phase measurement over a
    ``count``-packet replay: train on the first half (fm/ad scaled to
    it, the experiment pipeline's per-cell arithmetic), execute the
    rest. Shared by the profile's ``kitnet-batch`` stage and
    ``benchmarks/bench_kitnet_batch.py`` so both measure the same
    phase. Returns ``(fm_grace, ad_grace, boundary)``; rows past
    ``boundary`` are execute-phase.
    """
    train_count = count // 2
    fm_grace = max(100, train_count // 10)
    ad_grace = max(100, train_count - fm_grace)
    return fm_grace, ad_grace, min(fm_grace + ad_grace, count)


def profile_packet_path(
    dataset: str = "Mirai",
    *,
    seed: int = 0,
    scale: float = 0.2,
    engine: str = "vector",
    ingest_backend: str | None = None,
    max_packets: int | None = None,
    compare_scalar: bool = True,
    batch_size: int = 256,
    train_batch: int = 32,
    dataset_provider=None,
) -> PacketPathProfile:
    """Time ingest → netstat → kitnet-train → kitnet-train-batched →
    kitnet → kitnet-batch over a synthetic dataset replay.

    The replay is written to a scratch capture file (untimed prep,
    nanosecond magic so timestamps keep their resolution); the
    ``ingest`` stage then reads it back through ``ingest_backend``
    (``None`` keeps ``packet-objects``; ``"auto"`` resolves through the
    backend registry) and the ``netstat`` stage consumes exactly what
    ingest produced — packet objects or column batches.

    The ``kitnet-train-batched`` stage profiles the mini-batch training
    engine with ``train_batch``-row flush groups.
    """
    import tempfile
    from pathlib import Path

    from repro import backends
    from repro.net.pcap import read_pcap, write_pcap

    if dataset_provider is None:
        from repro.datasets import generate_dataset as dataset_provider
    data = dataset_provider(dataset, seed=seed, scale=scale)
    packets = list(data.packets)
    if max_packets is not None:
        packets = packets[:max_packets]
    if not packets:
        raise ValueError("profiling needs a non-empty packet stream")
    count = len(packets)
    if ingest_backend is None:
        resolved_ingest = "packet-objects"
    else:
        resolved_ingest = backends.resolve(
            backends.INGEST, ingest_backend
        ).name

    extractor = NetStat(engine=engine)
    # Stages 1-2 run inside the scratch-capture scope: column batches
    # keep views into the mmap'd file, so it must outlive them.
    with tempfile.TemporaryDirectory(prefix="repro-profile-") as tmp:
        capture = Path(tmp) / "replay.pcap"
        write_pcap(capture, packets, nanosecond=True)

        # Stage 1: ingest — capture bytes to the backend's native
        # feature input (packet objects, or mmap'd column batches).
        import numpy as np

        if resolved_ingest == "columnar-mmap":
            from repro.net.columnar import ColumnarPcapReader

            start = time.perf_counter()
            batches = list(ColumnarPcapReader(capture))
            ingest_seconds = time.perf_counter() - start

            # Stage 2: AfterImage features under the requested engine,
            # fed columns (no Packet objects are ever materialised).
            start = time.perf_counter()
            features = np.vstack(
                [extractor.extract_all(batch) for batch in batches]
            )
            netstat_seconds = time.perf_counter() - start
            del batches
            replay = read_pcap(capture) if compare_scalar else None
        else:
            start = time.perf_counter()
            replay = read_pcap(capture)
            ingest_seconds = time.perf_counter() - start

            # Stage 2: AfterImage features under the requested engine.
            start = time.perf_counter()
            features = extractor.extract_all(replay)
            netstat_seconds = time.perf_counter() - start

        scalar_seconds: float | None = None
        if compare_scalar and engine != "scalar":
            reference = NetStat(engine="scalar")
            start = time.perf_counter()
            reference.extract_all(replay)
            scalar_seconds = time.perf_counter() - start
        del replay

    # Stage 3/4/5: KitNET. The replay splits into a training prefix
    # (grace periods scaled to it, same arithmetic as the experiment
    # pipeline's Kitsune cells) and an execute remainder — the latter
    # timed twice: per-packet reference, then the batched engine.
    from repro.ids.kitsune.kitnet import KitNET

    fm_grace, ad_grace, boundary = kitnet_grace_split(count)
    detector = KitNET(
        extractor.feature_count,
        fm_grace=fm_grace,
        ad_grace=ad_grace,
        rng=SeededRNG(seed, "profile"),
    )
    train_rows = features[:boundary]
    start = time.perf_counter()
    for row in train_rows:
        detector.process(row)
    train_seconds = time.perf_counter() - start

    # Same training prefix through mini-batch SGD on a twin detector
    # (different trajectory by design, so no parity claim).
    twin = KitNET(
        extractor.feature_count,
        fm_grace=fm_grace,
        ad_grace=ad_grace,
        train_mode="minibatch",
        train_batch=train_batch,
        rng=SeededRNG(seed, "profile"),
    )
    start = time.perf_counter()
    twin.process_batch(train_rows)
    train_batched_seconds = time.perf_counter() - start
    del twin

    execute_rows = features[boundary:]
    start = time.perf_counter()
    reference_scores = np.array(
        [detector.process(row) for row in execute_rows]
    )
    execute_seconds = time.perf_counter() - start

    start = time.perf_counter()
    batched_chunks = [
        detector.execute_batch(execute_rows[i : i + batch_size])
        for i in range(0, len(execute_rows), batch_size)
    ]
    batch_seconds = time.perf_counter() - start
    if batched_chunks:
        batched_scores = np.concatenate(batched_chunks)
        batch_parity = bool(np.array_equal(batched_scores, reference_scores))
    else:
        batch_parity = None

    stages = (
        StageTiming("ingest", ingest_seconds, count),
        StageTiming("netstat", netstat_seconds, count),
        StageTiming("kitnet-train", train_seconds, boundary),
        StageTiming("kitnet-train-batched", train_batched_seconds, boundary),
        StageTiming("kitnet", execute_seconds, len(execute_rows)),
        StageTiming("kitnet-batch", batch_seconds, len(execute_rows)),
    )
    return PacketPathProfile(
        dataset=data.name,
        seed=seed,
        scale=scale,
        packets=count,
        engine=engine,
        stages=stages,
        ingest_backend=resolved_ingest,
        feature_backend=extractor.backend,
        ensemble_backend=detector.resolved_ensemble_backend,
        scalar_netstat_seconds=scalar_seconds,
        batch_size=batch_size,
        kitnet_batch_parity=batch_parity,
        train_batch=train_batch,
    )
