"""Seeded benchmark inputs and the reference outputs runs are checked
against, built once per (workload, seed) and cached in the checkout.

Run as a script, it prepares one workload's inputs for one seed and
prints the path of the JSON plan the timed run reads::

    PYTHONPATH=src python3 perfbench/inputs.py --workload live-mirai --seed 1

Captures come from the seed through ``repro.datasets`` and
``write_pcap``. References come from the slow, independent paths: the
``packet-objects`` ingest oracle for live scores, the object pcap
reader for coverage, and a direct ``run_experiment`` per Table IV cell.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / ".perfbench-cache"

#: Packets the live detector trains on before scoring starts.
WARMUP_PACKETS = 2000
#: Live workloads: dataset, generator scale, and the packets kept.
#: Every seed's capture is cut to the same length, so a run's work does
#: not vary with the seed; each scale yields a few percent more.
LIVE = {
    "live-mirai": ("Mirai", 6.0, 85_000),
    "sharded-cicids": ("CICIDS2017", 4.5, 75_000),
}
TABLE4_IDS = ("Kitsune", "HELAD", "DNN", "Slips")
TABLE4_DATASETS = ("BoT-IoT", "Stratosphere")
#: The CLI's default ``table4`` scale.
TABLE4_SCALE = 0.35
WORKLOADS = (*LIVE, "table4-iot")
#: Fixed alert threshold of a live session: this quantile of the
#: reference scores, so windows and alert episodes see real alerts.
ALERT_QUANTILE = 0.99
#: The backends every run must resolve to (never ``"auto"``).
FEATURE_BACKEND = "vector-native"
ENSEMBLE_BACKEND = "batched-einsum"
INGEST_BACKEND = "columnar-mmap"


def _write_json(path: Path, payload: dict) -> None:
    """Atomic write, so an interrupted run never leaves half a file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.parent / f"{path.name}.partial"
    partial.write_text(json.dumps(payload, indent=1, sort_keys=True))
    os.replace(partial, path)


def digest(scores) -> str:
    return hashlib.sha256(scores.tobytes()).hexdigest()


def build_detector(seed: int):
    """The live Kitsune detector, with every backend named explicitly."""
    from repro.stream import build_streaming_detector

    return build_streaming_detector(
        "Kitsune",
        seed=seed,
        labelled=False,
        warmup_packets=WARMUP_PACKETS,
        feature_backend=FEATURE_BACKEND,
        ids_overrides={"ensemble_backend": ENSEMBLE_BACKEND},
    )


def _live_name(workload: str, seed: int) -> str:
    dataset, scale, keep = LIVE[workload]
    return f"{dataset}-seed{seed}-scale{scale:g}-{keep}"


def build_capture(workload: str, seed: int) -> dict:
    """Write the seed's capture for a live workload, once."""
    from repro.datasets.registry import generate_dataset_uncached
    from repro.net.columnar import ColumnarPcapReader
    from repro.net.pcap import write_pcap

    dataset, scale, keep = LIVE[workload]
    stem = CACHE / "inputs" / _live_name(workload, seed)
    meta_path = stem.parent / f"{stem.name}.json"
    if meta_path.exists():
        return json.loads(meta_path.read_text())
    pcap = stem.parent / f"{stem.name}.pcap"
    pcap.parent.mkdir(parents=True, exist_ok=True)
    partial = stem.parent / f"{stem.name}.pcap.partial"
    data = generate_dataset_uncached(dataset, seed=seed, scale=scale)
    if len(data.packets) < keep:
        raise SystemExit(f"{dataset} seed {seed} scale {scale:g} has only "
                         f"{len(data.packets)} packets, fewer than {keep}")
    write_pcap(partial, data.packets[:keep])
    os.replace(partial, pcap)
    flows: set = set()
    packets = 0
    for batch in ColumnarPcapReader(pcap):
        flows.update(batch.flow_table()[1])
        packets += len(batch)
    meta = {
        "dataset": dataset, "seed": seed, "scale": scale,
        "pcap": str(pcap.relative_to(ROOT)),
        "generated_packets": len(data.packets),
        "packets": packets,
        "unique_flows": len(flows),
        "unique_flow_share": len(flows) / packets,
    }
    _write_json(meta_path, meta)
    return meta


def _coverage_reference(pcap: Path) -> str:
    """Coverage digest of every post-warmup packet, from the object
    reader alone: what a lossless, duplicate-free session must score."""
    from repro.net.pcap import PcapReader
    from repro.stream.detector import StreamScore
    from repro.stream.sharded import coverage_digest

    rows = [
        StreamScore(index=i, timestamp=packet.timestamp, score=0.0,
                    label=packet.label, attack_type=packet.attack_type)
        for i, packet in enumerate(PcapReader(pcap))
        if i >= WARMUP_PACKETS
    ]
    return coverage_digest(rows)


def live_reference(workload: str, seed: int) -> dict:
    """Scores of the capture through the ``packet-objects`` oracle."""
    import numpy as np

    from repro.stream import PcapReplaySource, stream_capture

    meta = build_capture(workload, seed)
    path = CACHE / "refs" / f"{_live_name(workload, seed)}.json"
    if path.exists():
        return json.loads(path.read_text())
    pcap = ROOT / meta["pcap"]
    report = stream_capture(
        PcapReplaySource(pcap), build_detector(seed),
        warmup_packets=WARMUP_PACKETS, threshold=0.0,
        ingest_backend="packet-objects",
    )
    reference = {
        "scored": report.n_scored,
        "score_digest": report.notes["score_digest"],
        "coverage_digest": _coverage_reference(pcap),
        "threshold": float(np.quantile(report.scores, ALERT_QUANTILE)),
    }
    _write_json(path, reference)
    return reference


def table4_inputs(seed: int) -> dict:
    """Size and unique-flow share of the datasets the matrix generates."""
    from repro.datasets.registry import generate_dataset_uncached
    from repro.net.columnar import ColumnBatch

    described = {"scale": TABLE4_SCALE}
    for dataset in TABLE4_DATASETS:
        packets = generate_dataset_uncached(
            dataset, seed=seed, scale=TABLE4_SCALE).packets
        flows = ColumnBatch.from_packets(packets).flow_table()[1]
        described[dataset] = {"packets": len(packets),
                              "unique_flow_share": len(flows) / len(packets)}
    return described


def table4_reference(seed: int) -> dict:
    """Each IoT cell run directly, one ``run_experiment`` at a time."""
    from repro.core.experiment import EXPERIMENT_MATRIX, run_experiment
    from dataclasses import replace

    path = CACHE / "refs" / f"table4-seed{seed}-scale{TABLE4_SCALE:g}.json"
    if path.exists():
        return json.loads(path.read_text())
    cells = {}
    for dataset in TABLE4_DATASETS:
        for ids in TABLE4_IDS:
            config = replace(EXPERIMENT_MATRIX[(ids, dataset)], seed=seed,
                             scale=TABLE4_SCALE)
            result = run_experiment(config)
            cells[f"{ids}/{dataset}"] = {
                "f1": result.metrics.f1,
                "score_digest": digest(result.scores),
                "scored": int(result.scores.size),
            }
    reference = {"cells": cells}
    _write_json(path, reference)
    return reference


def prepare(workload: str, seed: int) -> Path:
    """Build inputs and references; write the run's plan; return it."""
    from repro.features import _native

    # Compile the native kernel here, so no timed run pays for it.
    if _native.load_kernel() is None:
        raise SystemExit(
            f"native AfterImage kernel unavailable: "
            f"{_native.unavailable_reason()}"
        )
    plan: dict = {"workload": workload, "seed": seed}
    if workload in LIVE:
        plan["input"] = build_capture(workload, seed)
        plan["reference"] = live_reference(workload, seed)
    else:
        plan["input"] = table4_inputs(seed)
        plan["reference"] = table4_reference(seed)
    path = CACHE / "plans" / f"{workload}-seed{seed}.json"
    _write_json(path, plan)
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    args = parser.parse_args(argv)
    print(prepare(args.workload, args.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
