"""Measures online streaming throughput per IDS and micro-batch size.

For every evaluated IDS, the full streaming session (source → detector
→ windows → alerts) runs over the Mirai replay at several micro-batch
sizes, reporting packets/sec and scored items/sec. Micro-batching is a
pure throughput knob — the score digest must be identical across batch
sizes (the streaming parity contract), which this bench cross-checks
while it measures.

Scale/jobs follow the common bench options; ``--jobs N`` fans the
(IDS, batch) grid across a process pool::

    PYTHONPATH=src pytest benchmarks/bench_stream_throughput.py -s --scale 0.05 --jobs 2

The sharded scaling bench (``test_sharded_stream_scaling``) climbs the
worker ladder ``--workers`` caps (default 1→2→4): the same capture
through ``stream_capture_sharded`` at each count, gated by the
merged-run coverage digest (no packet lost or duplicated by sharding)
and by bit-parity of the single-worker run against the in-process path.
At calibrated scale it asserts the 2-worker run clears 1.7x the
1-worker pps; the measured ladder always lands in
``BENCH_stream_throughput.json``.
"""

from __future__ import annotations

import hashlib
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from functools import lru_cache

from repro.core.experiment import EXPERIMENT_MATRIX
from repro.stream.detector import build_streaming_detector
from repro.stream.service import stream_capture, stream_experiment
from repro.stream.sharded import stream_capture_sharded
from repro.stream.sources import DatasetSource

from benchmarks.conftest import (REPO_ROOT, jobs_or, save_bench_json,
                                 save_result, scale_or, workers_or)

DEFAULT_SCALE = 0.3
SEED = 0
DATASET = "Mirai"
IDS_NAMES = ("Kitsune", "HELAD", "DNN", "Slips")
BATCH_SIZES = (64, 256, 1024)
#: The packet IDSs also run the batch-1 degenerate case, so the batched
#: execute engine's end-to-end win (and any regression to the
#: per-packet fallback) is visible. Flow IDSs skip it: they score
#: encoded feature matrices through BLAS, whose kernel choice varies
#: with matrix height, so the single-flow case is not bit-comparable —
#: their parity contract is defined over the operational batch sizes.
PACKET_IDS_BATCH_SIZES = (1, *BATCH_SIZES)
PACKET_IDS = ("Kitsune", "HELAD")


@lru_cache(maxsize=4)
def _cached_dataset(name: str, seed: int, scale: float):
    from repro.datasets.registry import generate_dataset_uncached

    return generate_dataset_uncached(name, seed=seed, scale=scale)


def _provider(name, *, seed=0, scale=1.0):
    return _cached_dataset(name, seed, scale)


def _stream_point(task):
    """One (IDS, batch size) measurement; runs in a pool worker under
    ``--jobs``, so everything in and out must pickle."""
    ids_name, batch_size, scale = task
    config = replace(
        EXPERIMENT_MATRIX[(ids_name, DATASET)], seed=SEED, scale=scale
    )
    report = stream_experiment(
        config, batch_size=batch_size, window_seconds=30.0,
        dataset_provider=_provider,
    )
    return {
        "ids": ids_name,
        "batch": batch_size,
        "unit": report.unit,
        "path": report.notes.get("scoring_path", "per-packet"),
        "n_scored": report.n_scored,
        "packets": report.packets_streamed,
        "pps": report.packets_per_second,
        "ips": report.items_per_second,
        "stream_seconds": report.stream_seconds,
        "digest": hashlib.sha256(report.scores.tobytes()).hexdigest(),
    }


def test_stream_throughput(bench_scale, bench_jobs):
    scale = scale_or(bench_scale, DEFAULT_SCALE)
    jobs = jobs_or(bench_jobs, 1)
    tasks = [
        (ids_name, batch_size, scale)
        for ids_name in IDS_NAMES
        for batch_size in (
            PACKET_IDS_BATCH_SIZES if ids_name in PACKET_IDS
            else BATCH_SIZES
        )
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_stream_point, tasks))
    else:
        rows = [_stream_point(task) for task in tasks]

    # Parity gate: per IDS, the same scores at every batch size.
    digests: dict[str, set[str]] = {}
    for row in rows:
        digests.setdefault(row["ids"], set()).add(row["digest"])
    for ids_name, seen in digests.items():
        assert len(seen) == 1, (
            f"{ids_name}: scores depend on micro-batch size — "
            "streaming parity contract broken"
        )

    lines = [
        f"stream throughput @ scale={scale} dataset={DATASET} "
        f"seed={SEED} (jobs={jobs})",
        f"  {'IDS':8s} {'unit':6s} {'path':11s} {'batch':>6s} "
        f"{'scored':>8s} {'pkt/s':>12s} {'items/s':>12s} {'seconds':>9s}",
    ]
    for row in rows:
        lines.append(
            f"  {row['ids']:8s} {row['unit']:6s} {row['path']:11s} "
            f"{row['batch']:6d} {row['n_scored']:8d} {row['pps']:12,.0f} "
            f"{row['ips']:12,.0f} {row['stream_seconds']:9.3f}"
        )
    save_result("stream_throughput", "\n".join(lines))
    best_pps = {}
    scoring_paths = {}
    for row in rows:
        best_pps[row["ids"]] = max(best_pps.get(row["ids"], 0.0), row["pps"])
        scoring_paths[row["ids"]] = row["path"]
    save_bench_json(
        "stream_throughput", metric="best_pps",
        value=round(max(best_pps.values())), scale=scale, jobs=jobs,
        dataset=DATASET, per_ids_best_pps={
            ids_name: round(pps) for ids_name, pps in best_pps.items()
        },
        # A regression to the per-packet fallback shows up here.
        per_ids_scoring_path=scoring_paths,
    )

    for row in rows:
        assert row["n_scored"] > 0, row
        assert row["pps"] > 0, row

    # The packet IDSs must have taken the batched path, and batching
    # must pay end to end: micro-batches beat the batch-1 degenerate
    # case for Kitsune, whose execute phase is KitNET-bound.
    assert scoring_paths["Kitsune"] == "batched"
    assert scoring_paths["HELAD"] == "batched"
    kitsune = {row["batch"]: row["pps"] for row in rows
               if row["ids"] == "Kitsune"}
    assert max(kitsune[b] for b in BATCH_SIZES) > kitsune[1], (
        "micro-batching no longer improves Kitsune's end-to-end pps"
    )


#: Worker-count ladder; ``--workers N`` caps it. The scaling assertion
#: is calibrated for DEFAULT_SCALE — tiny smoke scales stream too few
#: packets for the per-worker detector time to dominate the supervisor,
#: so there the digest gates still run but the speedup floor does not.
SHARDED_LADDER = (1, 2, 4)
SHARDED_BATCH = 256
SHARDED_WARMUP = 1000
SHARDED_SPEEDUP_FLOOR = 1.7
SHARDED_ASSERT_MIN_SCALE = 0.2
PROBE_DELAY_SECONDS = 2e-4


class _ThrottleProbeDetector:
    """Pure-function scorer with a fixed per-packet cost.

    The sharded engine's *concurrency* (does N workers' detector time
    overlap, or does the supervisor serialise them?) is a property of
    the orchestration, not of the host's core count — a CPU-bound
    detector like Kitsune cannot show wall-clock speedup on a
    single-core runner no matter how good the engine is. This probe
    replaces model math with a fixed ``time.sleep`` per packet, which
    overlaps across processes on any host, so its ladder measures the
    engine itself. Scores are a pure function of the packet, so the
    merged scores are bit-identical at every worker count.
    """

    name = "throttle-probe"
    unit = "packet"
    scoring_path = "probe"

    def __init__(self, delay_seconds: float = PROBE_DELAY_SECONDS):
        self.delay_seconds = delay_seconds
        self.batch_size = 1
        self.items_scored = 0

    def warmup(self, packets) -> None:
        pass

    def process_columns(self, batch):
        import time

        from repro.stream.detector import StreamScore

        from tests.stream_oracle import batch_of

        time.sleep(self.delay_seconds * len(batch))
        base = self.items_scored
        self.items_scored += len(batch)
        return batch_of(
            StreamScore(
                index=base + row,
                timestamp=stamp,
                score=(stamp * 7.0) % 1.0,
                label=label,
                attack_type=attack,
            )
            for row, (stamp, label, attack) in enumerate(zip(
                batch.timestamps.tolist(), batch.row_labels(),
                batch.row_attack_types(),
            ))
        )

    def finish(self):
        from repro.stream.detector import ScoreBatch

        return ScoreBatch.empty()


def _sharded_detector():
    return build_streaming_detector(
        "Kitsune", seed=SEED, batch_size=SHARDED_BATCH,
        warmup_packets=SHARDED_WARMUP,
    )


def _run_ladder(counts, scale, make_detector):
    rows = []
    for n in counts:
        report = stream_capture_sharded(
            DatasetSource(DATASET, seed=SEED, scale=scale),
            make_detector(), workers=n,
            warmup_packets=SHARDED_WARMUP, window_seconds=30.0,
        )
        rows.append({
            "workers": n,
            "pps": report.packets_per_second,
            "packets": report.packets_streamed,
            "stream_seconds": report.stream_seconds,
            "coverage_digest": report.notes["coverage_digest"],
            "score_digest": report.notes["merged_score_digest"],
            "telemetry": report.notes["workers"],
        })
    return rows


def test_sharded_stream_scaling(bench_scale, bench_workers):
    scale = scale_or(bench_scale, DEFAULT_SCALE)
    cap = workers_or(bench_workers, max(SHARDED_LADDER))
    counts = [n for n in SHARDED_LADDER if n <= cap] or [1]

    base = stream_capture(
        DatasetSource(DATASET, seed=SEED, scale=scale),
        _sharded_detector(),
        warmup_packets=SHARDED_WARMUP, window_seconds=30.0,
    )
    base_digest = hashlib.sha256(base.scores.tobytes()).hexdigest()

    kitsune_rows = _run_ladder(counts, scale, _sharded_detector)
    probe_rows = _run_ladder(counts, scale, _ThrottleProbeDetector)

    # Parity digest gate, at every worker count of both ladders:
    # sharding may never lose or duplicate a packet (same coverage
    # everywhere); the degenerate single-worker Kitsune run must
    # reproduce the in-process scores bit for bit; and the probe's
    # pure-function scores must be bit-identical at every count.
    for rows in (kitsune_rows, probe_rows):
        assert len({row["coverage_digest"] for row in rows}) == 1, (
            "sharded coverage depends on worker count — packets were "
            "lost or duplicated by the shard/merge path"
        )
    if kitsune_rows[0]["workers"] == 1:
        assert kitsune_rows[0]["score_digest"] == base_digest, (
            "single-worker sharded run is no longer bit-identical to "
            "the in-process stream"
        )
    assert len({row["score_digest"] for row in probe_rows}) == 1, (
        "probe scores depend on worker count — the merge sink is not "
        "order-stable"
    )

    kitsune_pps = {row["workers"]: row["pps"] for row in kitsune_rows}
    probe_pps = {row["workers"]: row["pps"] for row in probe_rows}
    lines = [
        f"sharded stream scaling @ scale={scale} dataset={DATASET} "
        f"cpus={os.cpu_count()} "
        f"(in-process Kitsune baseline {base.packets_per_second:,.0f} "
        f"pkt/s)",
        f"  {'ladder':10s} {'workers':>7s} {'pkt/s':>12s} "
        f"{'speedup':>8s} {'seconds':>9s}",
    ]
    for label, rows, pps in (("kitsune", kitsune_rows, kitsune_pps),
                             ("probe", probe_rows, probe_pps)):
        for row in rows:
            lines.append(
                f"  {label:10s} {row['workers']:7d} {row['pps']:12,.0f} "
                f"{row['pps'] / pps[1]:8.2f} {row['stream_seconds']:9.3f}"
            )
    save_result("stream_sharded_scaling", "\n".join(lines))

    # Fold the ladders into the shared stream-throughput JSON without
    # clobbering the grid bench's fields (test order is not guaranteed).
    bench_path = REPO_ROOT / "BENCH_stream_throughput.json"
    payload = {}
    if bench_path.exists():
        payload = json.loads(bench_path.read_text())
    payload.setdefault("bench", "stream_throughput")
    payload.setdefault("metric", "best_pps")
    payload.setdefault("value", round(max(kitsune_pps.values())))
    payload["sharded"] = {
        "scale": scale,
        "cpu_count": os.cpu_count(),
        "parity_gate": "coverage digest identical at every worker "
                       "count; workers=1 bit-identical to in-process",
        "coverage_digest": kitsune_rows[0]["coverage_digest"],
        # Engine concurrency, host-independent: fixed per-packet cost,
        # so overlap (not core count) determines the ladder.
        "probe": {
            "detector": f"throttle-probe {PROBE_DELAY_SECONDS * 1e6:.0f}"
                        "us/packet",
            "pps_by_workers": {
                str(n): round(p) for n, p in probe_pps.items()},
            "speedup_by_workers": {
                str(n): round(p / probe_pps[1], 3)
                for n, p in probe_pps.items()},
        },
        # Real detector: wall-clock scaling, bounded by the host's
        # cores (a single-core runner pins this near 1.0x).
        "kitsune": {
            "batch": SHARDED_BATCH,
            "pps_by_workers": {
                str(n): round(p) for n, p in kitsune_pps.items()},
            "speedup_by_workers": {
                str(n): round(p / kitsune_pps[1], 3)
                for n, p in kitsune_pps.items()},
        },
    }
    bench_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[bench-json] {bench_path.name}: sharded probe ladder "
          f"{payload['sharded']['probe']['speedup_by_workers']}, "
          f"kitsune ladder "
          f"{payload['sharded']['kitsune']['speedup_by_workers']}")

    if 2 in probe_pps and scale >= SHARDED_ASSERT_MIN_SCALE:
        assert probe_pps[2] >= SHARDED_SPEEDUP_FLOOR * probe_pps[1], (
            f"2-worker sharded stream is "
            f"{probe_pps[2] / probe_pps[1]:.2f}x the 1-worker run, "
            f"below the {SHARDED_SPEEDUP_FLOOR}x floor — the engine "
            "is serialising its workers"
        )
    if 2 in kitsune_pps and scale >= SHARDED_ASSERT_MIN_SCALE \
            and (os.cpu_count() or 1) >= 4:
        assert kitsune_pps[2] >= SHARDED_SPEEDUP_FLOOR * kitsune_pps[1], (
            f"2-worker Kitsune stream is "
            f"{kitsune_pps[2] / kitsune_pps[1]:.2f}x the 1-worker run, "
            f"below the {SHARDED_SPEEDUP_FLOOR}x floor"
        )
