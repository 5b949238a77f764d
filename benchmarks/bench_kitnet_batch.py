"""KitNET execute-phase throughput: per-packet reference vs batched.

Profiling after the PR 4 feature-path work showed ~97% of per-packet
time inside the KitNET autoencoder ensemble, so its execute loop bounds
every Kitsune/HELAD cell of the Table IV matrix and the streaming
subsystem's packets/second. This bench trains one KitNET over the Mirai
replay's feature stream, then scores the execute-phase rows twice —
the per-packet reference loop (``tests/kitsune_oracle.py``) and the
packed batched engine at several micro-batch sizes — cross-checking
bit-for-bit parity while it measures (a fast-but-wrong engine must not
pass), and records the speedup in ``BENCH_kitnet_batch.json``.

Run the acceptance configuration with::

    PYTHONPATH=src pytest benchmarks/bench_kitnet_batch.py -s --scale 1.0

The batched engine must always at least match the per-packet reference;
at full scale it must be >= 3x.
"""

from __future__ import annotations

import copy
import time

import numpy as np

from repro.features.netstat import NetStat
from repro.ids.kitsune.kitnet import KitNET
from repro.utils.rng import SeededRNG

from benchmarks.conftest import save_bench_json, save_result, scale_or
from tests.kitsune_oracle import kitnet_scores

DEFAULT_SCALE = 1.0
SEED = 0
DATASET = "Mirai"
BATCH_SIZES = (64, 256, 1024)
#: Acceptance gate for the batched engine at scale >= 1.0.
FULL_SCALE_SPEEDUP = 3.0


def _trained_detector(scale: float):
    """A KitNET trained through its grace periods on the replay's first
    half, plus the remaining (execute-phase) feature rows — the same
    split the profile's ``ml.execute`` stage measures."""
    from repro.core.profiling import kitnet_grace_split
    from repro.datasets.registry import generate_dataset_uncached

    packets = generate_dataset_uncached(
        DATASET, seed=SEED, scale=scale
    ).packets
    extractor = NetStat(engine="vector")
    features = extractor.extract_all(packets)
    fm_grace, ad_grace, boundary = kitnet_grace_split(len(features))
    detector = KitNET(
        extractor.feature_count,
        fm_grace=fm_grace,
        ad_grace=ad_grace,
        rng=SeededRNG(SEED, "bench-kitnet-batch"),
    )
    detector.process_batch(features[:boundary])
    return detector, features[boundary:]


def test_kitnet_batch_throughput(bench_scale):
    scale = scale_or(bench_scale, DEFAULT_SCALE)
    detector, execute_rows = _trained_detector(scale)
    n_rows = len(execute_rows)
    assert n_rows > 0, f"no execute-phase rows at scale {scale}"

    reference = copy.deepcopy(detector)
    start = time.perf_counter()
    reference_scores = kitnet_scores(reference, execute_rows)
    reference_seconds = time.perf_counter() - start

    rows = {}
    for batch_size in BATCH_SIZES:
        scorer = copy.deepcopy(detector)
        # The boundary row packed the ensemble during training; drop the
        # pack so every timed run pays for building it, as a live run does.
        scorer._batched_ensemble = None
        start = time.perf_counter()
        chunks = [
            scorer.execute_batch(execute_rows[i : i + batch_size])
            for i in range(0, n_rows, batch_size)
        ]
        elapsed = time.perf_counter() - start
        scores = np.concatenate(chunks)
        # Parity gate: speed must not come from changed semantics.
        assert np.array_equal(scores, reference_scores), (
            f"batch={batch_size} diverged from the per-packet "
            "reference — parity contract broken"
        )
        rows[batch_size] = {"seconds": elapsed, "pps": n_rows / elapsed}

    best_batch = max(rows, key=lambda b: rows[b]["pps"])
    reference_pps = n_rows / reference_seconds
    speedup = rows[best_batch]["pps"] / reference_pps

    lines = [
        f"kitnet execute throughput @ scale={scale} dataset={DATASET} "
        f"seed={SEED} ({n_rows} execute rows, "
        f"{len(detector.ensemble)} groups)",
        f"  {'path':16s} {'rows/s':>12s} {'seconds':>9s}",
        f"  {'per-packet':16s} {reference_pps:12,.0f} "
        f"{reference_seconds:9.3f}",
    ]
    for batch_size, row in rows.items():
        lines.append(
            f"  batch={batch_size:<10d} {row['pps']:12,.0f} "
            f"{row['seconds']:9.3f}"
        )
    lines.append(
        f"  batched speedup over per-packet: {speedup:.2f}x "
        f"(best batch {best_batch}, bit-for-bit parity verified)"
    )
    save_result("kitnet_batch", "\n".join(lines))
    save_bench_json(
        "kitnet_batch",
        metric="batched_speedup",
        value=round(speedup, 3),
        scale=scale,
        dataset=DATASET,
        execute_rows=n_rows,
        groups=len(detector.ensemble),
        parity=True,
        best_batch=best_batch,
        per_packet_rows_per_second=round(reference_pps),
        batched_rows_per_second={
            str(batch): round(row["pps"]) for batch, row in rows.items()
        },
    )

    # The batched engine must never lose to the reference; at full
    # scale it must clear the acceptance gate.
    assert speedup >= 1.0, f"batched slower than per-packet: {speedup:.2f}x"
    if scale >= 1.0:
        assert speedup >= FULL_SCALE_SPEEDUP, (
            f"batched speedup {speedup:.2f}x below the "
            f"{FULL_SCALE_SPEEDUP}x acceptance gate at scale {scale}"
        )
