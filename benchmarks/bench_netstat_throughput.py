"""AfterImage feature-path throughput across every feature engine.

The NetStat hot loop sits under every Kitsune/HELAD cell of the Table
IV matrix *and* under ``repro.stream``'s live packet path, so its
features/sec bound both batch reproduction time and online pps. This
bench extracts the full Mirai replay through each engine this host
can run (scalar reference, plus the native C kernel when it loads),
cross-checks bit-for-bit parity while it measures (a fast-but-wrong
engine must not pass), times the batched ``update_batch`` path against
per-packet dispatch, and records one row per engine in
``BENCH_netstat_throughput.json``.

Run the acceptance configuration with::

    PYTHONPATH=src pytest benchmarks/bench_netstat_throughput.py -s --scale 1.0

The default backend must beat the scalar reference wherever a C
compiler is available (the native kernel); at full scale it must be
>= 3x, and ``update_batch`` must beat per-packet dispatch. Without a
compiler the default backend is the scalar reference itself and the
speedup gates are skipped.
"""

from __future__ import annotations

import time
from functools import lru_cache

import numpy as np

from repro.features import _native
from repro.features.netstat import NetStat

from benchmarks.conftest import save_bench_json, save_result, scale_or

DEFAULT_SCALE = 1.0
SEED = 0
DATASET = "Mirai"
#: Acceptance gate for the default vector backend at scale >= 1.0.
FULL_SCALE_SPEEDUP = 3.0
#: ``update_batch`` must beat per-packet dispatch by this at scale >= 1.0.
BATCH_SPEEDUP_FLOOR = 1.1


@lru_cache(maxsize=2)
def _packets(scale: float):
    from repro.datasets.registry import generate_dataset_uncached

    return generate_dataset_uncached(DATASET, seed=SEED, scale=scale).packets


def _measure_batch(backend: str, packets) -> dict:
    """One ``extract_all`` pass through ``backend``; returns its row."""
    extractor = NetStat(engine=backend)
    start = time.perf_counter()
    matrix = extractor.extract_all(packets)
    elapsed = time.perf_counter() - start
    return {"seconds": elapsed, "matrix": matrix}


def _measure_per_packet(backend: str, packets) -> float:
    """Per-packet dispatch seconds for ``backend`` (the pre-batch path)."""
    extractor = NetStat(engine=backend)
    start = time.perf_counter()
    for packet in packets:
        extractor.update(packet)
    return time.perf_counter() - start


def test_netstat_throughput(bench_scale):
    scale = scale_or(bench_scale, DEFAULT_SCALE)
    packets = _packets(scale)
    n_packets = len(packets)
    feature_count = NetStat().feature_count

    default_backend = NetStat().backend
    available = ["scalar"]
    if _native.load_kernel() is not None:
        available.append("vector-native")

    rows = {}
    reference = None
    for backend in available:
        row = _measure_batch(backend, packets)
        matrix = row.pop("matrix")
        row["pps"] = n_packets / row["seconds"]
        row["features_per_second"] = n_packets * feature_count / row["seconds"]
        rows[backend] = row
        # Parity gate: speed must not come from changed semantics.
        if reference is None:
            reference = matrix
        else:
            assert np.array_equal(reference, matrix), (
                f"{backend} diverged from the scalar reference — "
                "parity contract broken"
            )

    native_active = default_backend == "vector-native"
    speedup = rows[default_backend]["pps"] / rows["scalar"]["pps"]

    # Batched dispatch vs the per-packet loop, on the default backend:
    # the win the batch path must deliver over Python-level dispatch.
    per_packet_seconds = _measure_per_packet(default_backend, packets)
    per_packet_pps = n_packets / per_packet_seconds
    batch_speedup = rows[default_backend]["pps"] / per_packet_pps

    lines = [
        f"netstat throughput @ scale={scale} dataset={DATASET} seed={SEED} "
        f"({n_packets} packets, {feature_count} features)",
        f"  {'backend':18s} {'pkt/s':>12s} "
        f"{'features/s':>14s} {'seconds':>9s}",
    ]
    for backend, row in rows.items():
        lines.append(
            f"  {backend:18s} {row['pps']:12,.0f} "
            f"{row['features_per_second']:14,.0f} {row['seconds']:9.3f}"
        )
    lines.append(
        f"  default backend {default_backend}: {speedup:.2f}x over scalar "
        f"(native kernel: {native_active})"
    )
    lines.append(
        f"  update_batch over per-packet dispatch: {batch_speedup:.2f}x "
        f"({per_packet_pps:,.0f} -> {rows[default_backend]['pps']:,.0f} pkt/s)"
    )
    save_result("netstat_throughput", "\n".join(lines))

    save_bench_json(
        "netstat_throughput",
        metric="vector_speedup",
        value=round(speedup, 3),
        scale=scale,
        dataset=DATASET,
        packets=n_packets,
        native_kernel=native_active,
        backend=default_backend,
        backends={
            name: {
                "pps": round(row["pps"]),
                "features_per_second": round(row["features_per_second"]),
            }
            for name, row in rows.items()
        },
        scalar_pps=round(rows["scalar"]["pps"]),
        vector_pps=round(rows[default_backend]["pps"]),
        vector_features_per_second=round(
            rows[default_backend]["features_per_second"]
        ),
        per_packet_pps=round(per_packet_pps),
        batch_speedup=round(batch_speedup, 3),
    )

    assert rows["scalar"]["pps"] > 0
    if native_active:
        # The native kernel must always win; at full scale by >= 3x.
        assert speedup >= 1.0, f"vector slower than scalar: {speedup:.2f}x"
        if scale >= 1.0:
            assert speedup >= FULL_SCALE_SPEEDUP, (
                f"vector speedup {speedup:.2f}x below the "
                f"{FULL_SCALE_SPEEDUP}x acceptance gate at scale {scale}"
            )
            assert batch_speedup >= BATCH_SPEEDUP_FLOOR, (
                f"update_batch speedup {batch_speedup:.2f}x below the "
                f"{BATCH_SPEEDUP_FLOOR}x gate over per-packet dispatch"
            )
