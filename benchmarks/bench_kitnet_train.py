"""KitNET cold start: both grace periods, reference vs shipped engine.

A Kitsune session scores nothing until its two grace periods finish,
so their cost is the detector's cold start. This bench replays the
Mirai feature stream's grace prefix and times each phase on its own:

* **feature mapping** (``fm-grace`` row) — the per-row correlation
  sums plus the one-time clustering in ``FeatureMapper.finalise``. The
  oracle clusters by brute force (every cluster pair's block minimum
  rescanned on every merge, ``tests/test_feature_mapper_cluster.py``);
  the shipped mapper updates one cluster-distance matrix per merge.
  Both must produce identical groups or the bench fails.
* **training** — the sequential per-row reference
  (``tests/kitsune_oracle.py``) against the shipped ``process_batch``
  (the stacked online engine), which must match the reference **bit
  for bit** — scores, every weight and both scalers — or the bench
  fails.

Run the acceptance configuration with::

    PYTHONPATH=src pytest benchmarks/bench_kitnet_train.py -s --scale 1.0

At full scale the stacked online engine must be >= 3x the sequential
reference. Results land in ``BENCH_kitnet_train.json``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.features.netstat import NetStat
from repro.ids.kitsune.kitnet import KitNET
from repro.utils.rng import SeededRNG

from benchmarks.conftest import save_bench_json, save_result, scale_or
from tests.kitsune_oracle import kitnet_scores
from tests.test_feature_mapper_cluster import brute_force_cluster

DEFAULT_SCALE = 1.0
SEED = 0
DATASET = "Mirai"
#: Acceptance gate for the stacked online engine at scale >= 1.0.
FULL_SCALE_SPEEDUP = 3.0


def _training_stream(scale: float):
    """The Mirai replay's feature rows split at the grace boundaries.

    Returns ``(dim, fm_grace, ad_grace, fm_rows, train_rows)`` where
    ``train_rows`` are exactly the rows the online reference trains on
    (post-increment count in ``[fm+1, fm+ad-1]``) plus the boundary row
    it executes — i.e. everything up to the grace boundary.
    """
    from repro.core.profiling import kitnet_grace_split
    from repro.datasets.registry import generate_dataset_uncached

    packets = generate_dataset_uncached(
        DATASET, seed=SEED, scale=scale
    ).packets
    extractor = NetStat(engine="vector")
    features = extractor.extract_all(packets)
    fm_grace, ad_grace, boundary = kitnet_grace_split(len(features))
    return (
        extractor.feature_count,
        fm_grace,
        ad_grace,
        features[:fm_grace],
        features[fm_grace:boundary],
    )


def _state(detector: KitNET) -> list[np.ndarray]:
    """Every weight and bias, then both scalers' extrema."""
    arrays = []
    for ae in [*detector.ensemble, detector.output_layer]:
        arrays += [
            ae.encoder.weights, ae.encoder.bias,
            ae.decoder.weights, ae.decoder.bias,
        ]
    for scaler in (detector.scaler, detector._output_scaler):
        arrays += [scaler.min, scaler.max]
    return arrays


def test_kitnet_train_throughput(bench_scale):
    scale = scale_or(bench_scale, DEFAULT_SCALE)
    dim, fm_grace, ad_grace, fm_rows, train_rows = _training_stream(scale)
    n_rows = len(train_rows)
    assert n_rows > 0, f"no training rows at scale {scale}"

    def fresh() -> KitNET:
        return KitNET(
            dim,
            fm_grace=fm_grace,
            ad_grace=ad_grace,
            rng=SeededRNG(SEED, "bench-kitnet-train"),
        )

    # Feature mapping: per-row sums, then clustering (oracle vs shipped).
    reference = fresh()
    mapper = reference.mapper
    mapper._cluster = lambda distance: brute_force_cluster(
        distance, mapper.max_group
    )
    start = time.perf_counter()
    kitnet_scores(reference, fm_rows)
    fm_oracle_seconds = time.perf_counter() - start
    shipped = fresh()
    start = time.perf_counter()
    shipped.process_batch(fm_rows)
    fm_seconds = time.perf_counter() - start
    assert shipped.mapper.groups == reference.mapper.groups, (
        "incremental clustering diverged from the brute-force oracle"
    )

    # Training: per-row reference vs the shipped default process_batch.
    start = time.perf_counter()
    reference_scores = kitnet_scores(reference, train_rows)
    reference_seconds = time.perf_counter() - start
    reference_pps = n_rows / reference_seconds
    start = time.perf_counter()
    online_scores = shipped.process_batch(train_rows)
    online_seconds = time.perf_counter() - start
    assert np.array_equal(online_scores, reference_scores), (
        "stacked online training diverged from the sequential "
        "reference — parity contract broken"
    )
    assert all(
        np.array_equal(a, b)
        for a, b in zip(_state(reference), _state(shipped))
    ), "stacked online weights or scalers diverged from the reference"

    online_speedup = reference_seconds / online_seconds
    fm_speedup = fm_oracle_seconds / fm_seconds

    lines = [
        f"kitnet cold start @ scale={scale} dataset={DATASET} "
        f"seed={SEED} ({len(fm_rows)} fm rows, {n_rows} training rows, "
        f"{len(reference.ensemble)} groups)",
        f"  {'path':30s} {'rows/s':>12s} {'seconds':>9s}",
        f"  {'fm-grace (brute-force oracle)':30s} "
        f"{len(fm_rows) / fm_oracle_seconds:12,.0f} "
        f"{fm_oracle_seconds:9.3f}",
        f"  {'fm-grace (shipped)':30s} "
        f"{len(fm_rows) / fm_seconds:12,.0f} {fm_seconds:9.3f}",
        f"  {'sequential reference':30s} {reference_pps:12,.0f} "
        f"{reference_seconds:9.3f}",
        f"  {'stacked online (shipped)':30s} "
        f"{n_rows / online_seconds:12,.0f} {online_seconds:9.3f}",
        f"  fm-grace speedup: {fm_speedup:.2f}x (identical groups verified)",
        f"  stacked online speedup: {online_speedup:.2f}x "
        "(bit-for-bit parity verified: scores, weights, scalers)",
    ]
    save_result("kitnet_train", "\n".join(lines))
    save_bench_json(
        "kitnet_train",
        metric="train_speedup",
        value=round(online_speedup, 3),
        scale=scale,
        dataset=DATASET,
        fm_rows=len(fm_rows),
        train_rows=n_rows,
        groups=len(reference.ensemble),
        fm_oracle_seconds=round(fm_oracle_seconds, 4),
        fm_seconds=round(fm_seconds, 4),
        fm_speedup=round(fm_speedup, 3),
        online_parity=True,
        online_speedup=round(online_speedup, 3),
        reference_rows_per_second=round(reference_pps),
        online_rows_per_second=round(n_rows / online_seconds),
    )

    # The shipped default must never lose to the reference it replays.
    assert online_speedup > 1.0, (
        f"stacked online training {online_speedup:.2f}x the reference"
    )
    # And it must clear the acceptance gate at full scale.
    if scale >= 1.0:
        assert online_speedup >= FULL_SCALE_SPEEDUP, (
            f"stacked online training {online_speedup:.2f}x below the "
            f"{FULL_SCALE_SPEEDUP}x acceptance gate at scale {scale}"
        )
