"""HELAD fit and scoring throughput: per-packet references vs batched.

Fit: ``HELAD.fit`` trains the autoencoder on KitNET's one-lane stacked
online engine and the LSTM through ``LSTMRegressor.train_windows``
(fused-gate steps). The fit row times it against the per-packet
reference fit (``tests/lstm_oracle.py``) on copies of the same
untrained detector, best of ``FIT_REPEATS`` alternating runs, and fails
unless the fitted state is byte-equal.

Scoring: HELAD's LSTM reads the history of *autoencoder components*,
so once ``score_batch`` has the batched autoencoder column every
packet's window is known and one stacked
``LSTMRegressor.predict_windows`` call replaces the per-packet
recurrence. The fitted detector scores the test packets from identical
copies: through the per-packet reference loop (``tests/lstm_oracle.py``)
and through :meth:`HELAD.score_batch`, as one batch and in live
micro-batches.

Both use the real Table IV BoT-IoT cell (same adaptation and seed as
``run_experiment``). Every path must match its reference bit for bit
and leave the same LSTM history behind (a fast-but-wrong engine must
not pass). The speedups land in ``BENCH_helad_batch.json``.

Run the acceptance configuration with::

    PYTHONPATH=src pytest benchmarks/bench_helad_batch.py -s --scale 1.0

``score_batch`` must always at least match the per-packet reference;
at full scale it must be >= 5x.
"""

from __future__ import annotations

import copy
import time

import numpy as np

from repro.core.experiment import ExperimentConfig, build_packet_cell
from repro.datasets.registry import generate_dataset_uncached

from benchmarks.conftest import save_bench_json, save_result, scale_or
from tests.lstm_oracle import helad_fit, helad_scores, helad_state

DEFAULT_SCALE = 1.0
SEED = 0
DATASET = "BoT-IoT"
BATCH_SIZES = (256,)
#: Acceptance gate for ``score_batch`` at scale >= 1.0.
FULL_SCALE_SPEEDUP = 5.0
#: Alternating oracle/shipped fit runs; each side keeps its best.
FIT_REPEATS = 3


def _cell(scale: float):
    """The Table IV cell's untrained HELAD and its adapted data."""
    config = ExperimentConfig("HELAD", DATASET, seed=SEED, scale=scale)
    dataset = generate_dataset_uncached(DATASET, seed=SEED, scale=scale)
    return build_packet_cell(config, dataset)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _fit_rows(untrained, train_packets):
    """Best-of-``FIT_REPEATS`` oracle and shipped fit seconds, and the
    shipped-fitted detector; fails unless both fits leave the same
    state."""
    seconds = {"oracle": [], "shipped": []}
    for _ in range(FIT_REPEATS):
        reference = copy.deepcopy(untrained)
        _, oracle_seconds = _timed(lambda: helad_fit(reference, train_packets))
        detector = copy.deepcopy(untrained)
        _, shipped_seconds = _timed(lambda: detector.fit(train_packets))
        seconds["oracle"].append(oracle_seconds)
        seconds["shipped"].append(shipped_seconds)
        # Parity gate: the fitted state is byte-equal.
        assert helad_state(detector) == helad_state(reference), (
            "HELAD.fit diverged from the per-packet reference fit"
        )
    return detector, min(seconds["oracle"]), min(seconds["shipped"])


def test_helad_batch_throughput(bench_scale):
    scale = scale_or(bench_scale, DEFAULT_SCALE)
    untrained, data = _cell(scale)
    n_train = len(data.train_packets)
    detector, oracle_fit_s, fit_s = _fit_rows(untrained, data.train_packets)
    fit_speedup = oracle_fit_s / fit_s
    packets = data.test_packets
    n_packets = len(packets)
    assert n_packets > 0, f"no test packets at scale {scale}"

    reference = copy.deepcopy(detector)
    reference_scores, reference_seconds = _timed(
        lambda: helad_scores(reference, packets)
    )

    def run(path, fn):
        scorer = copy.deepcopy(detector)
        scores, seconds = _timed(lambda: fn(scorer))
        # Parity gate: speed must not come from changed semantics.
        assert scores.tobytes() == reference_scores.tobytes(), (
            f"{path} diverged from the per-packet reference — parity "
            "contract broken"
        )
        assert scorer._score_history == reference._score_history, (
            f"{path} left a different LSTM history behind"
        )
        return {"seconds": seconds, "pps": n_packets / seconds}

    rows = {
        "per-packet": {
            "seconds": reference_seconds,
            "pps": n_packets / reference_seconds,
        },
        "batched": run("batched", lambda s: s.score_batch(packets)),
    }
    for batch_size in BATCH_SIZES:
        rows[f"batched/{batch_size}"] = run(
            f"batch={batch_size}",
            lambda s: np.concatenate([
                s.score_batch(packets[i : i + batch_size])
                for i in range(0, n_packets, batch_size)
            ]),
        )

    reference_pps = rows["per-packet"]["pps"]
    speedup = rows["batched"]["pps"] / reference_pps

    lines = [
        f"HELAD fit @ scale={scale} dataset={DATASET} seed={SEED} "
        f"({n_train} training packets, best of {FIT_REPEATS})",
        f"  per-packet oracle {oracle_fit_s:9.3f} s",
        f"  shipped fit       {fit_s:9.3f} s",
        f"  fit speedup: {fit_speedup:.2f}x (fitted state byte-equal)",
        f"HELAD scoring throughput @ scale={scale} dataset={DATASET} "
        f"seed={SEED} ({n_packets} test packets, window "
        f"{detector.window})",
        f"  {'path':16s} {'pkt/s':>12s} {'seconds':>9s}",
    ]
    for path, row in rows.items():
        lines.append(
            f"  {path:16s} {row['pps']:12,.0f} {row['seconds']:9.3f}"
        )
    lines.append(
        f"  score_batch over per-packet: {speedup:.2f}x "
        "(bit-for-bit parity verified)"
    )
    save_result("helad_batch", "\n".join(lines))
    save_bench_json(
        "helad_batch",
        metric="batched_speedup",
        value=round(speedup, 3),
        scale=scale,
        dataset=DATASET,
        test_packets=n_packets,
        train_packets=n_train,
        window=detector.window,
        parity=True,
        fit_parity=True,
        fit_speedup=round(fit_speedup, 3),
        fit_seconds={
            "oracle": round(oracle_fit_s, 4),
            "shipped": round(fit_s, 4),
        },
        packets_per_second={
            path: round(row["pps"]) for path, row in rows.items()
        },
    )

    assert speedup >= 1.0, f"batched slower than per-packet: {speedup:.2f}x"
    if scale >= 1.0:
        assert speedup >= FULL_SCALE_SPEEDUP, (
            f"batched speedup {speedup:.2f}x below the "
            f"{FULL_SCALE_SPEEDUP}x acceptance gate at scale {scale}"
        )
