"""Ablation A3: benign-baseline availability (paper Sections I, V-6).

Autoencoder IDSs need a clean benign training baseline. The paper
reports that training "on initial benign traffic ... often did not
result in adequate performance" when datasets lack a labelled benign
period. This bench contaminates Kitsune's training prefix with
increasing fractions of attack traffic and watches detection degrade.

Each contamination fraction is one engine cell: a custom experiment
kind (:func:`run_contamination_point`, named by dotted path so worker
processes can resolve it) dispatched through
``ExperimentEngine.run_configs``. The Mirai capture is requested
through the engine's dataset provider, so every fraction shares one
generated dataset and each point's result caches like a Table IV cell.
"""

import copy
import time

import numpy as np
import pytest

from repro.core.experiment import ExperimentConfig, ExperimentResult
from repro.core.metrics import compute_metrics
from repro.core.thresholds import fpr_budget_threshold
from repro.flows.sampling import sort_by_timestamp
from repro.ids.kitsune import Kitsune
from repro.runner import ExperimentEngine
from repro.utils.tables import TextTable

from benchmarks.conftest import (bench_seconds, jobs_or,
                                 save_bench_json, save_result, scale_or)

CONTAMINATION = (0.0, 0.1, 0.3, 0.6)
DEFAULT_SCALE = 0.2

#: Dotted-path experiment kind, resolvable in engine worker processes.
CONTAMINATION_KIND = (
    "benchmarks.bench_ablation_benign_baseline:run_contamination_point"
)


def _contaminated_train(dataset, fraction):
    """The benign prefix plus a contiguous attack burst.

    The burst is a slice of the dataset's own attack phase, time-shifted
    into the middle of the prefix with its inter-packet gaps intact —
    i.e. at its true rate. This is what "no labelled benign period"
    really costs an autoencoder: the normalizer's learned ranges expand
    to cover attack-level feature values, so the same traffic no longer
    looks out-of-range at test time.
    """
    prefix = dataset.benign_prefix()
    if fraction == 0.0:
        return prefix
    attacks = [p for p in dataset.packets if p.label]
    count = int(len(prefix) * fraction)
    burst_source = attacks[:count]
    if not burst_source:
        return prefix
    midpoint = prefix[len(prefix) // 2].timestamp
    t0 = burst_source[0].timestamp
    injected = []
    for packet in burst_source:
        clone = copy.copy(packet)
        clone.timestamp = midpoint + (packet.timestamp - t0)
        injected.append(clone)
    return sort_by_timestamp(prefix + injected)


def run_contamination_point(config: ExperimentConfig, provider) -> ExperimentResult:
    """Kitsune trained on a contaminated prefix, tested on a fixed
    window of held-out benign packets plus the attack phase."""
    dataset = provider(config.dataset_name, seed=config.seed,
                       scale=config.scale)
    fraction = config.experiment_params["contamination"]
    prefix = dataset.benign_prefix()
    holdout = len(prefix) // 5  # benign negatives for the test window
    test = prefix[-holdout:] + dataset.packets[len(prefix):][:6000]
    y_true = np.array([p.label for p in test])
    train = _contaminated_train(dataset, fraction)
    train = [p for p in train
             if p.timestamp <= prefix[-holdout].timestamp or p.label]
    fm = max(100, len(train) // 10)
    ids = Kitsune(fm_grace=fm, ad_grace=max(100, len(train) - fm), seed=0)
    fit_score_start = time.perf_counter()
    ids.fit(train)
    scores = ids.score_batch(test)
    fit_score_seconds = time.perf_counter() - fit_score_start
    threshold = fpr_budget_threshold(y_true, scores, max_fpr=0.05)
    return ExperimentResult(
        config=config,
        metrics=compute_metrics(y_true, scores >= threshold),
        threshold=threshold,
        scores=scores,
        y_true=y_true,
        notes={"contamination": fraction, "train_packets": len(train)},
        runtime_seconds=fit_score_seconds,
        attack_types=tuple(p.attack_type for p in test),
    )


def test_benign_baseline_ablation(benchmark, bench_scale, bench_jobs):
    scale = scale_or(bench_scale, DEFAULT_SCALE)
    configs = [
        ExperimentConfig(
            ids_name="Kitsune",
            dataset_name="Mirai",
            seed=0,
            scale=scale,
            experiment=CONTAMINATION_KIND,
            experiment_params={"contamination": fraction},
        )
        for fraction in CONTAMINATION
    ]
    engine = ExperimentEngine(jobs=jobs_or(bench_jobs))

    def sweep():
        results = engine.run_configs(configs)
        return [(r.notes["contamination"], r.metrics) for r in results]

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = TextTable(["Train contamination", "Acc.", "Prec.", "Rec.", "F1"])
    for fraction, m in rows:
        table.add_row([f"{fraction:.0%}", *m.row()])
    save_result("ablation_benign_baseline", table.render())

    # Shape: clean baseline detects the botnet; a heavily contaminated
    # baseline (attack traffic normalised into "normal") loses recall.
    clean_f1 = rows[0][1].f1
    dirty_f1 = rows[-1][1].f1
    save_bench_json(
        "ablation_benign_baseline", metric="sweep_seconds",
        value=round(bench_seconds(benchmark), 3), scale=scale,
        clean_f1=clean_f1, dirty_f1=dirty_f1,
    )
    assert clean_f1 > 0.8
    assert dirty_f1 < clean_f1
