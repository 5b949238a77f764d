"""Streaming == batch: the subsystem's defining contract.

For the same :class:`ExperimentConfig`, the streaming session's
per-item scores must be *bit-identical* to the batch pipeline's — all
four evaluated IDSs, across micro-batch sizes. Also covers the live
(capture) path's detector-level agreement with a single batch call.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from repro.core.experiment import EXPERIMENT_MATRIX, run_experiment
from repro.stream.service import stream_experiment

SCALE = 0.05


@lru_cache(maxsize=8)
def _dataset(name: str, seed: int, scale: float):
    from repro.datasets.registry import generate_dataset_uncached

    return generate_dataset_uncached(name, seed=seed, scale=scale)


def _provider(name, *, seed=0, scale=1.0):
    """Session-cached datasets so batch and stream share generation."""
    return _dataset(name, seed, scale)


def _config(ids_name, dataset_name, seed=0):
    return replace(
        EXPERIMENT_MATRIX[(ids_name, dataset_name)], seed=seed, scale=SCALE
    )


# Five IDS x dataset cells: both packet IDSs, both flow IDSs, and a
# second dataset for the acceptance cell (Kitsune).
PARITY_CELLS = (
    ("Kitsune", "Mirai"),
    ("Kitsune", "UNSW-NB15"),
    ("HELAD", "Mirai"),
    ("DNN", "Mirai"),
    ("Slips", "Mirai"),
)


@pytest.mark.parametrize("ids_name,dataset_name", PARITY_CELLS)
def test_stream_scores_bit_identical_to_batch(ids_name, dataset_name):
    config = _config(ids_name, dataset_name)
    batch = run_experiment(config, dataset_provider=_provider)
    report = stream_experiment(
        config, batch_size=64, window_seconds=30.0, dataset_provider=_provider
    )
    assert report.n_scored == len(batch.scores)
    np.testing.assert_array_equal(report.scores, batch.scores)
    # Same scores + same standardized procedure => same threshold and
    # identical Table IV metrics.
    assert report.threshold == batch.threshold
    assert report.metrics == batch.metrics
    np.testing.assert_array_equal(report.y_true, batch.y_true)


def test_micro_batch_size_is_a_pure_throughput_knob():
    """Scores cannot depend on how the stream was chunked."""
    config = _config("Kitsune", "Mirai")
    reference = None
    for batch_size in (1, 7, 256, 100_000):
        report = stream_experiment(
            config, batch_size=batch_size, dataset_provider=_provider
        )
        if reference is None:
            reference = report.scores
        else:
            np.testing.assert_array_equal(report.scores, reference)


def test_capture_path_matches_single_batch_call():
    """The live path (assembler + per-close scoring) agrees with one
    fit-then-score batch invocation over the same packets."""
    from repro.features.encoding import FlowVectorEncoder
    from repro.flows.assembler import FlowAssembler
    from repro.flows.netflow import NETFLOW_FEATURE_NAMES
    from repro.core.preprocessing import flow_feature_dicts
    from repro.ids.dnn import DNNClassifierIDS
    from repro.stream.detector import FlowStreamDetector
    from repro.stream.service import stream_capture
    from repro.stream.sources import ListSource

    dataset = _dataset("Mirai", 0, SCALE)
    cut = len(dataset.packets) // 2
    train_packets = dataset.packets[:cut]
    test_packets = dataset.packets[cut:]

    # Batch reference: assemble everything, fit on prefix flows, score
    # the rest in one call.
    train_flows = FlowAssembler().assemble(train_packets)
    test_flows = FlowAssembler().assemble(test_packets)
    encoder = FlowVectorEncoder(NETFLOW_FEATURE_NAMES)
    train_x = encoder.encode(flow_feature_dicts(train_flows, "netflow"))
    test_x = encoder.encode(flow_feature_dicts(test_flows, "netflow"))
    batch_ids = DNNClassifierIDS(seed=0)
    batch_ids.fit(train_flows, train_x, np.array([f.label for f in train_flows]))
    batch_scores = batch_ids.anomaly_scores(test_flows, test_x)

    stream_ids = DNNClassifierIDS(seed=0)
    detector = FlowStreamDetector(stream_ids, batch_size=16)
    report = stream_capture(
        ListSource(dataset.packets),
        detector,
        warmup_packets=cut,
        threshold=0.5,
        window_seconds=60.0,
    )
    # Streaming emits flows in completion order; compare as score
    # multisets keyed by flow end time (boundaries agree per
    # test_stream_tracker parity).
    assert report.n_scored == len(batch_scores)
    streamed = np.sort(report.scores)
    np.testing.assert_array_equal(streamed, np.sort(batch_scores))


def test_stream_report_shape():
    report = stream_experiment(
        _config("Kitsune", "Mirai"), window_seconds=10.0,
        dataset_provider=_provider,
    )
    payload = report.to_dict()
    for key in ("ids", "unit", "threshold", "metrics", "windows", "alerts",
                "packets_per_second", "alert_rate", "n_scored"):
        assert key in payload
    assert payload["unit"] == "packet"
    assert payload["metrics"] is not None
    assert payload["windows"], "expected at least one window"
    total_items = sum(w["items"] for w in payload["windows"])
    assert total_items == payload["n_scored"]
    import json

    json.dumps(payload)  # must be JSON-serialisable as-is
