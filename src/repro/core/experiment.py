"""One IDS x dataset evaluation, and the paper's full experiment matrix.

Every cell of Table IV is described by an :class:`ExperimentConfig`
capturing the adaptation decisions the paper made for that pairing
(training source, sample composition, packet budgets). The matrix
records them explicitly — the paper's point is precisely that these
decisions are unavoidable and consequential, so the reproduction makes
them first-class, inspectable data.

Sample compositions follow the per-cell prevalences implied by the
paper's published metrics (e.g. Slips' UNSW-NB15 accuracy of 0.8735
with zero detections implies an ~13% attack sample; the DNN's
accuracy == precision with recall 1.0 implies attack-dominated samples
for UNSW/BoT/CICIDS). See EXPERIMENTS.md for the full derivations.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from typing import Callable, Protocol

import numpy as np

from repro.core.metrics import MetricReport, compute_metrics
from repro.core.preprocessing import (
    prepare_flow_experiment,
    prepare_packet_experiment,
)
from repro.core.thresholds import standard_threshold
from repro.datasets import generate_dataset
from repro.ids.base import InputKind
from repro.ids.kitsune import grace_periods
from repro.ids.registry import backend_notes, evaluated_ids_factories
from repro.utils.rng import SeededRNG

PACKET_IDS_NAMES = ("Kitsune", "HELAD")
FLOW_IDS_NAMES = ("DNN", "Slips")
DATASET_ORDER = ("UNSW-NB15", "BoT-IoT", "CICIDS2017", "Stratosphere", "Mirai")


#: The default experiment kind: the paper's Table IV cell evaluation.
TABLE4_KIND = "table4"


@dataclass
class ExperimentConfig:
    """Adaptation and evaluation settings for one Table IV cell.

    ``experiment`` selects the *kind* of experiment this config
    describes. The default, :data:`TABLE4_KIND`, is the paper's IDS x
    dataset cell; other kinds (registered via
    :func:`register_experiment_kind` or named by a ``"module:function"``
    dotted path) let ablation sweeps run through the same execution
    engine — with the same caching and determinism contract. Kind
    parameters travel in ``experiment_params`` and are part of the
    result-cache key.
    """

    ids_name: str
    dataset_name: str
    seed: int = 0
    scale: float = 0.5
    # Threshold standardisation (Section IV-A-4).
    threshold_strategy: str = "fpr-budget"
    max_fpr: float = 0.05
    lambda_fpr: float = 0.5
    fixed_threshold: float = 0.5
    # Packet-level adaptation.
    test_prevalence: float | None = None
    train_fraction: float = 0.15
    max_test_packets: int | None = 8_000
    max_train_packets: int | None = 6_000
    # Flow-level adaptation.
    schema: str = "netflow"
    cross_corpus_train: bool = False
    flow_train_fraction: float = 0.6
    train_prevalence: float | None = None
    max_flows: int | None = 20_000
    # Extra constructor arguments for the IDS.
    ids_overrides: dict = field(default_factory=dict)
    # Experiment kind dispatch (ablations, custom sweeps).
    experiment: str = TABLE4_KIND
    experiment_params: dict = field(default_factory=dict)

    def describe(self) -> str:
        return f"{self.ids_name} on {self.dataset_name} (seed={self.seed})"


@dataclass
class ExperimentResult:
    """Outcome of one cell: metrics plus full provenance.

    ``attack_types[i]`` is the attack family of test item ``i`` (an
    empty string for benign items), enabling per-family recall analysis
    (:mod:`repro.core.families`).
    """

    config: ExperimentConfig
    metrics: MetricReport
    threshold: float
    scores: np.ndarray
    y_true: np.ndarray
    notes: dict
    #: IDS fit + score time only — dataset generation and adaptation are
    #: excluded, so the number is comparable whether or not the dataset
    #: came from a cache (``notes["setup_seconds"]`` records the rest).
    runtime_seconds: float
    attack_types: tuple[str, ...] = ()


def _build_ids(config: ExperimentConfig):
    factories = evaluated_ids_factories()
    try:
        factory = factories[config.ids_name]
    except KeyError:
        known = ", ".join(sorted(factories))
        raise KeyError(
            f"unknown IDS {config.ids_name!r}; known: {known}"
        ) from None
    kwargs = dict(factory.default_config())
    kwargs.update(config.ids_overrides)
    return factory, kwargs


class DatasetProvider(Protocol):
    """Anything that can supply a dataset by name — the registry's
    :func:`~repro.datasets.registry.generate_dataset` or a
    :class:`~repro.runner.cache.DatasetCache`."""

    def __call__(self, name: str, *, seed: int, scale: float): ...


#: Name under which the DNN's cross-corpus training set is requested
#: from the provider (see :mod:`repro.datasets.kddcup`).
CROSS_CORPUS_DATASET = "KDD-reference"


def cross_corpus_requirement(
    config: ExperimentConfig,
) -> tuple[str, int, float] | None:
    """The extra ``(name, seed, scale)`` dataset this cell requests from
    its provider beyond ``config.dataset_name`` (or ``None``) — the
    engine uses this to warm caches before dispatch."""
    if not config.cross_corpus_train:
        return None
    return (CROSS_CORPUS_DATASET, config.seed, max(config.scale * 0.5, 0.1))


#: Signature of a registered experiment kind: given a config and a
#: dataset provider, produce the cell's result. Kinds must honour the
#: determinism contract — the result depends only on ``config``.
ExperimentRunner = Callable[[ExperimentConfig, DatasetProvider], "ExperimentResult"]

_EXPERIMENT_KINDS: dict[str, ExperimentRunner] = {}


def register_experiment_kind(name: str, runner: ExperimentRunner) -> ExperimentRunner:
    """Register a custom experiment kind under ``name``.

    Registration is per-process; for kinds that must also resolve in
    engine worker processes, use a ``"module:function"`` dotted path as
    the config's ``experiment`` value instead — it is imported lazily
    wherever the cell runs.
    """
    if name == TABLE4_KIND:
        raise ValueError(f"{TABLE4_KIND!r} is the built-in kind")
    _EXPERIMENT_KINDS[name] = runner
    return runner


def resolve_experiment_kind(name: str) -> ExperimentRunner:
    """Look up an experiment kind by registered name or dotted path."""
    runner = _EXPERIMENT_KINDS.get(name)
    if runner is not None:
        return runner
    if ":" in name:
        module_name, _, attr = name.partition(":")
        runner = getattr(importlib.import_module(module_name), attr)
        _EXPERIMENT_KINDS[name] = runner
        return runner
    known = ", ".join(sorted(_EXPERIMENT_KINDS) or ("<none>",))
    raise KeyError(
        f"unknown experiment kind {name!r} (registered: {known}; "
        f"dotted 'module:function' paths also resolve)"
    )


def experiment_input_kind(config: ExperimentConfig) -> InputKind:
    """Whether this cell's IDS consumes packets or flows."""
    factory, _ = _build_ids(config)
    return factory.input_kind


def build_packet_cell(config: ExperimentConfig, dataset):
    """Adapt ``dataset`` and instantiate the IDS for one packet-level
    cell, exactly as :func:`run_experiment` does.

    This is the shared substrate of the batch path and the streaming
    path (:mod:`repro.stream.service`): both derive the same RNG
    children, the same train/test adaptation and the same grace-period
    arithmetic, so their scores agree bit for bit. Returns the
    *untrained* IDS and the adapted :class:`PacketExperimentData`.
    """
    rng = SeededRNG(config.seed, f"exp/{config.ids_name}/{config.dataset_name}")
    factory, kwargs = _build_ids(config)
    if factory.input_kind is not InputKind.PACKET:
        raise ValueError(f"{config.ids_name} is not a packet-level IDS")
    data = prepare_packet_experiment(
        dataset,
        rng.child("prep"),
        train_fraction=config.train_fraction,
        test_prevalence=config.test_prevalence,
        max_test_packets=config.max_test_packets,
        max_train_packets=config.max_train_packets,
    )
    kwargs.setdefault("seed", config.seed)
    if config.ids_name == "Kitsune":
        # Grace periods must fit the available training stream —
        # the per-dataset setup labour the paper describes.
        kwargs["fm_grace"], kwargs["ad_grace"] = grace_periods(
            len(data.train_packets)
        )
    return factory(**kwargs), data


def build_flow_cell(config: ExperimentConfig, dataset, train_dataset=None):
    """Adapt ``dataset`` and instantiate the IDS for one flow-level
    cell, exactly as :func:`run_experiment` does (see
    :func:`build_packet_cell`). Returns the *untrained* IDS and the
    adapted :class:`FlowExperimentData`."""
    rng = SeededRNG(config.seed, f"exp/{config.ids_name}/{config.dataset_name}")
    factory, kwargs = _build_ids(config)
    if factory.input_kind is not InputKind.FLOW:
        raise ValueError(f"{config.ids_name} is not a flow-level IDS")
    data = prepare_flow_experiment(
        dataset,
        rng.child("prep"),
        schema=config.schema,
        train_dataset=train_dataset,
        train_fraction=config.flow_train_fraction,
        train_prevalence=config.train_prevalence,
        test_prevalence=config.test_prevalence,
        max_flows=config.max_flows,
    )
    if config.ids_name == "DNN":
        kwargs.setdefault("seed", config.seed)
    return factory(**kwargs), data


def posthoc_threshold(
    y_true: np.ndarray,
    scores: np.ndarray,
    config: ExperimentConfig | None = None,
) -> float:
    """The standardized threshold (Section IV-A-4) over one run's scored
    items, with ``config``'s four threshold fields.

    It is resolved here alone: for a batch cell, for the same cell
    streamed, and for a labelled live session, which has no cell and
    passes ``None``. The fields' defaults are ``standard_threshold``'s
    own, so ``None`` is the default policy.
    """
    if config is None:
        return standard_threshold(y_true, scores)
    return standard_threshold(
        y_true,
        scores,
        strategy=config.threshold_strategy,
        max_fpr=config.max_fpr,
        lambda_fpr=config.lambda_fpr,
        fixed_value=config.fixed_threshold,
    )


def run_experiment(
    config: ExperimentConfig,
    *,
    dataset_provider: DatasetProvider | None = None,
) -> ExperimentResult:
    """Execute one experiment cell end to end.

    The default kind (:data:`TABLE4_KIND`) is the paper's Table IV
    evaluation; other ``config.experiment`` values dispatch to the
    registered (or dotted-path) kind runner.

    ``dataset_provider`` injects where datasets come from (default: the
    registry generator, regenerating per call). Providers must be
    deterministic in ``(name, seed, scale)``; the result then depends
    only on ``config``.
    """
    setup_start = time.perf_counter()
    provider: DatasetProvider = dataset_provider or generate_dataset
    if config.experiment != TABLE4_KIND:
        return resolve_experiment_kind(config.experiment)(config, provider)
    dataset = provider(
        config.dataset_name, seed=config.seed, scale=config.scale
    )
    factory, _ = _build_ids(config)

    if factory.input_kind is InputKind.PACKET:
        ids, data = build_packet_cell(config, dataset)
        fit_score_start = time.perf_counter()
        ids.fit(data.train_packets)
        scores = ids.score_batch(data.test_packets)
        fit_score_seconds = time.perf_counter() - fit_score_start
        y_true = data.y_true
        notes = dict(data.notes)
        notes.update(backend_notes(ids))
        attack_types = tuple(p.attack_type for p in data.test_packets)
    else:
        train_dataset = None
        requirement = cross_corpus_requirement(config)
        if requirement is not None:
            cc_name, cc_seed, cc_scale = requirement
            train_dataset = provider(cc_name, seed=cc_seed, scale=cc_scale)
        ids, data = build_flow_cell(config, dataset, train_dataset)
        fit_score_start = time.perf_counter()
        ids.fit(data.train_flows, data.train_features, data.train_labels)
        scores = ids.anomaly_scores(data.test_flows, data.test_features)
        fit_score_seconds = time.perf_counter() - fit_score_start
        y_true = data.y_true
        notes = data.notes
        attack_types = tuple(f.attack_type for f in data.test_flows)

    threshold = posthoc_threshold(y_true, scores, config)
    predictions = (scores >= threshold).astype(int)
    metrics = compute_metrics(y_true, predictions)
    notes = dict(notes)
    notes["setup_seconds"] = fit_score_start - setup_start
    return ExperimentResult(
        config=config,
        metrics=metrics,
        threshold=threshold,
        scores=scores,
        y_true=y_true,
        notes=notes,
        runtime_seconds=fit_score_seconds,
        attack_types=attack_types,
    )


def _matrix() -> dict[tuple[str, str], ExperimentConfig]:
    """The 20-cell experiment matrix behind Table IV."""
    configs: dict[tuple[str, str], ExperimentConfig] = {}

    # ---- Kitsune: packet-level, trained on initial benign traffic ----
    # Enterprise samples are benign-dominated after flow sampling (the
    # paper's Kitsune rows imply ~1-5% attack packets there); IoT
    # captures keep their natural attack-heavy composition.
    kitsune_prevalence = {
        "UNSW-NB15": 0.05,
        "BoT-IoT": None,
        "CICIDS2017": 0.02,
        "Stratosphere": None,
        "Mirai": None,
    }
    for dataset, prevalence in kitsune_prevalence.items():
        configs[("Kitsune", dataset)] = ExperimentConfig(
            ids_name="Kitsune",
            dataset_name=dataset,
            test_prevalence=prevalence,
            # Detection-first thresholding: Kitsune's published rows
            # (recall 0.98 at precision 0.01 on CICIDS2017) show the
            # procedure tolerated near-total flagging when scores did
            # not separate the classes.
            threshold_strategy="detection-priority",
            lambda_fpr=0.3,
        )

    # ---- HELAD: conservatively thresholded (its published CICIDS2017
    # row trades recall 0.37 for precision 0.97). Sample compositions
    # follow the prevalences implied by its published accuracies
    # (CICIDS2017 acc 0.6437 at prec 0.97 implies a ~57% attack sample;
    # UNSW-NB15 acc 0.9717 with near-zero detections implies ~3%).
    helad_prevalence = {
        "UNSW-NB15": 0.03,
        "BoT-IoT": None,
        "CICIDS2017": 0.57,
        "Stratosphere": None,
        "Mirai": None,
    }
    for dataset, prevalence in helad_prevalence.items():
        configs[("HELAD", dataset)] = ExperimentConfig(
            ids_name="HELAD",
            dataset_name=dataset,
            test_prevalence=prevalence,
            threshold_strategy="fpr-budget",
            max_fpr=0.04,
        )

    # ---- DNN: out-of-the-box pipeline arrives pre-trained on its
    # KDD-like corpus; test compositions follow the paper's implied
    # prevalences (accuracy == precision, recall == 1.0).
    dnn_prevalence = {
        "UNSW-NB15": 0.982,
        "BoT-IoT": 0.977,
        "CICIDS2017": 0.98,
        "Stratosphere": 0.211,
        "Mirai": 0.906,
    }
    for dataset, prevalence in dnn_prevalence.items():
        configs[("DNN", dataset)] = ExperimentConfig(
            ids_name="DNN",
            dataset_name=dataset,
            cross_corpus_train=True,
            test_prevalence=prevalence,
            # The DNN's native sigmoid decision boundary — out of the box.
            threshold_strategy="fixed",
            fixed_threshold=0.5,
        )

    # ---- Slips: flow-level, training-free; natural compositions except
    # where the paper's accuracies imply specific samples.
    slips_prevalence = {
        "UNSW-NB15": 0.13,
        "BoT-IoT": None,  # naturally >98% attack, like the real BoT-IoT
        "CICIDS2017": 0.063,
        "Stratosphere": None,
        "Mirai": 0.20,
    }
    for dataset, prevalence in slips_prevalence.items():
        configs[("Slips", dataset)] = ExperimentConfig(
            ids_name="Slips",
            dataset_name=dataset,
            test_prevalence=prevalence,
            # Training-free: the whole capture is evaluated, and Slips'
            # own evidence threshold is the decision boundary.
            flow_train_fraction=0.0,
            threshold_strategy="fixed",
            fixed_threshold=0.5,
        )
    return configs


EXPERIMENT_MATRIX: dict[tuple[str, str], ExperimentConfig] = _matrix()
