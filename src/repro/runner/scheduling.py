"""Cell planning for matrix runs: which cells, in which order.

A *plan* is a deterministic, dataset-major list of :class:`CellSpec`
objects. Dataset-major order means a serial (or cache-warming) pass
touches each dataset's cells consecutively, so the in-memory tier of
:class:`~repro.runner.cache.DatasetCache` only ever needs one dataset
live at a time. The plan order is also the result-collection order, so
output is reproducible regardless of which worker finishes first.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

from repro.core.experiment import (
    DATASET_ORDER,
    EXPERIMENT_MATRIX,
    ExperimentConfig,
)


@dataclass(frozen=True)
class CellSpec:
    """One schedulable unit: a fully-resolved experiment config plus its
    position in the plan (used for ordered collection)."""

    index: int
    config: ExperimentConfig

    @property
    def key(self) -> tuple[str, str]:
        return (self.config.ids_name, self.config.dataset_name)

    def describe(self) -> str:
        return self.config.describe()


def plan_cells(
    ids_names: Sequence[str],
    dataset_names: Sequence[str] = DATASET_ORDER,
    *,
    seed: int = 0,
    scale: float = 0.5,
    matrix: Mapping[tuple[str, str], ExperimentConfig] = EXPERIMENT_MATRIX,
) -> list[CellSpec]:
    """Resolve the requested sub-matrix into an ordered cell plan.

    Every cell is re-seeded and re-scaled from the matrix base config,
    so serial and parallel engine runs execute byte-identical configs.
    """
    cells: list[CellSpec] = []
    for dataset_name in dataset_names:
        for ids_name in ids_names:
            base = matrix[(ids_name, dataset_name)]
            config = replace(base, seed=seed, scale=scale)
            cells.append(CellSpec(index=len(cells), config=config))
    return cells


def plan_configs(configs: Iterable[ExperimentConfig]) -> list[CellSpec]:
    """Wrap pre-built configs (e.g. an ablation sweep) into a plan,
    preserving the given order."""
    return [CellSpec(index=i, config=c) for i, c in enumerate(configs)]


def dataset_requirements(
    cells: Sequence[CellSpec],
) -> list[tuple[str, int, float]]:
    """Unique ``(name, seed, scale)`` triples the plan will generate, in
    first-use order — the warm-up list for the dataset cache.

    Includes the DNN's cross-corpus training corpus, which
    :func:`~repro.core.experiment.run_experiment` requests through the
    same provider.
    """
    from repro.core.experiment import cross_corpus_requirement

    seen: set[tuple[str, int, float]] = set()
    ordered: list[tuple[str, int, float]] = []
    for cell in cells:
        needs = [(cell.config.dataset_name, cell.config.seed, cell.config.scale)]
        extra = cross_corpus_requirement(cell.config)
        if extra is not None:
            needs.append(extra)
        for triple in needs:
            if triple not in seen:
                seen.add(triple)
                ordered.append(triple)
    return ordered
