"""The full IDS analysis pipeline (the paper's contribution).

Runs selection (Table I), dataset inventory (Tables II/III), and the
20-cell evaluation matrix (Table IV), and checks the paper's headline
qualitative findings against the reproduced numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.experiment import (
    DATASET_ORDER,
    ExperimentResult,
)
from repro.core.metrics import MetricReport, average_metrics

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runner.engine import ExperimentEngine
    from repro.runner.telemetry import RunTelemetry


@dataclass
class Table4Cell:
    """One rendered cell of Table IV."""

    ids_name: str
    dataset_name: str
    metrics: MetricReport
    notes: dict = field(default_factory=dict)


@dataclass
class ShapeCheck:
    """One of the paper's qualitative findings, verified numerically."""

    claim: str
    passed: bool
    detail: str


class IDSAnalysisPipeline:
    """Coordinates the full Table IV reproduction.

    Parameters
    ----------
    seed:
        Master seed; every cell derives its own stream from it.
    scale:
        Dataset generation scale (1.0 = benchmark size; tests use less).
    ids_names / dataset_names:
        Optional restriction of the matrix (e.g. one IDS row).
    jobs / cache_dir:
        Forwarded to the :class:`~repro.runner.engine.ExperimentEngine`
        that executes the matrix: worker-process count and on-disk cache
        root (see docs/RUNNER.md). Ignored when ``engine`` is given.
    engine:
        Inject a pre-configured engine (shared caches, custom retries).
    """

    def __init__(
        self,
        *,
        seed: int = 0,
        scale: float = 0.5,
        ids_names: tuple[str, ...] = ("Kitsune", "HELAD", "DNN", "Slips"),
        dataset_names: tuple[str, ...] = DATASET_ORDER,
        jobs: int = 1,
        cache_dir=None,
        engine: "ExperimentEngine | None" = None,
    ) -> None:
        self.seed = seed
        self.scale = scale
        self.ids_names = tuple(ids_names)
        self.dataset_names = tuple(dataset_names)
        self.results: dict[tuple[str, str], ExperimentResult] = {}
        if engine is None:
            from repro.runner.engine import ExperimentEngine

            engine = ExperimentEngine(jobs=jobs, cache_dir=cache_dir)
        self.engine = engine

    @property
    def telemetry(self) -> "RunTelemetry | None":
        """Per-cell execution telemetry of the most recent engine run."""
        return self.engine.last_telemetry

    def run_all(self, *, verbose: bool = False) -> dict[tuple[str, str], ExperimentResult]:
        from repro.runner.scheduling import plan_cells

        cells = plan_cells(
            self.ids_names, self.dataset_names,
            seed=self.seed, scale=self.scale,
        )
        self.results.update(self.engine.run(cells))
        if verbose:
            for ids_name in self.ids_names:
                for dataset_name in self.dataset_names:
                    result = self.results[(ids_name, dataset_name)]
                    m = result.metrics
                    print(
                        f"{ids_name:8s} {dataset_name:13s} "
                        f"acc={m.accuracy:.4f} prec={m.precision:.4f} "
                        f"rec={m.recall:.4f} f1={m.f1:.4f} "
                        f"({result.runtime_seconds:.1f}s)"
                    )
        return self.results

    # -- aggregation -----------------------------------------------------
    def row(self, ids_name: str) -> list[Table4Cell]:
        cells = []
        for dataset_name in self.dataset_names:
            result = self.results[(ids_name, dataset_name)]
            cells.append(
                Table4Cell(ids_name, dataset_name, result.metrics, result.notes)
            )
        return cells

    def average_for(self, ids_name: str) -> MetricReport:
        return average_metrics([c.metrics for c in self.row(ids_name)])

    def f1_of(self, ids_name: str, dataset_name: str) -> float:
        return self.results[(ids_name, dataset_name)].metrics.f1

    # -- the paper's qualitative findings ---------------------------------
    def shape_checks(self) -> list[ShapeCheck]:
        """Verify the headline orderings of Table IV (see DESIGN.md §4)."""
        checks: list[ShapeCheck] = []
        averages = {name: self.average_for(name).f1 for name in self.ids_names}

        best_avg = max(averages, key=lambda k: averages[k])
        checks.append(
            ShapeCheck(
                claim="DNN attains the highest average F1 of the four IDSs",
                passed=best_avg == "DNN",
                detail=", ".join(f"{k}={v:.4f}" for k, v in averages.items()),
            )
        )

        strat_f1 = {
            name: self.f1_of(name, "Stratosphere") for name in self.ids_names
        }
        best_strat = max(strat_f1, key=lambda k: strat_f1[k])
        checks.append(
            ShapeCheck(
                claim="HELAD attains the highest F1 on Stratosphere",
                passed=best_strat == "HELAD",
                detail=", ".join(f"{k}={v:.4f}" for k, v in strat_f1.items()),
            )
        )

        dnn_row = {d: self.f1_of("DNN", d) for d in self.dataset_names}
        checks.append(
            ShapeCheck(
                claim="Stratosphere is the DNN's worst dataset (all-positive "
                      "collapse: recall ~1, accuracy ~prevalence)",
                passed=min(dnn_row, key=lambda k: dnn_row[k]) == "Stratosphere"
                and self.results[("DNN", "Stratosphere")].metrics.recall > 0.95,
                detail=", ".join(f"{k}={v:.4f}" for k, v in dnn_row.items()),
            )
        )

        kitsune_iot = min(
            self.f1_of("Kitsune", d) for d in ("BoT-IoT", "Stratosphere", "Mirai")
        )
        kitsune_ent = max(
            self.f1_of("Kitsune", d) for d in ("UNSW-NB15", "CICIDS2017")
        )
        checks.append(
            ShapeCheck(
                claim="Kitsune: strong on every IoT dataset, weak on both "
                      "enterprise datasets",
                passed=kitsune_iot > 0.6 and kitsune_ent < 0.3,
                detail=f"min IoT F1 {kitsune_iot:.4f}, max enterprise F1 "
                       f"{kitsune_ent:.4f}",
            )
        )

        slips_avg = averages.get("Slips", 0.0)
        others = [v for k, v in averages.items() if k != "Slips"]
        slips_best_dataset = max(
            self.dataset_names, key=lambda d: self.f1_of("Slips", d)
        )
        checks.append(
            ShapeCheck(
                claim="Slips has the lowest average F1 and its best dataset "
                      "is Stratosphere",
                passed=bool(others)
                and slips_avg < min(others)
                and slips_best_dataset == "Stratosphere",
                detail=f"Slips avg {slips_avg:.4f}; best dataset "
                       f"{slips_best_dataset}",
            )
        )

        helad_cic = self.results[("HELAD", "CICIDS2017")].metrics
        checks.append(
            ShapeCheck(
                claim="HELAD on CICIDS2017 trades recall for precision "
                      "(precision > recall)",
                passed=helad_cic.precision > helad_cic.recall,
                detail=f"precision {helad_cic.precision:.4f}, recall "
                       f"{helad_cic.recall:.4f}",
            )
        )
        return checks
