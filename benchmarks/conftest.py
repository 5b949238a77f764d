"""Benchmark configuration.

Every bench prints the table it regenerates (run with ``-s`` to see it
live); heavy pipeline benches run exactly once via ``benchmark.pedantic``.
Results also land in ``benchmarks/results/`` for inspection.

All benches share one ``--scale`` / ``--jobs`` argument pair instead of
hard-coding their own knobs::

    PYTHONPATH=src pytest benchmarks/bench_robustness.py -s --scale 0.05 --jobs 2

``--scale`` overrides each bench's calibrated default (shape assertions
are tuned for the defaults — tiny scales are for smoke runs); ``--jobs``
sets the execution engine's worker-process count. The environment
variables ``REPRO_BENCH_SCALE`` / ``REPRO_BENCH_JOBS`` are the
equivalent knobs for CI, with the command line taking precedence.
"""

from __future__ import annotations

import json
import os
import subprocess
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"
REPO_ROOT = Path(__file__).parent.parent


def pytest_addoption(parser):
    group = parser.getgroup("repro", "reproduction benchmark options")
    group.addoption(
        "--scale", type=float, default=None,
        help="dataset generation scale for all benches "
             "(default: each bench's calibrated scale)",
    )
    group.addoption(
        "--jobs", type=int, default=None,
        help="engine worker processes for all benches (default 1)",
    )
    group.addoption(
        "--workers", type=int, default=None,
        help="max sharded-stream worker count for the scaling benches "
             "(default: each bench's calibrated ladder)",
    )


@pytest.fixture(scope="session")
def bench_scale(request) -> float | None:
    """The common ``--scale`` override, or ``None`` for bench defaults."""
    option = request.config.getoption("--scale")
    if option is not None:
        return option
    env = os.environ.get("REPRO_BENCH_SCALE")
    return float(env) if env else None


@pytest.fixture(scope="session")
def bench_jobs(request) -> int | None:
    """The common ``--jobs`` override, or ``None`` for bench defaults."""
    option = request.config.getoption("--jobs")
    if option is not None:
        return option
    env = os.environ.get("REPRO_BENCH_JOBS")
    return int(env) if env else None


@pytest.fixture(scope="session")
def bench_workers(request) -> int | None:
    """The common ``--workers`` override, or ``None`` for defaults."""
    option = request.config.getoption("--workers")
    if option is not None:
        return option
    env = os.environ.get("REPRO_BENCH_WORKERS")
    return int(env) if env else None


def workers_or(bench_workers: int | None, default: int) -> int:
    """A bench's effective max sharded worker count."""
    return default if bench_workers is None else bench_workers


def scale_or(bench_scale: float | None, default: float) -> float:
    """A bench's effective scale: the common override or its default."""
    return default if bench_scale is None else bench_scale


def jobs_or(bench_jobs: int | None, default: int = 1) -> int:
    """A bench's effective worker count: the common override or its
    default (most benches run the engine serially by default)."""
    return default if bench_jobs is None else bench_jobs


def save_result(name: str, content: str) -> None:
    """Persist a rendered table under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(content + "\n")
    print(f"\n{content}\n")


def _git(*args: str) -> str:
    try:
        result = subprocess.run(
            ["git", *args],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return ""
    return result.stdout.strip() if result.returncode == 0 else ""


def _git_rev() -> str:
    """The short HEAD rev, with ``-dirty`` when a tracked file other
    than a ``BENCH_*.json`` result differs from it: numbers measured
    before a commit are not HEAD's, but a bench file written earlier in
    the same run does not change the code being measured."""
    rev = _git("rev-parse", "--short", "HEAD")
    if not rev:
        return "unknown"
    if _git("status", "--porcelain", "--untracked-files=no",
            "--", ".", ":(exclude)BENCH_*.json"):
        rev += "-dirty"
    return rev


def save_bench_json(
    name: str,
    metric: str,
    value: float,
    *,
    scale: float | None = None,
    **extra,
) -> None:
    """Write ``BENCH_<name>.json`` at the repo root.

    One headline metric per bench, plus whatever context the bench
    wants to record, makes the performance trajectory machine-readable:
    CI uploads these files as artifacts and any regression tooling can
    diff them across revisions via the embedded git rev.
    """
    from repro import obs
    from repro.features.netstat import NetStat

    payload = {
        "bench": name,
        "metric": metric,
        "value": value,
        "scale": scale,
        "git_rev": _git_rev(),
        "run_id": obs.run_id(),
        # Host + backend context: a headline number is only comparable
        # across runs with the same core count and compute backend.
        "cpu_count": os.cpu_count(),
        "feature_backend": NetStat().backend,
        # The bench process's own obs snapshot (cache hit/miss counters,
        # cpu count, ...) — context for interpreting the headline number.
        "obs": obs.process_snapshot(),
        **extra,
    }
    path = REPO_ROOT / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"[bench-json] {path.name}: {metric}={value}")


def bench_seconds(benchmark) -> float:
    """Mean seconds per round of a completed ``benchmark`` fixture run."""
    return float(benchmark.stats.stats.mean)
