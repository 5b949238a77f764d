"""Benchmark entry point: prepare one workload's seeded inputs, then
time it in a fresh process and print the result as the last line.

    python3 perfbench/run.py --workload live-mirai --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Every file the benchmark writes
(captures, references, the compiled kernel, temporary files, traces)
goes under ``.perfbench-cache/`` there.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".perfbench-cache"
WORKLOADS = ("live-mirai", "sharded-cicids", "table4-iot")
#: Generous ceilings: a hung child is killed, never waited on forever.
PREPARE_TIMEOUT_S = 900
MEASURE_TIMEOUT_S = 600


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for name in ("tmp", "native"):
        (CACHE / name).mkdir(parents=True, exist_ok=True)
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        TMPDIR=str(CACHE / "tmp"),
        REPRO_NATIVE_CACHE=str(CACHE / "native"),
        # One BLAS thread: at most two busy processes (the sharded
        # supervisor and its worker) on a two-vCPU host.
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    prepared = subprocess.run(
        [sys.executable, str(HERE / "inputs.py"),
         "--workload", args.workload, "--seed", str(args.seed)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=PREPARE_TIMEOUT_S,
    )
    if prepared.returncode != 0:
        return prepared.returncode
    plan = prepared.stdout.strip().splitlines()[-1]
    measured = subprocess.run(
        [sys.executable, str(HERE / "measure.py"), "--plan", plan,
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=MEASURE_TIMEOUT_S,
    )
    if measured.returncode != 0:
        return measured.returncode
    sys.stdout.write(measured.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
