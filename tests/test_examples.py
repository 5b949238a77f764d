"""Every script under ``examples/`` runs to completion at a small scale.

The examples are the library's front door; each one runs in a fresh
interpreter, from an empty working directory, as a reader would run it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

EXAMPLES = sorted((Path(__file__).parents[1] / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(script, tmp_path):
    env = {**os.environ,
           "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    result = subprocess.run(
        [sys.executable, str(script), "--scale", "0.05"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
