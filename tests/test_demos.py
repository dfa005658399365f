"""Each narrative script in ``demos/`` runs to completion and prints something."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import sglab

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    src = str(Path(sglab.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=src, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1"),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
