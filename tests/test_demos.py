import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_random_streams_demo_runs():
    result = run_demo("02_random_streams.py")
    assert result.returncode == 0, result.stderr
    assert "bitwise equal to the original run: True" in result.stdout
    assert "one 40-column request bitwise equal to 40 columns: True" in result.stdout


@pytest.mark.parametrize(
    "name",
    [
        "01_matrix_free_operators.py",
        "03_preconditioner_conditioning.py",
        "04_projections_and_least_squares.py",
        "05_benchmark_tables.py",
    ],
)
def test_demo_runs(name):
    result = run_demo(name)
    assert result.returncode == 0, result.stderr
