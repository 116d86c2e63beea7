import importlib
import os
import re
import subprocess
import sys
import types
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


def test_readme_names_resolve():
    # every backticked dotted name the README gives, such as `nullproj.dense_core.ORACLE_CAP`,
    # must import or be an attribute, so a deleted name fails here until the docs follow it
    names = set(re.findall(r"`(nullproj(?:\.\w+)+)", (ROOT / "README.md").read_text()))
    assert names
    for name in sorted(names):
        parts = name.split(".")
        obj = importlib.import_module(parts[0])
        for i, part in enumerate(parts[1:], start=2):
            try:
                obj = getattr(obj, part)
            except AttributeError:
                obj = importlib.import_module(".".join(parts[:i]))


def test_root_names_match_all():
    # the root's import list and `__all__` are two hand-kept copies of the same names
    nullproj = importlib.import_module("nullproj")
    exported = nullproj.__all__
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(nullproj, name)] == []
    public = [
        name
        for name, obj in vars(nullproj).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    ]
    assert sorted(set(public) - set(exported)) == []
