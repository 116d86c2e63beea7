"""Tests of the benchmark itself: manifest, output contract, correctness gate, spans.

    python3 -m pytest perfbench -q
"""

import json
import re
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import run

assert run.use_source_tree()

import harness  # noqa: E402
import spec  # noqa: E402
from nullproj import UniformLaggedFibonacci, build_preconditioner, make_sparse_test  # noqa: E402
from tracing import Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TINY = ("12", "96")  # m, n small enough for a quick run of every workload


def _run(*args, cwd=run.ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def test_benchmark_json_is_generated_from_spec():
    on_disk = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert on_disk == spec.manifest()


def test_manifest_obeys_its_limits():
    man = spec.manifest()
    assert 2 <= len(man["workloads"]) <= 8
    assert 1 <= len(man["end_to_end"]) <= 16
    assert 1 <= len(man["per_layer"]) <= 128
    names = [w["name"] for w in man["workloads"]] + [
        m["name"] for m in man["end_to_end"] + man["per_layer"]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in man["workloads"])
    for m in man["end_to_end"] + man["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in man["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_tiny_run_passes_the_gate_and_emits_every_metric(workload, trace):
    code, lines = _run("--workload", workload, "--seed", "3", "--seconds", "0.2",
                       "--trace", trace, "--size", *TINY)
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= spec.MIN_PROJECTIONS
    wanted = spec.PER_LAYER if trace == "1" else spec.END_TO_END
    assert list(result["metrics"]) == [m.name for m in wanted]
    for m in wanted:
        assert result["metrics"][m.name]["unit"] == m.unit
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        got = {k: v["value"] for k, v in result["metrics"].items()}
        m, l, n = 12, 16, 96
        assert got["linop.build_applies"] == l + m and got["linop.build_adjoint_applies"] == m
        assert got["linop.project_applies"] == 1 and got["linop.project_adjoint_applies"] == 1
        assert got["rng.values_per_build"] == l * n
        assert got["precond.sketch_attempts"] == 1
        assert got["precond.cond_estimate"] <= spec.COND_FACTOR * l


def test_same_seed_gives_same_inputs():
    wl = spec.WORKLOADS["gauss_refine"]
    a, b = harness.Run(wl, 5), harness.Run(wl, 5)
    assert (a.A.base.col_perm == b.A.base.col_perm).all()
    assert (a.new_stream().fill_column(50) == b.new_stream().fill_column(50)).all()
    assert (a.unit_vector() == b.unit_vector()).all()


def test_gate_rejects_wrong_counts_and_bad_conditioning():
    wl = spec.Workload("t", "sparse", 12, 96, 1e4, "lfg", "", "")
    A = make_sparse_test(wl.m, wl.n, wl.kappa, 0)
    pre = build_preconditioner(A, wl.l, UniformLaggedFibonacci(1))
    assert harness.check_build(pre, wl)[0]
    extra_apply = replace(pre, build_apply_counts=(wl.l + wl.m + 1, wl.m))
    assert not harness.check_build(extra_apply, wl)[0]
    ill_conditioned = replace(pre, Y=np.diag(np.geomspace(1.0, 1e-6, wl.m)))  # cond estimate 1e3
    assert not harness.check_build(ill_conditioned, wl)[0]


def test_self_times_add_up_to_their_parent():
    tr = Tracer()
    with tr.span("root", "op0"):
        time.sleep(0.002)
        with tr.span("child"):
            time.sleep(0.002)
        with tr.span("child"):
            with tr.span("grandchild"):
                time.sleep(0.001)
    own = tr.self_times()
    dur = [s.end - s.start for s in tr.spans]
    assert [s.op for s in tr.spans] == ["op0"] * 4
    assert own[0] + dur[1] + dur[2] == pytest.approx(dur[0], abs=1e-12)
    assert own[2] + dur[3] == pytest.approx(dur[2], abs=1e-12)
    assert tr.nesting_errors() == []
    assert tr.durations("child") == dur[1:3]


def test_without_the_package_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sketch_bound", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
