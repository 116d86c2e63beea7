import numpy as np
import pytest

from nullproj import ConfigurationError, NullProjError, TrialConfig, parse_csv, run_trial
from nullproj.bench import emit_csv, emit_markdown, emit_report, main


def small_config(**overrides):
    base = dict(m=8, n=64, kappa=1e4, trials=3, seed=5)
    base.update(overrides)
    return TrialConfig(**base)


def test_config_defaults_and_validation():
    cfg = small_config()
    assert cfg.l == 12  # m + 4
    assert TrialConfig(m=8, n=8, kappa=10.0, trials=1).l == 8  # clamped to n
    with pytest.raises(ConfigurationError):
        TrialConfig(m=8, n=20, kappa=10.0)  # n not a multiple
    with pytest.raises(ConfigurationError):
        TrialConfig(m=8, n=64, kappa=0.5)
    with pytest.raises(ConfigurationError):
        TrialConfig(m=8, n=64, kappa=float("nan"))
    with pytest.raises(ConfigurationError):
        TrialConfig(m=8, n=64, kappa=10.0, trials=0)
    with pytest.raises(ConfigurationError):
        TrialConfig(m=8, n=64, kappa=10.0, l=7)
    with pytest.raises(ConfigurationError):
        TrialConfig(m=8, n=64, kappa=10.0, matrix_kind="banded")
    with pytest.raises(ConfigurationError):
        TrialConfig(m=8, n=64, kappa=10.0, rng_kind="mt19937")


def test_run_trial_fields_and_counts():
    row = run_trial(small_config())
    assert (row.build_applies, row.build_adjoint_applies) == (row.l + row.m, row.m)
    assert (row.project_applies, row.project_adjoint_applies) == (1, 1)
    for field in ("s_pre", "s_pro", "t_pre", "t_pro"):
        assert getattr(row, field) >= 0.0
    for field in (
        "delta_norm_over_kappa",
        "epsilon_norm_over_kappa",
        "delta_rand_over_kappa",
        "epsilon_rand_over_kappa",
    ):
        assert getattr(row, field) >= 0.0


def test_run_trial_deterministic_error_fields():
    cfg_a = small_config(trials=1)
    cfg_b = small_config(trials=1)
    row_a = run_trial(cfg_a)
    row_b = run_trial(cfg_b)
    for field in (
        "delta_norm_over_kappa",
        "epsilon_norm_over_kappa",
        "delta_rand_over_kappa",
        "epsilon_rand_over_kappa",
    ):
        assert getattr(row_a, field) == getattr(row_b, field)


def test_run_trial_spec_example_m40():
    # desk-scale version of the headline sparse row: n scaled down to 1e4
    cfg = TrialConfig(m=40, n=10_000, l=44, kappa=1e8, trials=100, seed=1)
    row = run_trial(cfg)
    assert row.epsilon_rand_over_kappa <= 1e-13
    assert row.delta_rand_over_kappa <= 1e-13


def test_run_trial_dense_and_gauss_kinds():
    row_d = run_trial(small_config(matrix_kind="dense"))
    row_g = run_trial(small_config(rng_kind="gauss"))
    assert row_d.matrix_kind == "dense"
    assert row_g.rng_kind == "gauss"
    assert row_g.epsilon_rand_over_kappa <= 1e-13


def test_run_trial_with_refinement():
    row = run_trial(small_config(refine_iters=2))
    assert row.refine_iters == 2
    assert row.epsilon_rand_over_kappa <= 1e-13


def test_csv_round_trip():
    rows = [run_trial(small_config(trials=1)), run_trial(small_config(trials=1, seed=9))]
    text = emit_csv(rows)
    assert text.count("\n") == 3  # header + 2 rows
    assert parse_csv(text) == rows
    single = emit_csv(rows[:1])
    assert len(single.strip().splitlines()) == 2


@pytest.mark.parametrize("text", ["", "\n"], ids=["empty", "newline"])
def test_parse_csv_empty_raises(text):
    with pytest.raises(ConfigurationError):
        parse_csv(text)


def test_markdown_column_order():
    row = run_trial(small_config(trials=1))
    md_err = emit_markdown([row], table="errors")
    header = md_err.splitlines()[0]
    cols = [c.strip() for c in header.strip("|").split("|")]
    assert cols == [
        "m",
        "n",
        "l",
        "kappa",
        "delta_norm/kappa",
        "eps_norm/kappa",
        "delta_rand/kappa",
        "eps_rand/kappa",
    ]
    md_time = emit_markdown([row], table="timings")
    assert [c.strip() for c in md_time.splitlines()[0].strip("|").split("|")][4:] == [
        "s_pre",
        "s_pro",
        "t_pre",
        "t_pro",
    ]


def test_emit_report_dispatch():
    row = run_trial(small_config(trials=1))
    assert emit_report([row], "csv").startswith("m,n,l,kappa")
    assert emit_report([row], "md", "errors").startswith("| m |")
    with pytest.raises(ConfigurationError):
        emit_report([row], "yaml")
    with pytest.raises(ConfigurationError):
        emit_report([], "csv")
    with pytest.raises(ConfigurationError):
        emit_report([row], "md", "energies")


def test_cli_success(tmp_path, capsys):
    out = tmp_path / "row.csv"
    code = main(
        ["--m", "8", "--n", "64", "--kappa", "1e4", "--trials", "2", "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    rows = parse_csv(out.read_text())
    assert rows[0].m == 8 and rows[0].l == 12


def test_cli_stdout_markdown(capsys):
    code = main(["--m", "8", "--n", "32", "--kappa", "100", "--trials", "1", "--format", "md"])
    assert code == 0
    assert capsys.readouterr().out.startswith("| m |")


def test_cli_usage_error_exit_2(capsys):
    code = main(["--m", "8", "--n", "63", "--kappa", "1e4"])  # n not a multiple of m
    assert code == 2
    assert "usage error" in capsys.readouterr().err


def test_cli_bad_flag_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["--m", "8", "--n", "64"])  # missing --kappa
    assert exc.value.code == 2


def test_cli_numerical_failure_exit_1(monkeypatch, capsys):
    def boom(config):
        raise NullProjError("sketch was rank deficient")

    monkeypatch.setattr("nullproj.bench.run_trial", boom)
    code = main(["--m", "8", "--n", "64", "--kappa", "1e4"])
    assert code == 1
    assert "numerical failure" in capsys.readouterr().err


def test_setup_time_trend_roughly_linear_in_n():
    # smoke check of the O(l n) setup term: 10x the columns should cost
    # somewhere between 2x and 30x (constants dominate at desk scale)
    import time

    from nullproj import UniformLaggedFibonacci, build_preconditioner, make_sparse_test

    def t_pre(n):
        A = make_sparse_test(100, n, 1e6, seed=0)
        g = UniformLaggedFibonacci(1)
        t0 = time.perf_counter()
        build_preconditioner(A, 104, g)
        return time.perf_counter() - t0

    small = t_pre(30_000)
    big = t_pre(300_000)
    assert 2.0 <= big / small <= 30.0


def test_kappa_sweep_delta_does_not_grow():
    # randomized accuracy must not degrade as kappa climbs (cf. the error tables)
    deltas = []
    for kappa in (1e4, 1e8, 1e12):
        row = run_trial(TrialConfig(m=16, n=320, kappa=kappa, trials=10, seed=4))
        deltas.append(row.delta_rand_over_kappa)
    assert deltas[-1] <= deltas[0] * 3.0


def test_cli_odd_m_is_a_usage_error(capsys):
    code = main(["--m", "7", "--n", "63", "--kappa", "1e4"])
    assert code == 2
    assert "usage error" in capsys.readouterr().err


def test_module_entry_point_runs():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import nullproj

    # the child must import the same package as this test, installed or not
    paths = [str(Path(nullproj.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "nullproj", "--m", "8", "--n", "32", "--kappa", "100", "--trials", "1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("m,n,l,kappa")
