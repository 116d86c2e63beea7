import csv
import io
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from nullproj import ConfigurationError, LinearOperator, NullProjError, TrialConfig, TrialRow, run_trial
from nullproj import bench
from nullproj.bench import emit_csv, emit_markdown, main


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
    with pytest.raises(ConfigurationError, match="kappa"):
        TrialConfig(m=8, n=64, kappa=float("inf"))
    for kappa in ("1e4", None, 1j):
        with pytest.raises(ConfigurationError, match="kappa"):
            TrialConfig(m=8, n=64, kappa=kappa)
    with pytest.raises(ConfigurationError):
        TrialConfig(m=8, n=64, kappa=10.0, trials=0)
    with pytest.raises(ConfigurationError):
        TrialConfig(m=8, n=64, kappa=10.0, l=7)
    with pytest.raises(ConfigurationError):
        TrialConfig(m=8, n=64, kappa=10.0, matrix_kind="banded")
    with pytest.raises(ConfigurationError):
        TrialConfig(m=8, n=64, kappa=10.0, rng_kind="mt19937")
    with pytest.raises(TypeError):
        TrialConfig(8, 64, 10.0)  # keyword-only, so no field can be bound by position


@pytest.mark.parametrize("name", ["matrix_kind", "rng_kind"])
@pytest.mark.parametrize("kind", [["sparse"], np.array(["lfg"])], ids=["list", "array"])
def test_config_refuses_a_kind_that_is_not_a_name(name, kind):
    # a list or an array is unhashable, so a dict membership test alone raises TypeError
    with pytest.raises(ConfigurationError, match=f"^{name} must be one of"):
        small_config(**{name: kind})


@pytest.mark.parametrize("l", [10.7, np.float64(12.0), "12"], ids=["float", "np.float64", "str"])
def test_config_rejects_a_non_integer_width(l):
    with pytest.raises(ConfigurationError, match="integer"):
        small_config(l=l)


def test_config_stores_an_integer_width_as_an_int():
    cfg = small_config(l=np.int64(12))
    assert type(cfg.l) is int and cfg.l == 12


@pytest.mark.parametrize("name", ["trials", "refine_iters"])
@pytest.mark.parametrize("value", [2.5, np.float64(2.0), "2"], ids=["float", "np.float64", "str"])
def test_config_rejects_non_integer_counts_before_any_apply(name, value, monkeypatch):
    # refused at construction, so neither setup is built or timed first
    products = []
    checked_apply = LinearOperator._checked_apply

    def counting_apply(self, v, adjoint):
        products.append(adjoint)
        return checked_apply(self, v, adjoint)

    monkeypatch.setattr(LinearOperator, "_checked_apply", counting_apply)
    with pytest.raises(ConfigurationError, match=f"{name} must be an integer"):
        run_trial(small_config(**{name: value}))
    assert products == []
    cfg = small_config(**{name: np.int64(2)})
    assert type(getattr(cfg, name)) is int and getattr(cfg, name) == 2


def test_config_checks_the_seed():
    with pytest.raises(ConfigurationError, match="seed must be an integer"):
        small_config(seed=3.0)
    with pytest.raises(ConfigurationError, match="seed must be nonnegative"):
        small_config(seed=-1)
    cfg = small_config(seed=np.int64(3))
    assert type(cfg.seed) is int and cfg.seed == 3


def test_cli_negative_seed_is_a_usage_error(capsys):
    code = main(["--m", "8", "--n", "64", "--kappa", "1e4", "--seed", "-1"])
    assert code == 2
    assert "usage error: seed must be nonnegative" in capsys.readouterr().err


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


def test_pairs_alternate_the_first_side_and_each_side_takes_its_median(monkeypatch):
    # a stub clock that moves only inside the calls, by the seconds each takes
    clock = [0.0]
    order = []

    def call(side, seconds):
        seconds = iter(seconds)

        def timed():
            order.append(side)
            clock[0] += next(seconds)

        return timed

    monkeypatch.setattr(bench.time, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(bench, "_PAIRS", 5)
    classical = call("C", [9.0, 1.0, 4.0, 2.0, 3.0])
    randomized = call("R", [10.0, 70.0, 30.0, 50.0, 20.0])
    assert bench._paired(classical, randomized) == (3.0, 30.0)  # the means are 3.8 and 36
    assert "".join(order) == "CRRCCRRCCR"


def test_the_pair_count_moves_only_the_timings(monkeypatch):
    # the error fields and apply counts read the first, untimed, setups, so
    # the timed builds, which draw on from the same stream, cannot move them
    rows = []
    for pairs in (1, 3):
        monkeypatch.setattr(bench, "_PAIRS", pairs)
        rows.append(run_trial(small_config(refine_iters=1)))
    timings = {"s_pre", "s_pro", "t_pre", "t_pro"}
    for name in (f.name for f in fields(TrialRow) if f.name not in timings):
        assert getattr(rows[0], name) == getattr(rows[1], name), name


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


def read_csv(text):
    """The CLI's CSV read back as the stdlib reads it: one dict of str cells per row."""
    return list(csv.DictReader(io.StringIO(text)))


def test_csv_round_trip():
    rows = [run_trial(small_config(trials=1)), run_trial(small_config(trials=1, seed=9))]
    rows.append(run_trial(small_config(trials=1, kappa=np.float64(100.0))))
    text = emit_csv(rows)
    assert text.count("\n") == 4  # header + 3 rows
    records = read_csv(text)
    assert len(records) == len(rows)
    for row, record in zip(rows, records):
        assert list(record) == [f.name for f in fields(TrialRow)]
        for f in fields(TrialRow):
            value, cell = getattr(row, f.name), record[f.name]
            assert type(value) is f.type
            # floats, a numpy kappa's too, read back exactly; int and str cells are their str
            assert (float(cell) == value) if f.type is float else (cell == str(value))
    single = emit_csv(rows[:1])
    assert len(single.strip().splitlines()) == 2


def test_emit_csv_writes_the_expected_bytes():
    # readers of the CLI's CSV depend on this text: shortest round-trip floats, a numpy
    # scalar written as its number, "\n" line ends
    row = TrialRow(
        m=8,
        n=64,
        kappa=1e16,
        s_pre=0.1,
        s_pro=1e-300,
        t_pre=5e-324,
        t_pro=np.float64(0.25),
        delta_norm_over_kappa=2.5e-17,
        epsilon_norm_over_kappa=1.0,
        delta_rand_over_kappa=0.0,
        epsilon_rand_over_kappa=1e-13,
        build_applies=20,
        build_adjoint_applies=8,
        project_applies=1,
        project_adjoint_applies=1,
    )
    assert emit_csv([row]) == (
        "m,n,l,kappa,matrix_kind,rng_kind,trials,seed,refine_iters,s_pre,s_pro,t_pre,t_pro,"
        "delta_norm_over_kappa,epsilon_norm_over_kappa,delta_rand_over_kappa,"
        "epsilon_rand_over_kappa,build_applies,build_adjoint_applies,project_applies,"
        "project_adjoint_applies\n"
        "8,64,12,1e+16,sparse,lfg,100,0,0,0.1,1e-300,5e-324,0.25,2.5e-17,1.0,0.0,1e-13,20,8,1,1\n"
    )


def test_markdown_column_order():
    row = run_trial(small_config(trials=1))
    md_time, md_err = emit_markdown([row]).split("\n\n")
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
    assert [c.strip() for c in md_time.splitlines()[0].strip("|").split("|")][4:] == [
        "s_pre",
        "s_pro",
        "t_pre",
        "t_pro",
    ]


def test_cli_success(tmp_path, capsys):
    out = tmp_path / "row.csv"
    code = main(
        ["--m", "8", "--n", "64", "--kappa", "1e4", "--trials", "2", "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    (record,) = read_csv(out.read_text())
    assert record["m"] == "8" and record["l"] == "12"


def test_cli_unwritable_out_is_a_usage_error(tmp_path, capsys):
    code = main(["--m", "8", "--n", "64", "--kappa", "1e4", "--trials", "1", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: cannot write") and "Traceback" not in err


def test_cli_stdout_markdown(capsys):
    code = main(["--m", "8", "--n", "32", "--kappa", "100", "--trials", "1", "--format", "md"])
    assert code == 0
    timings, errors = capsys.readouterr().out.split("\n\n")
    assert timings.startswith("| m |") and "| t_pro |" in timings
    assert errors.startswith("| m |") and "| eps_rand/kappa |" in errors
    with pytest.raises(SystemExit) as exc:
        main(["--m", "8", "--n", "32", "--kappa", "100", "--format", "md", "--table", "errors"])
    assert exc.value.code == 2


def test_readme_flags_match_the_cli(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme[readme.index("Flags:") :].split("\n\n")[0]
    with pytest.raises(SystemExit):
        main(["--help"])
    printed = set(re.findall(r"--[a-z]+", capsys.readouterr().out)) - {"--help"}
    assert set(re.findall(r"--[a-z]+", paragraph)) == printed


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


def test_cli_builds_the_config_with_trial_config_defaults(monkeypatch):
    configs = []

    def capture(config):
        configs.append(config)
        raise NullProjError("captured")

    monkeypatch.setattr("nullproj.bench.run_trial", capture)
    assert main(["--m", "8", "--n", "64", "--kappa", "1e4"]) == 1
    default = TrialConfig(m=8, n=64, kappa=1e4)
    assert configs == [default]
    argv = ["--m", "16", "--n", "320", "--l", "18", "--kappa", "1e6", "--matrix", "dense"]
    argv += ["--rng", "gauss", "--trials", "7", "--seed", "11", "--refine", "2"]
    assert main(argv) == 1
    expected = dict(m=16, n=320, l=18, kappa=1e6, matrix_kind="dense", rng_kind="gauss")
    expected.update(trials=7, seed=11, refine_iters=2)
    assert {f.name: getattr(configs[1], f.name) for f in fields(TrialConfig)} == expected
    # every flag moved its field off the default, so none was dropped on the way
    assert all(getattr(configs[1], f.name) != getattr(default, f.name) for f in fields(TrialConfig))


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


def test_cli_infinite_kappa_is_a_usage_error(capsys):
    code = main(["--m", "8", "--n", "64", "--kappa", "inf"])
    assert code == 2
    assert "usage error: kappa" in capsys.readouterr().err


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
