"""Benchmark harness: classical vs randomized projection on the test matrices.

One trial builds a synthetic operator, times both setup phases and both
per-vector projection phases, then takes the max of the four error metrics
over `trials` random unit vectors.  Results serialize to CSV (full row,
round-trippable) or to markdown tables in the usual column order
(m, n, l, kappa, then the timing or error columns).

Also usable as a command line tool; see `main` or run `nullproj-bench -h`.
"""

import argparse
import operator
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from .diagnostics import error_metrics
from .errors import ConfigurationError, NullProjError
from .linop import _check_sparse_family, make_dense_test, make_sparse_test
from .precond import _check_sketch_width, build_preconditioner, default_sketch_width
from .projector import ClassicalProjector, project, refine_lstsq, solve_lstsq
from .rng import GaussianStream, UniformLaggedFibonacci

MATRIX_KINDS = ("sparse", "dense")
RNG_KINDS = ("lfg", "gauss")
TABLES = ("timings", "errors")

_FAST_PHASE = 0.05  # phases under 50 ms get timed as a median of 3 runs


@dataclass
class TrialConfig:
    """One benchmark configuration; validated on construction."""

    m: int
    n: int
    kappa: float
    l: int = None
    matrix_kind: str = "sparse"
    rng_kind: str = "lfg"
    trials: int = 100
    seed: int = 0
    refine_iters: int = 0

    def __post_init__(self):
        _check_sparse_family(self.m, self.n, self.kappa)
        if self.l is None:
            self.l = default_sketch_width(self.m, self.n)
        self.l = _check_sketch_width(self.l, self.m, self.n)
        for name in ("trials", "refine_iters"):
            value = getattr(self, name)
            try:
                setattr(self, name, operator.index(value))
            except TypeError:
                raise ConfigurationError(f"{name} must be an integer, got {value!r}") from None
        if self.trials < 1:
            raise ConfigurationError(f"trials must be at least 1, got {self.trials}")
        if self.refine_iters < 0:
            raise ConfigurationError(f"refine_iters must be nonnegative, got {self.refine_iters}")
        if self.matrix_kind not in MATRIX_KINDS:
            raise ConfigurationError(f"matrix_kind must be one of {MATRIX_KINDS}")
        if self.rng_kind not in RNG_KINDS:
            raise ConfigurationError(f"rng_kind must be one of {RNG_KINDS}")


@dataclass
class TrialRow:
    """One result record: config echo, phase timings, error maxima, apply counts."""

    m: int
    n: int
    l: int
    kappa: float
    matrix_kind: str
    rng_kind: str
    trials: int
    seed: int
    refine_iters: int
    s_pre: float
    s_pro: float
    t_pre: float
    t_pro: float
    delta_norm_over_kappa: float
    epsilon_norm_over_kappa: float
    delta_rand_over_kappa: float
    epsilon_rand_over_kappa: float
    build_applies: int
    build_adjoint_applies: int
    project_applies: int
    project_adjoint_applies: int


def _timed(fn):
    """Wall-clock a callable; short phases are repeated and the median taken.

    Returns (seconds, first result); repeats rerun the callable, which is
    fine for the phases timed here (rebuilds advance the random stream but
    the recorded result is always the first one).
    """
    t0 = time.perf_counter()
    value = fn()
    dt = time.perf_counter() - t0
    if dt >= _FAST_PHASE:
        return dt, value
    samples = [dt]
    for _ in range(2):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    samples.sort()
    return samples[1], value


def run_trial(config):
    """Execute one benchmark configuration and return its TrialRow.

    Timings use a monotonic clock; error fields are maxima over
    `config.trials` random unit vectors; apply counts are asserted against
    the cost model (l+m, m) for the build and (1, 1) per projection.
    """
    cfg = config
    make = make_sparse_test if cfg.matrix_kind == "sparse" else make_dense_test
    A = make(cfg.m, cfg.n, cfg.kappa, cfg.seed)

    rng_b = np.random.default_rng([cfg.seed, 2])

    def unit_vector():
        v = rng_b.standard_normal(cfg.n)
        return v / np.linalg.norm(v)

    b_time = unit_vector()  # the vector both timing phases project

    s_pre, classical = _timed(lambda: ClassicalProjector(A))
    s_pro, _ = _timed(lambda: classical.project(b_time))

    stream_cls = UniformLaggedFibonacci if cfg.rng_kind == "lfg" else GaussianStream
    g = stream_cls(cfg.seed + 1)
    t_pre, pre = _timed(lambda: build_preconditioner(A, cfg.l, g))
    if pre.build_apply_counts != (cfg.l + cfg.m, cfg.m):
        raise NullProjError(
            f"build cost contract violated: expected ({cfg.l + cfg.m}, {cfg.m}) applies, "
            f"measured {pre.build_apply_counts}"
        )

    before = A.counts()
    project(pre, A, b_time)
    after = A.counts()
    project_counts = (after[0] - before[0], after[1] - before[1])
    if project_counts != (1, 1):
        raise NullProjError(f"projection cost contract violated: measured {project_counts}")
    t_pro, _ = _timed(lambda: project(pre, A, b_time))

    def classical_null(v):
        return classical.project(v).null_projection

    def randomized_null(v):
        h = refine_lstsq(pre, A, v, solve_lstsq(pre, A, v), cfg.refine_iters)
        return v - A.apply_adjoint(h)

    dn = en = dr = er = 0.0
    for _ in range(cfg.trials):
        b = unit_vector()
        mc = error_metrics(A, classical_null, b, cfg.kappa, "classical")
        mr = error_metrics(A, randomized_null, b, cfg.kappa, "randomized")
        dn = max(dn, mc.delta_over_kappa)
        en = max(en, mc.epsilon_over_kappa)
        dr = max(dr, mr.delta_over_kappa)
        er = max(er, mr.epsilon_over_kappa)

    return TrialRow(
        m=cfg.m,
        n=cfg.n,
        l=cfg.l,
        kappa=cfg.kappa,
        matrix_kind=cfg.matrix_kind,
        rng_kind=cfg.rng_kind,
        trials=cfg.trials,
        seed=cfg.seed,
        refine_iters=cfg.refine_iters,
        s_pre=s_pre,
        s_pro=s_pro,
        t_pre=t_pre,
        t_pro=t_pro,
        delta_norm_over_kappa=dn,
        epsilon_norm_over_kappa=en,
        delta_rand_over_kappa=dr,
        epsilon_rand_over_kappa=er,
        build_applies=pre.build_apply_counts[0],
        build_adjoint_applies=pre.build_apply_counts[1],
        project_applies=project_counts[0],
        project_adjoint_applies=project_counts[1],
    )


def _csv_cell(value):
    return repr(value) if isinstance(value, float) else str(value)


def emit_csv(rows):
    """Full-fidelity CSV: header of TrialRow field names, one line per row."""
    names = [f.name for f in fields(TrialRow)]
    lines = [",".join(names)]
    for row in rows:
        lines.append(",".join(_csv_cell(getattr(row, name)) for name in names))
    return "\n".join(lines) + "\n"


def parse_csv(text):
    """Inverse of emit_csv; round-trips exactly (floats via repr)."""
    lines = [line for line in text.strip().splitlines() if line]
    names = [f.name for f in fields(TrialRow)]
    if not lines or lines[0].split(",") != names:
        raise ConfigurationError("CSV header is missing or does not match the TrialRow fields")
    types = {f.name: f.type for f in fields(TrialRow)}
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(names):
            raise ConfigurationError(f"CSV row has {len(cells)} cells, expected {len(names)}")
        rows.append(TrialRow(**{name: types[name](cell) for name, cell in zip(names, cells)}))
    return rows


_MD_TABLES = {
    "timings": (
        ("s_pre", "s_pre"),
        ("s_pro", "s_pro"),
        ("t_pre", "t_pre"),
        ("t_pro", "t_pro"),
    ),
    "errors": (
        ("delta_norm_over_kappa", "delta_norm/kappa"),
        ("epsilon_norm_over_kappa", "eps_norm/kappa"),
        ("delta_rand_over_kappa", "delta_rand/kappa"),
        ("epsilon_rand_over_kappa", "eps_rand/kappa"),
    ),
}


def emit_markdown(rows, table="errors"):
    """Markdown table with the usual column order: m, n, l, kappa, then data."""
    if table not in _MD_TABLES:
        raise ConfigurationError(f"table must be one of {TABLES}, got {table!r}")
    columns = _MD_TABLES[table]
    header = ["m", "n", "l", "kappa"] + [label for _, label in columns]
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    for row in rows:
        cells = [str(row.m), str(row.n), str(row.l), f"{row.kappa:.0e}"]
        cells += [f"{getattr(row, name):.2e}" for name, _ in columns]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def emit_report(rows, format="csv", table="errors"):
    """Serialize rows as 'csv' or 'md' text."""
    if not rows:
        raise ConfigurationError("no rows to report")
    if format == "csv":
        return emit_csv(rows)
    if format == "md":
        return emit_markdown(rows, table)
    raise ConfigurationError(f"unknown report format {format!r}")


def main(argv=None):
    """CLI entry point; returns the process exit code.

    0 on success, 2 on usage/configuration errors, 1 on numerical failure.
    """
    parser = argparse.ArgumentParser(
        prog="nullproj-bench",
        description="Benchmark classical vs randomized null-space projection on synthetic matrices.",
    )
    parser.add_argument("--m", type=int, required=True, help="rows of the test operator")
    parser.add_argument("--n", type=int, required=True, help="columns (a multiple of m)")
    parser.add_argument("--l", type=int, default=None, help="sketch width (default m+4)")
    parser.add_argument("--kappa", type=float, required=True, help="target condition number (> 1)")
    parser.add_argument("--matrix", choices=MATRIX_KINDS, default="sparse")
    parser.add_argument("--rng", choices=RNG_KINDS, default="lfg", help="sketch entry stream")
    parser.add_argument("--trials", type=int, default=100, help="random unit vectors per error max")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--refine", type=int, default=0, help="refinement iterations per projection")
    parser.add_argument("--table", choices=TABLES, default="errors")
    parser.add_argument("--format", choices=("csv", "md"), default="csv")
    parser.add_argument("--out", default=None, help="output file (default stdout)")
    args = parser.parse_args(argv)

    try:
        config = TrialConfig(
            m=args.m,
            n=args.n,
            l=args.l,
            kappa=args.kappa,
            matrix_kind=args.matrix,
            rng_kind=args.rng,
            trials=args.trials,
            seed=args.seed,
            refine_iters=args.refine,
        )
    except NullProjError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2

    try:
        row = run_trial(config)
        text = emit_report([row], args.format, args.table)
    except NullProjError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1

    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
