"""Benchmark harness: classical vs randomized projection on the test matrices.

One trial builds a synthetic operator, times both setup phases and both
per-vector projection phases, then takes the max of the four error metrics
over `trials` random unit vectors.  Each timing is a median over warm
classical/randomized pairs (see `_paired`).  Results serialize to CSV or to two
markdown tables, timings then errors, in the usual column order (m, n, l,
kappa, then data).  The CSV holds the full row, written by the stdlib `csv`
writer, so the `csv` module and `float()` read it back exactly.

Also usable as a command line tool; see `main` or run `nullproj-bench -h`.
"""

import argparse
import csv
import io
import sys
import time
from dataclasses import dataclass, fields

import numpy as np

from .diagnostics import error_metrics
from .errors import ConfigurationError, NullProjError, as_index
from .linop import _check_sparse_family, make_dense_test, make_sparse_test
from .precond import _check_sketch_width, build_preconditioner, default_sketch_width
from .projector import ClassicalProjector, project, refine_lstsq, solve_lstsq
from .rng import GaussianStream, UniformLaggedFibonacci

_FAMILIES = {"sparse": make_sparse_test, "dense": make_dense_test}
_STREAMS = {"lfg": UniformLaggedFibonacci, "gauss": GaussianStream}

_PAIRS = 5  # warm classical/randomized pairs per timed phase


@dataclass(kw_only=True)
class TrialConfig:
    """One benchmark configuration; validated on construction.

    The fields are in CSV column order, and `nullproj-bench` takes its
    defaults from them.
    """

    m: int
    n: int
    l: int = None
    kappa: float
    matrix_kind: str = "sparse"
    rng_kind: str = "lfg"
    trials: int = 100
    seed: int = 0
    refine_iters: int = 0

    def __post_init__(self):
        family = _check_sparse_family(self.m, self.n, self.kappa, self.seed)
        self.m, self.n, self.kappa, self.seed = family
        if self.l is None:
            self.l = default_sketch_width(self.m, self.n)
        self.l = _check_sketch_width(self.l, self.m, self.n)
        self.trials = as_index(self.trials, "trials", least=1)
        self.refine_iters = as_index(self.refine_iters, "refine_iters", least=0)
        if not (isinstance(self.matrix_kind, str) and self.matrix_kind in _FAMILIES):
            raise ConfigurationError(f"matrix_kind must be one of {tuple(_FAMILIES)}")
        if not (isinstance(self.rng_kind, str) and self.rng_kind in _STREAMS):
            raise ConfigurationError(f"rng_kind must be one of {tuple(_STREAMS)}")


@dataclass(kw_only=True)
class TrialRow(TrialConfig):
    """One result record: the checked config it ran, phase timings, error maxima, apply counts."""

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


def _paired(classical, randomized):
    """Median seconds of (classical, randomized) over `_PAIRS` warm pairs.

    The pairs alternate which side goes first, classical in the first, so a
    drift in the host's speed falls on both; the results are discarded.
    """
    samples = ([], [])
    for k in range(_PAIRS):
        for side in (0, 1) if k % 2 == 0 else (1, 0):
            t0 = time.perf_counter()
            (classical, randomized)[side]()
            samples[side].append(time.perf_counter() - t0)
    return float(np.median(samples[0])), float(np.median(samples[1]))


def run_trial(config):
    """Execute one benchmark configuration and return its TrialRow.

    Timings are medians of warm pairs (`_paired`); error fields are maxima over
    `config.trials` random unit vectors; apply counts are asserted against
    the cost model (l+m, m) for the build and (1, 1) per projection.
    """
    cfg = config
    A = _FAMILIES[cfg.matrix_kind](cfg.m, cfg.n, cfg.kappa, cfg.seed)

    rng_b = np.random.default_rng([cfg.seed, 2])

    def unit_vector():
        v = rng_b.standard_normal(cfg.n)
        return v / np.linalg.norm(v)

    b_time = unit_vector()  # the vector both timing phases project

    classical = ClassicalProjector(A)  # the error fields read these first setups
    g = _STREAMS[cfg.rng_kind](cfg.seed + 1)
    pre = build_preconditioner(A, cfg.l, g)
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
    classical.project(b_time)  # the counted call above warmed the randomized side

    # the timed builds keep drawing from g, so no timed call makes a stream
    s_pre, t_pre = _paired(lambda: ClassicalProjector(A), lambda: build_preconditioner(A, cfg.l, g))
    s_pro, t_pro = _paired(lambda: classical.project(b_time), lambda: project(pre, A, b_time))

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
        **{f.name: getattr(cfg, f.name) for f in fields(TrialConfig)},
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


def emit_csv(rows):
    """Full-fidelity CSV: header of TrialRow field names, one line per row."""
    names = [f.name for f in fields(TrialRow)]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(names)
    writer.writerows([getattr(row, name) for name in names] for row in rows)
    return buffer.getvalue()


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


def emit_markdown(rows):
    """The timings table, a blank line, then the errors table; columns m, n, l, kappa, then data."""
    tables = []
    for columns in _MD_TABLES.values():
        header = ["m", "n", "l", "kappa"] + [label for _, label in columns]
        lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
        for row in rows:
            cells = [str(row.m), str(row.n), str(row.l), f"{row.kappa:.0e}"]
            cells += [f"{getattr(row, name):.2e}" for name, _ in columns]
            lines.append("| " + " | ".join(cells) + " |")
        tables.append("\n".join(lines) + "\n")
    return "\n".join(tables)


def main(argv=None):
    """CLI entry point; returns the process exit code.

    0 on success, 2 on usage/configuration errors and an unwritable `--out`,
    1 on numerical failure.
    """
    parser = argparse.ArgumentParser(
        prog="nullproj-bench",
        description=(
            "Benchmark classical vs randomized null-space projection on synthetic matrices. "
            f"Each timing is the median of {_PAIRS} warm classical/randomized pairs, alternating "
            "which side goes first, after one untimed call of each."
        ),
    )
    # the trial flags set only what is given, so the defaults are TrialConfig's
    trial = parser.add_argument_group("trial configuration", argument_default=argparse.SUPPRESS)
    trial.add_argument("--m", type=int, required=True, help="rows of the test operator")
    trial.add_argument("--n", type=int, required=True, help="columns (a multiple of m)")
    trial.add_argument("--l", type=int, help="sketch width (default m+4)")
    trial.add_argument("--kappa", type=float, required=True, help="target condition number (> 1)")
    trial.add_argument("--matrix", dest="matrix_kind", choices=_FAMILIES)
    trial.add_argument("--rng", dest="rng_kind", choices=_STREAMS, help="sketch entry stream")
    trial.add_argument("--trials", type=int, help="random unit vectors per error max")
    trial.add_argument("--seed", type=int)
    trial.add_argument(
        "--refine",
        dest="refine_iters",
        metavar="REFINE",
        type=int,
        help="refinement iterations per projection",
    )
    output = parser.add_argument_group("output")
    output.add_argument("--format", choices=("csv", "md"), default="csv", help="md: two tables")
    output.add_argument("--out", default=None, help="output file (default stdout)")
    args = vars(parser.parse_args(argv))
    format, out = args.pop("format"), args.pop("out")

    try:
        config = TrialConfig(**args)
    except NullProjError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2

    try:
        row = run_trial(config)
        text = emit_csv([row]) if format == "csv" else emit_markdown([row])
    except NullProjError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1

    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"usage error: cannot write {out}: {exc.strerror}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
