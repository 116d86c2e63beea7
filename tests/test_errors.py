"""The integer rule of `nullproj.errors`: every size, width, column length,
seed, count and index array a caller passes is a Python or numpy integer,
or the call raises ConfigurationError naming the argument; nothing is
truncated, and a seed is also nonnegative.  The real-number rule: kappa,
the shift d, alpha and beta are finite real numbers above their bounds, or
the call raises its site's error naming the argument."""

import ast
import dataclasses
import functools
import pathlib
import re

import numpy as np
import pytest

from nullproj import (
    ConfigurationError,
    DomainError,
    GaussianStream,
    LinearOperator,
    Preconditioner,
    SparseTestMatrix,
    TrialConfig,
    TripletMatrix,
    UniformLaggedFibonacci,
    build_preconditioner,
    build_sketch,
    cond_bound,
    default_sketch_width,
    densify,
    error_metrics,
    make_dense_test,
    make_sparse_test,
    pi_minus,
    pi_plus,
    pi_zero,
    pi_zero_floor,
    refine_lstsq,
    solve_lstsq,
)
from nullproj.dense_core import PermutedFactor


def scalar(k):
    """(fractional float, integral float, Python int, numpy int) forms of the integer k."""
    return 2.5, float(k), k, np.int64(k)


def index_array(values):
    """The same four forms of an index array; the numpy one is int32, so it must be converted."""
    return np.add(values, 0.5), np.array(values, dtype=float), list(values), np.int32(values)


@functools.cache
def built():
    A = make_sparse_test(8, 32, 100.0, seed=2)
    pre = build_preconditioner(A, 12, UniformLaggedFibonacci(3))
    b = np.ones(32) / np.sqrt(32)
    return A, pre, b, solve_lstsq(pre, A, b)


def preconditioner(**changed):
    _, pre, _, _ = built()
    fields = dict(R=pre.R, perm=pre.perm, Y=pre.Y, l=12, m=8, n=32, build_apply_counts=(20, 8))
    p = Preconditioner(**{**fields, **changed})
    return p.l, p.m, p.n, p.R, p.perm, p.Y


def refined(iterations):
    A, pre, b, h = built()
    return refine_lstsq(pre, A, b, h, iterations)


FACTOR_R = np.triu(np.ones((4, 4))) + 3.0 * np.eye(4)


def case(entry_point, name, call, forms):
    """One entry point: the argument's name as its messages start, a call taking it, its forms."""
    return pytest.param(name, call, forms, id=entry_point)


CASES = [
    case("LinearOperator m", "m", lambda v: LinearOperator(v, 8).shape, scalar(4)),
    case("LinearOperator n", "n", lambda v: LinearOperator(4, v).shape, scalar(8)),
    case("make_sparse_test m", "m", lambda v: densify(make_sparse_test(v, 16, 1e4, 0)), scalar(8)),
    case("make_sparse_test n", "n", lambda v: densify(make_sparse_test(4, v, 1e4, 0)), scalar(16)),
    case("make_dense_test n", "n", lambda v: densify(make_dense_test(4, v, 1e4, 0)), scalar(12)),
    case("make_sparse_test seed", "seed", lambda v: densify(make_sparse_test(4, 8, 1e4, v)), scalar(7)),
    case("make_dense_test seed", "seed", lambda v: densify(make_dense_test(4, 8, 1e4, v)), scalar(7)),
    case(
        "SparseTestMatrix row_perm",
        "row_perm",
        lambda v: densify(SparseTestMatrix(1.0, v, range(8))),
        index_array([2, 0, 3, 1]),
    ),
    case(
        "SparseTestMatrix col_perm",
        "col_perm",
        lambda v: densify(SparseTestMatrix(1.0, range(4), v)),
        index_array([3, 1, 4, 0, 7, 5, 2, 6]),
    ),
    case(
        "TripletMatrix rows",
        "rows",
        lambda v: densify(TripletMatrix(2, 3, v, [2, 0], [1.0, 2.0])),
        index_array([0, 1]),
    ),
    case(
        "TripletMatrix cols",
        "cols",
        lambda v: densify(TripletMatrix(2, 3, [0, 1], v, [1.0, 2.0])),
        index_array([2, 0]),
    ),
    case(
        "lagged Fibonacci seed",
        "seed",
        lambda v: UniformLaggedFibonacci(v).fill_column(5),
        scalar(7),
    ),
    case("Gaussian seed", "seed", lambda v: GaussianStream(v).fill_column(5), scalar(7)),
    case(
        "Gaussian seed with a base",
        "seed",
        lambda v: GaussianStream(v, base=UniformLaggedFibonacci(7)).fill_column(5),
        scalar(7),
    ),
    case(
        "lagged Fibonacci fill_column",
        "column length",
        lambda v: UniformLaggedFibonacci(1).fill_column(v),
        scalar(8),
    ),
    case(
        "Gaussian fill_column",
        "column length",
        lambda v: GaussianStream(1).fill_column(v),
        scalar(8),
    ),
    case("default_sketch_width m", "m", lambda v: default_sketch_width(v), scalar(8)),
    case("default_sketch_width n", "n", lambda v: default_sketch_width(8, v), scalar(10)),
    case(
        "build_sketch l",
        "sketch width",
        lambda v: build_sketch(make_sparse_test(8, 32, 100.0, 0), v, UniformLaggedFibonacci(2)),
        scalar(12),
    ),
    case("Preconditioner l", "sketch width", lambda v: preconditioner(l=v), scalar(12)),
    case("Preconditioner m", "m", lambda v: preconditioner(m=v), scalar(8)),
    case("Preconditioner n", "n", lambda v: preconditioner(n=v), scalar(32)),
    case("refine_lstsq iterations", "iterations", refined, scalar(2)),
    case(
        "PermutedFactor perm",
        "perm",
        lambda v: PermutedFactor(FACTOR_R, v).solve(np.arange(4.0)),
        index_array([2, 0, 3, 1]),
    ),
    case("pi_plus l", "l", lambda v: pi_plus(v, 2.0), scalar(8)),
    case("pi_minus l", "l", lambda v: pi_minus(v, 4, 3.0), scalar(8)),
    case("pi_minus m", "m", lambda v: pi_minus(8, v, 3.0), scalar(4)),
    case("pi_zero l", "l", lambda v: pi_zero(v, 4, 2.0, 3.0), scalar(8)),
    case("pi_zero m", "m", lambda v: pi_zero(8, v, 2.0, 3.0), scalar(4)),
    case("pi_zero_floor l", "l", lambda v: pi_zero_floor(v, 4, 2.0, 3.0), scalar(8)),
    case("pi_zero_floor m", "m", lambda v: pi_zero_floor(8, v, 2.0, 3.0), scalar(4)),
    case("cond_bound l", "l", lambda v: cond_bound(v, 2.0, 3.0), scalar(10)),
] + [
    case(
        f"TrialConfig {field}",
        "sketch width" if field == "l" else field,
        lambda v, field=field: dataclasses.astuple(
            TrialConfig(**{"m": 8, "n": 64, "kappa": 1e4, field: v})
        ),
        scalar(k),
    )
    for field, k in {"m": 8, "n": 64, "l": 12, "trials": 3, "seed": 3, "refine_iters": 2}.items()
]


def exact(value):
    """A value's exact content: dtype, shape and bytes of an array; type and bytes of a scalar."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, tuple):
        return tuple(exact(v) for v in value)
    return type(value), np.asarray(value).tobytes()


@pytest.mark.parametrize("name, call, forms", CASES)
def test_integer_arguments_follow_one_rule(name, call, forms):
    fractional, integral_float, python_int, numpy_int = forms
    for bad in (fractional, integral_float, True):
        with pytest.raises(ConfigurationError, match=f"^{name} must be"):
            call(bad)
    assert exact(call(numpy_int)) == exact(call(python_int))


def test_integer_rule_has_one_owner():
    # Only errors.py converts a caller's integers: no other module calls
    # operator.index, sorts an array to test a permutation or converts to
    # intp, so the rule and its messages change in one place.  Parsing text
    # (np.intp(int(token))) is not a conversion of a caller's integer.
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "nullproj"

    def is_intp(node):
        return isinstance(node, ast.Attribute) and node.attr == "intp"

    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = (getattr(getattr(node, "value", None), "id", None), getattr(node, "attr", None))
            found = (
                name in {("operator", "index"), ("np", "argsort"), ("np", "sort")}
                or (isinstance(node, ast.ImportFrom) and node.module == "operator")
                or (isinstance(node, ast.keyword) and node.arg == "dtype" and is_intp(node.value))
                or (
                    isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) == "astype"
                    and any(is_intp(arg) for arg in node.args)
                )
            )
            if found:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


# every entry point that takes a seed: one seed rule, a nonnegative integer
SEED_SITES = {
    "make_sparse_test": lambda v: make_sparse_test(4, 8, 1e4, v),
    "make_dense_test": lambda v: make_dense_test(4, 8, 1e4, v),
    "UniformLaggedFibonacci": UniformLaggedFibonacci,
    "GaussianStream": GaussianStream,
    "GaussianStream with a base": lambda v: GaussianStream(v, base=UniformLaggedFibonacci(7)),
    "TrialConfig": lambda v: TrialConfig(m=8, n=64, kappa=1e4, seed=v),
}


def test_every_seed_entry_point_follows_one_rule():
    for call in SEED_SITES.values():
        call(0)
        for bad in (None, True, 2.5, 7.0, "7", np.array(3.0), [1, 2], -1):
            with pytest.raises(ConfigurationError, match="^seed must be"):
                call(bad)


@pytest.mark.parametrize(
    "call",
    [
        lambda: pi_minus(8, None, 3.0),
        lambda: pi_zero(8, None, 2.0, 3.0),
        lambda: pi_zero_floor(8, None, 2.0, 3.0),
    ],
    ids=["pi_minus", "pi_zero", "pi_zero_floor"],
)
def test_bound_formulas_refuse_a_missing_m(call):
    with pytest.raises(ConfigurationError, match="^m must be an integer"):
        call()


def sparse_block(d):
    """The shift a two-block sparse operator keeps."""
    return SparseTestMatrix(d, range(4), range(8)).d


def metrics(kappa):
    """Error metrics of a projection that subtracts the mean, normalized by kappa."""
    A, _, b, _ = built()
    return error_metrics(A, lambda v: v - v.mean(), b, kappa, "x")


# entry point: (the argument's name as its message starts, its bound, the
# site's error, a call taking it, a value the call accepts)
REAL_SITES = {
    "make_sparse_test kappa": (
        "kappa", 1, ConfigurationError, lambda v: make_sparse_test(8, 16, v, 0), 1e4
    ),
    "TrialConfig kappa": (
        "kappa", 1, ConfigurationError, lambda v: TrialConfig(m=8, n=64, kappa=v), 1e4
    ),
    "SparseTestMatrix d": ("diagonal shift d", 0, ConfigurationError, sparse_block, 0.5),
    "pi_plus alpha": ("alpha", 1, DomainError, lambda v: pi_plus(8, v), 2.0),
    "pi_zero alpha": ("alpha", 1, DomainError, lambda v: pi_zero(8, 4, v, 3.0), 2.0),
    "pi_zero_floor alpha": ("alpha", 1, DomainError, lambda v: pi_zero_floor(8, 4, v, 3.0), 2.0),
    "cond_bound alpha": ("alpha", 1, DomainError, lambda v: cond_bound(8, v, 3.0), 2.0),
    "pi_minus beta": ("beta", 0, DomainError, lambda v: pi_minus(8, 4, v), 3.0),
    "pi_zero beta": ("beta", 0, DomainError, lambda v: pi_zero(8, 4, 2.0, v), 3.0),
    "pi_zero_floor beta": ("beta", 0, DomainError, lambda v: pi_zero_floor(8, 4, 2.0, v), 3.0),
    "cond_bound beta": ("beta", 0, DomainError, lambda v: cond_bound(8, 2.0, v), 3.0),
    "error_metrics kappa": ("kappa", 0, DomainError, metrics, 100.0),
}

# form: the refused value, from the argument's bound and a value the call accepts
REAL_FORMS = {
    "str": lambda above, good: "1e4",
    "None": lambda above, good: None,
    "complex": lambda above, good: 1j,
    "bool": lambda above, good: True,
    "NaN": lambda above, good: float("nan"),
    "+inf": lambda above, good: float("inf"),
    "-inf": lambda above, good: float("-inf"),
    "the bound": lambda above, good: above,
    "0-d array": lambda above, good: np.array(good),
}


@pytest.mark.parametrize("form", REAL_FORMS)
def test_real_numbers_follow_one_rule(form):
    for name, above, error, call, good in REAL_SITES.values():
        call(good)
        bad = REAL_FORMS[form](above, good)
        message = f"^{re.escape(name)} must be a finite real number above {above}, got "
        with pytest.raises(error, match=message):
            call(bad)


def test_real_number_rule_has_one_owner():
    # Only errors.py decides whether a caller's real number is acceptable: no
    # other module imports numbers, reads sys.float_info or compares a value
    # against np.inf, so the rule and its message change in one place.
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "nullproj"

    def is_np_inf(node):
        return isinstance(node, ast.Attribute) and node.attr == "inf"

    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            found = (
                (isinstance(node, ast.Import) and any(a.name == "numbers" for a in node.names))
                or (isinstance(node, ast.ImportFrom) and node.module == "numbers")
                or (isinstance(node, ast.Attribute) and node.attr == "float_info")
                or (
                    isinstance(node, ast.Compare)
                    and any(is_np_inf(side) for side in (node.left, *node.comparators))
                )
            )
            if found:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
