"""The finiteness rule of `nullproj.errors`: every check that an array holds
no NaN or infinite entry is one call of `all_finite`, which allocates no
mask and cannot overflow; each caller keeps its own `DomainError` text."""

import ast
import pathlib
import re

import numpy as np
import pytest

from nullproj import DomainError, densify, invert_small, project
from nullproj.dense_core import PermutedFactor, svd_dense
from nullproj.errors import all_finite

from helpers import FAKE_SHAPE, Returns, identity_preconditioner

M, N = FAKE_SHAPE


# site: (shape of the checked array, call that checks it, the DomainError text)
SITES = {
    "A x": (
        (M,),
        lambda a: Returns(ax=a).apply(np.ones(N)),
        "the operator's A x holds a NaN or infinite entry",
    ),
    "A* y": (
        (N,),
        lambda a: Returns(aty=a).apply_adjoint(np.ones(M)),
        "the operator's A* y holds a NaN or infinite entry",
    ),
    "densify": (
        (M,),
        lambda a: densify(Returns(ax=a)),
        "the operator's A x holds a NaN or infinite entry",
    ),
    "b": (
        (N,),
        lambda a: project(identity_preconditioner(), Returns(), a),
        "b must be finite, got a NaN or infinite entry",
    ),
    "Y": (
        (M, M),
        lambda a: identity_preconditioner(Y=a),
        "Y must be finite, got a NaN or infinite entry",
    ),
    "R": (
        (M, M),
        lambda a: PermutedFactor(a, np.arange(M)),
        "R must be finite, got a NaN or infinite entry",
    ),
    "invert_small": (
        (M, M),
        invert_small,
        "invert_small needs a finite matrix, got a NaN or infinite entry",
    ),
    "svd_dense": (
        (M, M),
        svd_dense,
        "svd_dense needs a finite matrix, got a NaN or infinite entry",
    ),
}


def with_entry(shape, where, value):
    """An array of `shape`, the identity for a matrix and ones for a vector, with one entry set.

    `where` picks the first, a middle or the last entry in memory order.
    """
    arr = np.eye(shape[0]) if len(shape) == 2 else np.ones(shape)
    arr.flat[{"first": 0, "middle": arr.size // 2, "last": arr.size - 1}[where]] = value
    return arr


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("site", SITES)
def test_nonfinite_entry_is_a_domain_error_at_every_check(site, bad, where):
    shape, call, message = SITES[site]
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call(with_entry(shape, where, bad))


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("extreme", [1.7e308, -1.7e308, 5e-324, -5e-324])
@pytest.mark.parametrize("site", ["A x", "A* y", "densify", "b", "R"])
def test_extreme_finite_entries_pass_every_check(site, extreme, where):
    # warnings are errors in this suite, so a check that overflowed on
    # large finite entries would fail here too.  "Y" and "invert_small" are
    # not sites here: each inverts the matrix after its check, and most of
    # these matrices are not symmetric positive definite or have an inverse
    # that overflows
    shape, call, _ = SITES[site]
    call(with_entry(shape, where, extreme))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.7e308, 5e-324])
def test_all_finite_reads_every_axis_and_views(bad):
    # a reduction over axis 0 only would see a row of an m-by-m array,
    # and a strided view must be read without a copy's help
    for arr in (np.zeros((5, 5)), np.zeros((6, 6))[1:, ::2], np.zeros((5, 5), order="F")):
        for index in np.ndindex(arr.shape):
            arr[index] = bad
            assert all_finite(arr) is bool(np.isfinite(bad))
            arr[index] = 0.0
    assert all_finite(np.zeros(0))


@pytest.mark.parametrize("extreme", [1.7e308, -1.7e308])
def test_all_finite_cannot_overflow(extreme):
    # a sum or a dot product of these entries overflows with a RuntimeWarning,
    # which this suite turns into an error
    assert all_finite(np.full((5, 5), extreme))


def test_finiteness_rule_has_one_owner():
    # Only errors.all_finite tests a whole array for NaN or infinite entries:
    # np.isfinite(x).all() or .any(), or np.all/np.any of np.isfinite(x),
    # would allocate a mask as large as x.
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "nullproj"

    def is_isfinite(node):
        return isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "isfinite"

    offenders = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "attr", getattr(func, "id", None))
            reduced = name in ("all", "any") and is_isfinite(getattr(func, "value", None))
            wrapped = name in ("all", "any") and any(is_isfinite(arg) for arg in node.args)
            if reduced or wrapped:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
