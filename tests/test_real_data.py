"""The realness rule of `nullproj.errors`: a complex vector handed to an
operator or a projection, a complex operator output, and complex
construction data of an operator, a preconditioner or a dense kernel raise
`DomainError` through `as_real` before any float conversion could drop
their imaginary parts; each site's message names what was complex.  Text
and object data are refused the same way, naming the dtype."""

import re

import numpy as np
import pytest

from nullproj import (
    ClassicalProjector,
    DenseTestMatrix,
    DomainError,
    MatrixOperator,
    Preconditioner,
    TripletMatrix,
    build_gram,
    densify,
    invert_small,
    make_sparse_test,
    project,
    qr_pivoted,
    refine_lstsq,
    solve_lstsq,
    solve_upper,
    solve_upper_adjoint,
    svd_dense,
)
from nullproj.dense_core import PermutedFactor

from helpers import FAKE_SHAPE, Returns, identity_preconditioner

M, N = FAKE_SHAPE


# site: (length of the complex vector, call that refuses it, the DomainError text)
SITES = {
    "A x": (M, lambda a: Returns(ax=a).apply(np.ones(N)), "the operator's A x"),
    "A* y": (N, lambda a: Returns(aty=a).apply_adjoint(np.ones(M)), "the operator's A* y"),
    "densify": (M, lambda a: densify(Returns(ax=a)), "the operator's A x"),
    "apply input": (N, lambda a: Returns().apply(a), "the input of apply"),
    "apply_adjoint input": (M, lambda a: Returns().apply_adjoint(a), "the input of apply_adjoint"),
    "project b": (N, lambda a: project(identity_preconditioner(), Returns(), a), "b"),
    "solve_lstsq b": (N, lambda a: solve_lstsq(identity_preconditioner(), Returns(), a), "b"),
    "refine_lstsq b": (
        N,
        lambda a: refine_lstsq(identity_preconditioner(), Returns(), a, np.ones(M)),
        "b",
    ),
    "refine_lstsq h": (
        M,
        lambda a: refine_lstsq(identity_preconditioner(), Returns(), np.ones(N), a),
        "h",
    ),
}


def complex_vector(size, where):
    """Ones as a complex vector, with 1 + 1j at the first, a middle or the last entry."""
    arr = np.ones(size, dtype=complex)
    arr[{"first": 0, "middle": size // 2, "last": size - 1}[where]] = 1 + 1j
    return arr


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("site", SITES)
def test_complex_data_is_a_domain_error_at_every_site(site, where):
    size, call, name = SITES[site]
    message = f"{name} must be real, got a complex array"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call(complex_vector(size, where))


@pytest.mark.parametrize("site", SITES)
def test_complex_dtype_is_refused_even_with_zero_imaginary_parts(site):
    # the refusal reads the dtype, so it does not depend on the values
    size, call, name = SITES[site]
    with pytest.raises(DomainError, match=f"^{re.escape(name)} must be real"):
        call(np.ones(size, dtype=complex))


@pytest.mark.parametrize("site", SITES)
def test_text_data_is_a_domain_error_at_every_site(site):
    # converting text to float would parse it as numbers
    size, call, name = SITES[site]
    message = f"{name} must be real, got an array of dtype <U1"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call(np.full(size, "1"))


def test_classical_projector_refuses_a_complex_b():
    classical = ClassicalProjector(make_sparse_test(8, 32, 100.0, seed=3))
    with pytest.raises(DomainError, match="^b must be real, got a complex array$"):
        classical.project(complex_vector(32, "middle"))


@pytest.mark.parametrize("dtype", [np.int64, np.float32, bool])
def test_real_outputs_of_any_dtype_come_back_as_floats(dtype):
    out = Returns(ax=np.ones(M, dtype=dtype)).apply(np.ones(N))
    assert out.dtype == np.float64
    assert np.array_equal(out, np.ones(M))


def with_complex_entry(arr):
    """`arr` as a complex array whose first entry has an imaginary part of 2."""
    arr = np.array(arr, dtype=complex)
    arr.flat[0] += 2j
    return arr


FACTOR = np.triu(np.arange(1.0, 17.0).reshape(M, M)) + 4.0 * np.eye(M)
TALL = np.random.default_rng(0).standard_normal((N, M))
BASE = make_sparse_test(M, N, 100.0, seed=5)
LOW_RANK_E, LOW_RANK_F = np.ones((M, 10)), np.ones((10, N))

# site: (call on the complex array, the real array it is made from, the name in the message)
CONSTRUCTION = {
    "MatrixOperator mat": (MatrixOperator, np.eye(M, N), "mat"),
    "TripletMatrix vals": (lambda a: TripletMatrix(M, N, [0, 3], [1, 7], a), [1.0, 2.0], "vals"),
    "DenseTestMatrix E": (lambda a: DenseTestMatrix(BASE, a, LOW_RANK_F), LOW_RANK_E, "E"),
    "DenseTestMatrix F": (lambda a: DenseTestMatrix(BASE, LOW_RANK_E, a), LOW_RANK_F, "F"),
    "Preconditioner R": (
        lambda a: Preconditioner(a, np.arange(M), np.eye(M), M, M, N, (0, 0)), FACTOR, "R"
    ),
    "Preconditioner Y": (
        lambda a: Preconditioner(FACTOR, np.arange(M), a, M, M, N, (0, 0)), np.eye(M), "Y"
    ),
    "build_gram R": (lambda a: build_gram(BASE, a, np.arange(M)), FACTOR, "R"),
    "qr_pivoted M": (qr_pivoted, TALL, "M"),
    "invert_small X": (invert_small, FACTOR.T @ FACTOR, "X"),
    "svd_dense M": (svd_dense, TALL, "M"),
    "solve_upper R": (lambda a: solve_upper(a, np.ones(M)), FACTOR, "R"),
    "solve_upper y": (lambda a: solve_upper(FACTOR, a), np.ones(M), "y"),
    "solve_upper_adjoint R": (lambda a: solve_upper_adjoint(a, np.ones(M)), FACTOR, "R"),
    "solve_upper_adjoint d": (lambda a: solve_upper_adjoint(FACTOR, a), np.ones(M), "d"),
    "PermutedFactor R": (lambda a: PermutedFactor(a, np.arange(M)), FACTOR, "R"),
    "PermutedFactor.solve y": (
        lambda a: PermutedFactor(FACTOR, np.arange(M)).solve(a), np.ones(M), "y"
    ),
    "PermutedFactor.solve_adjoint d": (
        lambda a: PermutedFactor(FACTOR, np.arange(M)).solve_adjoint(a), np.ones(M), "d"
    ),
}


@pytest.mark.parametrize("site", CONSTRUCTION)
def test_complex_construction_data_is_a_domain_error(site):
    # each call accepts the real array it is given, and refuses it with one complex entry
    call, real, name = CONSTRUCTION[site]
    call(real)
    message = f"{name} must be real, got a complex array"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call(with_complex_entry(real))


@pytest.mark.parametrize("site", CONSTRUCTION)
def test_object_construction_data_is_a_domain_error(site):
    # an object array of the same floats is refused by its dtype, not its values
    call, real, name = CONSTRUCTION[site]
    message = f"{name} must be real, got an array of dtype object"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call(np.array(real, dtype=object))
