"""The realness rule of `nullproj.errors`: a complex vector handed to an
operator or a projection, and a complex operator output, raise `DomainError`
through `as_real` before any float conversion could drop their imaginary
parts; each site's message names what was complex."""

import re

import numpy as np
import pytest

from nullproj import (
    ClassicalProjector,
    DomainError,
    LinearOperator,
    Preconditioner,
    densify,
    make_sparse_test,
    project,
    refine_lstsq,
    solve_lstsq,
)

M, N = 4, 8


class Returns(LinearOperator):
    """An M-by-N operator whose A x and A* y are copies of the arrays it was given."""

    def __init__(self, ax=None, aty=None):
        super().__init__(M, N)
        self.ax = np.ones(M) if ax is None else ax
        self.aty = np.ones(N) if aty is None else aty

    def _apply_impl(self, x):
        return self.ax.copy()

    def _apply_adjoint_impl(self, y):
        return self.aty.copy()


def preconditioner():
    return Preconditioner(
        R=np.eye(M), perm=np.arange(M), Y=np.eye(M), l=M, m=M, n=N, build_apply_counts=(0, 0)
    )


# site: (length of the complex vector, call that refuses it, the DomainError text)
SITES = {
    "A x": (M, lambda a: Returns(ax=a).apply(np.ones(N)), "the operator's A x"),
    "A* y": (N, lambda a: Returns(aty=a).apply_adjoint(np.ones(M)), "the operator's A* y"),
    "densify": (M, lambda a: densify(Returns(ax=a)), "the operator's A x"),
    "apply input": (N, lambda a: Returns().apply(a), "the input of apply"),
    "apply_adjoint input": (M, lambda a: Returns().apply_adjoint(a), "the input of apply_adjoint"),
    "project b": (N, lambda a: project(preconditioner(), Returns(), a), "b"),
    "solve_lstsq b": (N, lambda a: solve_lstsq(preconditioner(), Returns(), a), "b"),
    "refine_lstsq b": (N, lambda a: refine_lstsq(preconditioner(), Returns(), a, np.ones(M)), "b"),
    "refine_lstsq h": (M, lambda a: refine_lstsq(preconditioner(), Returns(), np.ones(N), a), "h"),
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


def test_classical_projector_refuses_a_complex_b():
    classical = ClassicalProjector(make_sparse_test(8, 32, 100.0, seed=3))
    with pytest.raises(DomainError, match="^b must be real, got a complex array$"):
        classical.project(complex_vector(32, "middle"))


@pytest.mark.parametrize("dtype", [np.int64, np.float32, bool])
def test_real_outputs_of_any_dtype_come_back_as_floats(dtype):
    out = Returns(ax=np.ones(M, dtype=dtype)).apply(np.ones(N))
    assert out.dtype == np.float64
    assert np.array_equal(out, np.ones(M))
