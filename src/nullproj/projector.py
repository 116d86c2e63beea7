"""Row-space / null-space projections and the associated least squares solve.

The randomized path applies seven cheap steps per vector (one apply of A,
two permutations, two triangular solves, one small matvec, one apply of
A*).  The classical normal-equations path is kept as a baseline: it squares
the condition number and loses accuracy exactly the way the benchmark
tables show.
"""

from dataclasses import dataclass

import numpy as np

from .dense_core import qr_pivoted, solve_upper, solve_upper_adjoint
from .errors import ConfigurationError, DimensionError, FactorizationError


@dataclass
class ProjectionResult:
    """Projections of one vector b: onto the row space, onto the null space,
    and the coefficient vector h minimizing ||A* h - b||.

    The null projection is computed as b minus the row projection, so the
    two always sum back to b; the row projection is A* applied to h.
    """

    row_projection: np.ndarray
    null_projection: np.ndarray
    lstsq_solution: np.ndarray


def _check_pair(pre, A):
    if (pre.m, pre.n) != A.shape:
        raise DimensionError(
            f"preconditioner was built for a {pre.m}x{pre.n} operator, got {A.shape[0]}x{A.shape[1]}"
        )


def _check_vector(b, n, name="b"):
    b = np.asarray(b, dtype=float)
    if b.shape != (n,):
        raise DimensionError(f"{name} must have length {n}, got shape {b.shape}")
    return b


def _solve_chain(pre, c):
    """Steps 2-6: h = (P*)^-1 Y P^-1 c for c = A b."""
    d = c[pre.perm]
    e = solve_upper_adjoint(pre.R, d)
    f = pre.Y @ e
    g = solve_upper(pre.R, f)
    h = np.empty_like(g)
    h[pre.perm] = g
    return h


def project(pre, A, b):
    """Project b onto the row space and null space of A (seven-step procedure).

    Costs exactly one apply of A, one apply of A*, and O(m^2) dense work.
    """
    _check_pair(pre, A)
    b = _check_vector(b, pre.n)
    c = A.apply(b)
    h = _solve_chain(pre, c)
    row = A.apply_adjoint(h)
    return ProjectionResult(row_projection=row, null_projection=b - row, lstsq_solution=h)


def solve_lstsq(pre, A, b):
    """The h minimizing ||A* h - b|| (steps 1-6; one apply of A)."""
    _check_pair(pre, A)
    b = _check_vector(b, pre.n)
    return _solve_chain(pre, A.apply(b))


def refine_lstsq(pre, A, b, h, iterations=1):
    """Iteratively refine a least-squares solution h.

    Each iteration feeds the residual b - A* h back through the solve
    chain and adds the correction, reusing the already-built (R, perm, Y);
    per-iteration cost is one apply of A plus one of A*.
    """
    _check_pair(pre, A)
    if iterations < 0:
        raise ConfigurationError(f"iterations must be nonnegative, got {iterations}")
    b = _check_vector(b, pre.n)
    h = np.array(h, dtype=float)
    if h.shape != (pre.m,):
        raise DimensionError(f"h must have length {pre.m}, got shape {h.shape}")
    for _ in range(iterations):
        r = b - A.apply_adjoint(h)
        h = h + _solve_chain(pre, A.apply(r))
    return h


class ClassicalProjector:
    """Normal-equations baseline: cache A A* and its pivoted QR, then project.

    Setup applies A* to each unit vector and A to the result (m applies
    of each); afterwards every projection costs one apply of A, one of
    A*, and two triangular solves.  Deliberately reproduces the unstable
    classical scheme, so expect garbage when kappa(A)^2 passes 1/eps.
    """

    def __init__(self, A):
        m = A.shape[0]
        gram = np.empty((m, m))
        e = np.zeros(m)
        for k in range(m):
            e[k] = 1.0
            gram[:, k] = A.apply(A.apply_adjoint(e))
            e[k] = 0.0
        qr = qr_pivoted(gram)
        if (np.diag(qr.R) == 0.0).any():
            raise FactorizationError("A A* is exactly singular; cannot build the classical projector")
        self.A = A
        self._R = qr.R
        self._Q = qr.Q  # formed now, so setup rather than the first projection pays for it
        self._perm = qr.perm

    def _solve_gram(self, c):
        w = solve_upper(self._R, self._Q.T @ c)
        x = np.empty_like(w)
        x[self._perm] = w
        return x

    def project(self, b):
        A = self.A
        b = _check_vector(b, A.shape[1])
        x = self._solve_gram(A.apply(b))
        row = A.apply_adjoint(x)
        return ProjectionResult(row_projection=row, null_projection=b - row, lstsq_solution=x)


def classical_project(A, b):
    """One-shot normal-equations projection.

    Rebuilds the A A* factorization every call; hold a ClassicalProjector
    when projecting many vectors against the same operator.
    """
    return ClassicalProjector(A).project(b)
