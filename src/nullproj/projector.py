"""Row-space / null-space projections and the associated least squares solve.

The randomized path applies seven cheap steps per vector: one apply of A,
the adjoint permuted solve P^-1 (a permutation and a triangular solve), one
small matvec with Y, the permuted solve (P*)^-1 (a triangular solve and a
permutation), and one apply of A*.  The classical normal-equations path is
kept as a baseline: it squares the condition number and loses accuracy
exactly the way the benchmark tables show.
"""

from dataclasses import dataclass

import numpy as np

from .dense_core import qr_pivoted, solve_upper_permuted, solve_upper_permuted_adjoint
from .errors import ConfigurationError, DimensionError, DomainError, FactorizationError
from .linop import apply_gram


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
    if not np.isfinite(b).all():
        raise DomainError(f"{name} must be finite, got a NaN or infinite entry")
    return b


def _solve_chain(pre, c):
    """Steps 2-6: h = (P*)^-1 Y P^-1 c for c = A b, each factor applied on its own."""
    return solve_upper_permuted(pre.R, pre.perm, pre.Y @ solve_upper_permuted_adjoint(pre.R, pre.perm, c))


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
    h = _check_vector(np.array(h, dtype=float), pre.m, "h")
    for _ in range(iterations):
        r = b - A.apply_adjoint(h)
        h = h + _solve_chain(pre, A.apply(r))
    return h


class ClassicalProjector:
    """Normal-equations baseline: cache A A* and its pivoted QR, then project.

    Setup applies A* to each unit vector and A to the result (m applies
    of each); afterwards every projection costs one apply of A, one of
    A*, a matvec with Q* and one triangular solve.  Deliberately
    reproduces the unstable classical scheme, so expect garbage when
    kappa(A)^2 passes 1/eps.  A NaN or infinite operator output raises
    `DomainError` from the apply that returned it.
    """

    def __init__(self, A):
        qr = qr_pivoted(apply_gram(A, np.eye(A.shape[0])))
        if (np.diag(qr.R) == 0.0).any():
            raise FactorizationError("A A* is exactly singular; cannot build the classical projector")
        self.A = A
        self._R = qr.R
        self._Q = qr.Q  # formed now, so setup rather than the first projection pays for it
        self._perm = qr.perm

    def project(self, b):
        A = self.A
        b = _check_vector(b, A.shape[1])
        x = solve_upper_permuted(self._R, self._perm, self._Q.T @ A.apply(b))  # A A* = Q R Pi
        row = A.apply_adjoint(x)
        return ProjectionResult(row_projection=row, null_projection=b - row, lstsq_solution=x)
