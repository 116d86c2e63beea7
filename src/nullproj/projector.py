"""Row-space / null-space projections and the associated least squares solve.

The randomized path applies seven cheap steps per vector: one apply of A,
the adjoint permuted solve P^-1 (a permutation and a triangular solve), one
small matvec with Y, the permuted solve (P*)^-1 (a triangular solve and a
permutation), and one apply of A*.  Steps 2-6 run as two triangular
solves with one factor, the chain's U Pi: Y = L^-* L^-1 for the Cholesky
factor L of the preconditioned Gram matrix, so with U = L* R,
(P*)^-1 Y P^-1 = (U Pi)^-1 (U Pi)^-*, the adjoint solve with U Pi (a
gather and forward substitution) followed by its solve (back
substitution and a scatter), with no m-by-m matvec.  A A* is never
formed and cond(U) = cond(A), not its square: these are the seminormal
equations with the R factor of A* that a randomized Cholesky-QR gives.
The build forms U; the chain's `dense_core.PermutedFactor`, the one
factor a preconditioner holds, owns U, perm and the inverses of U's
diagonal blocks (a partitioned inverse, never an inverse of U or of
anything Gram-like), so no projection calls LAPACK.  Each
triangular solve is one BLAS product per 64 rows with the factor's
fused steps, which both solves share: the first projection builds them
and every later one reuses them (`dense_core` says how).  No
preconditioner holds a factor of R.
The classical normal-equations path is kept as a baseline: it factors
A A* with LAPACK's unpivoted Householder QR, squares the condition
number and loses accuracy exactly the way the benchmark tables show.
"""

from dataclasses import dataclass

import numpy as np

from .dense_core import PermutedFactor
from .errors import DimensionError, DomainError, all_finite, as_index, as_real


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
    b = as_real(b, name)
    if b.shape != (n,):
        raise DimensionError(f"{name} must have length {n}, got shape {b.shape}")
    if not all_finite(b):
        raise DomainError(f"{name} must be finite, got a NaN or infinite entry")
    return b


def _solve_chain(pre, c):
    """Steps 2-6: h = (P*)^-1 Y P^-1 c for c = A b, as the two solves of U Pi."""
    f = pre._chain
    return f.solve(f.solve_adjoint(c))


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
    chain and adds the correction, reusing the chain's factor U Pi;
    per-iteration cost is one apply of A plus one of A*.
    """
    _check_pair(pre, A)
    iterations = as_index(iterations, "iterations", least=0)
    b = _check_vector(b, pre.n)
    h = _check_vector(h, pre.m, "h").copy()
    for _ in range(iterations):
        r = b - A.apply_adjoint(h)
        h = h + _solve_chain(pre, A.apply(r))
    return h


class ClassicalProjector:
    """Normal-equations baseline: cache the QR of A A*, then project.

    Setup applies A* to each unit vector and A to the result (m applies
    of each), writing column k of A A* over row k of one identity, and
    factors A A* = Q R with LAPACK's unpivoted Householder QR
    (`np.linalg.qr`); it holds Q and the `PermutedFactor` of R with the
    identity permutation.  Every projection then costs one apply of A,
    one of A*, a matvec with Q* and one triangular solve.  Deliberately
    reproduces the unstable classical scheme, so expect garbage when
    kappa(A)^2 passes 1/eps, returned rather than raised.
    An exactly singular A A*, such as from a zero row k of A, raises
    `SingularFactorError` at index k.  A NaN or infinite operator output
    raises `DomainError` from the apply that returned it.
    """

    def __init__(self, A):
        G = np.eye(A.shape[0])
        for k, e in enumerate(G):
            G[k] = A.apply(A.apply_adjoint(e))  # e is row k, read before it is written
        Q, R = np.linalg.qr(G.T)
        self.A = A
        self._factor = PermutedFactor(R, np.arange(len(R)))
        self._Q = Q

    def project(self, b):
        A = self.A
        b = _check_vector(b, A.shape[1])
        # A A* = Q R
        x = self._factor.solve(self._Q.T @ A.apply(b))
        row = A.apply_adjoint(x)
        return ProjectionResult(row_projection=row, null_projection=b - row, lstsq_solution=x)
