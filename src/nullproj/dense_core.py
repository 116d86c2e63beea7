"""Small dense kernels: pivoted Householder QR, triangular solves, inversion.

The permuted solve pair owns the pivot convention M = R Pi of `qr_pivoted`,
so no caller indexes with the permutation itself.

These run on matrices whose side is the short dimension m of the operator.
Both triangular solves are one back-substitution kernel: it halves the
factor, so most of the work is one matrix product per level, and hands
each block of at most `_BASE_ROWS` rows to LAPACK whole; no loop over
rows runs in the interpreter.  The adjoint solve is the same kernel on
reversed views.  The QR keeps its
Householder reflectors and forms the orthonormal factor only when a
caller asks for it.  The greedy column pivoting recomputes the remaining
column norms at every step instead of downdating them; that costs an
extra O(l m^2) but cannot drift, which matters because the factorization
doubles as a rank detector.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionError, FactorizationError, SingularFactorError, SizeCapError

ORACLE_CAP = 1_000_000  # max p*q entries the dense SVD oracle accepts

_PIVOT_TIE_RTOL = 1e-15  # column norms this close count as tied; lowest index wins

# A triangular solve halves its factor until a block has at most this many
# rows, then solves the block in one LAPACK call.  Vector and matrix
# right-hand sides share it.
_BASE_ROWS = 32


@dataclass
class PivotedQR:
    """Factorization M[:, perm] = Q R with orthonormal Q and upper-triangular R.

    Equivalently M = Q R Pi for the permutation Pi acting as z -> z[perm].
    R's diagonal is nonnegative and nonincreasing in magnitude, so trailing
    near-zero entries expose rank deficiency of M.  The l-by-m factor Q is
    formed from the stored Householder reflectors on first access and
    cached; callers that need only R and perm never pay for it.
    """

    R: np.ndarray
    perm: np.ndarray
    rows: int = field(repr=False)  # l, the row count of Q
    reflectors: list = field(repr=False)  # (step, v, 2/v'v) in application order
    flip: np.ndarray = field(repr=False)  # rows of R negated to make its diagonal nonnegative

    @cached_property
    def Q(self):
        m = self.R.shape[0]
        Q = np.zeros((self.rows, m))
        Q[:m, :m] = np.eye(m)
        for k, v, coef in reversed(self.reflectors):
            Q[k:, :] -= coef * np.outer(v, v @ Q[k:, :])
        Q[:, self.flip] *= -1.0
        return Q


def qr_pivoted(M):
    """Householder QR with greedy column pivoting of an l-by-m matrix, l >= m.

    At each step the remaining column of largest Euclidean norm is chosen
    (ties within 1e-15 relative resolved toward the lower index).  The
    returned R has a nonnegative diagonal.  The l-by-m orthonormal factor
    Q is not formed here: `PivotedQR.Q` builds it from the reflectors the
    first time it is read.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise DimensionError(f"qr_pivoted expects a matrix, got ndim={M.ndim}")
    l, m = M.shape
    if l < m:
        raise DimensionError(f"qr_pivoted needs at least as many rows as columns, got {l}x{m}")

    A = M.copy()
    perm = np.arange(m)
    reflectors = []  # (step, v, 2/v'v)

    for k in range(m):
        norms = np.sqrt(np.sum(A[k:, k:] ** 2, axis=0))
        top = norms.max()
        if top == 0.0:
            break  # remaining block is exactly zero; R stays zero there
        piv = k + int(np.argmax(norms >= top * (1.0 - _PIVOT_TIE_RTOL)))
        if piv != k:
            A[:, [k, piv]] = A[:, [piv, k]]
            perm[[k, piv]] = perm[[piv, k]]

        x = A[k:, k]
        normx = np.sqrt(np.sum(x * x))
        alpha = -normx if x[0] >= 0.0 else normx
        v = x.copy()
        v[0] -= alpha
        coef = 2.0 / np.dot(v, v)
        reflectors.append((k, v, coef))
        A[k:, k + 1 :] -= coef * np.outer(v, v @ A[k:, k + 1 :])
        A[k, k] = alpha
        A[k + 1 :, k] = 0.0

    R = np.triu(A[:m, :])
    # sign convention: flip rows of R (and matching Q columns) so diag(R) >= 0
    flip = np.diag(R) < 0.0
    R[flip, :] *= -1.0
    return PivotedQR(R=R, perm=perm, rows=l, reflectors=reflectors, flip=flip)


def _check_factor(R):
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise DimensionError(f"triangular factor must be square, got shape {R.shape}")
    diag = np.diag(R)
    zero = np.flatnonzero(diag == 0.0)
    if zero.size:
        raise SingularFactorError(f"triangular factor has zero diagonal at index {zero[0]}")


def _prepare_solve(R, rhs):
    """Checked float factor and a float copy of the right-hand side to solve in place."""
    R = np.asarray(R, dtype=float)
    _check_factor(R)
    x = np.array(rhs, dtype=float)
    if x.shape[0] != R.shape[0]:
        raise DimensionError(
            f"right-hand side length {x.shape[0]} does not match factor size {R.shape[0]}"
        )
    return R, x


def _back_substitute(U, x, lo, hi):
    """Overwrite x[lo:hi] with the solution of U[lo:hi, lo:hi] g = x[lo:hi], U upper-triangular."""
    if hi - lo > _BASE_ROWS:
        mid = (lo + hi) // 2
        _back_substitute(U, x, mid, hi)
        x[lo:mid] -= U[lo:mid, mid:hi] @ x[mid:hi]
        _back_substitute(U, x, lo, mid)
        return
    # Exact substitution, not a general solve: below an upper-triangular
    # block's diagonal every entry is an exact zero, so partial pivoting never
    # swaps rows, the LU factors are L = I and U itself, and LAPACK's solve
    # reduces to back substitution.  The diagonal is nonzero by _check_factor.
    x[lo:hi] = np.linalg.solve(U[lo:hi, lo:hi], x[lo:hi])


def solve_upper(R, y):
    """Solve R g = y by blocked back substitution; accepts vector or matrix right-hand sides.

    R must be upper-triangular with exact zeros below its diagonal: the
    base blocks are read whole.
    """
    R, x = _prepare_solve(R, y)
    _back_substitute(R, x, 0, R.shape[0])
    return x


def solve_upper_adjoint(R, d):
    """Solve R* e = d (R upper-triangular); accepts vector or matrix right-hand sides.

    R* is lower-triangular, and reversing both its row and column order
    makes it upper-triangular, so this is the back substitution of
    `solve_upper` run on reversed views of R* and of the right-hand side.
    """
    R, x = _prepare_solve(R, d)
    _back_substitute(R.T[::-1, ::-1], x[::-1], 0, R.shape[0])
    return x


def solve_upper_permuted(R, perm, y):
    """Solve R x[perm] = y, that is M x = y for M = R Pi as in `qr_pivoted`.

    Back substitution, then a scatter through the permutation; accepts
    vector or matrix right-hand sides.
    """
    g = solve_upper(R, y)
    x = np.empty_like(g)
    x[perm] = g
    return x


def solve_upper_permuted_adjoint(R, perm, d):
    """Return R^-* d[perm], that is solve M* e = d for M = R Pi as in `qr_pivoted`."""
    return solve_upper_adjoint(R, np.asarray(d, dtype=float)[perm])


def invert_small(X):
    """Invert a small symmetric positive definite matrix.

    One path: the Cholesky factor X = L L*, W = L^-1 from one triangular
    solve, and Y = W* W.  The preconditioned Gram matrix this is built for
    is well conditioned by construction, so an X that is not numerically
    SPD means a broken build and raises FactorizationError.  The result is
    symmetrized, so Y == Y.T holds exactly.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise DimensionError(f"invert_small expects a square matrix, got shape {X.shape}")
    m = X.shape[0]
    try:
        L = np.linalg.cholesky(X)
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(f"matrix of size {m} is not positive definite: {exc}") from exc
    W = solve_upper_adjoint(L.T, np.eye(m))  # L W = I
    Y = W.T @ W
    # numpy happens to compute W.T @ W with a symmetric kernel (syrk), which
    # makes it exactly symmetric, but nothing documents that
    return (Y + Y.T) / 2.0


def svd_dense(M, max_entries=ORACLE_CAP):
    """Singular values (nonincreasing) and l2 condition number of a dense matrix.

    Verification oracle only; refuses inputs above the entry cap.  A zero
    smallest singular value yields an infinite condition number.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise DimensionError(f"svd_dense expects a matrix, got ndim={M.ndim}")
    if M.shape[0] * M.shape[1] > max_entries:
        raise SizeCapError(
            f"svd of a {M.shape[0]}x{M.shape[1]} matrix exceeds the cap of {max_entries} entries"
        )
    sigma = np.linalg.svd(M, compute_uv=False)
    smallest = sigma[-1]
    cond = np.inf if smallest == 0.0 else float(sigma[0] / smallest)
    return sigma, cond
