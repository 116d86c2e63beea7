"""Small dense kernels: pivoted Householder QR, triangular solves, inversion.

These run on matrices whose side is the short dimension m of the operator.
The triangular solves recurse by halving, so the bulk of a matrix
right-hand side's work is one matrix product per level and only a small
base case runs row by row in the interpreter.  The QR keeps its
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
# rows, then substitutes row by row.  With a single right-hand side every row
# costs one interpreter step however the solve is split, so halving only adds
# calls; it pays once each row carries many columns of work.
_BASE_ROWS_VECTOR = 128
_BASE_ROWS_MATRIX = 16


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
    """Checked float factor and a 2-D float copy of the right-hand side to solve in place."""
    R = np.asarray(R, dtype=float)
    _check_factor(R)
    x = np.array(rhs, dtype=float)
    vec = x.ndim == 1
    if vec:
        x = x[:, None]
    if x.shape[0] != R.shape[0]:
        raise DimensionError(
            f"right-hand side length {x.shape[0]} does not match factor size {R.shape[0]}"
        )
    base = _BASE_ROWS_VECTOR if x.shape[1] == 1 else _BASE_ROWS_MATRIX
    return R, x, vec, base


def _back_substitute(R, x, lo, hi, base):
    """Overwrite x[lo:hi] with the solution of R[lo:hi, lo:hi] g = x[lo:hi]."""
    if hi - lo > base:
        mid = (lo + hi) // 2
        _back_substitute(R, x, mid, hi, base)
        x[lo:mid] -= R[lo:mid, mid:hi] @ x[mid:hi]
        _back_substitute(R, x, lo, mid, base)
        return
    for k in range(hi - 1, lo - 1, -1):
        x[k] /= R[k, k]
        if k > lo:
            x[lo:k] -= R[lo:k, k, None] * x[k]


def _forward_substitute(R, x, lo, hi, base):
    """Overwrite x[lo:hi] with the solution of R[lo:hi, lo:hi]* e = x[lo:hi]."""
    if hi - lo > base:
        mid = (lo + hi) // 2
        _forward_substitute(R, x, lo, mid, base)
        x[mid:hi] -= R[lo:mid, mid:hi].T @ x[lo:mid]
        _forward_substitute(R, x, mid, hi, base)
        return
    for k in range(lo, hi):
        x[k] /= R[k, k]
        if k + 1 < hi:
            x[k + 1 : hi] -= R[k, k + 1 : hi, None] * x[k]


def solve_upper(R, y):
    """Solve R g = y by blocked back substitution; accepts vector or matrix right-hand sides."""
    R, x, vec, base = _prepare_solve(R, y)
    _back_substitute(R, x, 0, R.shape[0], base)
    return x[:, 0] if vec else x


def solve_upper_adjoint(R, d):
    """Solve R* e = d by blocked forward substitution (R upper-triangular)."""
    R, x, vec, base = _prepare_solve(R, d)
    _forward_substitute(R, x, 0, R.shape[0], base)
    return x[:, 0] if vec else x


def invert_small(X):
    """Invert a small symmetric positive definite matrix.

    Cholesky first (the intended path), partially pivoted LU as a fallback
    for inputs that are only numerically SPD.  The result is symmetrized,
    so Y == Y.T holds exactly.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise DimensionError(f"invert_small expects a square matrix, got shape {X.shape}")
    m = X.shape[0]
    try:
        L = np.linalg.cholesky(X)
        Rc = L.T
        W = solve_upper_adjoint(Rc, np.eye(m))  # L W = I
        Y = solve_upper(Rc, W)  # L* Y = W
    except np.linalg.LinAlgError:
        try:
            Y = np.linalg.inv(X)
        except np.linalg.LinAlgError as exc:
            raise FactorizationError(f"matrix of size {m} is singular: {exc}") from exc
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
