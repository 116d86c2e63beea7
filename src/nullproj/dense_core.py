"""Small dense kernels: pivoted Householder QR, triangular solves, inversion.

`PermutedFactor` owns the pivoted factor M = R Pi of `qr_pivoted`: its
checks, its block inverses and both permuted solves, so no caller indexes
with the permutation or handles the block inverses itself.  The Gram
build, which runs both permuted solves around the operator's applies, is
`build_gram` here for the same reason.  The build then factors the Gram
matrix X = L L* and forms U = L* R in X's storage (`_chain_upper`), the
factor U Pi that every projection solves through.

These run on matrices whose side is the short dimension m of the operator.
Both triangular solves run on one partitioned inverse of the factor
(Higham, SISC 1995): each diagonal block of at most `_BASE_ROWS` rows is
inverted once, by one LAPACK solve against the identity, and a solve is
then the block sweep of `_substitute`: per block row, one BLAS product
with the already-solved part and one with the block's inverse; no loop
over rows runs in the interpreter.  The adjoint solve sweeps the
other way on forward views of the same factor.  A `PermutedFactor` held
for many solves keeps its block inverses, so its solves make no LAPACK
call.  The block sweep holds nothing beyond the block inverses and one
block row's products.  The one-off public solves run it, since they
would build fused steps for one use, and so does `build_gram`, in place
on its one m-by-m array, so a build holds no fused steps.

A `PermutedFactor` solves every right-hand side, vector or matrix, in
fused steps: rows a:c of `_FUSED_ROWS` hold
Z = R[a:c, a:c]^-1 [I | -R[a:c, c:]], the matching rows of R's
partitioned inverse composed with the off-diagonal part of R, so each
step is one product, in place of two products and two slice updates per
`_BASE_ROWS` block.  The back solve runs them bottom to top,
x[a:c] = Z x[a:], and the adjoint solve top to bottom on Z transposed.
Each Z is the block sweep run on [I | -R[a:c, c:]], so LAPACK still
inverts only the `_BASE_ROWS` blocks.  A factor builds the steps at its
first solve and keeps them, at most m^2 / 2 + 32 m doubles.

Ownership: the substitution kernel `_substitute` overwrites the array it
is given, and so do the private `_cholesky`, `_chain_upper` and
`_qr_pivoted_rows`, so a caller that owns a fresh array, such as the
Gram matrix or the sketch, hands it over without a copy.  `build_gram`
makes one m-by-m array, the identity, sweeps, permutes and applies
inside it, and returns it as the Gram matrix, which `_chain_upper` then
turns into U.  The public
functions and both `PermutedFactor` solves never write their input: the
solves sweep a fresh array (a copy of y, the gather d[perm]), and
`qr_pivoted`, `solve_upper`, `solve_upper_adjoint` and `invert_small`
copy their input once at their boundary, so the caller's arrays may be
read-only.  A `PermutedFactor` holds R without copying it, and its own
copy of perm, as every object that keeps an index array does.

The QR factors `_PANEL` columns at a time and updates the rest of the
matrix with one matrix product per panel; it keeps its Householder
vectors in LAPACK's compact layout and forms the orthonormal factor only
when a caller asks for it.  The greedy column pivoting downdates the
remaining column norms by each new row of R.  A downdate that cancels
all but `_STALE` of a squared norm marks it stale: the panel ends there
and the stale norms are computed again from their columns, so a pivot is
never chosen from a norm that cancellation has emptied.  That matters
because the factorization doubles as a rank detector.  Every entry point
refuses a complex input with `DomainError` before converting it to float.
The QR, the inverse and the SVD oracle refuse a NaN or infinite input with
`DomainError`; the triangular solves run on every projection, so they
check only that the right-hand side is a vector or a matrix of m rows
(`DimensionError`), and a `PermutedFactor` checks its R (finite, no zero
on the diagonal) and its perm once, when it is made.
"""

import threading
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ConfigurationError,
    DimensionError,
    DomainError,
    FactorizationError,
    SingularFactorError,
    SizeCapError,
    all_finite,
    as_real,
    inverse_permutation,
)

ORACLE_CAP = 1_000_000  # max entries the dense oracles svd_dense and linop.densify accept

_PIVOT_TIE_RTOL = 1e-15  # column norms this close count as tied; lowest index wins
_TIED = (1.0 - _PIVOT_TIE_RTOL) ** 2  # the same rule on squared norms

# The pivoted QR factors this many columns per panel, then updates the
# remaining block with one matrix product.
_PANEL = 32

# A downdated squared column norm below this fraction of its last computed
# value is stale and is computed again (sqrt(eps), as in LAPACK's dlaqps).
_STALE = np.sqrt(np.finfo(float).eps)

# A triangular solve splits its factor into diagonal blocks of this many rows
# (the last may be shorter), inverts each block once in one LAPACK call, and
# then costs two BLAS products per block row.
_BASE_ROWS = 32

# A `PermutedFactor` solves a vector in steps of this many rows (two blocks),
# each one BLAS product with rows of R's partitioned inverse.
_FUSED_ROWS = 2 * _BASE_ROWS


@dataclass
class PivotedQR:
    """Factorization M[:, perm] = Q R with orthonormal Q and upper-triangular R.

    Equivalently M = Q R Pi for the permutation Pi acting as z -> z[perm].
    R's diagonal is nonnegative and nonincreasing in magnitude, so trailing
    near-zero entries expose rank deficiency of M.

    Q is stored in the compact layout of LAPACK's geqp3: column k of
    `householder` holds, strictly below its diagonal, the Householder
    vector v_k of step k, whose leading entry 1 is implied, and
    H_k = I - tau[k] v_k v_k*.  Q is the first m columns of
    H_0 H_1 ... H_{m-1}, with the columns in `flip` negated.  The l-by-m
    factor is formed from that layout on first access and cached; callers
    that need only R and perm never pay for it.
    """

    R: np.ndarray
    perm: np.ndarray
    householder: np.ndarray = field(repr=False)  # l-by-m; only the strict lower trapezoid is read
    tau: np.ndarray = field(repr=False)  # reflector coefficients; 0 where no reflector was needed
    flip: np.ndarray = field(repr=False)  # rows of R negated to make its diagonal nonnegative

    @cached_property
    def Q(self):
        l, m = self.householder.shape
        Q = np.eye(l, m)
        # Back to front, one reflector at a time: H_k touches only rows k
        # onward, and the columns of Q before k are still unit vectors with
        # zeros there, so each step updates only the trailing block.
        for k in reversed(range(m)):
            v = self.householder[k:, k].copy()
            v[0] = 1.0
            Q[k:, k:] -= np.outer(self.tau[k] * v, v @ Q[k:, k:])
        np.negative(Q, out=Q, where=self.flip)
        return Q


def qr_pivoted(M):
    """Householder QR with greedy column pivoting of an l-by-m matrix, l >= m.

    At each step the remaining column of largest Euclidean norm is chosen
    (ties within 1e-15 relative resolved toward the lower index).  The
    returned R has a nonnegative diagonal.  The l-by-m orthonormal factor
    Q is not formed here: `PivotedQR.Q` builds it from the stored
    Householder vectors the first time it is read.  A NaN or infinite
    entry raises DomainError.

    The columns are factored in panels of `_PANEL`, the BLAS-3 scheme of
    LAPACK's dgeqp3/dlaqps (Quintana-Orti, Sun and Bischof, SISC 1998).
    Within a panel only the pivot column and the pivot row are brought up
    to date, from the panel's reflectors V and the accumulated F; the
    rest of the matrix B becomes B - V F* in one product when the panel
    ends.  Each pivot row downdates the remaining squared column norms.
    One that falls below `_STALE` of its value when last computed is
    stale: the panel ends at that step, and the stale norms are computed
    again from their updated columns (Drmac and Bujanovic, ACM TOMS 2008).
    M is left as it was: the QR runs on a copy.
    """
    M = as_real(M, "M")
    if M.ndim != 2:
        raise DimensionError(f"qr_pivoted expects a matrix, got ndim={M.ndim}")
    l, m = M.shape
    if l < m:
        raise DimensionError(f"qr_pivoted needs at least as many rows as columns, got {l}x{m}")
    return _qr_pivoted_rows(np.array(M.T, order="C"))


def _qr_pivoted_rows(W):
    """`qr_pivoted` of M = W* for a C-ordered m-by-l float array W that it overwrites.

    W holds M's columns as its rows (LAPACK's column-major layout), so the
    pivot column, the reflector and the panel update read contiguous
    rows; a sketch S = A G already has that layout, so it is handed over
    without a copy.  W ends up holding the Householder vectors.
    """
    m = W.shape[0]
    # Factor M scaled by a power of two that puts its largest magnitude in
    # [0.5, 1), so no squared column norm overflows, and none underflows
    # unless its column lies about 1e154 below that magnitude.  The scaling
    # is exact: R is scaled back exactly, and perm and Q are those of M.
    # max(W.max(), -W.min()) is that magnitude with no m-by-l temporary.
    top = max(W.max(initial=0.0), -W.min(initial=0.0))
    if not np.isfinite(top):
        raise DomainError("qr_pivoted needs a finite matrix, got a NaN or infinite entry")
    e = int(np.frexp(top)[1])
    np.ldexp(W, -e, out=W)
    perm = np.arange(m)
    tau = np.zeros(m)
    sq = np.einsum("ij,ij->i", W, W)  # squared norms of the remaining rows of each column
    floor = _STALE * sq  # a downdated square below this is stale

    k = 0
    while k < m:
        F = np.zeros((m - k, min(_PANEL, m - k)))  # row j - k: the panel's deferred update of column j
        c = k  # next column to factor
        stale = np.zeros(0, dtype=bool)
        while c < k + F.shape[1] and not stale.any():
            i = c - k
            big = sq[c:].max()
            if big == 0.0:
                break  # no column is left to factor; R's rows from c on are zeroed below
            piv = c + int((sq[c:] >= big * _TIED).argmax())
            if piv != c:
                W[c], W[piv] = W[piv], W[c].copy()
                F[i], F[piv - k] = F[piv - k], F[i].copy()
                perm[c], perm[piv] = perm[piv], perm[c]
                sq[piv], floor[piv] = sq[c], floor[c]

            x = W[c, c:]
            x -= F[i, :i] @ W[k:c, c:]  # column c, brought up to date by this panel's reflectors
            normx = np.sqrt(x @ x)
            alpha = -normx if x[0] >= 0.0 else normx
            tau[c] = (alpha - x[0]) / alpha
            x[1:] /= x[0] - alpha
            x[0] = 1.0  # v, with its implied leading 1 in place for the products below
            # F's column i takes this reflector's share of every later
            # column's update; row c of R is then brought up to date
            y = W[k:, c:] @ x
            F[i + 1 :, i] = tau[c] * (y[i + 1 :] - F[i + 1 :, :i] @ y[:i])
            W[c + 1 :, c] -= F[i + 1 :, : i + 1] @ W[k : c + 1, c]
            W[c, c] = alpha

            sq[c + 1 :] -= W[c + 1 :, c] ** 2
            stale = sq[c + 1 :] < floor[c + 1 :]
            c += 1
        if c == k:
            # the remaining columns are zero, or so small that their squared
            # norms underflow; R is zero there, which keeps its diagonal
            # nonincreasing, and tau = 0 leaves Q's columns alone
            W[k:, k:] = 0.0
            break
        W[c:, c:] -= F[c - k :, : c - k] @ W[k:c, c:]  # the panel's update, in one product
        if stale.any():
            stale = c + np.flatnonzero(stale)
            cols = W[stale, c:]
            sq[stale] = np.einsum("ij,ij->i", cols, cols)
            floor[stale] = _STALE * sq[stale]
        k = c

    # R is W's leading block transposed with its strict lower triangle
    # zeroed in place; np.triu would hold an m-by-m mask and a temporary
    R = W[:, :m].T.copy()
    for i in range(1, m):
        R[i, :i] = 0.0
    np.ldexp(R, e, out=R)
    # sign convention: flip rows of R (and matching Q columns) so diag(R) >= 0
    flip = np.diag(R) < 0.0
    np.negative(R, out=R, where=flip[:, None])
    return PivotedQR(R=R, perm=perm, householder=W.T, tau=tau, flip=flip)


def _as_factor(R):
    R = as_real(R, "R")
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise DimensionError(f"triangular factor must be square, got shape {R.shape}")
    return R


def invert_diagonal_blocks(R):
    """The inverses of an upper-triangular factor's diagonal blocks, for the solves.

    The blocks are R[a:b, a:b] for a = 0, `_BASE_ROWS`, 2 `_BASE_ROWS`, ...
    and b = min(a + `_BASE_ROWS`, m).  Returns an m-by-min(m, `_BASE_ROWS`)
    array whose rows a:b hold the inverse of that block in their first b-a
    columns, and zeros after them: 256 m bytes for m >= 32.  A zero on R's
    diagonal raises SingularFactorError naming its index; the sweeps rely
    on this check, so a factor held for many solves is checked once.
    """
    R = _as_factor(R)
    zero = np.flatnonzero(np.diag(R) == 0.0)
    if zero.size:
        raise SingularFactorError(f"triangular factor has zero diagonal at index {zero[0]}")
    m = R.shape[0]
    inv = np.zeros((m, min(m, _BASE_ROWS)))
    for a in range(0, m, _BASE_ROWS):
        b = min(a + _BASE_ROWS, m)
        # Exact substitution, not a general solve: below an upper-triangular
        # block's diagonal every entry is an exact zero, so partial pivoting
        # never swaps rows, the LU factors are L = I and the block itself, and
        # LAPACK's solve reduces to back substitution, one identity column at
        # a time.
        inv[a:b, : b - a] = np.linalg.solve(R[a:b, a:b], np.eye(b - a))
    return inv


def _check_rhs(x, m):
    if x.ndim not in (1, 2) or x.shape[0] != m:
        raise DimensionError(
            f"right-hand side of shape {x.shape} is not a vector or matrix of factor size {m}"
        )


def _substitute(R, inv, x, adjoint=False):
    """Overwrite the float array x with R^-1 x, or R^-* x when `adjoint`; returns x.

    `inv` is `invert_diagonal_blocks(R)`, and x a vector or a matrix.  One
    block row of `_BASE_ROWS` at a time: back substitution runs bottom to
    top, x[a:b] = D (x[a:b] - R[a:b, b:] x[b:]) with D the block's inverse;
    the adjoint is forward substitution top to bottom,
    x[a:b] = D* (x[a:b] - R[:a, a:b]* x[:a]), left-looking, so it allocates
    nothing larger than the block row.  Every product reads a forward view
    of R or `inv`, which BLAS takes without a copy.
    """
    m = R.shape[0]
    starts = range(0, m, _BASE_ROWS)
    for a in starts if adjoint else reversed(starts):
        b = min(a + _BASE_ROWS, m)
        D = inv[a:b, : b - a]
        if adjoint:
            C, solved, D = R[:a, a:b].T, x[:a], D.T
        else:
            C, solved = R[a:b, b:], x[b:]
        x[a:b] -= C @ solved
        x[a:b] = D @ x[a:b]
    return x


def _fused_steps(R, inv):
    """The back sweep of `_substitute`, one product per `_FUSED_ROWS` rows.

    A step (rows, span, Z) has rows a:c, span a:m and
    Z = R[a:c, a:c]^-1 [I | -R[a:c, c:]], so run bottom to top,
    x[rows] = Z x[span] is back substitution, for a vector or a matrix x.
    Run top to bottom on the same Z, t = (x[rows]* Z)* is forward
    substitution with R*, right-looking: t[:c-a] is the solved block and
    t[c-a:] the update of x[c:]; for a vector it is x[rows] Z.  Each Z
    is the `_substitute` block sweep of R[a:c, a:c] on [I | -R[a:c, c:]],
    so the step reads only the inverses of `invert_diagonal_blocks`.  The
    steps hold at most m^2 / 2 + 32 m doubles, in arrays made here and
    marked read-only.
    """
    m = R.shape[0]
    steps = []
    for a in reversed(range(0, m, _FUSED_ROWS)):
        c = min(a + _FUSED_ROWS, m)
        Z = np.zeros((c - a, m - a))
        np.fill_diagonal(Z, 1.0)
        np.negative(R[a:c, c:], out=Z[:, c - a :])
        _substitute(R[a:c, a:c], inv[a:c], Z)
        Z.setflags(write=False)
        steps.append((slice(a, c), slice(a, m), Z))
    return tuple(steps)


def _solve_once(R, x, adjoint=False):
    """Overwrite x with R^-1 x, or R^-* x when `adjoint`, inverting R's blocks for this solve."""
    _check_rhs(x, R.shape[0])
    inv = invert_diagonal_blocks(R)
    return _substitute(R, inv, x, adjoint)


def solve_upper(R, y):
    """Solve R g = y by blocked back substitution; accepts vector or matrix right-hand sides.

    R must be upper-triangular with exact zeros below its diagonal: its
    diagonal blocks are read whole.  A one-off solve: it inverts R's
    diagonal blocks and sweeps once, on its own copy of y.
    """
    return _solve_once(_as_factor(R), np.array(as_real(y, "y")))


def solve_upper_adjoint(R, d):
    """Solve R* e = d (R upper-triangular); accepts vector or matrix right-hand sides.

    R* is lower-triangular, so this is forward substitution with the
    transposed blocks of R, as in `solve_upper` a one-off solve on a copy of d.
    """
    return _solve_once(_as_factor(R), np.array(as_real(d, "d")), adjoint=True)


class PermutedFactor:
    """The factor M = R Pi of `qr_pivoted`, with R's block inverses and both solves.

    Holds `R` without copying it and a new `intp` copy of `perm`, so an
    edit of the caller's array afterwards changes nothing here.
    Construction checks them once: `perm` must be an integer permutation
    of range(m) (ConfigurationError) and `R` square (DimensionError) and
    finite (DomainError); then it inverts R's diagonal blocks, which raises
    SingularFactorError on a zero diagonal, so its solves make no LAPACK
    call and check nothing but the right-hand side's shape.

    Both solves run every right-hand side, vector or matrix, through the
    fused steps of `_fused_steps`, one product per `_FUSED_ROWS` rows,
    which the two directions share: the first solve in either builds them
    (under a lock, so concurrent first solves build them once), and the
    factor keeps them.  A build never solves through its factor:
    `build_gram` runs the block sweep of `_substitute` in place on its own
    array, so a fresh preconditioner's one factor, the chain's U Pi,
    holds no steps until its first projection builds them.
    """

    def __init__(self, R, perm):
        self.R = _as_factor(R)
        m = self.R.shape[0]
        self.perm = inverse_permutation(perm, "perm")[0]
        if self.perm.size != m:
            raise ConfigurationError(f"perm must be an integer permutation of range({m})")
        if not all_finite(self.R):
            raise DomainError("R must be finite, got a NaN or infinite entry")
        self.block_inverses = invert_diagonal_blocks(self.R)
        self.block_inverses.setflags(write=False)
        self._fused = None  # the fused steps both solves run, once built
        self._fuse_lock = threading.Lock()

    def _sweep(self, x, adjoint):
        """Overwrite x with R^-1 x, or R^-* x when `adjoint`; returns x."""
        steps = self._fused
        if steps is None:
            with self._fuse_lock:
                steps = self._fused
                if steps is None:
                    steps = self._fused = _fused_steps(self.R, self.block_inverses)
        if not adjoint:
            for rows, span, Z in steps:
                x[rows] = Z @ x[span]
            return x
        for rows, span, Z in reversed(steps):
            t = (x[rows].T @ Z).T  # the solved block, then the update of the rows below it
            x[rows] = 0.0  # so one add stores the block and updates the rows below
            x[span] += t
        return x

    def solve(self, y):
        """Return x with M x = y, that is R x[perm] = y; y is left as it was.

        Back substitution in a copy of y, then a scatter through the
        permutation; accepts vector or matrix right-hand sides.
        """
        g = as_real(y, "y")
        _check_rhs(g, self.R.shape[0])
        g = self._sweep(g.copy(), adjoint=False)
        x = np.empty_like(g)
        x[self.perm] = g
        return x

    def solve_adjoint(self, d):
        """Return R^-* d[perm], that is solve M* e = d; d is left as it was.

        The gather d[perm] is already a fresh array, so the solve runs on it.
        """
        d = as_real(d, "d")
        _check_rhs(d, self.R.shape[0])  # before the gather, which would drop rows past m
        return self._sweep(d[self.perm], adjoint=True)


def build_gram(A, R, perm):
    """Preconditioned Gram matrix X = P^-1 A A* (P*)^-1 with P = Pi* R*, in one m-by-m array.

    P* = R Pi is the factor of `PermutedFactor`, so (P*)^-1 is R^-1
    followed by a scatter through the permutation, and P^-1 a gather
    followed by R^-*.  R must be m-by-m for the m-by-n operator A
    (ConfigurationError), and `PermutedFactor(R, perm)` checks R and perm
    before any apply, so a malformed `perm` raises `ConfigurationError`,
    and a NaN or infinite entry of R `DomainError`, with no apply spent.
    Then:

    - the identity is swept to W = R^-1 in place;
    - column j of P^-* is W's column j scattered through perm, done inside
      that column, and A A* of it, gathered by perm, takes its place:
      column j of Pi A A* P^-*;
    - the adjoint sweep applies R^-* to all of W in place.

    So the build holds R and W and no third m-by-m array.  R's block
    inverses are taken before the applies and again after them, not held
    through them, where a build with large n peaks.  Costs m applies of A
    and m of A*, with one length-n temporary.
    """
    m, n = A.shape
    R = as_real(R, "R")
    if R.shape != (m, m):
        raise ConfigurationError(f"R must be {m}x{m} for a {m}x{n} operator, got {R.shape}")
    factor = PermutedFactor(R, perm)
    R, perm = factor.R, factor.perm
    W = _substitute(R, factor.block_inverses, np.eye(m))
    del factor
    for j in range(m):
        w = W[:, j]
        w[perm] = w  # numpy reads the overlapping right side through a copy
        W[:, j] = A.apply(A.apply_adjoint(w))[perm]
    return _substitute(R, invert_diagonal_blocks(R), W, adjoint=True)


def _cholesky(X):
    """X = L L* in place for a square float array X; returns the inverses of L's diagonal blocks.

    Left-looking, one `_BASE_ROWS`-wide block column a:b at a time: the
    block column takes the update from L's finished columns,
    `np.linalg.cholesky` factors its diagonal block, so a block that is not
    SPD raises FactorizationError, and the rows below it are multiplied by
    that block's inverse transposed.  L takes X's lower triangle, with
    zeros above it, so every temporary is the size of one block column.
    Only X's lower triangle is read.  The i-th entry of the returned list
    is the inverse of L's i-th diagonal block, transposed.
    """
    if X.ndim != 2 or X.shape[0] != X.shape[1]:
        raise DimensionError(f"invert_small expects a square matrix, got shape {X.shape}")
    if not all_finite(X):
        raise DomainError("invert_small needs a finite matrix, got a NaN or infinite entry")
    m = X.shape[0]
    inverses = []
    for a in range(0, m, _BASE_ROWS):
        b = min(a + _BASE_ROWS, m)
        left = X[a:, :a] @ X[a:b, :a].T  # the finished columns' share of the block column
        # subtracted in the temporary: a ufunc on two 2-D strided views
        # takes two iteration buffers of 64 KiB each
        X[a:, a:b] = np.subtract(X[a:, a:b], left, out=left)
        del left
        try:
            X[a:b, a:b] = np.linalg.cholesky(X[a:b, a:b])
        except np.linalg.LinAlgError as exc:
            raise FactorizationError(
                f"matrix of size {m} is not positive definite (pivot block at row {a}): {exc}"
            ) from exc
        inverses.append(invert_diagonal_blocks(X[a:b, a:b].T))
        X[b:, a:b] = X[b:, a:b] @ inverses[-1]
        X[a:b, b:] = 0.0
    return inverses


@np.errstate(over="ignore", invalid="ignore")  # checked at the end: a NaN only follows an inf
def invert_small(X):
    """Invert a small symmetric positive definite matrix.

    One path, blocked and in place on a copy of X: the scheme of LAPACK's
    potrf, trtri and lauum (Du Croz and Higham, IMA J. Numer. Anal. 1992),
    one `_BASE_ROWS`-wide block column a:b at a time:

    - X = L L*, by `_cholesky`;
    - W = L^-1, last block column first: W[b:, a:b] = -W[b:, b:] L[b:, a:b] W[a:b, a:b];
    - Y = W* W, first block column first, whose W no later column reads;
    - Y's block row a:b mirrors its block column, so Y == Y.T exactly.

    The diagonal blocks' inverses come from `_cholesky`, once each, and
    the second step frees each one as it uses it.  L, W and Y's lower half
    each take the copy's lower triangle, with zeros above it, so every
    temporary is the size of one block column.  Only X's lower triangle is
    read.  The preconditioned Gram matrix this is built for is well
    conditioned by construction, so an X that is not numerically SPD means
    a broken build and raises FactorizationError, whichever pivot block
    fails, as does an inverse that overflows.  A NaN or infinite entry
    raises DomainError.  X is left as it was.
    """
    X = np.array(as_real(X, "X"))
    inverses = _cholesky(X)
    m = X.shape[0]
    starts = range(0, m, _BASE_ROWS)
    for a in reversed(starts):
        b = min(a + _BASE_ROWS, m)
        D = inverses.pop().T  # L[a:b, a:b]^-1
        np.matmul(X[b:, b:] @ X[b:, a:b], -D, out=X[b:, a:b])  # one temporary, not two
        X[a:b, a:b] = D
    for a in starts:
        b = min(a + _BASE_ROWS, m)
        diag = X[a:, a:b].T @ X[a:, a:b]
        X[b:, a:b] = X[b:, b:].T @ X[b:, a:b]
        X[a:b, a:b] = np.tril(diag) + np.tril(diag, -1).T
        X[a:b, b:] = X[b:, a:b].T
    if not all_finite(X):
        raise FactorizationError(f"matrix of size {m} has an inverse that overflows")
    return X


def _chain_upper(X, R):
    """U = L* R for the Cholesky factor L of X = L L*, in X's own storage: X ends up holding U.

    X is the preconditioned Gram matrix of `build_gram` and R the factor
    it was built with, so A A* = (U Pi)* (U Pi): U is the R factor of A*
    that a randomized Cholesky-QR gives, cond(U) = kappa(A), and A A* is
    never formed.  After `_cholesky`, block row a:b of U is
    L[a:, a:b]* R[a:, a:], which reads only L's block column a:b, so the
    block rows are formed from the top, each over the rows of X it
    replaces, whose L entries no later block row reads.  U keeps exact
    zeros below its diagonal, and the only temporary is one block row.
    A non-SPD X raises FactorizationError, as in `invert_small`.
    """
    _cholesky(X)
    m = X.shape[0]
    for a in range(0, m, _BASE_ROWS):
        b = min(a + _BASE_ROWS, m)
        X[a:b, a:] = X[a:, a:b].T @ R[a:, a:]
        X[a:b, :a] = 0.0
    return X


def svd_dense(M):
    """Singular values (nonincreasing) and l2 condition number of a dense matrix.

    Verification oracle only; refuses a matrix with no rows or no columns
    with DimensionError, inputs above `ORACLE_CAP` entries, and a NaN or
    infinite entry with DomainError.  A zero smallest singular value
    yields an infinite condition number.
    """
    M = as_real(M, "M")
    if M.ndim != 2 or M.size == 0:
        raise DimensionError(f"svd_dense expects a nonempty matrix, got shape {M.shape}")
    if M.size > ORACLE_CAP:
        raise SizeCapError(
            f"svd of a {M.shape[0]}x{M.shape[1]} matrix exceeds the cap of {ORACLE_CAP} entries"
        )
    if not all_finite(M):
        raise DomainError("svd_dense needs a finite matrix, got a NaN or infinite entry")
    sigma = np.linalg.svd(M, compute_uv=False)
    smallest = sigma[-1]
    cond = np.inf if smallest == 0.0 else float(sigma[0] / smallest)
    return sigma, cond
