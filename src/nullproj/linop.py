"""Matrix-free linear operators and the two synthetic test-matrix families.

An operator here is a short, fat m-by-n map known only through `apply` and
`apply_adjoint`.  Both entry points count their calls (thread-safely), so
algorithm cost contracts can be asserted exactly, and both check the shape
and finiteness of what the operator returns.  `densify` provides an
uncounted dense snapshot for small instances, used by verification oracles.
"""

import threading

import numpy as np

from .dense_core import ORACLE_CAP
from .errors import ConfigurationError, DimensionError, DomainError, SizeCapError


class LinearOperator:
    """Base class for counted matrix-free operators.

    Subclasses implement `_apply_impl` / `_apply_adjoint_impl` on 1-D float
    arrays.  `apply` and `apply_adjoint` share one checked body that holds
    the operator's output contract for every caller, setup and projection
    alike: an output whose shape is not (m,) for `A x` or (n,) for `A* y`
    raises `DimensionError`, and one with a NaN or infinite entry raises
    `DomainError`.  Instances are immutable after construction except for
    the two call counters, which are updated under a lock so concurrent
    calls from several threads stay exact.
    """

    def __init__(self, m, n):
        m = int(m)
        n = int(n)
        if m < 1 or n < 1:
            raise ConfigurationError(f"operator dimensions must be positive, got {m}x{n}")
        if m > n:
            raise DimensionError(f"operator must be short and fat (m <= n), got {m}x{n}")
        self.shape = (m, n)
        self._counts = [0, 0]  # apply, adjoint apply
        self._count_lock = threading.Lock()

    def counts(self):
        """Current (apply, adjoint-apply) counter pair."""
        with self._count_lock:
            return tuple(self._counts)

    def apply(self, x):
        """Compute A x for a length-n vector; increments the apply counter."""
        return self._checked_apply(x, False, self._apply_impl)

    def apply_adjoint(self, y):
        """Compute A* y for a length-m vector; increments the adjoint counter."""
        return self._checked_apply(y, True, self._apply_adjoint_impl)

    def _checked_apply(self, v, adjoint, impl):
        """The one body of `apply` and `apply_adjoint`: check the input, count, check the output."""
        name, product = ("apply_adjoint", "A* y") if adjoint else ("apply", "A x")
        size_in, size_out = self.shape if adjoint else self.shape[::-1]
        v = np.asarray(v, dtype=float)
        if v.shape != (size_in,):
            raise DimensionError(f"{name} expects a vector of length {size_in}, got shape {v.shape}")
        with self._count_lock:
            self._counts[adjoint] += 1
        out = impl(v)
        if np.shape(out) != (size_out,):
            raise DimensionError(
                f"the operator's {product} must have shape ({size_out},), got shape {np.shape(out)}"
            )
        if not np.isfinite(out).all():
            raise DomainError(f"the operator's {product} holds a NaN or infinite entry")
        return out

    def _apply_impl(self, x):
        raise NotImplementedError

    def _apply_adjoint_impl(self, y):
        raise NotImplementedError


def apply_gram(A, W):
    """Overwrite each column w of the m-by-k float array W with A A* w; returns W.

    Costs exactly k applies of A and k of A*, with one length-n temporary.
    """
    for k in range(W.shape[1]):
        W[:, k] = A.apply(A.apply_adjoint(W[:, k]))
    return W


def densify(op):
    """Uncounted dense m-by-n snapshot of `op`, column by column; at most `ORACLE_CAP` entries."""
    m, n = op.shape
    if m * n > ORACLE_CAP:
        raise SizeCapError(f"densify of a {m}x{n} operator exceeds the cap of {ORACLE_CAP} entries")
    out = np.empty((m, n))
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        out[:, j] = op._apply_impl(e)
        e[j] = 0.0
    return out


class CirculantStencil:
    """Circulant m-by-m matrix with row stencil (1, -4, 6+d, -4, 1).

    Symmetric positive definite for d > 0; eigenvalues are
    d + 4*(cos(2*pi*k/m) - 1)^2, so the condition number is (16+d)/d
    whenever m is even (the angle pi is then attained).  For m = 4 the
    two +/-2 offsets wrap onto the same column and their taps sum, which
    is the convention that keeps the eigenvalue formula exact.
    """

    def __init__(self, m, d):
        m = int(m)
        if m < 4:
            raise ConfigurationError(f"stencil needs m >= 4, got m={m}")
        if d <= 0:
            raise ConfigurationError(f"diagonal shift d must be positive, got {d}")
        self.m = m
        self.d = float(d)

    def apply(self, x):
        """B x from one copy of x padded by two wrapped entries at each end; O(m) work."""
        x = np.asarray(x, dtype=float)
        m = self.m
        p = np.concatenate((x[-2:], x, x[:2]))  # p[i + 2] = x[i mod m]
        return (6.0 + self.d) * x - 4.0 * (p[1 : m + 1] + p[3 : m + 3]) + p[:m] + p[4:]

    def toarray(self):
        m = self.m
        out = np.zeros((m, m))
        cols = np.arange(m)
        for off, val in ((-2, 1.0), (-1, -4.0), (0, 6.0 + self.d), (1, -4.0), (2, 1.0)):
            out[(cols + off) % m, cols] += val
        return out

    def eigenvalues(self):
        theta = 2.0 * np.pi * np.arange(self.m) / self.m
        return self.d + 4.0 * (np.cos(theta) - 1.0) ** 2


class SparseTestMatrix(LinearOperator):
    """A = U [B B ... B] V with permutations U, V and circulant block B.

    `row_perm` (length m) and `col_perm` (length n) are index arrays: the
    permuted vector is `x[perm]`.  The operator applies in O(n) work and
    has condition number (16+d)/d, inherited from the stencil.
    """

    def __init__(self, stencil, row_perm, col_perm):
        row_perm = np.asarray(row_perm, dtype=np.intp)
        col_perm = np.asarray(col_perm, dtype=np.intp)
        m = stencil.m
        n = col_perm.size
        if row_perm.size != m:
            raise ConfigurationError("row permutation length must equal the stencil size")
        if n % m != 0:
            raise ConfigurationError(f"n={n} must be an exact multiple of m={m}")
        super().__init__(m, n)
        self.stencil = stencil
        self.row_perm = row_perm
        self.col_perm = col_perm
        self.block_count = n // m
        self._row_perm_inv = np.argsort(row_perm)
        # V* tile(w) gathers entry i from w[argsort(col_perm)[i] % m]
        self._adjoint_gather = np.argsort(col_perm) % m

    def _apply_impl(self, x):
        m = self.shape[0]
        # sum the n/m blocks of V x (left to right, down axis 0) before applying B
        w = x[self.col_perm].reshape(self.block_count, m).sum(axis=0)
        return self.stencil.apply(w)[self._row_perm_inv]

    def _apply_adjoint_impl(self, y):
        t = y[self.row_perm]  # U* y
        w = self.stencil.apply(t)  # B is symmetric
        return w[self._adjoint_gather]  # V* [w w ... w]


class DenseTestMatrix(LinearOperator):
    """Sparse test matrix plus a scaled rank-10 update E F / sqrt(m n).

    Dense as a matrix, but applied in O(n + 10(m+n)) work by exploiting
    the split.  One apply of this operator counts as one apply, even
    though it rides on the sparse base internally.
    """

    RANK = 10

    def __init__(self, base, E, F):
        E = np.asarray(E, dtype=float)
        F = np.asarray(F, dtype=float)
        m, n = base.shape
        if E.shape != (m, self.RANK) or F.shape != (self.RANK, n):
            raise ConfigurationError(
                f"low-rank factors must be {m}x{self.RANK} and {self.RANK}x{n}, "
                f"got {E.shape} and {F.shape}"
            )
        super().__init__(m, n)
        self.base = base
        self.E = E
        self.F = F
        self.scale = 1.0 / np.sqrt(m * n)

    def _apply_impl(self, x):
        return self.base._apply_impl(x) + self.scale * (self.E @ (self.F @ x))

    def _apply_adjoint_impl(self, y):
        return self.base._apply_adjoint_impl(y) + self.scale * (self.F.T @ (self.E.T @ y))


class MatrixOperator(LinearOperator):
    """Wrap an explicit short, fat matrix as a counted operator."""

    def __init__(self, mat):
        mat = np.asarray(mat, dtype=float)
        if mat.ndim != 2:
            raise DimensionError(f"expected a 2-D array, got ndim={mat.ndim}")
        super().__init__(mat.shape[0], mat.shape[1])
        self.mat = mat

    def _apply_impl(self, x):
        return self.mat @ x

    def _apply_adjoint_impl(self, y):
        return self.mat.T @ y


class TripletMatrix(LinearOperator):
    """Sparse operator stored as parallel (row, col, value) arrays."""

    def __init__(self, m, n, rows, cols, vals):
        super().__init__(m, n)
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        vals = np.asarray(vals, dtype=float)
        if not (rows.size == cols.size == vals.size):
            raise ConfigurationError("triplet arrays must have equal length")
        if rows.size and (rows.min() < 0 or rows.max() >= m):
            raise ConfigurationError("triplet row index out of range")
        if cols.size and (cols.min() < 0 or cols.max() >= n):
            raise ConfigurationError("triplet column index out of range")
        self.rows = rows
        self.cols = cols
        self.vals = vals

    def _apply_impl(self, x):
        return np.bincount(self.rows, weights=self.vals * x[self.cols], minlength=self.shape[0])

    def _apply_adjoint_impl(self, y):
        return np.bincount(self.cols, weights=self.vals * y[self.rows], minlength=self.shape[1])


def _check_sparse_family(m, n, kappa):
    """Raise ConfigurationError unless (m, n, kappa) names a sparse test operator."""
    if m < 4 or m % 2 != 0:
        raise ConfigurationError(f"sparse test matrix needs even m >= 4, got m={m}")
    if n % m != 0:
        raise ConfigurationError(f"n={n} must be a multiple of m={m}")
    if not kappa > 1:  # also rejects NaN
        raise ConfigurationError(f"kappa must exceed 1, got {kappa}")


def make_sparse_test(m, n, kappa, seed):
    """Seeded sparse test operator with condition number exactly `kappa`.

    Sets d = 16/(kappa-1) and draws the two permutations uniformly from a
    seeded generator.  Requires even m >= 4: odd m leaves the top stencil
    eigenvalue short of 16+d and the stated condition number would only
    hold approximately.
    """
    m = int(m)
    n = int(n)
    _check_sparse_family(m, n, kappa)
    d = 16.0 / (kappa - 1.0)
    rng = np.random.default_rng(seed)
    return SparseTestMatrix(CirculantStencil(m, d), rng.permutation(m), rng.permutation(n))


def make_dense_test(m, n, kappa, seed):
    """Seeded dense test operator: sparse base plus Gaussian rank-10 update."""
    base = make_sparse_test(m, n, kappa, seed)
    rng = np.random.default_rng(seed)
    rng.permutation(m)  # keep the base's permutation draws aligned
    rng.permutation(n)
    E = rng.standard_normal((m, DenseTestMatrix.RANK))
    F = rng.standard_normal((DenseTestMatrix.RANK, n))
    return DenseTestMatrix(base, E, F)


def load_triplet_operator(path):
    """Load a sparse operator from a triplet text file.

    Format: a header line `m n nnz` followed by nnz lines `row col value`
    with 1-indexed coordinates.  Storage grows with the lines actually
    read, so a header that overstates nnz fails on the first missing line.
    """
    with open(path) as fh:
        header = fh.readline().split()
        try:
            m, n, nnz = (int(tok) for tok in header)
        except ValueError:
            raise ConfigurationError(
                f"{path}: header must be three integers 'm n nnz', got {header}"
            ) from None
        if nnz < 0:
            raise ConfigurationError(f"{path}: header nnz must be nonnegative, got {nnz}")
        rows, cols, vals = [], [], []
        for k in range(nnz):
            parts = fh.readline().split()
            try:
                row, col, val = parts
                rows.append(np.intp(int(row) - 1))  # OverflowError past the index range
                cols.append(np.intp(int(col) - 1))
                vals.append(float(val))
            except (ValueError, OverflowError):
                raise ConfigurationError(
                    f"{path}: entry {k + 1} (line {k + 2}) must be 'row col value' "
                    f"with integer indices, got {parts}"
                ) from None
    return TripletMatrix(m, n, rows, cols, vals)
