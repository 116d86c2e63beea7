"""Matrix-free linear operators and the two synthetic test-matrix families.

An operator here is a short, fat m-by-n map known only through `apply` and
`apply_adjoint`.  Both entry points count their calls (thread-safely), so
algorithm cost contracts can be asserted exactly, and both refuse complex
data and check the shape and finiteness of what the operator returns.
The operators that wrap caller data refuse complex data on construction.
No public product here bypasses that body: the sparse family's circulant
block is applied only inside `SparseTestMatrix`.
`densify` provides an uncounted dense snapshot for small instances, used
by verification oracles; it runs each column through the same checked
body as `apply`, so it holds the same output contract without touching
the counters.
"""

import threading

import numpy as np

from .dense_core import ORACLE_CAP
from .errors import ConfigurationError, DimensionError, DomainError, SizeCapError, as_real_number
from .errors import all_finite, as_index, as_index_array, as_real, inverse_permutation

# entries of the dense family's A* y that one gather of its base's adjoint
# adds at a time; bounds that gather's temporary (32 KiB) whatever n is
_ADJOINT_CHUNK = 4096


class LinearOperator:
    """Base class for counted matrix-free operators.

    Subclasses implement `_apply_impl` / `_apply_adjoint_impl` on 1-D float
    arrays.  `apply`, `apply_adjoint` and `densify` share one checked body
    that holds the operator's output contract for every caller, setup,
    projection and oracle alike: an output whose shape is not (m,) for
    `A x` or (n,) for `A* y` raises `DimensionError`, and a complex one, or
    one with a NaN or infinite entry, raises `DomainError`, as does a
    complex input; a real output is returned as a float array.  The
    finiteness test is `errors.all_finite`, which reads the output's
    smallest and largest entries and allocates nothing, so the check adds
    no array to a product's memory.  Instances are immutable after
    construction except for the two call counters, which `apply` and
    `apply_adjoint` update under a lock so concurrent calls from several
    threads stay exact.
    """

    def __init__(self, m, n):
        m, n = as_index(m, "m"), as_index(n, "n")
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
        with self._count_lock:
            self._counts[0] += 1
        return self._checked_apply(x, False)

    def apply_adjoint(self, y):
        """Compute A* y for a length-m vector; increments the adjoint counter."""
        with self._count_lock:
            self._counts[1] += 1
        return self._checked_apply(y, True)

    def _checked_apply(self, v, adjoint):
        """The one checked body of every product: check the input, apply, check the output."""
        if adjoint:
            name, product, impl = "apply_adjoint", "A* y", self._apply_adjoint_impl
            size_in, size_out = self.shape
        else:
            name, product, impl = "apply", "A x", self._apply_impl
            size_out, size_in = self.shape
        v = as_real(v, f"the input of {name}")
        if v.shape != (size_in,):
            raise DimensionError(f"{name} expects a vector of length {size_in}, got shape {v.shape}")
        out = impl(v)
        if np.shape(out) != (size_out,):
            raise DimensionError(
                f"the operator's {product} must have shape ({size_out},), got shape {np.shape(out)}"
            )
        out = as_real(out, f"the operator's {product}")
        if not all_finite(out):
            raise DomainError(f"the operator's {product} holds a NaN or infinite entry")
        return out

    def _apply_impl(self, x):
        raise NotImplementedError

    def _apply_adjoint_impl(self, y):
        raise NotImplementedError


def densify(op):
    """Uncounted dense m-by-n snapshot of `op`, column by column; at most `ORACLE_CAP` entries.

    Each column goes through the operator's checked body, so a column of the
    wrong shape raises `DimensionError` and a NaN or infinite one raises
    `DomainError`, exactly as from `apply`; the counters do not move.
    """
    m, n = op.shape
    if m * n > ORACLE_CAP:
        raise SizeCapError(f"densify of a {m}x{n} operator exceeds the cap of {ORACLE_CAP} entries")
    out = np.empty((m, n))
    e = np.zeros(n)
    for j in range(n):
        e[j] = 1.0
        out[:, j] = op._checked_apply(e, False)
        e[j] = 0.0
    return out


class SparseTestMatrix(LinearOperator):
    """A = U [B B ... B] V with permutations U, V and an m-by-m circulant block B.

    B has row stencil (1, -4, 6+d, -4, 1) and is symmetric positive
    definite for d > 0; its eigenvalues are d + 4*(cos(2*pi*k/m) - 1)^2,
    so A's condition number is (16+d)/d whenever m is even (the angle pi
    is then attained).  For m = 4 the two +/-2 offsets wrap onto the same
    column and their taps sum, which is the convention that keeps the
    eigenvalue formula exact.  `SparseTestMatrix(d, range(m), range(m))`
    is B itself.

    `row_perm` (length m >= 4) and `col_perm` (length n, a multiple of m)
    are index arrays: the permuted vector is `x[perm]`.  Each must be a
    permutation of its index range, and d a finite real above 0; anything
    else raises `ConfigurationError`.  The operator applies in O(n) work.
    `A x` sums the blocks of V x straight into m slots with one
    `bincount`, so it makes no length-n copy of x.  It keeps its own copies of
    both permutations.
    """

    def __init__(self, d, row_perm, col_perm):
        self.row_perm, self._row_perm_inv = inverse_permutation(row_perm, "row_perm")
        self.col_perm, col_perm_inv = inverse_permutation(col_perm, "col_perm")
        m, n = self.row_perm.size, self.col_perm.size
        if m < 4:
            raise ConfigurationError(f"stencil needs m >= 4, got m={m}")
        d = as_real_number(d, "diagonal shift d", 0, ConfigurationError)
        if n % m != 0:
            raise ConfigurationError(f"n={n} must be an exact multiple of m={m}")
        super().__init__(m, n)
        self.d = d
        # entry i of x meets slot argsort(col_perm)[i] % m of the stencil's
        # input: [I I ... I] V x scatter-adds into it, V* tile(w) gathers from it
        self._adjoint_gather = col_perm_inv % m

    def _stencil(self, x):
        """B x from one copy of x padded by two wrapped entries at each end; O(m) work."""
        m = self.shape[0]
        p = np.concatenate((x[-2:], x, x[:2]))  # p[i + 2] = x[i mod m]
        return (6.0 + self.d) * x - 4.0 * (p[1 : m + 1] + p[3 : m + 3]) + p[:m] + p[4:]

    def _apply_impl(self, x):
        # [I I ... I] V x summed in entry order, with no length-n copy of x
        w = np.bincount(self._adjoint_gather, weights=x, minlength=self.shape[0])
        return self._stencil(w)[self._row_perm_inv]

    def _apply_adjoint_impl(self, y):
        w, gather = self._adjoint_slots(y)
        return w[gather]  # V* [w w ... w]

    def _adjoint_slots(self, y):
        """(w, gather) with A* y = w[gather]: the stencil output w = B U* y and the slot map."""
        return self._stencil(y[self.row_perm]), self._adjoint_gather  # B is symmetric


class DenseTestMatrix(LinearOperator):
    """Sparse test matrix plus a scaled rank-10 update E F / sqrt(m n).

    Dense as a matrix, but applied in O(n + 10(m+n)) work by exploiting
    the split.  One apply of this operator counts as one apply, even
    though it rides on the sparse base internally.  `A* y` holds one
    length-n array: the rank-10 term is written into the fresh output by
    one BLAS product, and the base's gather V* [w ... w] is added into it
    `_ADJOINT_CHUNK` entries at a time, so no more than one chunk of it
    is alive.  The sum is the same two terms as adding the base's whole
    A* y, bit for bit.  Complex `E` or `F` raises `DomainError`, and a base
    that is not a `SparseTestMatrix` raises `ConfigurationError`.
    """

    RANK = 10

    def __init__(self, base, E, F):
        if not isinstance(base, SparseTestMatrix):
            raise ConfigurationError(f"base must be a SparseTestMatrix, got {type(base).__name__}")
        E, F = as_real(E, "E"), as_real(F, "F")
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
        # the rank-10 term is the one fresh length-n array; the base's
        # gather is added into it a bounded chunk at a time
        out = self.F.T @ (self.E.T @ y)
        out *= self.scale
        w, gather = self.base._adjoint_slots(y)
        for a in range(0, out.size, _ADJOINT_CHUNK):
            out[a : a + _ADJOINT_CHUNK] += w[gather[a : a + _ADJOINT_CHUNK]]
        return out


class MatrixOperator(LinearOperator):
    """Wrap an explicit short, fat matrix as a counted operator; a complex one is a DomainError."""

    def __init__(self, mat):
        mat = as_real(mat, "mat")
        if mat.ndim != 2:
            raise DimensionError(f"expected a 2-D array, got ndim={mat.ndim}")
        super().__init__(mat.shape[0], mat.shape[1])
        self.mat = mat

    def _apply_impl(self, x):
        return self.mat @ x

    def _apply_adjoint_impl(self, y):
        return self.mat.T @ y


class TripletMatrix(LinearOperator):
    """Sparse operator stored as parallel (row, col, value) arrays; complex values are refused."""

    def __init__(self, m, n, rows, cols, vals):
        super().__init__(m, n)
        rows, cols = as_index_array(rows, "rows"), as_index_array(cols, "cols")
        vals = as_real(vals, "vals")
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


def _check_sparse_family(m, n, kappa, seed):
    """(m, n, seed) as Python ints and kappa as a Python float; ConfigurationError unless
    (m, n, kappa, seed) names a test operator."""
    m, n, seed = as_index(m, "m"), as_index(n, "n"), as_index(seed, "seed", least=0)
    if m < 4 or m % 2 != 0:
        raise ConfigurationError(f"sparse test matrix needs even m >= 4, got m={m}")
    if n % m != 0:
        raise ConfigurationError(f"n={n} must be a multiple of m={m}")
    return m, n, as_real_number(kappa, "kappa", 1, ConfigurationError), seed


def _seeded_sparse_test(m, n, kappa, seed):
    """The sparse test operator for (m, n, kappa) and the generator that drew its permutations.

    Both test families start here, so a dense operator's rank-10 factors
    come from the same generator, right after its base's permutations.
    """
    m, n, kappa, seed = _check_sparse_family(m, n, kappa, seed)
    rng = np.random.default_rng(seed)
    return SparseTestMatrix(16.0 / (kappa - 1.0), rng.permutation(m), rng.permutation(n)), rng


def make_sparse_test(m, n, kappa, seed):
    """Seeded sparse test operator with condition number exactly `kappa`.

    Sets d = 16/(kappa-1) and draws the two permutations uniformly from a
    generator seeded with the nonnegative integer `seed`.  Requires even
    m >= 4: odd m leaves the top stencil eigenvalue short of 16+d and the
    stated condition number would only hold approximately.
    """
    return _seeded_sparse_test(m, n, kappa, seed)[0]


def make_dense_test(m, n, kappa, seed):
    """Seeded dense test operator: sparse base plus Gaussian rank-10 update."""
    base, rng = _seeded_sparse_test(m, n, kappa, seed)
    m, n = base.shape
    E = rng.standard_normal((m, DenseTestMatrix.RANK))
    F = rng.standard_normal((DenseTestMatrix.RANK, n))
    return DenseTestMatrix(base, E, F)


def load_triplet_operator(path):
    """Load a sparse operator from a triplet text file.

    Format: a header line `m n nnz` followed by nnz lines `row col value`
    with 1-indexed coordinates.  Storage grows with the lines actually
    read, so a header that overstates nnz fails on the first missing line;
    one that understates it fails on the first line after the nnz entries
    that is not blank.
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
        for lineno, line in enumerate(fh, start=nnz + 2):
            if line.strip():
                raise ConfigurationError(
                    f"{path}: line {lineno} lies past the header's nnz={nnz} entries, "
                    f"got {line.split()}"
                )
    return TripletMatrix(m, n, rows, cols, vals)
