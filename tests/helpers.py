"""Shared independent oracles and fakes for the test suite.

Every oracle here goes through dense numpy factorizations of explicitly
materialized matrices, never through the library's own solve chain, so a
bug in the fast path cannot hide behind the same bug in its check.  The
fakes (`Returns`, `identity_preconditioner`) hand a check the exact array
it is to refuse or pass.  `CoordinateRows` and `TrigRows` are operators
whose row projections are known in closed form, at any size.  The
measuring helpers (`traced_peak`, `count_lapack_solves`) are the suite's
one way to read a call's memory peak and its LAPACK solves.
"""

import tracemalloc

import numpy as np

from nullproj import LinearOperator, Preconditioner, densify, svd_dense

FAKE_SHAPE = (4, 8)  # (m, n) of the fakes


class Returns(LinearOperator):
    """A `FAKE_SHAPE` operator whose A x and A* y are copies of the arrays it was given."""

    def __init__(self, ax=None, aty=None):
        m, n = FAKE_SHAPE
        super().__init__(m, n)
        self.ax = np.ones(m) if ax is None else ax
        self.aty = np.ones(n) if aty is None else aty

    def _apply_impl(self, x):
        return self.ax.copy()

    def _apply_adjoint_impl(self, y):
        return self.aty.copy()


def identity_preconditioner(Y=None):
    """A `Preconditioner` for a `FAKE_SHAPE` operator: R = I, no pivoting, Y = I by default."""
    m, n = FAKE_SHAPE
    Y = np.eye(m) if Y is None else Y
    return Preconditioner(
        R=np.eye(m), perm=np.arange(m), Y=Y, l=m, m=m, n=n, build_apply_counts=(0, 0)
    )


def svd_parts(A):
    """(dense matrix, U, sigma, Vh) of a densifiable operator."""
    Ad = densify(A)
    U, s, Vh = np.linalg.svd(Ad, full_matrices=False)
    return Ad, U, s, Vh


def oracle_row_projection(Vh, b):
    """Projection of b onto the row space, straight from the singular vectors."""
    return Vh.T @ (Vh @ b)


def sparse_row_projection(A, b):
    """Projection of b onto the row space of a `SparseTestMatrix`, in closed form.

    A = U [B ... B] V with U and B invertible, so A has the row space of
    C = [I ... I] V, and C C* = (n/m) I: the projection is (m/n) C* C b.
    C b sums entry i of b into slot g[i] = argsort(col_perm)[i] % m, and
    C* w gathers w[g].  It never forms A or its stencil, so its error is
    the rounding of those sums whatever A's condition number, and it needs
    no densify, so it holds past `ORACLE_CAP`.
    """
    m, n = A.shape
    g = np.argsort(A.col_perm) % m
    return (m / n) * np.bincount(g, weights=b, minlength=m)[g]


class CoordinateRows(LinearOperator):
    """A counted m-by-n operator with a known SVD and the most coherent row space there is.

    A = Q diag(sigma) Phi, where Q is an orthonormal m-by-m matrix, sigma =
    geomspace(1, 1/kappa, m), and Phi's rows are the coordinate vectors of
    `cols`, m distinct columns, all drawn from `seed`.  So cond(A) = kappa,
    A x = Q (sigma * x[cols]), and A* y scatters sigma * (Q* y) into `cols`
    of a zero length-n array.  A sketch A G sees only the m rows `cols` of
    G.  It is never formed, so it holds past `ORACLE_CAP`.
    """

    def __init__(self, m, n, kappa, seed):
        super().__init__(m, n)
        rng = np.random.default_rng(seed)
        self.Q = np.linalg.qr(rng.standard_normal((m, m)))[0]
        self.sigma = np.geomspace(1.0, 1.0 / kappa, m)
        self.cols = rng.choice(n, m, replace=False)

    def _apply_impl(self, x):
        return self.Q @ (self.sigma * x[self.cols])

    def _apply_adjoint_impl(self, y):
        out = np.zeros(self.shape[1])
        out[self.cols] = self.sigma * (self.Q.T @ y)
        return out


def coordinate_row_projection(A, b):
    """Projection of b onto the row space of a `CoordinateRows`: b masked to its `cols`, exactly."""
    out = np.zeros_like(b)
    out[A.cols] = b[A.cols]
    return out


class TrigRows(LinearOperator):
    """A counted m-by-n operator with a known SVD and the smoothest row space there is.

    A = Q diag(sigma) Phi, with Q and sigma as in `CoordinateRows`, and
    Phi's rows the m lowest-frequency orthonormal real Fourier rows of
    length n: the constant, then cos and sin of each frequency 1, 2, ...,
    in that order.  `phi` and `phi_adjoint` apply Phi and Phi* with
    `np.fft.rfft` and `irfft` (`norm="ortho"`), so A is never formed and
    holds past `ORACLE_CAP`.  It needs m < n - 1, which keeps the Nyquist
    row out.
    """

    def __init__(self, m, n, kappa, seed):
        super().__init__(m, n)
        self.Q = np.linalg.qr(np.random.default_rng(seed).standard_normal((m, m)))[0]
        self.sigma = np.geomspace(1.0, 1.0 / kappa, m)

    def phi(self, x):
        m = self.shape[0]
        c = np.fft.rfft(x, norm="ortho")[: m // 2 + 1]
        out = np.empty(m)
        out[0] = c[0].real
        out[1::2] = np.sqrt(2.0) * c[1 : m // 2 + 1].real
        out[2::2] = -np.sqrt(2.0) * c[1 : (m + 1) // 2].imag
        return out

    def phi_adjoint(self, y):
        m, n = self.shape
        c = np.zeros(n // 2 + 1, dtype=complex)
        c[0] = y[0]
        c[1 : m // 2 + 1].real = y[1::2] / np.sqrt(2.0)
        c[1 : (m + 1) // 2].imag = -y[2::2] / np.sqrt(2.0)
        return np.fft.irfft(c, n, norm="ortho")

    def _apply_impl(self, x):
        return self.Q @ (self.sigma * self.phi(x))

    def _apply_adjoint_impl(self, y):
        return self.phi_adjoint(self.sigma * (self.Q.T @ y))


def trig_row_projection(A, b):
    """Projection of b onto the row space of a `TrigRows`: Phi* Phi b, by two FFTs."""
    return A.phi_adjoint(A.phi(b))


def oracle_null_projection(Vh, b):
    return b - oracle_row_projection(Vh, b)


def oracle_lstsq(U, s, Vh, b):
    """Minimizer of ||A* h - b|| via the pseudoinverse of A*."""
    return U @ ((Vh @ b) / s)


def backward_error_lstsq(A, h, b):
    """Normwise backward error of h as a solution of min ||A* h - b||, over ||A||_F.

    The smallest ||E||_F / ||A||_F for which h solves min ||(A* + E) h - b||
    exactly, with b not perturbed: min(phi, sigma_min(M)) over ||A||_F, for
    M = [A*, phi (I - r r^+)], r = b - A* h and phi = ||r|| / ||h|| (Walden,
    Karlson and Sun, NLAA 1995; Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., section 20.7).  M M* maps the span of A*'s columns
    and r into itself and is phi^2 on the rest, so sigma_min(M) is phi or
    sigma_min(Q* M) for an orthonormal basis Q of that span: an SVD of
    (m+1)-by-(m+n), not n-by-(m+n).  `densify` and `svd_dense` refuse
    matrices above `ORACLE_CAP` entries.
    """
    Ad = densify(A)
    r = b - Ad.T @ h
    rr = r @ r
    if rr == 0.0:
        return 0.0
    phi = np.sqrt(rr) / np.linalg.norm(h)
    Q = np.linalg.qr(np.column_stack([Ad.T, r]))[0]
    QM = np.hstack([Q.T @ Ad.T, phi * (Q.T - np.outer(Q.T @ r, r) / rr)])
    return min(phi, svd_dense(QM)[0][-1]) / np.linalg.norm(Ad)


def unit_vectors(n, count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        v = rng.standard_normal(n)
        yield v / np.linalg.norm(v)


def substitute_by_rows(R, y, adjoint=False):
    """Reference solve of R x = y (or R* x = y), y a vector or matrix, one row at a time."""
    T = R.T if adjoint else R
    m = R.shape[0]
    x = np.zeros(np.shape(y))
    order = range(m) if adjoint else range(m - 1, -1, -1)
    for k in order:
        x[k] = (y[k] - T[k] @ x) / T[k, k]
    return x


def stencil_matrix(m, d):
    """The m-by-m circulant block B of the sparse family with shift d, one tap at a time."""
    out = np.zeros((m, m))
    cols = np.arange(m)
    for off, val in ((-2, 1.0), (-1, -4.0), (0, 6.0 + d), (1, -4.0), (2, 1.0)):
        out[(cols + off) % m, cols] += val
    return out


def stencil_eigenvalues(m, d):
    """The eigenvalues d + 4 (cos(2 pi k / m) - 1)^2, k = 0..m-1, of that block."""
    theta = 2.0 * np.pi * np.arange(m) / m
    return d + 4.0 * (np.cos(theta) - 1.0) ** 2


def dense_adjoint_two_arrays(A, y):
    """A* y of a `DenseTestMatrix` as two length-n arrays summed: the base's A* y plus the
    scaled rank-10 term, the formula its chunked adjoint must match bit for bit."""
    out = A.base.apply_adjoint(y)
    low_rank = A.F.T @ (A.E.T @ y)
    low_rank *= A.scale
    out += low_rank
    return out


def traced_peak(fn, *args):
    """Peak bytes that `tracemalloc` traces during one call `fn(*args)`."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    fn(*args)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def count_lapack_solves(monkeypatch):
    """Route `np.linalg.solve` through a counter; the list of each call's row count from then on."""
    rows = []
    lapack_solve = np.linalg.solve

    def counting_solve(a, b):
        rows.append(a.shape[0])
        return lapack_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    return rows
