"""Randomized preconditioner construction.

Given a counted operator A (m-by-n, m <= n) and a random stream, this
module forms the sketch S = A G, drawing G in blocks of whole columns
with one stream request per block, takes a pivoted QR of S*, and
precomputes everything a projection needs afterwards: the triangular
factor R, the pivot permutation, and the triangular factor U = L* R of
the chain, for the Cholesky factor L of the preconditioned Gram matrix
X = L L*.  The Gram build is `dense_core.build_gram`: the two
permuted solves of the factor R Pi, run in place around m applies of
A A*, one column at a time.  The whole build costs exactly l+m applies
of A and m applies of A*, and never holds more of G than one block of
at most m l values, one length-n column when n >= m l; few large
requests cost the stream less per value than many small ones.  The
paper's small inverse Y = X^-1 is never formed: projections solve
through U Pi instead (`dense_core._chain_upper`), and `Preconditioner.Y`
computes Y from R and U when it is read.

Working set: the Gram build and the chain's factor each hold two m-by-m
arrays, R and the Gram matrix, plus temporaries of one 32-column block
column or block row, because both run in place on the one array the
Gram build makes: its identity takes R^-1, then column by column the
permuted applies of A A*, then R^-*, and the Gram matrix X takes L and
then U.  The sketch
phase holds S and one block, at most two m-by-l arrays, plus the
stream's state.  The QR runs in S itself, which already has the layout
of its working array, so it holds S, R and one panel update.  At large
n the length-n arrays dominate instead, and a build holds one length-n
array at a time: the stream's one-column block in the sketch, then
`A* w` in the Gram build (pinned by
`test_sparse_build_holds_one_length_n_array_at_a_time`).  README
"Memory" says how each operator keeps to that and gives the measured
peaks.
"""

import threading
from dataclasses import dataclass, field

import numpy as np

from .dense_core import PermutedFactor, _chain_upper, _invert_spd, _qr_pivoted_rows, build_gram
from .errors import ConfigurationError, DimensionError, DomainError, FactorizationError
from .errors import RankDeficientSketchError, all_finite, as_index, as_real, checked_draw

SKETCH_ATTEMPTS = 3  # sketches a build tries before it reports a rank-deficient operator


@dataclass(init=False, eq=False)
class Preconditioner:
    """Everything needed to project after one randomized setup.

    `R` is upper-triangular m-by-m, `perm` the pivot index array (the
    permutation acts as z -> z[perm]), and `Y` the symmetric inverse of
    the preconditioned Gram matrix X = P^-1 A A* P^-*, with P* = R Pi.
    Construction takes `l`, `m` and `n` as Python ints with m <= l <= n,
    converts `R` and `Y` to float arrays (a float ndarray is not copied; a
    complex one raises `DomainError`), checks their shapes and that `Y` is
    finite, and checks `R` and `perm` through their
    `dense_core.PermutedFactor`, keeping only its copy of `perm`: a `perm`
    that is not an integer permutation raises `ConfigurationError`, a NaN
    or infinite entry of `R` `DomainError` and a zero on R's diagonal
    `SingularFactorError`.

    The one factor held is the chain's, U Pi with U = L* R for the
    Cholesky factor L of X = Y^-1, so that every projection's
    (P*)^-1 Y P^-1 = (U Pi)^-1 (U Pi)^-*: two triangular solves and no
    m-by-m matvec.  `build_preconditioner` forms U over its Gram matrix
    and never forms Y, so its `Y` is read back as (R U^-1)(R U^-1)*, the Y
    that the chain applies: an m-by-m product computed at each read,
    exactly symmetric.  A preconditioner made from a `Y` keeps that `Y`
    and forms U from Y^-1 at its first projection, which raises
    `DomainError` for a `Y` that is not exactly symmetric and
    `FactorizationError` for one that is not numerically positive definite.
    R's factor is formed only by `diagnostics.measured_condition`.

    Instances compare and hash by identity, are immutable (the arrays are
    read-only) and are safe to share across threads; what changes is the
    chain factor's cache of fused solve steps, built at its first solve,
    and the chain's factor of a preconditioner made from a `Y`, formed at
    its first projection.  Each is built under a lock, so concurrent first
    projections build it once.  No projection of a build calls LAPACK.
    """

    # R, perm and Y are left out of the repr, which would print m-by-m
    # arrays and, for a build, compute Y
    R: np.ndarray = field(repr=False)
    perm: np.ndarray = field(repr=False)
    l: int
    m: int
    n: int
    build_apply_counts: tuple

    def __init__(self, R, perm, Y, l, m, n, build_apply_counts):
        self._hold(R, perm, l, m, n, build_apply_counts)  # R's factor checks R and perm, and goes
        self._Y = as_real(Y, "Y")
        if self._Y.shape != (self.m, self.m):
            raise DimensionError(f"Y must be {self.m}x{self.m}, got shape {self._Y.shape}")
        if not all_finite(self._Y):
            raise DomainError("Y must be finite, got a NaN or infinite entry")
        self._Y.setflags(write=False)
        self._chain = None  # formed from Y at the first projection
        self._chain_lock = threading.Lock()

    @classmethod
    def _of_gram(cls, R, perm, X, l, m, n, build_apply_counts):
        """The preconditioner of a build: U formed over its Gram matrix X, and no Y held."""
        pre = cls.__new__(cls)
        pre._chain = pre._hold(R, perm, l, m, n, build_apply_counts, X)
        pre._Y = None
        return pre

    def _hold(self, R, perm, l, m, n, build_apply_counts, X=None):
        """Check and keep the fields; returns the `PermutedFactor` that checked R and perm,
        R's or, given a build's Gram matrix X, the chain's (U's diagonal is zero where R's is)."""
        self.m, self.n = as_index(m, "m"), as_index(n, "n")
        self.l = _check_sketch_width(l, self.m, self.n)
        self.R = as_real(R, "R")
        if self.R.shape != (self.m, self.m):
            raise DimensionError(f"R must be {self.m}x{self.m}, got shape {self.R.shape}")
        self.build_apply_counts = build_apply_counts
        factor = PermutedFactor(self.R if X is None else _chain_upper(X, self.R), perm)
        self.perm = factor.perm
        for held in (self.R, self.perm, factor.R):
            held.setflags(write=False)
        return factor

    def _read_y(self):
        """The `Y` this was made from, or for a build the Y its chain applies, computed at each read."""
        if self._Y is not None:
            return self._Y
        T = self._chain.substitute_adjoint(np.array(self.R.T)).T  # T = R U^-1, which is L^-*
        Y = T @ T.T  # numpy's symmetric product, so Y == Y.T exactly
        Y.setflags(write=False)
        return Y

    # a field, so that `dataclasses.replace` passes Y on; its default keeps
    # the property on the class
    Y: np.ndarray = field(default=property(_read_y), repr=False)

    def _chain_factor(self):
        """The `PermutedFactor` of U Pi that every projection solves through."""
        chain = self._chain
        if chain is None:
            with self._chain_lock:
                chain = self._chain
                if chain is None:
                    if not np.array_equal(self._Y, self._Y.T):
                        raise DomainError("Y must be symmetric, got Y != Y.T")
                    try:
                        X = _invert_spd(np.array(self._Y))
                    except FactorizationError as exc:
                        raise FactorizationError(f"Y must be positive definite: {exc}") from exc
                    chain = self._chain = PermutedFactor(_chain_upper(X, self.R), self.perm)
        return chain


def default_sketch_width(m, n=None):
    """The usual sketch width m+4, clamped to n when the operator is that narrow.

    m and n must be integers with 1 <= m <= n, as for any operator (ConfigurationError).
    """
    m = as_index(m, "m", least=1)
    if n is None:
        return m + 4
    n = as_index(n, "n", least=1)
    if n < m:
        raise ConfigurationError(f"n must be at least m={m}, got {n}")
    return min(m + 4, n)


def _check_sketch_width(l, m, n):
    """The sketch width `l` as a Python int; ConfigurationError unless it is an integer in [m, n]."""
    l = as_index(l, "sketch width")
    if not m <= l <= n:
        raise ConfigurationError(f"sketch width must satisfy m <= l <= n, got l={l} for {m}x{n}")
    return l


def build_sketch(A, l, g):
    """Sketch S = A G, drawing G in blocks of whole columns no larger than S.

    `g.fill_column(k)` must return the next `k` values of one sequence as
    a 1-D array, the same values however the requests are split, since
    one request may cover several columns: a block of
    b = max(1, m l // n) columns is one `fill_column(b n)` (the last block
    takes what is left of l), and its consecutive n-value slices are G's
    columns in order.  So at n >= m l each request is one column.  A
    stream whose output is not k values in a 1-D array raises
    `DimensionError` naming the stream, before any apply on that block.

    Applies A exactly l times and holds the m-by-l result, one block of at
    most m l values and the stream's state, never the full n-by-l random
    matrix.  An apply that returns a NaN or infinite entry raises
    `DomainError` from the operator at once; no fresh sketch could mend it.
    """
    m, n = A.shape
    l = _check_sketch_width(l, m, n)
    b = max(1, m * l // n)
    S = np.empty((m, l))
    for start in range(0, l, b):
        cols = min(b, l - start)
        size = cols * n
        block = checked_draw(g.fill_column(size), size, g)
        # 1-D slices: a 2-D view's shape arrays would stay in numpy's
        # dimension cache and count as held memory
        for k in range(cols):
            S[:, start + k] = A.apply(block[k * n : (k + 1) * n])
        del block  # before the next draw, so one block is alive at a time
    return S


def build_preconditioner(A, l, g):
    """Full randomized setup: sketch, pivoted QR of S*, Gram matrix, the chain's factor.

    Parameters
    ----------
    A : LinearOperator
        Short, fat full-rank operator.
    l : int
        Sketch width, an integer with m <= l <= n (m+4 is the usual
        choice); anything else raises `ConfigurationError`.
    g : stream
        Random generator whose `fill_column(k)` returns the next `k`
        values of one sequence as a 1-D array.  A build may ask for
        several columns of G in one request, so the values must not
        depend on how requests are split (uniform lagged Fibonacci and
        Gaussian streams both qualify); see `build_sketch`.

    A rank-deficient sketch is replaced by a fresh one, up to
    `SKETCH_ATTEMPTS` sketches in all; then `RankDeficientSketchError` is
    raised for the caller, who may reseed.  Returns a `Preconditioner`
    whose `build_apply_counts` records the (A, A*) applies spent, (l+m, m)
    on the standard single-attempt path.
    Only R and the permutation outlive the attempt that produced them:
    the sketch, which the QR overwrites with its Householder reflectors,
    is freed before the Gram build, so it adds nothing to the memory the
    Gram matrix and the chain's factor need.  The Gram build and the
    chain's factor hold two m-by-m arrays, R and the Gram matrix, plus
    block temporaries, because both run in place on the one array the
    Gram build makes (the Gram matrix X is overwritten by its Cholesky
    factor L and then by U = L* R).  Y is not formed.  At large n the
    build holds one length-n array at a time plus m-sized state.
    """
    m, n = A.shape
    l = _check_sketch_width(l, m, n)
    before = A.counts()
    eps = np.finfo(float).eps
    for _ in range(SKETCH_ATTEMPTS):
        qr = _qr_pivoted_rows(build_sketch(A, l, g))  # the QR of S*, run in S itself
        R, perm = qr.R, qr.perm
        del qr
        diag = np.abs(np.diag(R))
        if diag[0] > 0.0 and diag.min() >= m * eps * diag[0]:
            break
    else:
        raise RankDeficientSketchError(
            f"sketch was rank deficient in {SKETCH_ATTEMPTS} attempts; is the operator full rank?"
        )
    X = build_gram(A, R, perm)
    after = A.counts()
    return Preconditioner._of_gram(R, perm, X, l, m, n, (after[0] - before[0], after[1] - before[1]))
