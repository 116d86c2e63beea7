"""Randomized preconditioner construction.

Given a counted operator A (m-by-n, m <= n) and a random stream, this
module forms the sketch S = A G column by column, takes a pivoted QR of
S*, and precomputes everything a projection needs afterwards: the
triangular factor R, the pivot permutation, and the inverse Y of the
preconditioned Gram matrix.  The Gram build is the permuted solve pair of
`dense_core` wrapped around `linop.apply_gram`.  The whole build costs
exactly l+m applies of A and m applies of A*, and never allocates more
than one length-n column of G at a time.
"""

from dataclasses import dataclass

import numpy as np

from .dense_core import invert_small, qr_pivoted, solve_upper_permuted, solve_upper_permuted_adjoint
from .errors import ConfigurationError, DimensionError, RankDeficientSketchError
from .linop import apply_gram

SKETCH_ATTEMPTS = 3  # sketches a build tries before it reports a rank-deficient operator


@dataclass
class Preconditioner:
    """Everything needed to project after one randomized setup.

    `R` is upper-triangular m-by-m, `perm` the pivot index array (the
    permutation acts as z -> z[perm]), and `Y` the symmetric inverse of
    the preconditioned Gram matrix.  Construction rejects a malformed `R`,
    `perm` or `Y`.  Instances are immutable (the arrays are marked
    read-only) and safe to share across threads.
    """

    R: np.ndarray
    perm: np.ndarray
    Y: np.ndarray
    l: int
    m: int
    n: int
    build_apply_counts: tuple

    def __post_init__(self):
        for name, arr in (("R", self.R), ("Y", self.Y)):
            if arr.shape != (self.m, self.m):
                raise DimensionError(f"{name} must be {self.m}x{self.m}, got shape {arr.shape}")
        if self.perm.dtype.kind not in "iu" or not np.array_equal(np.sort(self.perm), np.arange(self.m)):
            raise ConfigurationError(f"perm must be an integer permutation of range({self.m})")
        for arr in (self.R, self.perm, self.Y):
            arr.setflags(write=False)


def default_sketch_width(m, n=None):
    """The usual sketch width m+4, clamped to n when the operator is that narrow."""
    if m < 1:
        raise ConfigurationError(f"m must be positive, got {m}")
    width = m + 4
    if n is not None:
        width = min(width, n)
    return width


def build_sketch(A, l, g):
    """Sketch S = A G, one generated column of G at a time.

    Applies A exactly l times and holds only one length-n column plus the
    m-by-l result, never the full n-by-l random matrix.  An apply that
    returns a NaN or infinite entry raises `DomainError` from the operator
    at once; no fresh sketch could mend it.
    """
    m, n = A.shape
    l = int(l)
    if not m <= l <= n:
        raise ConfigurationError(f"sketch width must satisfy m <= l <= n, got l={l} for {m}x{n}")
    S = np.empty((m, l))
    for k in range(l):
        S[:, k] = A.apply(g.fill_column(n))
    return S


def build_gram(A, R, perm):
    """Preconditioned Gram matrix X = P^-1 A A* (P*)^-1 with P = Pi* R*.

    P* = R Pi, so (P*)^-1 is the permuted solve against the identity;
    `apply_gram` overwrites its columns with A A* (P*)^-1, and the adjoint
    permuted solve applies P^-1 from the left.  Costs m applies of A and m
    of A*, with one length-n temporary.
    """
    m, n = A.shape
    R = np.asarray(R, dtype=float)
    if R.shape != (m, m):
        raise ConfigurationError(f"R must be {m}x{m} for a {m}x{n} operator, got {R.shape}")
    W = apply_gram(A, solve_upper_permuted(R, perm, np.eye(m)))
    return solve_upper_permuted_adjoint(R, perm, W)


def build_preconditioner(A, l, g):
    """Full randomized setup: sketch, pivoted QR of S*, Gram matrix, inverse.

    Parameters
    ----------
    A : LinearOperator
        Short, fat full-rank operator.
    l : int
        Sketch width, m <= l <= n (m+4 is the usual choice).
    g : stream
        Random generator with a `fill_column` method (uniform lagged
        Fibonacci and Gaussian streams both qualify).

    A rank-deficient sketch is replaced by a fresh one, up to
    `SKETCH_ATTEMPTS` sketches in all; then `RankDeficientSketchError` is
    raised for the caller, who may reseed.  Returns a `Preconditioner`
    whose `build_apply_counts` records the (A, A*) applies spent, (l+m, m)
    on the standard single-attempt path.
    Only R and the permutation outlive the attempt that produced them:
    the sketch and the QR's Householder reflectors are freed before the
    Gram build, so neither adds to the memory the Gram matrix and its
    inverse need.
    """
    m, n = A.shape
    before = A.counts()
    eps = np.finfo(float).eps
    for _ in range(SKETCH_ATTEMPTS):
        qr = qr_pivoted(build_sketch(A, l, g).T)
        R, perm = qr.R, qr.perm
        del qr
        diag = np.abs(np.diag(R))
        if diag[0] > 0.0 and diag.min() >= m * eps * diag[0]:
            break
    else:
        raise RankDeficientSketchError(
            f"sketch was rank deficient in {SKETCH_ATTEMPTS} attempts; is the operator full rank?"
        )
    Y = invert_small(build_gram(A, R, perm))
    after = A.counts()
    return Preconditioner(
        R=R,
        perm=perm,
        Y=Y,
        l=l,
        m=m,
        n=n,
        build_apply_counts=(after[0] - before[0], after[1] - before[1]),
    )
