import tracemalloc

import numpy as np
import pytest

from nullproj import (
    ConfigurationError,
    DimensionError,
    DomainError,
    GaussianStream,
    LinearOperator,
    MatrixOperator,
    Preconditioner,
    RankDeficientSketchError,
    UniformLaggedFibonacci,
    build_gram,
    build_preconditioner,
    build_sketch,
    default_sketch_width,
    densify,
    invert_small,
    make_sparse_test,
    measured_condition,
    project,
    qr_pivoted,
)
from nullproj.precond import SKETCH_ATTEMPTS


def perm_matrix(perm):
    """Dense matrix of the permutation acting as z -> z[perm]."""
    return np.eye(perm.size)[perm]


def test_sketch_of_zero_operator_is_zero():
    A = MatrixOperator(np.zeros((2, 4)))
    S = build_sketch(A, 3, UniformLaggedFibonacci(1))
    assert np.array_equal(S, np.zeros((2, 3)))


def test_sketch_replays_the_stream():
    # A = [I_3 | 0]: each sketch column is the top 3 entries of a G column
    A = MatrixOperator(np.hstack([np.eye(3), np.zeros((3, 3))]))
    seed = 42
    S = build_sketch(A, 3, UniformLaggedFibonacci(seed))
    g = UniformLaggedFibonacci(seed)
    G = np.column_stack([g.fill_column(6) for _ in range(3)])
    assert np.array_equal(S, G[:3, :])


def test_sketch_counts_and_bounds():
    A = make_sparse_test(6, 30, 50.0, seed=1)
    before = A.counts()
    build_sketch(A, 10, UniformLaggedFibonacci(2))
    assert A.counts() == (before[0] + 10, before[1])
    with pytest.raises(ConfigurationError):
        build_sketch(A, 5, UniformLaggedFibonacci(2))  # l < m
    with pytest.raises(ConfigurationError):
        build_sketch(A, 31, UniformLaggedFibonacci(2))  # l > n


def test_build_gram_scalar_case():
    c, r = 3.0, 2.0
    A = MatrixOperator(np.array([[c]]))
    X = build_gram(A, np.array([[r]]), np.array([0]))
    assert X.shape == (1, 1)
    assert X[0, 0] == pytest.approx(c * c / (r * r), rel=1e-15)


def test_build_gram_matches_dense_oracle():
    # operator-generic op; a 3x8 shape cannot come from the sparse family.
    # m=40 is above the triangular solves' base case, so their recursion runs.
    rng = np.random.default_rng(3)
    for m, n, l in ((3, 8, 5), (40, 100, 44)):
        A = MatrixOperator(rng.standard_normal((m, n)))
        S = build_sketch(A, l, UniformLaggedFibonacci(4))
        qr = qr_pivoted(S.T)
        X = build_gram(A, qr.R, qr.perm)
        P = perm_matrix(qr.perm).T @ qr.R.T  # P = Pi* R*
        Ad = A.mat
        X_oracle = np.linalg.inv(P) @ Ad @ Ad.T @ np.linalg.inv(P).T
        assert np.abs(X - X_oracle).max() <= 1e-10


def test_build_gram_cost_and_spd():
    A = make_sparse_test(6, 24, 100.0, seed=5)
    S = build_sketch(A, 10, UniformLaggedFibonacci(6))
    qr = qr_pivoted(S.T)
    before = A.counts()
    X = build_gram(A, qr.R, qr.perm)
    after = A.counts()
    assert (after[0] - before[0], after[1] - before[1]) == (6, 6)
    assert np.linalg.eigvalsh((X + X.T) / 2).min() > 0


def test_build_preconditioner_counts_m50_l54():
    A = make_sparse_test(50, 200, 1e4, seed=7)
    pre = build_preconditioner(A, 54, UniformLaggedFibonacci(8))
    assert pre.build_apply_counts == (104, 50)
    assert pre.Y.shape == (50, 50)
    assert np.array_equal(pre.Y, pre.Y.T)


def test_preconditioner_scalar_chain():
    c = 3.0
    A = MatrixOperator(np.array([[c]]))
    pre = build_preconditioner(A, 1, UniformLaggedFibonacci(9))
    assert pre.Y[0, 0] == pytest.approx(pre.R[0, 0] ** 2 / c**2, rel=1e-12)
    b = np.array([0.7])
    res = project(pre, A, b)
    assert res.row_projection[0] == pytest.approx(b[0], rel=1e-14)


def test_gram_inverse_invariant():
    # recomputing X from (A, R, perm) must invert Y to high accuracy
    A = make_sparse_test(10, 50, 100.0, seed=10)
    pre = build_preconditioner(A, 14, UniformLaggedFibonacci(11))
    X = build_gram(A, pre.R, pre.perm)
    assert np.abs(X @ pre.Y - np.eye(10)).max() <= 1e-8


def test_conditioning_single_instance():
    A = make_sparse_test(50, 1000, 1e8, seed=12)
    pre = build_preconditioner(A, 54, UniformLaggedFibonacci(13))
    assert measured_condition(pre, A) <= 10 * 54


def test_conditioning_gaussian_stream():
    A = make_sparse_test(50, 1000, 1e8, seed=14)
    pre = build_preconditioner(A, 54, GaussianStream(15))
    assert measured_condition(pre, A) <= 10 * 54


def test_scaling_invariance():
    # P absorbs a global rescaling of A, so cond(P^-1 A) is unchanged
    A = make_sparse_test(8, 32, 1e4, seed=16)
    A10 = MatrixOperator(10.0 * densify(A))
    c1 = measured_condition(build_preconditioner(A, 12, UniformLaggedFibonacci(17)), A)
    c2 = measured_condition(build_preconditioner(A10, 12, UniformLaggedFibonacci(17)), A10)
    assert abs(c1 - c2) / c1 <= 1e-6


def test_conditioning_holds_at_extreme_operator_scales():
    # scales whose squares overflow or underflow in a plain column norm:
    # the build must neither fail its rank check nor lose conditioning
    M = np.random.default_rng(0).standard_normal((4, 16))
    conds = []
    for scale in (2.0**-700, 1e-200, 1e-170, 1.0, 1e150, 1e160, 2.0**700):
        A = MatrixOperator(M * scale)
        conds.append(measured_condition(build_preconditioner(A, 8, UniformLaggedFibonacci(1)), A))
    assert np.allclose(conds, conds[3], rtol=1e-10, atol=0)


def test_numerical_rank_boundary_of_the_sparse_family():
    # kappa = 1e14 is still full rank in double precision and builds within
    # the paper's bound; at 1e15 every sketch fails the rank check
    m, n, l = 50, 1000, 54
    for seed in range(5):
        A = make_sparse_test(m, n, 1e14, seed=seed)
        pre = build_preconditioner(A, l, UniformLaggedFibonacci(100 + seed))
        assert measured_condition(pre, A) <= 10 * l
    for seed in range(5):
        A = make_sparse_test(m, n, 1e15, seed=seed)
        with pytest.raises(RankDeficientSketchError):
            build_preconditioner(A, l, UniformLaggedFibonacci(100 + seed))
        assert A.counts() == (SKETCH_ATTEMPTS * l, 0)


def test_preconditioner_rejects_malformed_factors():
    A = make_sparse_test(8, 32, 100.0, seed=2)
    pre = build_preconditioner(A, 12, UniformLaggedFibonacci(3))
    fields = dict(R=pre.R, perm=pre.perm, Y=pre.Y, l=12, m=8, n=32, build_apply_counts=(20, 8))
    assert np.array_equal(Preconditioner(**fields).perm, pre.perm)
    # a repeated index would make `project` return a wrong projection silently
    for perm in (np.zeros(8, int), np.arange(7), np.arange(1, 9), np.arange(8.0)):
        with pytest.raises(ConfigurationError, match="perm"):
            Preconditioner(**{**fields, "perm": perm})
    for name in ("R", "Y"):
        with pytest.raises(DimensionError, match=name):
            Preconditioner(**{**fields, name: np.eye(5)})


def test_rank_deficient_sketch_raises_after_retries():
    A = MatrixOperator(np.zeros((2, 4)))
    g = UniformLaggedFibonacci(18)
    with pytest.raises(RankDeficientSketchError):
        build_preconditioner(A, 3, g)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_operator_output_is_a_domain_error_after_one_sketch(bad):
    # a fresh sketch cannot mend it, so no retries are spent on it
    M = np.ones((2, 8))
    M[1, 3] = bad
    A = MatrixOperator(M)
    with pytest.raises(DomainError, match="A x"):
        build_preconditioner(A, 4, UniformLaggedFibonacci(18))
    assert A.counts() == (1, 0)


class NonFiniteAdjoint(LinearOperator):
    """Finite applies of a well-conditioned matrix, NaN adjoint applies."""

    def __init__(self):
        super().__init__(2, 8)
        self._mat = np.eye(2, 8) + np.eye(2, 8, 3)

    def _apply_impl(self, x):
        return self._mat @ x

    def _apply_adjoint_impl(self, y):
        return np.full(8, np.nan)


def test_nonfinite_adjoint_output_is_a_domain_error_in_the_gram_build():
    with pytest.raises(DomainError, match=r"A\* y"):
        build_preconditioner(NonFiniteAdjoint(), 4, UniformLaggedFibonacci(18))


def test_rank_detection_on_graded_rank_deficient_operators():
    # rank m-1 operators whose row scales span up to 8 decades: the pivoted
    # QR's diagonal must flag every one (an unpivoted R lets some through)
    rng = np.random.default_rng(1)
    for case in range(400):
        m = int(rng.choice([4, 10, 30]))
        M = rng.standard_normal((m, 5 * m))
        i, j, k = rng.choice(m, 3, replace=False)
        M[i] = rng.standard_normal() * M[j] + rng.standard_normal() * M[k]
        M *= rng.permutation(np.logspace(0, rng.uniform(0, 8), m))[:, None]
        with pytest.raises(RankDeficientSketchError):
            build_preconditioner(MatrixOperator(M), m + 4, UniformLaggedFibonacci(case))


def test_preconditioner_arrays_are_read_only():
    A = make_sparse_test(4, 8, 10.0, seed=19)
    pre = build_preconditioner(A, 6, UniformLaggedFibonacci(20))
    with pytest.raises(ValueError):
        pre.Y[0, 0] = 1.0


def test_default_sketch_width():
    assert default_sketch_width(40) == 44
    assert default_sketch_width(4000) == 4004
    assert default_sketch_width(1, n=1) == 1
    with pytest.raises(ConfigurationError):
        default_sketch_width(0)


def traced_peak(fn, *args):
    tracemalloc.start()
    tracemalloc.reset_peak()
    fn(*args)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def test_build_memory_stays_far_below_full_g():
    # one column of G at a time: peak extra allocation must be nowhere near
    # the n*l doubles a materialized G would take (3.84 MB here)
    m, n, l = 20, 20_000, 24
    A = make_sparse_test(m, n, 100.0, seed=21)
    full_g_bytes = n * l * 8
    peaks = []
    for g in (UniformLaggedFibonacci(22), GaussianStream(22)):
        peak = traced_peak(build_preconditioner, A, l, g)
        assert peak < 0.5 * full_g_bytes
        peaks.append(peak)
    # the Gaussian stream draws its uniforms a bounded chunk at a time, so it
    # adds less than one column over the uniform stream; drawing a column's
    # uniforms at once would add several
    assert peaks[1] - peaks[0] < n * 8


def test_build_holds_no_sketch_through_inverse():
    # the build's peak is its last phase: the inverse, with X and R alive;
    # a sketch still referenced by then would add one more m-by-l array
    m, n, l = 100, 1000, 104
    A = make_sparse_test(m, n, 1e8, seed=24)
    # the first builds in a process also fill interpreter caches, which
    # tracemalloc counts; the least of three peaks is the build's own
    build_peak = min(
        traced_peak(build_preconditioner, A, l, UniformLaggedFibonacci(25)) for _ in range(3)
    )
    pre = build_preconditioner(A, l, UniformLaggedFibonacci(25))
    X = build_gram(A, pre.R, pre.perm)
    inv_peak = traced_peak(invert_small, X)
    assert build_peak - inv_peak - X.nbytes - pre.R.nbytes < m * l * 8


def test_build_gram_rejects_wrong_factor_shape():
    A = make_sparse_test(6, 24, 100.0, seed=23)
    with pytest.raises(ConfigurationError):
        build_gram(A, np.eye(5), np.arange(5))
