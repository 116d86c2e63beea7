import numpy as np
import pytest

from nullproj import (
    ClassicalProjector,
    ConfigurationError,
    DimensionError,
    DomainError,
    MatrixOperator,
    UniformLaggedFibonacci,
    build_preconditioner,
    make_sparse_test,
    project,
    refine_lstsq,
    solve_lstsq,
)

from helpers import oracle_lstsq, oracle_null_projection, oracle_row_projection, svd_parts, unit_vectors


def build_pair(m, n, kappa, seed, l=None):
    A = make_sparse_test(m, n, kappa, seed=seed)
    l = min(m + 4, n) if l is None else l
    pre = build_preconditioner(A, l, UniformLaggedFibonacci(seed + 1000))
    return A, pre


def test_row_space_vector_projects_to_itself():
    A, pre = build_pair(20, 80, 1e4, seed=0)
    rng = np.random.default_rng(1)
    b = A.apply_adjoint(rng.standard_normal(20))
    res = project(pre, A, b)
    assert np.linalg.norm(res.null_projection) / np.linalg.norm(b) <= 1e-10


def test_zero_vector_projects_to_zero():
    A, pre = build_pair(8, 32, 100.0, seed=2)
    res = project(pre, A, np.zeros(32))
    assert np.array_equal(res.row_projection, np.zeros(32))
    assert np.array_equal(res.null_projection, np.zeros(32))
    assert np.array_equal(res.lstsq_solution, np.zeros(8))


def test_row_projection_matches_svd_oracle():
    A, pre = build_pair(6, 24, 100.0, seed=3)
    _, _, _, Vh = svd_parts(A)
    rng = np.random.default_rng(4)
    b = rng.standard_normal(24)
    res = project(pre, A, b)
    assert np.linalg.norm(res.row_projection - oracle_row_projection(Vh, b)) <= 1e-9


def test_oracle_equivalence_sweep():
    # desk-scale grid: projections and lstsq against the SVD oracle
    for i, (m, blocks, kappa) in enumerate(
        [(4, 2, 10.0), (8, 3, 100.0), (12, 5, 1e3), (16, 6, 1e4), (20, 5, 1e4)]
    ):
        n = m * blocks
        A, pre = build_pair(m, n, kappa, seed=50 + i)
        _, U, s, Vh = svd_parts(A)
        for b in unit_vectors(n, 3, seed=60 + i):
            res = project(pre, A, b)
            row_o = oracle_row_projection(Vh, b)
            null_o = b - row_o
            assert np.linalg.norm(res.row_projection - row_o) <= 1e-8
            assert np.linalg.norm(res.null_projection - null_o) <= 1e-8


def test_complementarity_and_orthogonality():
    A, pre = build_pair(10, 40, 1e4, seed=5)
    for b in unit_vectors(40, 10, seed=6):
        res = project(pre, A, b)
        # null is literally b - row, so the sum returns b up to one rounding
        assert np.abs(res.row_projection + res.null_projection - b).max() <= 1e-15
        assert abs(np.dot(res.row_projection, res.null_projection)) <= 1e-10


def test_annihilation_metric():
    A, pre = build_pair(12, 60, 1e4, seed=7)
    kappa = 1e4
    for b in unit_vectors(60, 5, seed=8):
        z = project(pre, A, b).null_projection
        assert np.linalg.norm(A.apply(z)) / kappa <= 1e-13


def test_projection_cost_is_one_apply_each():
    A, pre = build_pair(8, 32, 100.0, seed=9)
    b = np.ones(32)
    before = A.counts()
    project(pre, A, b)
    after = A.counts()
    assert (after[0] - before[0], after[1] - before[1]) == (1, 1)


def test_dimension_checks():
    A, pre = build_pair(8, 32, 100.0, seed=10)
    with pytest.raises(DimensionError):
        project(pre, A, np.zeros(31))
    other = make_sparse_test(8, 40, 100.0, seed=11)
    with pytest.raises(DimensionError):
        project(pre, other, np.zeros(40))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nonfinite_b_is_rejected(bad):
    A, pre = build_pair(8, 32, 100.0, seed=10)
    b = np.ones(32)
    b[5] = bad
    classical = ClassicalProjector(A)
    for call in (
        lambda: project(pre, A, b),
        lambda: solve_lstsq(pre, A, b),
        lambda: refine_lstsq(pre, A, b, np.zeros(8)),
        lambda: refine_lstsq(pre, A, np.ones(32), np.full(8, bad)),
        lambda: classical.project(b),
    ):
        with pytest.raises(DomainError, match="finite"):
            call()


def test_overflowing_operator_output_is_a_domain_error_on_every_projection_path():
    # b is finite, but A b overflows: each path must stop at that apply
    A, pre = build_pair(8, 32, 100.0, seed=2)
    b = np.full(32, 1e308)
    classical = ClassicalProjector(A)
    for call in (
        lambda: project(pre, A, b),
        lambda: solve_lstsq(pre, A, b),
        lambda: refine_lstsq(pre, A, b, np.zeros(8)),
        lambda: classical.project(b),
    ):
        with pytest.raises(DomainError, match="A x"), np.errstate(over="ignore", invalid="ignore"):
            call()


def test_classical_zero_and_agreement_when_well_conditioned():
    A = make_sparse_test(8, 32, 10.0, seed=12)
    res0 = ClassicalProjector(A).project(np.zeros(32))
    assert np.array_equal(res0.null_projection, np.zeros(32))
    pre = build_preconditioner(A, 12, UniformLaggedFibonacci(13))
    rng = np.random.default_rng(14)
    b = rng.standard_normal(32)
    rc = ClassicalProjector(A).project(b)
    rr = project(pre, A, b)
    assert np.linalg.norm(rc.null_projection - rr.null_projection) <= 1e-10 * np.linalg.norm(b)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_classical_rejects_nonfinite_operator_output(bad):
    M = np.ones((2, 8))
    M[0, 5] = bad
    with pytest.raises(DomainError, match=r"A\* y"), np.errstate(invalid="ignore"):
        ClassicalProjector(MatrixOperator(M))


def test_classical_setup_cost():
    A = make_sparse_test(6, 18, 10.0, seed=15)
    ClassicalProjector(A)
    assert A.counts() == (6, 6)


def test_classical_matches_oracle_when_benign():
    A = make_sparse_test(6, 24, 10.0, seed=16)
    _, _, _, Vh = svd_parts(A)
    cl = ClassicalProjector(A)
    rng = np.random.default_rng(17)
    b = rng.standard_normal(24)
    res = cl.project(b)
    assert np.linalg.norm(res.null_projection - oracle_null_projection(Vh, b)) <= 1e-9


def test_lstsq_square_invertible():
    rng = np.random.default_rng(18)
    mat = rng.standard_normal((5, 5)) + 5.0 * np.eye(5)
    A = MatrixOperator(mat)
    pre = build_preconditioner(A, 5, UniformLaggedFibonacci(19))
    b = rng.standard_normal(5)
    h = solve_lstsq(pre, A, b)
    exact = np.linalg.solve(mat.T, b)
    assert np.linalg.norm(h - exact) / np.linalg.norm(exact) <= 1e-9


def test_lstsq_null_space_rhs_gives_zero():
    A, pre = build_pair(8, 32, 100.0, seed=20)
    _, _, _, Vh = svd_parts(A)
    rng = np.random.default_rng(21)
    b = oracle_null_projection(Vh, rng.standard_normal(32))
    h = solve_lstsq(pre, A, b)
    assert np.linalg.norm(h) <= 1e-9 * np.linalg.norm(b)


def test_lstsq_matches_pseudoinverse():
    rng = np.random.default_rng(22)
    A = MatrixOperator(rng.standard_normal((4, 12)))
    pre = build_preconditioner(A, 8, UniformLaggedFibonacci(23))
    _, U, s, Vh = svd_parts(A)
    b = rng.standard_normal(12)
    h = solve_lstsq(pre, A, b)
    h_oracle = oracle_lstsq(U, s, Vh, b)
    assert np.linalg.norm(h - h_oracle) / np.linalg.norm(h_oracle) <= 1e-8


def test_lstsq_residual_orthogonal_to_row_space():
    A, pre = build_pair(8, 40, 1e4, seed=24)
    rng = np.random.default_rng(25)
    b = rng.standard_normal(40)
    b /= np.linalg.norm(b)
    h = solve_lstsq(pre, A, b)
    assert np.linalg.norm(A.apply(A.apply_adjoint(h) - b)) <= 1e-13 * 1e4


def test_refine_zero_iterations_is_identity():
    A, pre = build_pair(8, 32, 100.0, seed=26)
    b = np.ones(32) / np.sqrt(32)
    h = solve_lstsq(pre, A, b)
    assert np.array_equal(refine_lstsq(pre, A, b, h, 0), h)
    with pytest.raises(ConfigurationError):
        refine_lstsq(pre, A, b, h, -1)


def test_refine_does_not_worsen_residual_kappa_1e6():
    kappa = 1e6
    A, pre = build_pair(20, 100, kappa, seed=27)
    rng = np.random.default_rng(28)
    b = rng.standard_normal(100)
    b /= np.linalg.norm(b)

    def residual(h):
        return np.linalg.norm(A.apply(b - A.apply_adjoint(h)))

    h0 = solve_lstsq(pre, A, b)
    h1 = refine_lstsq(pre, A, b, h0, 1)
    floor = np.finfo(float).eps * kappa**2 * np.linalg.norm(b)
    r0, r1 = residual(h0), residual(h1)
    assert r1 <= r0 * (1.0 + 1e-9) or (r0 <= 10 * floor and r1 <= 10 * floor)


def test_refine_well_conditioned_is_a_no_op():
    A, pre = build_pair(8, 32, 10.0, seed=29)
    rng = np.random.default_rng(30)
    b = rng.standard_normal(32)
    h0 = solve_lstsq(pre, A, b)
    h1 = refine_lstsq(pre, A, b, h0, 1)
    assert np.linalg.norm(h1 - h0) <= 1e-12 * np.linalg.norm(h0)


def test_refine_cost_per_iteration():
    A, pre = build_pair(8, 32, 100.0, seed=31)
    b = np.ones(32)
    h = solve_lstsq(pre, A, b)
    before = A.counts()
    refine_lstsq(pre, A, b, h, 3)
    after = A.counts()
    assert (after[0] - before[0], after[1] - before[1]) == (3, 3)


def test_reproject_zero_and_improvement():
    kappa = 1e8
    A, pre = build_pair(40, 400, kappa, seed=32)
    assert np.array_equal(project(pre, A, np.zeros(400)).null_projection, np.zeros(400))
    rng = np.random.default_rng(33)
    b = rng.standard_normal(400)
    b /= np.linalg.norm(b)
    z = project(pre, A, b).null_projection
    z2 = project(pre, A, z).null_projection
    assert np.linalg.norm(A.apply(z2)) <= 10.0 * np.linalg.norm(A.apply(z))
    # idempotence defect, kappa-normalized
    assert np.linalg.norm(z - z2) / kappa <= 1e-13


def test_concurrent_projections_share_one_preconditioner():
    import threading

    A, pre = build_pair(8, 32, 100.0, seed=60)
    rng = np.random.default_rng(61)
    bs = [rng.standard_normal(32) for _ in range(16)]
    serial = [project(pre, A, b).null_projection for b in bs]

    results = [None] * len(bs)

    def worker(i):
        results[i] = project(pre, A, bs[i]).null_projection

    before = A.counts()
    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(bs))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    after = A.counts()

    for got, want in zip(results, serial):
        assert np.array_equal(got, want)
    assert (after[0] - before[0], after[1] - before[1]) == (len(bs), len(bs))
