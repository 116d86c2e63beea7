import numpy as np
import pytest

from nullproj import (
    ClassicalProjector,
    ConfigurationError,
    DimensionError,
    DomainError,
    MatrixOperator,
    Preconditioner,
    SingularFactorError,
    UniformLaggedFibonacci,
    build_preconditioner,
    densify,
    error_metrics,
    make_dense_test,
    make_sparse_test,
    measured_condition,
    project,
    refine_lstsq,
    solve_lstsq,
    solve_upper,
    solve_upper_adjoint,
)
from nullproj import dense_core, precond
from nullproj.projector import _solve_chain

from helpers import (
    backward_error_lstsq,
    count_lapack_solves,
    oracle_lstsq,
    oracle_null_projection,
    oracle_row_projection,
    sparse_row_projection,
    substitute_by_rows,
    svd_parts,
    unit_vectors,
)


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


def test_sparse_closed_form_row_projection_matches_the_svd_oracle():
    # at the oracle cap, and at kappa = 1e2, where the SVD oracle's own
    # error, about kappa eps, is small (9.8e-15 measured)
    A = make_sparse_test(100, 10_000, 1e2, seed=90)
    _, _, _, Vh = svd_parts(A)
    for b in unit_vectors(10_000, 3, seed=91):
        assert np.linalg.norm(sparse_row_projection(A, b) - oracle_row_projection(Vh, b)) <= 1e-13


@pytest.mark.parametrize("kappa", [1e4, 1e8, 1e12])
def test_row_projection_past_the_oracle_cap_matches_the_sparse_closed_form(kappa):
    # (100, 1e5) is ten times the cap, so the SVD oracle cannot run; it would
    # be no reference at large kappa either: the SVD rounds A by about
    # eps |A|, which turns its row space by about kappa eps (2.4e-9 measured
    # at kappa = 1e8, n = 1e4), where the closed form's error does not grow
    # with kappa.  Criterion 06's bound; 3e-18 kappa to 5e-18 kappa measured
    m, n = 100, 100_000
    A, pre = build_pair(m, n, kappa, seed=92)
    for b in unit_vectors(n, 3, seed=93):
        err = np.linalg.norm(project(pre, A, b).row_projection - sparse_row_projection(A, b))
        assert err <= 1e-13 * kappa


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


def test_classical_refuses_an_exactly_singular_gram_matrix():
    # a zero row k of A is a zero row and column k of A A*; the unpivoted
    # QR leaves that column zero, so R's diagonal entry k is an exact zero
    M = np.random.default_rng(16).standard_normal((5, 12))
    M[2] = 0.0
    with pytest.raises(SingularFactorError, match="index 2"):
        ClassicalProjector(MatrixOperator(M))


def test_classical_setup_cost():
    A = make_sparse_test(6, 18, 10.0, seed=15)
    classical = ClassicalProjector(A)
    assert A.counts() == (6, 6)
    for b in unit_vectors(18, 3, seed=15):
        before = A.counts()
        classical.project(b)
        after = A.counts()
        assert (after[0] - before[0], after[1] - before[1]) == (1, 1)


@pytest.mark.parametrize("family", [make_sparse_test, make_dense_test])
def test_classical_setup_factors_the_gram_matrix_of_the_applies(family):
    # the setup writes A A* row by row and hands its transpose to LAPACK;
    # its factors are np.linalg.qr's of A A* formed column by column
    A = family(8, 32, 1e4, seed=26)
    gram = np.column_stack([A.apply(A.apply_adjoint(e)) for e in np.eye(8)])
    Q, R = np.linalg.qr(gram)
    classical = ClassicalProjector(A)
    assert np.array_equal(classical._factor.R, R)
    assert np.array_equal(classical._factor.perm, np.arange(8))
    assert np.array_equal(classical._Q, Q)


@pytest.mark.parametrize("kappa", [1e4, 1e8, 1e12, 1e15])
@pytest.mark.parametrize("family", [make_sparse_test, make_dense_test], ids=["sparse", "dense"])
def test_classical_returns_its_poor_answer_rather_than_raising(family, kappa):
    # criteria 06-08 compare against the classical result, so the baseline
    # must answer however badly A A* is conditioned
    A = family(100, 3000, kappa, seed=27)
    classical = ClassicalProjector(A)
    for b in unit_vectors(3000, 3, seed=28):
        res = classical.project(b)
        for field in (res.row_projection, res.null_projection, res.lstsq_solution):
            assert np.isfinite(field).all()


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


def test_refine_iterations_must_be_an_integer():
    A, pre = build_pair(8, 32, 100.0, seed=26)
    b = np.ones(32) / np.sqrt(32)
    h = solve_lstsq(pre, A, b)
    before = A.counts()
    for bad in (1.5, np.float64(2.0), "2"):
        with pytest.raises(ConfigurationError, match="integer"):
            refine_lstsq(pre, A, b, h, bad)
    assert A.counts() == before
    assert np.array_equal(refine_lstsq(pre, A, b, h, np.int64(2)), refine_lstsq(pre, A, b, h, 2))
    assert A.counts() == (before[0] + 4, before[1] + 4)


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


def project_all_at_once(pre, A, bs):
    """Project each of bs on its own thread, all released at once with a
    switch interval of 1 us, so that the threads meet in a first projection."""
    import sys
    import threading

    results = [None] * len(bs)
    start = threading.Barrier(len(bs))

    def worker(i):
        start.wait(timeout=30)
        results[i] = project(pre, A, bs[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(bs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return results


def assert_bitwise_equal(results, serial):
    for got, want in zip(results, serial):
        for field in ("row_projection", "null_projection", "lstsq_solution"):
            assert np.array_equal(getattr(got, field), getattr(want, field))


def test_concurrent_first_projections_match_serial_ones_bitwise(monkeypatch):
    # The first vector solve in each direction builds the chain factor's
    # fused steps.  Threads that all reach it at once, on a fresh
    # preconditioner, must each get what a serial caller of an identical
    # build gets, and the steps are built once per preconditioner.
    built = []
    fused_steps = dense_core._fused_steps

    def counting(R, inv):
        built.append(R.shape[0])
        return fused_steps(R, inv)

    monkeypatch.setattr(dense_core, "_fused_steps", counting)
    A, fresh = build_pair(100, 1000, 1e8, seed=62)
    twin = build_preconditioner(A, 104, UniformLaggedFibonacci(62 + 1000))
    rng = np.random.default_rng(63)
    bs = [rng.standard_normal(1000) for _ in range(8)]
    serial = [project(twin, A, b) for b in bs]
    assert_bitwise_equal(project_all_at_once(fresh, A, bs), serial)
    assert built == [100, 100]  # one for the serial twin, one for the shared build
    assert fresh._chain._fused is not None


def test_concurrent_first_projections_of_a_preconditioner_made_from_y_factor_it_once(monkeypatch):
    # A preconditioner made from a Y forms the chain's U at its first
    # projection, under its own lock; threads that all reach that projection
    # at once form U once and get what a serial twin made from the same
    # fields gets
    factored = []
    chain_upper = precond._chain_upper

    def counting(X, R):
        factored.append(X.shape[0])
        return chain_upper(X, R)

    A, pre = build_pair(100, 1000, 1e8, seed=64)
    fields = dict(R=pre.R, perm=pre.perm, Y=pre.Y, l=104, m=100, n=1000, build_apply_counts=(0, 0))
    twin, fresh = Preconditioner(**fields), Preconditioner(**fields)
    rng = np.random.default_rng(65)
    bs = [rng.standard_normal(1000) for _ in range(8)]
    serial = [project(twin, A, b) for b in bs]
    monkeypatch.setattr(precond, "_chain_upper", counting)
    assert_bitwise_equal(project_all_at_once(fresh, A, bs), serial)
    assert factored == [100] and fresh._chain is fresh._chain_factor()


def test_projections_after_a_build_make_no_lapack_solve(monkeypatch):
    # The build inverts the diagonal blocks of the chain's U once; every
    # solve after that is BLAS products only, on both the randomized and
    # classical paths, and no projection factors anything.  measured_condition
    # forms R's factor, which inverts R's diagonal blocks at each call.
    A, pre = build_pair(100, 1000, 1e8, seed=70)
    classical = ClassicalProjector(A)
    b = np.random.default_rng(71).standard_normal(1000)
    calls = count_lapack_solves(monkeypatch)
    factorizations = []
    cholesky = np.linalg.cholesky

    def counting_cholesky(a):
        factorizations.append(a.shape[0])
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
    project(pre, A, b)
    refine_lstsq(pre, A, b, solve_lstsq(pre, A, b), 2)
    classical.project(b)
    assert calls == [] and factorizations == []
    measured_condition(pre, A)
    assert calls == [32, 32, 32, 4] and factorizations == []


@pytest.mark.parametrize("kappa", [1e4, 1e8, 1e12])
@pytest.mark.parametrize("family", [make_sparse_test, make_dense_test], ids=["sparse", "dense"])
def test_blocked_chain_holds_the_error_bounds_at_m400(family, kappa):
    # (400, 4000) spans 13 diagonal blocks of R, so most of each solve is
    # the products between blocks rather than one block inverse
    m, n = 400, 4000
    eps = np.finfo(float).eps
    A = family(m, n, kappa, 80)
    pre = build_preconditioner(A, m + 4, UniformLaggedFibonacci(81))
    R, perm = pre.R, pre.perm
    for b in unit_vectors(n, 2, 82):
        em = error_metrics(A, lambda v: project(pre, A, v).null_projection, b, kappa, "randomized")
        assert em.delta_over_kappa <= 1e-13
        assert em.epsilon_over_kappa <= 1e-13

        # the chain step by step, each solve against the row-by-row reference
        c = A.apply(b)
        e = solve_upper_adjoint(R, c[perm])
        e_ref = substitute_by_rows(R, c[perm], adjoint=True)
        y = pre.Y @ e_ref
        g = solve_upper(R, y)
        g_ref = substitute_by_rows(R, y)
        for T, x, rhs in ((R.T, e, c[perm]), (R, g, y)):
            # componentwise backward error of substitution, whatever kappa is
            assert (np.abs(T @ x - rhs) <= 4 * m * eps * (np.abs(T) @ np.abs(x))).all()
        assert np.linalg.norm(g - g_ref) <= 1e-11 * np.linalg.norm(g_ref)
        h = _solve_chain(pre, c)
        h_ref = np.empty(m)
        h_ref[perm] = g_ref
        # the adjoint solve's forward error grows with cond(R), about kappa,
        # for any substitution order: the chain matches to 1e-11 at kappa
        # 1e4 and to about kappa eps beyond
        assert np.linalg.norm(h - h_ref) <= max(1e-11, 100 * kappa * eps) * np.linalg.norm(h_ref)


@pytest.mark.parametrize("kappa", [1e4, 1e8, 1e12, 1e14])
@pytest.mark.parametrize("family", [make_sparse_test, make_dense_test], ids=["sparse", "dense"])
def test_least_squares_is_backward_stable_whatever_kappa_is(family, kappa):
    # the kappa-free form of the stability claim: h solves a nearby problem
    # min ||(A* + E) h - b|| exactly, with ||E||_F / ||A||_F a small multiple
    # of eps (at most 9.3e-17 for solve_lstsq and 2.1e-17 refined once,
    # measured); kappa = 1e15 is refused as rank deficient at this size
    eps = np.finfo(float).eps
    A = family(40, 600, kappa, 90)
    pre = build_preconditioner(A, 44, UniformLaggedFibonacci(91))
    for b in unit_vectors(600, 5, 92):
        h = solve_lstsq(pre, A, b)
        assert backward_error_lstsq(A, h, b) <= 2 * eps
        assert backward_error_lstsq(A, refine_lstsq(pre, A, b, h), b) <= 2 * eps


def test_the_backward_error_sees_the_normal_equations_fail():
    # the classical path squares kappa: on the same problems at sparse
    # kappa = 1e8 its backward error reads 3.6e-12 (measured), thousands of
    # times the bound the randomized path is held to
    A = make_sparse_test(40, 600, 1e8, 90)
    classical = ClassicalProjector(A)
    worst = max(
        backward_error_lstsq(A, classical.project(b).lstsq_solution, b) for b in unit_vectors(600, 5, 92)
    )
    assert worst >= 1e-12


def test_the_backward_error_oracle_matches_its_definition():
    # the oracle's (m+1)-row SVD against the n-by-(m+n) matrix of the formula
    A = make_sparse_test(8, 64, 1e4, seed=93)
    Ad = densify(A)
    rng = np.random.default_rng(94)
    b = rng.standard_normal(64)
    h0 = np.linalg.lstsq(Ad.T, b, rcond=None)[0]
    for h in (h0 + 1e-3 * rng.standard_normal(8), h0 + 1e-9 * rng.standard_normal(8)):
        r = b - Ad.T @ h
        phi = np.linalg.norm(r) / np.linalg.norm(h)
        M = np.hstack([Ad.T, phi * (np.eye(64) - np.outer(r, r) / (r @ r))])
        want = min(phi, np.linalg.svd(M, compute_uv=False)[-1]) / np.linalg.norm(Ad)
        assert backward_error_lstsq(A, h, b) == pytest.approx(want, rel=1e-6)
