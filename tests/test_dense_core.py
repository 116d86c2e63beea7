import tracemalloc

import numpy as np
import pytest

from nullproj import (
    DimensionError,
    FactorizationError,
    SingularFactorError,
    SizeCapError,
    invert_small,
    qr_pivoted,
    solve_upper,
    solve_upper_adjoint,
    svd_dense,
)
from nullproj.dense_core import _BASE_ROWS, solve_upper_permuted, solve_upper_permuted_adjoint


def reconstruction_error(M, qr):
    return np.linalg.norm(qr.Q @ qr.R - M[:, qr.perm]) / np.linalg.norm(M)


def test_qr_identity():
    qr = qr_pivoted(np.eye(4))
    assert np.allclose(qr.Q, np.eye(4), rtol=0, atol=1e-15)
    assert np.allclose(qr.R, np.eye(4), rtol=0, atol=1e-15)
    assert np.array_equal(np.sort(qr.perm), np.arange(4))


@pytest.mark.parametrize("shape", [(8, 5), (10, 10), (30, 7)])
def test_qr_random_reconstruction(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    M = rng.standard_normal(shape)
    qr = qr_pivoted(M)
    assert reconstruction_error(M, qr) <= 1e-13
    assert np.abs(qr.Q.T @ qr.Q - np.eye(shape[1])).max() <= 1e-13
    diag = np.diag(qr.R)
    assert (diag >= 0).all()
    assert (np.abs(diag[1:]) <= np.abs(diag[:-1]) + 1e-15).all()
    assert np.array_equal(qr.R, np.triu(qr.R))


def test_qr_duplicate_column_rank_deficiency():
    rng = np.random.default_rng(1)
    M = rng.standard_normal((8, 5))
    M[:, 3] = M[:, 1]
    qr = qr_pivoted(M)
    assert abs(qr.R[-1, -1]) <= 1e-12 * abs(qr.R[0, 0])
    assert reconstruction_error(M, qr) <= 1e-13


def test_qr_zero_matrix():
    qr = qr_pivoted(np.zeros((6, 3)))
    assert np.array_equal(qr.R, np.zeros((3, 3)))
    assert np.abs(qr.Q.T @ qr.Q - np.eye(3)).max() <= 1e-15


def test_qr_forms_q_once_on_demand():
    rng = np.random.default_rng(11)
    M = rng.standard_normal((12, 7))
    qr = qr_pivoted(M)
    assert "Q" not in vars(qr)  # not formed by the factorization itself
    Q = qr.Q
    assert qr.Q is Q
    assert reconstruction_error(M, qr) <= 1e-13
    assert np.abs(Q.T @ Q - np.eye(7)).max() <= 1e-13


def test_qr_rejects_wide_input():
    with pytest.raises(DimensionError):
        qr_pivoted(np.zeros((3, 5)))


def test_qr_pivot_tie_break_prefers_low_index():
    # two exactly equal-norm columns: the earlier one must be pivoted first
    M = np.array([[2.0, 2.0, 1.0], [0.0, 0.0, 0.5], [0.0, 0.0, 0.0]])
    qr = qr_pivoted(M)
    assert qr.perm[0] == 0


@pytest.mark.parametrize("shape", [(8, 4), (12, 7), (104, 100)])
def test_qr_is_exact_under_power_of_two_scaling(shape):
    # squared column norms of M * 2**700 overflow and of M * 2**-700 lose
    # their digits to underflow; the factorization must not notice either
    M = np.random.default_rng(shape[0]).standard_normal(shape)
    base = qr_pivoted(M)
    for k in (-700, 0, 700):
        qr = qr_pivoted(M * 2.0**k)
        assert np.array_equal(qr.R, base.R * 2.0**k)
        assert np.array_equal(qr.perm, base.perm)
        assert np.array_equal(qr.Q, base.Q)


def test_qr_orthogonal_invariance_of_singular_values():
    rng = np.random.default_rng(2)
    M = rng.standard_normal((9, 6))
    qr = qr_pivoted(M)
    s_input = svd_dense(M)[0]
    s_factors = svd_dense(qr.Q @ qr.R)[0]
    assert np.allclose(s_input, s_factors, rtol=1e-10, atol=0)


def test_solve_upper_identity_and_scalar():
    assert np.array_equal(solve_upper(np.eye(3), np.array([1.0, 2.0, 3.0])), [1.0, 2.0, 3.0])
    assert solve_upper(np.array([[2.0]]), np.array([6.0]))[0] == 3.0


def test_solve_upper_residual():
    rng = np.random.default_rng(3)
    R = np.triu(rng.standard_normal((7, 7))) + 5.0 * np.eye(7)
    y = rng.standard_normal(7)
    g = solve_upper(R, y)
    assert np.linalg.norm(R @ g - y) / np.linalg.norm(y) <= 1e-13


def test_solve_upper_matrix_rhs():
    rng = np.random.default_rng(4)
    R = np.triu(rng.standard_normal((5, 5))) + 4.0 * np.eye(5)
    Y = rng.standard_normal((5, 3))
    G = solve_upper(R, Y)
    assert np.linalg.norm(R @ G - Y) <= 1e-13 * np.linalg.norm(Y)


def substitute_by_rows(R, y, adjoint=False):
    """Reference solve of R x = y (or R* x = y), one row at a time, no blocking."""
    T = R.T if adjoint else R
    m = R.shape[0]
    x = np.zeros(m)
    order = range(m) if adjoint else range(m - 1, -1, -1)
    for k in order:
        x[k] = (y[k] - T[k] @ x) / T[k, k]
    return x


SOLVE_SIZES = sorted(
    {1, 16, 17, 49, 128, 129, 200, 385} | {_BASE_ROWS, _BASE_ROWS + 1, 3 * _BASE_ROWS + 1}
)


@pytest.mark.parametrize("adjoint", [False, True])
@pytest.mark.parametrize("m", SOLVE_SIZES)
def test_blocked_solves_match_row_substitution(m, adjoint):
    rng = np.random.default_rng(1000 + m)
    qr = np.linalg.qr(rng.standard_normal((m, m)))[1]  # well-conditioned, mixed-sign diagonal
    Y = rng.standard_normal((m, 3))
    # graded: rows scaled over 14 decades, columns over +-6; a base case that
    # pivots (LU of a lower-triangular block) breaks the componentwise bound here
    graded = qr * 10.0 ** rng.uniform(-7.0, 7.0, (m, 1)) * 10.0 ** rng.uniform(-6.0, 6.0, m)
    solve = solve_upper_adjoint if adjoint else solve_upper
    eps = np.finfo(float).eps

    for R in (qr, graded):
        T = R.T if adjoint else R
        X = solve(R, Y)
        cols = np.column_stack([solve(R, Y[:, j]) for j in range(Y.shape[1])])
        ref = np.column_stack([substitute_by_rows(R, Y[:, j], adjoint) for j in range(Y.shape[1])])
        for got in (X, cols):
            assert got.shape == Y.shape
            # componentwise backward error of substitution, |T x - y| <= c m eps |T| |x|
            assert (np.abs(T @ got - Y) <= 4 * m * eps * (np.abs(T) @ np.abs(got))).all()
            assert np.linalg.norm(got - ref) <= 1e-11 * np.linalg.norm(ref)


@pytest.mark.parametrize("solve", [solve_upper, solve_upper_adjoint])
def test_vector_solve_hands_whole_blocks_to_lapack(solve, monkeypatch):
    # counts calls, not time: every row goes through LAPACK in blocks of at
    # most _BASE_ROWS, so no row-by-row interpreter loop runs
    m = 400
    R = np.linalg.qr(np.random.default_rng(3000).standard_normal((m, m)))[1]
    y = np.ones(m)
    rows = []
    lapack_solve = np.linalg.solve

    def counting_solve(a, b):
        rows.append(a.shape[0])
        return lapack_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    x = solve(R, y)
    assert sum(rows) == m
    assert len(rows) <= 2 * -(-m // _BASE_ROWS)
    assert max(rows) <= _BASE_ROWS
    T = R.T if solve is solve_upper_adjoint else R
    assert np.linalg.norm(T @ x - y) <= 1e-12 * np.linalg.norm(y)


@pytest.mark.parametrize("cols", [None, 3], ids=["vector", "matrix"])
@pytest.mark.parametrize("m", [1, 17, 129])
def test_permuted_solves_match_dense_oracle(m, cols):
    rng = np.random.default_rng(2000 + m)
    R = np.linalg.qr(rng.standard_normal((m, m)))[1]
    perm = rng.permutation(m)
    M = R[:, np.argsort(perm)]  # M x = R x[perm]
    y = rng.standard_normal(m if cols is None else (m, cols))
    for got, ref in (
        (solve_upper_permuted(R, perm, y), np.linalg.solve(M, y)),
        (solve_upper_permuted_adjoint(R, perm, y), np.linalg.solve(M.T, y)),
    ):
        assert got.shape == y.shape
        assert np.linalg.norm(got - ref) <= 1e-11 * np.linalg.norm(ref)


def test_solve_upper_zero_diagonal_names_index():
    R = np.triu(np.ones((4, 4)))
    R[2, 2] = 0.0
    with pytest.raises(SingularFactorError, match="index 2"):
        solve_upper(R, np.ones(4))
    with pytest.raises(SingularFactorError, match="index 2"):
        solve_upper_adjoint(R, np.ones(4))


def test_solve_upper_adjoint_hand_case():
    R = np.array([[1.0, 1.0], [0.0, 1.0]])
    e = solve_upper_adjoint(R, np.array([1.0, 1.0]))
    assert np.array_equal(e, np.array([1.0, 0.0]))


def test_solve_upper_adjoint_residual():
    rng = np.random.default_rng(5)
    R = np.triu(rng.standard_normal((6, 6))) + 5.0 * np.eye(6)
    d = rng.standard_normal(6)
    e = solve_upper_adjoint(R, d)
    assert np.linalg.norm(R.T @ e - d) / np.linalg.norm(d) <= 1e-13


def test_solve_round_trip_property():
    rng = np.random.default_rng(6)
    for trial in range(20):
        m = rng.integers(2, 9)
        R = np.triu(rng.standard_normal((m, m))) + 3.0 * np.eye(m)
        x = rng.standard_normal(m)
        assert np.allclose(solve_upper(R, R @ x), x, rtol=1e-12, atol=1e-12)
        assert np.allclose(solve_upper_adjoint(R, R.T @ x), x, rtol=1e-12, atol=1e-12)


def test_invert_small_identity_and_diagonal():
    assert np.array_equal(invert_small(np.eye(3)), np.eye(3))
    Y = invert_small(np.diag([2.0, 4.0]))
    assert np.allclose(Y, np.diag([0.5, 0.25]), rtol=1e-14, atol=0)


def test_invert_small_random_spd():
    rng = np.random.default_rng(7)
    M = rng.standard_normal((6, 6))
    X = M @ M.T + np.eye(6)
    Y = invert_small(X)
    assert np.abs(X @ Y - np.eye(6)).max() <= 1e-12
    assert np.array_equal(Y, Y.T)  # symmetrized exactly


def test_invert_small_holds_no_factor_past_its_last_use():
    # L dropped once W = L^-1 exists and W once Y exists: about 3.6 m^2
    # doubles at the peak (the solve's working space), against 4.05 when
    # both are held to the end
    m = 400
    M = np.random.default_rng(11).standard_normal((m, m))
    X = M @ M.T / m + np.eye(m)
    tracemalloc.start()
    tracemalloc.reset_peak()
    invert_small(X)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 3.8 * m * m * 8


def test_invert_small_singular_raises():
    with pytest.raises(FactorizationError):
        invert_small(np.zeros((3, 3)))


def test_invert_small_indefinite_raises():
    with pytest.raises(FactorizationError):
        invert_small(np.diag([2.0, -3.0]))  # invertible, but not SPD


def test_svd_dense_diag():
    s, cond = svd_dense(np.diag([3.0, 1.0]))
    assert np.array_equal(s, np.array([3.0, 1.0]))
    assert cond == 3.0


def test_svd_dense_orthonormal_columns():
    rng = np.random.default_rng(8)
    Q = qr_pivoted(rng.standard_normal((9, 4))).Q
    s, cond = svd_dense(Q)
    assert np.abs(s - 1.0).max() <= 1e-13
    assert abs(cond - 1.0) <= 1e-13


def test_svd_dense_matches_eigenvalue_oracle():
    rng = np.random.default_rng(9)
    M = rng.standard_normal((6, 4))
    s, _ = svd_dense(M)
    eig = np.sqrt(np.sort(np.linalg.eigvalsh(M.T @ M))[::-1])
    assert np.allclose(s, eig, rtol=1e-10, atol=1e-12)


def test_svd_dense_nonincreasing_and_cap():
    rng = np.random.default_rng(10)
    M = rng.standard_normal((5, 8))
    with pytest.raises(DimensionError):
        svd_dense(M[0])
    s, _ = svd_dense(M)
    assert (np.diff(s) <= 0).all()
    # one row over the cap, refused before it is factored
    with pytest.raises(SizeCapError):
        svd_dense(np.zeros((1001, 1000)))


def test_solves_reject_nonsquare_factor():
    with pytest.raises(DimensionError):
        solve_upper(np.triu(np.ones((4, 3))), np.ones(4))
    with pytest.raises(DimensionError):
        solve_upper_adjoint(np.triu(np.ones((4, 3))), np.ones(4))
