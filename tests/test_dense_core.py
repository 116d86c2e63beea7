import ast
import pathlib
import tracemalloc

import numpy as np
import pytest

from nullproj import (
    DimensionError,
    DomainError,
    FactorizationError,
    SingularFactorError,
    SizeCapError,
    invert_small,
    qr_pivoted,
    solve_upper,
    solve_upper_adjoint,
    svd_dense,
)
from nullproj.dense_core import (
    _BASE_ROWS,
    _FUSED_ROWS,
    _PIVOT_TIE_RTOL,
    PermutedFactor,
    invert_diagonal_blocks,
)

from helpers import count_lapack_solves, substitute_by_rows, traced_peak


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


@pytest.mark.parametrize("shape", [(8, 4), (12, 7), (104, 100), (404, 400)])
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


def qr_by_steps(M):
    """Reference pivoted QR: one column per step, every remaining norm recomputed.

    The unblocked algorithm, with the same power-of-two prescaling and tie
    rule as `qr_pivoted`; returns (R, perm).
    """
    M = np.asarray(M, dtype=float)
    e = int(np.frexp(np.abs(M).max(initial=0.0))[1])
    A = np.ldexp(M, -e)
    l, m = A.shape
    perm = np.arange(m)
    for k in range(m):
        norms = np.sqrt(np.sum(A[k:, k:] ** 2, axis=0))
        top = norms.max()
        if top == 0.0:
            break
        piv = k + int(np.argmax(norms >= top * (1.0 - _PIVOT_TIE_RTOL)))
        A[:, [k, piv]] = A[:, [piv, k]]
        perm[[k, piv]] = perm[[piv, k]]
        x = A[k:, k]
        normx = np.sqrt(np.sum(x * x))
        alpha = -normx if x[0] >= 0.0 else normx
        v = x.copy()
        v[0] -= alpha
        A[k:, k + 1 :] -= (2.0 / np.dot(v, v)) * np.outer(v, v @ A[k:, k + 1 :])
        A[k, k] = alpha
        A[k + 1 :, k] = 0.0
    R = np.ldexp(np.triu(A[:m, :]), e)
    R[np.diag(R) < 0.0, :] *= -1.0
    return R, perm


def qr_test_matrix(kind, l, m):
    M = np.random.default_rng(l * 1000 + m).standard_normal((l, m))
    if kind == "graded":
        M *= np.logspace(0, -10, m)
    elif kind == "duplicate":
        M[:, m // 2] = M[:, 0]  # an exact tie, broken toward the lower index
    elif kind == "zero_columns":
        M[:, 1::3] = 0.0
    elif kind == "zero_block":
        M[(m + 1) // 2 :, :] = 0.0  # rank (m+1)//2, the rest exactly zero once it is factored
    return M


@pytest.mark.parametrize("kind", ["random", "graded", "duplicate", "zero_columns", "zero_block"])
@pytest.mark.parametrize("extra", [0, 4], ids=["l=m", "l=m+4"])
@pytest.mark.parametrize("m", [1, 2, 31, 32, 33, 64, 65, 100, 400])
def test_qr_matches_unblocked_steps(m, extra, kind):
    # panel edges (31-33, 64-65), several panels (100, 400), and inputs whose
    # norms cancel (graded), tie (duplicate) or are exactly zero
    M = qr_test_matrix(kind, m + extra, m)
    R_ref, perm_ref = qr_by_steps(M)
    qr = qr_pivoted(M)
    assert np.array_equal(qr.perm, perm_ref)
    assert np.abs(qr.R - R_ref).max() <= 1e-14 * np.linalg.norm(M)
    assert reconstruction_error(M, qr) <= 1e-13


def test_qr_recomputes_norms_that_cancellation_empties():
    # every column is u plus a tiny part: pivoting u away leaves each
    # downdated norm at 1e-10 of its first value, far below what a
    # downdate can resolve, so only norms computed again from the columns
    # pick the right pivots
    rng = np.random.default_rng(12)
    l, m = 80, 60
    u = rng.standard_normal(l)
    M = u[:, None] + 1e-10 * rng.standard_normal((l, m)) * np.logspace(0, -3, m)
    qr = qr_pivoted(M)
    assert np.array_equal(qr.perm, qr_by_steps(M)[1])
    diag = np.diag(qr.R)
    assert (diag[1:] <= diag[:-1] * (1.0 + 1e-12)).all()


def test_qr_underflowing_columns_leave_r_zero():
    # columns 1e-170 and 1e-200 below the rest: after the power-of-two
    # scaling their squared norms underflow to 0, so the pivoting stops
    # there and R's trailing block must be zero, not the unfactored columns
    for seed in range(3):
        M = np.random.default_rng(seed).standard_normal((20, 6))
        M[:, 2] *= 1e-170
        M[:, 4] *= 1e-200
        qr = qr_pivoted(M)
        diag = np.diag(qr.R)
        assert (diag[1:] <= diag[:-1]).all()
        assert np.linalg.norm(qr.Q @ qr.R - M[:, qr.perm]) <= 1e-15 * np.linalg.norm(M)


def test_qr_peak_memory_is_bounded():
    # one working copy of M and one matrix-sized temporary at a time (the
    # panel update's product, or R), and R's signs flipped in place:
    # 2.18 l m doubles at the peak, bounded here with a margin of 0.22,
    # against 2.51 with a temporary for the flipped rows and about 3.5 for
    # one outer-product update per column
    l, m = 404, 400
    M = np.random.default_rng(13).standard_normal((l, m))
    peak = traced_peak(qr_pivoted, M)
    assert peak < 2.4 * l * m * 8


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("kernel", [qr_pivoted, invert_small, svd_dense])
def test_dense_kernels_refuse_nonfinite_input(kernel, bad):
    X = np.eye(4)
    X[1, 2] = bad
    with pytest.raises(DomainError):
        kernel(X)


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


# block and fused-step edges (32-33, 63-65, 128-129), several steps, and a
# last step of one row (385)
SOLVE_SIZES = sorted(
    {1, 16, 17, 49, 63, 64, 65, 128, 129, 200, 385}
    | {_BASE_ROWS, _BASE_ROWS + 1, 3 * _BASE_ROWS + 1}
)


def solve_test_factors(m):
    """A well-conditioned factor with mixed-sign diagonal, a graded one, three right-hand sides.

    The graded factor scales the rows over 14 decades and the columns over
    +-6; a base case that pivots (LU of a lower-triangular block) breaks the
    componentwise bound on it.
    """
    rng = np.random.default_rng(1000 + m)
    qr = np.linalg.qr(rng.standard_normal((m, m)))[1]
    Y = rng.standard_normal((m, 3))
    graded = qr * 10.0 ** rng.uniform(-7.0, 7.0, (m, 1)) * 10.0 ** rng.uniform(-6.0, 6.0, m)
    return (qr, graded), Y


def holds_componentwise_bound(T, x, y):
    """The componentwise backward error of substitution, |T x - y| <= 4 m eps |T| |x|."""
    m = T.shape[0]
    return (np.abs(T @ x - y) <= 4 * m * np.finfo(float).eps * (np.abs(T) @ np.abs(x))).all()


@pytest.mark.parametrize("adjoint", [False, True])
@pytest.mark.parametrize("m", SOLVE_SIZES)
def test_blocked_solves_match_row_substitution(m, adjoint):
    factors, Y = solve_test_factors(m)
    solve = solve_upper_adjoint if adjoint else solve_upper

    for R in factors:
        T = R.T if adjoint else R
        X = solve(R, Y)
        cols = np.column_stack([solve(R, Y[:, j]) for j in range(Y.shape[1])])
        ref = np.column_stack([substitute_by_rows(R, Y[:, j], adjoint) for j in range(Y.shape[1])])
        for got in (X, cols):
            assert got.shape == Y.shape
            assert holds_componentwise_bound(T, got, Y)
            assert np.linalg.norm(got - ref) <= 1e-11 * np.linalg.norm(ref)


@pytest.mark.parametrize("adjoint", [False, True])
@pytest.mark.parametrize("m", SOLVE_SIZES)
def test_factor_vector_solves_match_row_substitution(m, adjoint):
    # a PermutedFactor solves every right-hand side with its fused steps,
    # the projection chain's vectors and a whole matrix alike
    factors, Y = solve_test_factors(m)
    rng = np.random.default_rng(6000 + m)
    for R in factors:
        T = R.T if adjoint else R
        for perm in (np.arange(m), rng.permutation(m)):
            factor = PermutedFactor(R, perm)
            for y in (*Y.T, Y):
                if adjoint:
                    x, rhs = factor.solve_adjoint(y), y[perm]  # R* x = y[perm]
                else:
                    x, rhs = factor.solve(y.copy())[perm], y  # R x[perm] = y
                assert x.shape == y.shape
                assert holds_componentwise_bound(T, x, rhs)
                ref = substitute_by_rows(R, rhs, adjoint)
                assert np.linalg.norm(x - ref) <= 1e-11 * np.linalg.norm(ref)


@pytest.mark.parametrize("m", SOLVE_SIZES)
def test_every_block_inverse_sweep_is_one_kernel(m):
    # the one-off public solves, build_gram and a factor's fused steps all
    # sweep with _substitute; invert_small runs its own blocked in-place
    # sweeps, so it is held to accuracy (3.1 eps measured at m = 385) and
    # exact symmetry
    M = np.random.default_rng(6500 + m).standard_normal((m, m))
    X = M.T @ M + m * np.eye(m)
    inverse = invert_small(X)
    exact = np.linalg.inv(X)
    assert np.linalg.norm(inverse - exact) <= 8 * np.finfo(float).eps * np.linalg.norm(exact)
    assert np.array_equal(inverse, inverse.T)


def fused_doubles(m):
    """Doubles in a factor's fused steps, rows a:c of width m-a.

    The back solve runs them as they are and the adjoint solve transposed.
    """
    return sum((min(a + _FUSED_ROWS, m) - a) * (m - a) for a in range(0, m, _FUSED_ROWS))


@pytest.mark.parametrize("adjoint", [False, True], ids=["back", "adjoint"])
def test_first_vector_solve_builds_one_direction_of_fused_steps(adjoint):
    # the first vector solve, in either direction, builds the factor's fused
    # steps, 92,416 doubles at m = 400 (0.58 m^2), and keeps them; while it
    # builds them it holds at most two products of a _BASE_ROWS-row sweep
    # besides (1.18x the steps, measured); later solves keep nothing
    m = 400
    rng = np.random.default_rng(7000)
    factor = PermutedFactor(np.linalg.qr(rng.standard_normal((m, m)))[1], rng.permutation(m))
    solve = factor.solve_adjoint if adjoint else factor.solve
    y = rng.standard_normal(m)
    assert fused_doubles(m) == 92_416
    fused = 8 * fused_doubles(m)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        solve(y.copy())
        held, peak = tracemalloc.get_traced_memory()
        solve(y.copy())
        again = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert fused <= held - before < fused + 8 * 1024  # the steps, their tuples and slices
    assert peak - before < fused + 8 * 2 * _BASE_ROWS * m
    assert abs(again - held) < 8 * m


@pytest.mark.parametrize("first", ["back", "adjoint"])
def test_both_vector_solve_directions_share_one_set_of_fused_steps(first):
    # the adjoint vector solve runs the back solve's steps transposed, so
    # after a first vector solve in each direction, in either order, the
    # factor holds one set of steps (two would be 2 x 739,328 bytes), and
    # the second direction's first solve allocates only m-sized arrays
    m = 400
    rng = np.random.default_rng(7100)
    factor = PermutedFactor(np.linalg.qr(rng.standard_normal((m, m)))[1], rng.permutation(m))
    y = rng.standard_normal(m)
    solves = [lambda: factor.solve(y.copy()), lambda: factor.solve_adjoint(y)]
    if first == "adjoint":
        solves.reverse()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        solves[0]()
        built = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        solves[1]()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held - start <= 8 * fused_doubles(m) + 8 * 1024
    assert peak - built < 8 * 5 * m  # 2.1-3.4 m measured: the right-hand side and step products


@pytest.mark.parametrize("solve", [solve_upper, solve_upper_adjoint])
def test_vector_solve_hands_whole_blocks_to_lapack(solve, monkeypatch):
    # counts calls, not time: every row goes through LAPACK in blocks of at
    # most _BASE_ROWS, so no row-by-row interpreter loop runs
    m = 400
    R = np.linalg.qr(np.random.default_rng(3000).standard_normal((m, m)))[1]
    y = np.ones(m)
    rows = count_lapack_solves(monkeypatch)
    x = solve(R, y)
    assert sum(rows) == m
    assert len(rows) <= 2 * -(-m // _BASE_ROWS)
    assert max(rows) <= _BASE_ROWS
    T = R.T if solve is solve_upper_adjoint else R
    assert np.linalg.norm(T @ x - y) <= 1e-12 * np.linalg.norm(y)


@pytest.mark.parametrize("zero_diagonal", [False, True])
@pytest.mark.parametrize("solve", [solve_upper, solve_upper_adjoint])
def test_wrong_length_rhs_is_refused_before_any_block_inversion(solve, zero_diagonal, monkeypatch):
    # the right-hand side is checked first, so a wrong length costs no LAPACK
    # call and is reported as such even when R itself is singular
    m = 400
    R = np.linalg.qr(np.random.default_rng(3000).standard_normal((m, m)))[1]
    if zero_diagonal:
        R[m // 2, m // 2] = 0.0
    calls = count_lapack_solves(monkeypatch)
    with pytest.raises(DimensionError):
        solve(R, np.ones(m + 1))
    assert calls == []


def test_lapack_solves_only_in_the_block_inversion():
    # Every triangular solve sweeps BLAS products over block inverses that
    # invert_diagonal_blocks takes once per factor; a second LAPACK solve
    # path would put a per-call factorization back on every projection.
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "nullproj"
    inside, offenders = [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "invert_diagonal_blocks":
                allowed.update(ast.walk(node))
        for node in ast.walk(tree):
            linalg_solve = (
                isinstance(node, ast.Attribute)
                and node.attr == "solve"
                and getattr(node.value, "attr", getattr(node.value, "id", None)) == "linalg"
            )
            imported = isinstance(node, ast.ImportFrom) and "linalg" in (node.module or "").split(".")
            if linalg_solve or imported:
                (inside if node in allowed else offenders).append(f"{path.name}:{node.lineno}")
    assert len(inside) == 1 and inside[0].startswith("dense_core.py:")
    assert offenders == []


def test_pivoted_factor_has_one_owner():
    # Only dense_core inverts R's blocks or sweeps with them, and only it
    # indexes with the pivot permutation: every other module goes through
    # PermutedFactor, so the block layout and the convention M = R Pi can
    # change in one place.
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "nullproj"
    owned = {"invert_diagonal_blocks", "_substitute"}
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "dense_core.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            name = getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))
            by_perm = isinstance(node, ast.Subscript) and (
                getattr(node.slice, "id", getattr(node.slice, "attr", None)) == "perm"
            )
            if name in owned or by_perm:
                offenders.append(f"{path.name}:{getattr(node, 'lineno', '?')}")
    assert offenders == []


@pytest.mark.parametrize("m", [1, 31, 32, 33, 100])
def test_block_inverses_invert_the_diagonal_blocks(m):
    R = np.linalg.qr(np.random.default_rng(4000 + m).standard_normal((m, m)))[1]
    inv = invert_diagonal_blocks(R)
    assert inv.shape == (m, min(m, _BASE_ROWS))
    for a in range(0, m, _BASE_ROWS):
        b = min(a + _BASE_ROWS, m)
        assert np.abs(inv[a:b, : b - a] @ R[a:b, a:b] - np.eye(b - a)).max() <= 1e-12


@pytest.mark.parametrize("cols", [None, 3], ids=["vector", "matrix"])
@pytest.mark.parametrize("m", [1, 17, 129])
def test_permuted_solves_match_dense_oracle(m, cols):
    rng = np.random.default_rng(2000 + m)
    R = np.linalg.qr(rng.standard_normal((m, m)))[1]
    perm = rng.permutation(m)
    M = R[:, np.argsort(perm)]  # M x = R x[perm]
    y = rng.standard_normal(m if cols is None else (m, cols))
    factor = PermutedFactor(R, perm)
    for got, ref in (
        (factor.solve(y.copy()), np.linalg.solve(M, y)),
        (factor.solve_adjoint(y), np.linalg.solve(M.T, y)),
    ):
        assert got.shape == y.shape
        assert np.linalg.norm(got - ref) <= 1e-11 * np.linalg.norm(ref)


def read_only(a):
    a = np.array(a)
    a.setflags(write=False)
    return a


@pytest.mark.parametrize("cols", [None, 3], ids=["vector", "matrix"])
@pytest.mark.parametrize("solve", [solve_upper, solve_upper_adjoint])
def test_public_solves_leave_their_inputs_alone(solve, cols):
    # the sweep overwrites the array it is given; a public solve gives it a
    # copy, so the caller's arrays are unchanged and may be read-only
    m = 70
    rng = np.random.default_rng(5000 + m)
    R = np.linalg.qr(rng.standard_normal((m, m)))[1]
    y = rng.standard_normal(m if cols is None else (m, cols))
    args = (R, y)
    kept = [a.copy() for a in args]
    x = solve(*args)
    for a, b in zip(args, kept):
        assert np.array_equal(a, b)
    assert np.array_equal(solve(*map(read_only, args)), x)


def test_permuted_factor_holds_its_arrays_and_leaves_d_alone():
    # no copy of R, its own copy of perm; solve_adjoint gathers d[perm] and solves on that
    m = 70
    rng = np.random.default_rng(5002)
    R = read_only(np.linalg.qr(rng.standard_normal((m, m)))[1])
    perm = read_only(rng.permutation(m))
    factor = PermutedFactor(R, perm)
    assert factor.R is R and factor.perm is not perm and np.array_equal(factor.perm, perm)
    d = read_only(rng.standard_normal((m, 3)))
    kept = d.copy()
    ref = np.linalg.solve(R[:, np.argsort(perm)].T, d)  # M* e = d
    assert np.linalg.norm(factor.solve_adjoint(d) - ref) <= 1e-11 * np.linalg.norm(ref)
    assert np.array_equal(d, kept)


def test_permuted_factor_survives_an_edit_of_the_callers_perm():
    # the factor checked the permutation it keeps, so the caller's array,
    # even an intp one, is copied: editing it afterwards changes no solve
    m = 70
    rng = np.random.default_rng(5004)
    R = np.linalg.qr(rng.standard_normal((m, m)))[1]
    perm = rng.permutation(m).astype(np.intp)
    factor = PermutedFactor(R, perm)
    y = rng.standard_normal(m)
    before = factor.solve(y), factor.solve_adjoint(y)
    perm[:] = 0
    assert np.array_equal(factor.solve(y), before[0])
    assert np.array_equal(factor.solve_adjoint(y), before[1])


@pytest.mark.parametrize("cols", [None, 3], ids=["vector", "matrix"])
def test_permuted_factor_solve_leaves_y_alone(cols):
    # solve sweeps a copy of y, so y is unchanged and may be read-only
    m = 70
    rng = np.random.default_rng(5003)
    R = np.linalg.qr(rng.standard_normal((m, m)))[1]
    perm = rng.permutation(m)
    factor = PermutedFactor(R, perm)
    y = rng.standard_normal(m if cols is None else (m, cols))
    kept = y.copy()
    x = factor.solve(y)
    assert np.array_equal(y, kept)
    assert np.linalg.norm(R @ x[perm] - y) <= 1e-11 * np.linalg.norm(y)
    assert np.array_equal(factor.solve(read_only(y)), x)


@pytest.mark.parametrize("rows", [6, 8])
def test_permuted_solves_refuse_a_wrong_length_right_hand_side(rows):
    # the adjoint gathers d[perm] first, which would drop d's rows past m
    factor = PermutedFactor(np.triu(np.ones((7, 7))), np.arange(7)[::-1])
    for solve in (factor.solve, factor.solve_adjoint):
        with pytest.raises(DimensionError, match="factor size 7"):
            solve(np.ones((rows, 2)))


@pytest.mark.parametrize(
    "solve",
    [
        solve_upper,
        solve_upper_adjoint,
        lambda R, x: PermutedFactor(R, np.arange(2)).solve(x),
        lambda R, x: PermutedFactor(R, np.arange(2)).solve_adjoint(x),
    ],
    ids=["solve_upper", "solve_upper_adjoint", "factor.solve", "factor.solve_adjoint"],
)
def test_solves_refuse_a_right_hand_side_of_more_than_two_dimensions(solve):
    # the length matches, but no solve sweeps a 3-D array: the check says
    # so before numpy's matmul raises its own ValueError
    with pytest.raises(DimensionError, match="factor size 2"):
        solve(np.eye(2), np.ones((2, 2, 2)))


def test_invert_small_leaves_its_input_alone():
    rng = np.random.default_rng(5001)
    M = rng.standard_normal((70, 70))
    X = M @ M.T / 70 + np.eye(70)
    kept = X.copy()
    Y = invert_small(X)
    assert np.array_equal(X, kept)
    assert np.array_equal(invert_small(read_only(X)), Y)


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
    # the copy of X takes L, W = L^-1 and then Y, one block column at a
    # time, so beside it only block-column temporaries are alive:
    # about 1.13 m^2 doubles at the peak, against 2.16 with a whole
    # Cholesky factor or W* W beside the copy
    m = 400
    M = np.random.default_rng(11).standard_normal((m, m))
    X = M @ M.T / m + np.eye(m)
    peak = traced_peak(invert_small, X)
    assert peak < 1.4 * m * m * 8


@pytest.mark.parametrize("m", [1, 31, 32, 33, 64, 65, 100, 400])
def test_invert_small_matches_lapack_inverse(m):
    # a spectrum over six decades: the blocked inverse stays within
    # 0.091 cond eps of LAPACK's (measured, at m = 400), bounded at 0.25
    rng = np.random.default_rng(8000 + m)
    Q = np.linalg.qr(rng.standard_normal((m, m)))[0]
    cond = 1e6
    X = (Q * np.logspace(0, np.log10(cond), m)) @ Q.T
    X = (X + X.T) / 2.0
    exact = np.linalg.inv(X)
    Y = invert_small(X)
    assert np.linalg.norm(Y - exact) <= 0.25 * cond * np.finfo(float).eps * np.linalg.norm(exact)
    assert np.array_equal(Y, Y.T)


def test_invert_small_refuses_an_indefinite_trailing_pivot_block():
    # the leading 32-by-32 block is SPD, so only the Cholesky of the
    # second pivot block, after the left-looking update, can fail
    m = 40
    M = np.random.default_rng(5002).standard_normal((m, m))
    X = M @ M.T / m + np.eye(m)
    X[m - 1, m - 1] = -1.0
    np.linalg.cholesky(X[:_BASE_ROWS, :_BASE_ROWS])
    with pytest.raises(FactorizationError, match=f"row {_BASE_ROWS}"):
        invert_small(X)


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


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_svd_dense_refuses_an_empty_matrix(shape):
    with pytest.raises(DimensionError, match="nonempty"):
        svd_dense(np.zeros(shape))


def test_solves_reject_nonsquare_factor():
    with pytest.raises(DimensionError):
        solve_upper(np.triu(np.ones((4, 3))), np.ones(4))
    with pytest.raises(DimensionError):
        solve_upper_adjoint(np.triu(np.ones((4, 3))), np.ones(4))
