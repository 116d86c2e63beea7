from dataclasses import replace

import numpy as np
import pytest

from nullproj import (
    ConfigurationError,
    DimensionError,
    DomainError,
    FactorizationError,
    GaussianStream,
    LinearOperator,
    MatrixOperator,
    Preconditioner,
    RankDeficientSketchError,
    SingularFactorError,
    UniformLaggedFibonacci,
    build_gram,
    build_preconditioner,
    build_sketch,
    default_sketch_width,
    densify,
    make_dense_test,
    make_sparse_test,
    measured_condition,
    project,
    qr_pivoted,
    solve_lstsq,
)
from nullproj import dense_core, precond
from nullproj.dense_core import PermutedFactor, invert_diagonal_blocks
from nullproj.precond import SKETCH_ATTEMPTS
from nullproj.projector import _solve_chain

from helpers import Returns, count_lapack_solves, identity_preconditioner, traced_peak


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


class RecordingStream:
    """Forwards to `base` and records the size of each `fill_column` request."""

    def __init__(self, base):
        self.base, self.requests = base, []

    def fill_column(self, n):
        self.requests.append(n)
        return self.base.fill_column(n)


@pytest.mark.parametrize("stream_cls", [UniformLaggedFibonacci, GaussianStream])
def test_blocked_sketch_matches_a_column_by_column_loop_bitwise(stream_cls):
    # b = 20 * 23 // 120 = 3 columns per request, and 3 does not divide l
    m, n, l = 20, 120, 23
    A = MatrixOperator(np.random.default_rng(40).standard_normal((m, n)))
    g = RecordingStream(stream_cls(41))
    S = build_sketch(A, l, g)
    assert g.requests == [3 * n] * 7 + [2 * n]
    ref = stream_cls(41)
    expected = np.column_stack([A.apply(ref.fill_column(n)) for _ in range(l)])
    assert np.array_equal(S.view(np.int64), expected.view(np.int64))


@pytest.mark.parametrize(
    "m, n, requests",
    [(400, 4000, [40 * 4000] * 10 + [4 * 4000]), (10, 200, [200] * 14)],
    ids=["blocks", "columns"],
)
def test_sketch_requests_blocks_no_larger_than_the_sketch(m, n, requests):
    # ceil(l / b) requests of b = max(1, m l // n) columns, l n values in all;
    # at n >= m l a block is one column
    A = make_sparse_test(m, n, 100.0, seed=42)
    g = RecordingStream(UniformLaggedFibonacci(43))
    build_sketch(A, m + 4, g)
    assert g.requests == requests
    assert sum(requests) == (m + 4) * n
    assert A.counts() == (m + 4, 0)


class ReadOnlyColumns:
    """Forwards to `base`, returning each request's values as a read-only array."""

    def __init__(self, base):
        self.base = base

    def fill_column(self, n):
        values = self.base.fill_column(n)
        values.setflags(write=False)
        return values


class StridedColumns:
    """Forwards to `base`, returning each request's values as a view of every other entry."""

    def __init__(self, base):
        self.base = base

    def fill_column(self, n):
        values = np.full(2 * n, np.nan)
        values[::2] = self.base.fill_column(n)
        return values[::2]


@pytest.mark.parametrize("wrap", [ReadOnlyColumns, StridedColumns], ids=["read-only", "strided"])
@pytest.mark.parametrize("m, n", [(40, 4000), (20, 40)], ids=["columns", "blocks"])
def test_a_build_never_writes_the_columns_a_stream_returns(wrap, m, n):
    # a stream hands over each request's values and the build only reads
    # them: at (40, 4000) each request is one column, at (20, 40) one block
    # of b = 12 columns
    plain = build_preconditioner(make_sparse_test(m, n, 1e8, 0), m + 4, UniformLaggedFibonacci(1))
    pre = build_preconditioner(make_sparse_test(m, n, 1e8, 0), m + 4, wrap(UniformLaggedFibonacci(1)))
    for got, want in ((pre.R, plain.R), (pre.perm, plain.perm), (pre._chain.R, plain._chain.R)):
        assert got.tobytes() == want.tobytes()


class WrongLengthStream:
    """A stream whose columns come back one value short, or as a 2-D array."""

    def __init__(self, two_d):
        self.two_d = two_d

    def fill_column(self, n):
        return np.ones((1, n)) if self.two_d else np.ones(n - 1)


@pytest.mark.parametrize("two_d", [False, True], ids=["short", "2-D"])
def test_a_stream_of_the_wrong_length_is_refused_before_any_apply(two_d):
    A = make_sparse_test(4, 16, 10.0, seed=44)
    with pytest.raises(DimensionError, match="WrongLengthStream"):
        build_sketch(A, 5, WrongLengthStream(two_d))
    assert A.counts() == (0, 0)


def test_sketch_phase_holds_the_sketch_and_one_block():
    # S and one block of b = 20 columns are about 2 m l doubles, plus the
    # stream's state; a block still alive through the next draw adds one more
    m, n, l = 200, 2000, 204
    A = make_sparse_test(m, n, 1e8, seed=45)
    peak = min(traced_peak(build_sketch, A, l, UniformLaggedFibonacci(46)) for _ in range(3))
    assert peak < 2.3 * m * l * 8


NON_INTEGER_WIDTHS = pytest.mark.parametrize(
    "l", [10.7, np.float64(12.0), "12"], ids=["float", "np.float64", "str"]
)


@NON_INTEGER_WIDTHS
def test_build_sketch_rejects_a_non_integer_width(l):
    A = make_sparse_test(8, 32, 100.0, 0)
    with pytest.raises(ConfigurationError, match="integer"):
        build_sketch(A, l, UniformLaggedFibonacci(2))
    assert A.counts() == (0, 0)


@NON_INTEGER_WIDTHS
def test_build_preconditioner_rejects_a_non_integer_width(l):
    A = make_sparse_test(8, 32, 100.0, 0)
    with pytest.raises(ConfigurationError, match="integer"):
        build_preconditioner(A, l, UniformLaggedFibonacci(2))
    assert A.counts() == (0, 0)


def test_build_preconditioner_records_the_width_as_an_int():
    A = make_sparse_test(8, 32, 100.0, 0)
    pre = build_preconditioner(A, np.int64(12), UniformLaggedFibonacci(2))
    assert type(pre.l) is int and pre.l == 12
    assert pre.build_apply_counts == (20, 8)


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


def test_conditioning_gaussian_stream_on_coherent_rows():
    # criterion 09's shape on the most coherent row space: each row of A is
    # a graded multiple of a distinct coordinate vector, so cond(P^-1 A) is
    # the condition number of m rows of G (138.1 worst of 100 seeds measured).
    # The rows come from a generator seeded apart from the stream's, since
    # GaussianStream(s) reads the same bits as np.random.default_rng(s)
    m, n, l = 50, 1000, 54
    scales = np.logspace(0, 8, m)
    worst = 0.0
    for seed in range(100):
        M = np.zeros((m, n))
        M[np.arange(m), np.random.default_rng([seed, 1]).choice(n, m, replace=False)] = scales
        A = MatrixOperator(M)
        worst = max(worst, measured_condition(build_preconditioner(A, l, GaussianStream(seed)), A))
    assert worst <= 10 * l


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


@pytest.mark.parametrize("name, bad", [("R", np.nan), ("Y", np.inf)], ids=["R", "Y"])
def test_preconditioner_refuses_a_nonfinite_array(name, bad):
    # were it accepted, R's NaN would come back from solve_lstsq as a NaN solution
    A = make_sparse_test(8, 32, 100.0, seed=2)
    pre = build_preconditioner(A, 12, UniformLaggedFibonacci(3))
    fields = dict(R=pre.R.copy(), perm=pre.perm, Y=pre.Y.copy(), l=12, m=8, n=32, build_apply_counts=(20, 8))
    fields[name][3, 6] = bad
    with pytest.raises(DomainError, match=f"^{name} must be finite"):
        Preconditioner(**fields)


def test_preconditioner_holds_read_only_arrays_and_one_factor():
    A = make_sparse_test(40, 160, 1e4, seed=2)
    pre = build_preconditioner(A, 44, UniformLaggedFibonacci(3))
    # a build holds one factor, the chain's, which shares the preconditioner's
    # perm; R's factor is not held
    chain = pre._chain
    assert chain.perm is pre.perm and not hasattr(pre, "factor")
    assert np.array_equal(chain.block_inverses, invert_diagonal_blocks(chain.R))
    assert not any(a.flags.writeable for a in (pre.R, pre.perm, chain.R, chain.block_inverses))
    with pytest.raises(ValueError):
        chain.block_inverses[0, 0] = 1.0
    # a factor is derived, never passed in
    fields = dict(R=pre.R, perm=pre.perm, Y=pre.Y, l=44, m=40, n=160, build_apply_counts=(84, 40))
    with pytest.raises(TypeError):
        Preconditioner(**fields, factor=PermutedFactor(pre.R, pre.perm))
    # a float R is held as it was passed, a float32 R is converted once, and both are read-only
    made = Preconditioner(**fields)
    assert made.R is pre.R and made.perm is not pre.perm and np.array_equal(made.perm, pre.perm)
    narrow = Preconditioner(**{**fields, "R": pre.R.astype(np.float32)})
    assert narrow.R.dtype == float and not narrow.R.flags.writeable and not narrow.perm.flags.writeable


@pytest.mark.parametrize("m", [100, 400])
def test_a_build_inverts_the_diagonal_blocks_of_four_factors(m):
    # R's twice, in the Gram build, then L's in its Cholesky factor and U's
    # in the chain's factor; R's factor is not made again for the result
    A = make_sparse_test(m, 4 * m, 1e4, seed=5)
    with pytest.MonkeyPatch.context() as patch:
        calls = count_lapack_solves(patch)
        build_preconditioner(A, m + 4, UniformLaggedFibonacci(6))
    assert len(calls) == 4 * -(-m // 32)


def test_preconditioners_compare_and_hash_by_identity():
    # Y is computed at each read, so field-wise equality would compare two
    # fresh arrays; a preconditioner equals itself only
    A = make_sparse_test(8, 32, 100.0, seed=2)
    pre = build_preconditioner(A, 12, UniformLaggedFibonacci(3))
    twin = replace(pre)
    assert pre == pre and pre != twin and {pre: 1}[pre] == 1 and hash(pre) != hash(twin)
    assert twin.R is pre.R and np.array_equal(twin.perm, pre.perm) and np.array_equal(twin.Y, pre.Y)


def test_the_repr_of_a_build_names_its_sizes_and_does_not_compute_y(monkeypatch):
    # Y is an m-by-m product computed at each read; the repr leaves out R, perm and Y
    A = make_sparse_test(400, 4000, 1e4, seed=5)
    pre = build_preconditioner(A, 404, UniformLaggedFibonacci(6))

    def no_y(*args):
        raise AssertionError("the repr computed Y")

    monkeypatch.setattr(dense_core.PermutedFactor, "substitute_adjoint", no_y)
    assert repr(pre) == "Preconditioner(l=404, m=400, n=4000, build_apply_counts=(804, 400))"


@pytest.mark.parametrize(
    "Y",
    [np.diag([1.0, 1.0, -1.0, 1.0]), np.diag([1.0, 0.0, 1.0, 1.0]), np.eye(4) + np.eye(4)[::-1]],
    ids=["negative", "singular", "indefinite"],
)
def test_a_y_that_is_not_positive_definite_is_refused_at_the_first_projection(Y):
    # a finite Y passes construction; the chain's factor needs the Cholesky
    # factor of Y^-1, so the first projection raises where it would project garbage
    pre = identity_preconditioner(Y)
    A = Returns()
    for call in (lambda: project(pre, A, np.ones(8)), lambda: solve_lstsq(pre, A, np.ones(8))):
        with pytest.raises(FactorizationError, match="^Y must be positive definite: matrix of size 4"):
            call()
    assert pre._chain is None


def test_a_y_that_is_not_symmetric_is_refused_at_the_first_projection():
    # U is formed from Y^-1's lower triangle, so a Y with another upper
    # triangle would project as a different matrix; a build's Y with its
    # strict lower triangle tripled is refused instead
    A = make_sparse_test(40, 400, 1e4, 7)
    pre = build_preconditioner(A, 44, UniformLaggedFibonacci(8))
    Y = pre.Y + 2 * np.tril(pre.Y, -1)
    skewed = Preconditioner(R=pre.R, perm=pre.perm, Y=Y, l=44, m=40, n=400, build_apply_counts=(84, 40))
    for call in (lambda: project(skewed, A, np.ones(400)), lambda: solve_lstsq(skewed, A, np.ones(400))):
        with pytest.raises(DomainError, match="^Y must be symmetric, got Y != Y.T$"):
            call()


def test_a_build_holds_u_in_place_of_y():
    # the build forms U over its Gram matrix and never forms Y; pre.Y is the
    # Y the chain applies, (R U^-1)(R U^-1)*, computed at each read
    A = make_sparse_test(40, 400, 1e4, 7)
    pre = build_preconditioner(A, 44, UniformLaggedFibonacci(8))
    assert pre._Y is None and not pre._chain.R.flags.writeable
    Y = pre.Y
    assert Y is not pre.Y and np.array_equal(Y, pre.Y)
    assert np.array_equal(Y, Y.T) and not Y.flags.writeable
    c = np.random.default_rng(9).standard_normal(40)
    h = _solve_chain(pre, c)
    f = PermutedFactor(pre.R, pre.perm)
    assert np.linalg.norm(f.solve(Y @ f.solve_adjoint(c)) - h) <= 1e-11 * np.linalg.norm(h)


@pytest.mark.parametrize("kappa", [1e4, 1e8, 1e12])
@pytest.mark.parametrize("family", [make_sparse_test, make_dense_test], ids=["sparse", "dense"])
def test_the_chain_factor_is_a_triangular_root_of_a_a_star(family, kappa):
    # U Pi = L* R Pi with X = L L*, so (U Pi)* (U Pi) = A A*: U has A's
    # singular values, cond(U) = kappa, not its square, and A A* is never
    # formed.  A preconditioner made from the build's Y forms the same U.
    m, n = 70, 700
    A = family(m, n, kappa, 33)
    pre = build_preconditioner(A, m + 4, UniformLaggedFibonacci(34))
    chain = pre._chain_factor()
    assert chain is pre._chain_factor() is pre._chain
    U = chain.R
    assert not np.tril(U, -1).any()  # exact zeros below the diagonal
    assert np.array_equal(chain.perm, pre.perm)
    UP = U[:, np.argsort(pre.perm)]  # U Pi as a matrix
    Ad = densify(A)
    AAt = Ad @ Ad.T
    assert np.linalg.norm(UP.T @ UP - AAt) <= 1e-13 * np.linalg.norm(AAt)  # 7.6e-16 measured
    s, su = np.linalg.svd(Ad, compute_uv=False), np.linalg.svd(U, compute_uv=False)
    eps = np.finfo(float).eps
    assert (np.abs(su - s) <= 100 * kappa * eps * s).all()  # 0.75 kappa eps measured
    made = Preconditioner(R=pre.R, perm=pre.perm, Y=pre.Y, l=m + 4, m=m, n=n, build_apply_counts=(0, 0))
    assert made._chain is None
    assert np.linalg.norm(made._chain_factor().R - U) <= 1e-13 * np.linalg.norm(U)  # 1.7e-15 measured


def test_preconditioner_converts_nested_lists():
    # A = [3 4] has A A* = 25, so R = [5] gives X = 1 and Y = [1]
    fields = dict(R=[[5.0]], perm=[0], Y=[[1.0]], l=1, m=1, n=2, build_apply_counts=(0, 0))
    pre = Preconditioner(**fields)
    assert pre.R.dtype == pre.Y.dtype == float and pre.perm.dtype == np.intp
    res = project(pre, MatrixOperator(np.array([[3.0, 4.0]])), np.array([1.0, 0.0]))
    np.testing.assert_allclose(res.row_projection, [0.36, 0.48], rtol=1e-14)
    np.testing.assert_allclose(res.lstsq_solution, [0.12], rtol=1e-14)
    with pytest.raises(DimensionError, match="Y"):
        Preconditioner(**{**fields, "Y": [[1.0, 0.0]]})


def test_preconditioner_refuses_a_zero_diagonal_factor_at_construction():
    A = make_sparse_test(8, 32, 100.0, seed=2)
    pre = build_preconditioner(A, 12, UniformLaggedFibonacci(3))
    R = pre.R.copy()
    R[5, 5] = 0.0
    fields = dict(R=R, perm=pre.perm, Y=pre.Y, l=12, m=8, n=32, build_apply_counts=(20, 8))
    with pytest.raises(SingularFactorError, match="index 5"):
        Preconditioner(**fields)
    # the shape and permutation checks run before the factor is inverted
    with pytest.raises(DimensionError, match="R"):
        Preconditioner(**{**fields, "R": np.zeros((5, 5))})
    with pytest.raises(ConfigurationError, match="perm"):
        Preconditioner(**{**fields, "perm": np.zeros(8, int)})


def test_rank_deficient_sketch_raises_after_retries():
    A = MatrixOperator(np.zeros((2, 4)))
    g = UniformLaggedFibonacci(18)
    with pytest.raises(RankDeficientSketchError):
        build_preconditioner(A, 3, g)


class ZeroColumnsFirst:
    """Draws `zeros` all-zero columns, then `base`'s columns; the zeros do not advance `base`."""

    def __init__(self, base, zeros):
        self.base, self.zeros = base, zeros

    def fill_column(self, n):
        if self.zeros:
            self.zeros -= 1
            return np.zeros(n)
        return self.base.fill_column(n)


@pytest.mark.parametrize("zeros, counts", [(24, (68, 20)), (48, (92, 20))], ids=["one", "two"])
def test_a_retried_sketch_builds_what_a_first_sketch_would(zeros, counts):
    # each all-zero sketch is rank deficient, so the build pays l applies
    # for it and retries; the sketch that passes is a plain build's first
    m, n, l = 20, 400, 24
    plain = build_preconditioner(make_sparse_test(m, n, 1e8, 0), l, UniformLaggedFibonacci(1))
    A = make_sparse_test(m, n, 1e8, 0)
    pre = build_preconditioner(A, l, ZeroColumnsFirst(UniformLaggedFibonacci(1), zeros))
    assert pre.build_apply_counts == counts == A.counts()
    for name in ("R", "perm", "Y"):
        assert np.array_equal(getattr(pre, name), getattr(plain, name))


class ZeroValuesFirst:
    """Draws `zeros` zero values, then `base`'s values; the zeros do not advance `base`.

    Its values do not depend on how requests are split, so a blocked sketch
    sees the same G as a column-by-column one.
    """

    def __init__(self, base, zeros):
        self.base, self.zeros = base, zeros

    def fill_column(self, n):
        z = min(n, self.zeros)
        self.zeros -= z
        return np.concatenate([np.zeros(z), self.base.fill_column(n - z)])


def test_a_retried_blocked_sketch_builds_what_a_first_sketch_would():
    # b = 40 * 44 // 400 = 4 columns per request; the first l n values make
    # one all-zero sketch, which costs l applies and one retry
    m, n, l = 40, 400, 44
    plain = build_preconditioner(make_sparse_test(m, n, 1e8, 0), l, UniformLaggedFibonacci(1))
    A = make_sparse_test(m, n, 1e8, 0)
    pre = build_preconditioner(A, l, ZeroValuesFirst(UniformLaggedFibonacci(1), l * n))
    assert pre.build_apply_counts == (2 * l + m, m) == A.counts()
    for name in ("R", "perm", "Y"):
        assert np.array_equal(getattr(pre, name), getattr(plain, name))


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


def test_default_sketch_width_refuses_an_empty_operator():
    # min(m + 4, 0) would be a width no build accepts
    with pytest.raises(ConfigurationError, match="n must be at least 1"):
        default_sketch_width(4, 0)


def test_default_sketch_width_refuses_n_below_m():
    # min(m + 4, n) with n < m would be a width no build accepts
    with pytest.raises(ConfigurationError, match="n must be at least m=8, got 4"):
        default_sketch_width(8, 4)
    assert default_sketch_width(8, 8) == 8


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
    # a Gaussian column is one standard_normal call that allocates only the
    # column, so it adds less than one column over the uniform stream (it
    # read 30 kB below it); a column's worth of temporaries would not
    assert peaks[1] - peaks[0] < n * 8


def test_sparse_build_holds_one_length_n_array_at_a_time():
    # the sketch holds the stream's column and the Gram build A* w; the
    # operator's apply adds no length-n copy of its input, which would take
    # the peak to about two length-n arrays
    m, n, l = 20, 20_000, 24
    A = make_sparse_test(m, n, 1e8, seed=32)
    peak = min(traced_peak(build_preconditioner, A, l, UniformLaggedFibonacci(33)) for _ in range(3))
    assert peak < 1.5 * n * 8


def test_dense_build_holds_one_length_n_array_at_a_time():
    # the dense family's A* w is its one length-n output, into which the
    # base's gather goes a bounded chunk at a time; a whole gather beside
    # the rank-10 term takes the Gram build to about two length-n arrays
    m, n, l = 20, 200_000, 24
    A = make_dense_test(m, n, 1e8, seed=34)
    peak = min(traced_peak(build_preconditioner, A, l, GaussianStream(35)) for _ in range(2))
    assert peak < 1.5 * n * 8


def test_build_factors_its_sketch_in_place(monkeypatch):
    # the build hands its sketch to the QR as the QR's working array, so
    # beside the sketch the QR phase holds R and one panel update (about
    # 1.33 m l doubles, measured), against 2.33 with a working copy
    m, n, l = 200, 2000, 204
    A = make_sparse_test(m, n, 1e8, seed=47)
    S = build_sketch(A, l, UniformLaggedFibonacci(48))

    class GramReached(Exception):
        pass

    def gram(*args):
        raise GramReached

    monkeypatch.setattr(precond, "build_sketch", lambda *args: S)
    monkeypatch.setattr(precond, "build_gram", gram)

    def through_the_qr():
        with pytest.raises(GramReached):
            build_preconditioner(A, l, UniformLaggedFibonacci(48))

    assert traced_peak(through_the_qr) < 2 * m * l * 8


def test_build_working_set_stays_near_three_sketch_sized_arrays():
    # the Gram build and the inverse hold two m-by-m arrays, R and the Gram
    # matrix, and block-column temporaries, since both run in place on
    # arrays the build owns; the QR, run in the sketch, holds about 2.3 m l
    # and is the peak (2.34 m l measured); one throwaway m-by-m copy in the
    # Gram build or the inverse passes 2.6 m l
    m, n, l = 200, 2000, 204
    A = make_sparse_test(m, n, 1e8, seed=30)
    peak = min(traced_peak(build_preconditioner, A, l, UniformLaggedFibonacci(31)) for _ in range(3))
    assert peak < 2.6 * m * l * 8


def test_dense_build_holds_few_length_n_vectors():
    # the dense family's adjoint adds its rank-10 term into the base's
    # output in place: about 3 length-n vectors at the peak, against 4
    # with one more temporary per adjoint apply
    m, n = 100, 20_000
    A = make_dense_test(m, n, 1e12, seed=32)
    peak = min(traced_peak(build_preconditioner, A, m + 4, GaussianStream(33)) for _ in range(3))
    assert peak < 3.5 * n * 8


@pytest.mark.parametrize(
    "perm", [np.zeros(6, int), np.arange(5), np.arange(6.0)], ids=["repeated", "short", "float"]
)
def test_build_gram_refuses_a_bad_permutation_before_any_apply(perm):
    # a repeated index used to spend (m, m) applies on a wrong X
    A = make_sparse_test(6, 24, 100.0, seed=23)
    R = qr_pivoted(np.random.default_rng(24).standard_normal((10, 6))).R
    with pytest.raises(ConfigurationError, match="perm"):
        build_gram(A, R, perm)
    assert A.counts() == (0, 0)


def test_build_gram_costs_exactly_m_applies_each_way():
    # three block columns of R, so the in-place sweeps cross block edges;
    # one apply of A and one of A* per column, none to check R or perm
    m, n = 70, 280
    A = make_sparse_test(m, n, 1e4, seed=25)
    qr = qr_pivoted(build_sketch(A, m + 4, UniformLaggedFibonacci(26)).T)
    before = A.counts()
    X = build_gram(A, qr.R, qr.perm)
    after = A.counts()
    assert (after[0] - before[0], after[1] - before[1]) == (m, m)
    assert X.shape == (m, m)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_build_gram_refuses_a_nonfinite_factor_before_any_apply(bad):
    A = make_sparse_test(6, 24, 100.0, seed=23)
    R = qr_pivoted(np.random.default_rng(24).standard_normal((10, 6))).R
    R[1, 4] = bad
    with pytest.raises(DomainError, match="R must be finite"):
        build_gram(A, R, np.arange(6))
    assert A.counts() == (0, 0)


def test_build_gram_rejects_wrong_factor_shape():
    A = make_sparse_test(6, 24, 100.0, seed=23)
    with pytest.raises(ConfigurationError):
        build_gram(A, np.eye(5), np.arange(5))


def test_build_gram_is_importable_from_the_root_and_precond():
    assert build_gram is precond.build_gram is dense_core.build_gram


@pytest.mark.parametrize(
    "first_use, built_by_two",
    [(lambda pre, A: project(pre, A, np.ones(400)), ["U"]), (measured_condition, ["R", "R"])],
    ids=["project", "measured_condition"],
)
def test_a_fresh_build_holds_no_fused_steps_until_its_first_solve(first_use, built_by_two, monkeypatch):
    # the build sweeps in its own Gram array and never solves through a
    # factor, so no steps exist until the first projection builds those of
    # the chain's factor U Pi, once, whatever order calls come in;
    # measured_condition forms R's factor for its one solve, so it builds
    # that factor's steps at each call and leaves the chain's alone
    built = []
    fused_steps = dense_core._fused_steps

    def counting(R, inv):
        built.append(R)
        return fused_steps(R, inv)

    monkeypatch.setattr(dense_core, "_fused_steps", counting)
    A = make_sparse_test(40, 400, 1e4, seed=30)
    pre = build_preconditioner(A, 44, UniformLaggedFibonacci(31))

    def names():
        return ["U" if R is pre._chain.R else "R" for R in built]

    assert pre._chain._fused is None and built == []
    first_use(pre, A)
    first_use(pre, A)
    assert names() == built_by_two
    project(pre, A, np.ones(400))
    steps = pre._chain._fused
    project(pre, A, np.ones(400))
    measured_condition(pre, A)
    assert steps is not None and pre._chain._fused is steps
    assert names().count("U") == 1 and names()[-1] == "R"
