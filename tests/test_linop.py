import ast
import pathlib
import threading

import numpy as np
import pytest

from nullproj import (
    ClassicalProjector,
    ConfigurationError,
    DenseTestMatrix,
    DimensionError,
    DomainError,
    LinearOperator,
    MatrixOperator,
    SizeCapError,
    SparseTestMatrix,
    TripletMatrix,
    UniformLaggedFibonacci,
    build_preconditioner,
    densify,
    load_triplet_operator,
    make_dense_test,
    make_sparse_test,
    svd_dense,
)
from nullproj.linop import _ADJOINT_CHUNK

from helpers import dense_adjoint_two_arrays, stencil_eigenvalues, stencil_matrix, traced_peak


def block(m, d):
    """The circulant block B itself: one block and no permutation."""
    return SparseTestMatrix(d, range(m), range(m))


def test_stencil_first_column_m5():
    B = block(5, 1.0)
    e1 = np.zeros(5)
    e1[0] = 1.0
    assert np.array_equal(B.apply(e1), np.array([7.0, -4.0, 1.0, 1.0, -4.0]))


@pytest.mark.parametrize("m", [4, 5, 6, 100, 400])
def test_stencil_apply_matches_roll_formula_bitwise(m):
    # m = 4 is the wrap case, where the +-2 offsets land on the same entry
    B = block(m, 0.3)
    x = np.random.default_rng(m).standard_normal(m)
    reference = (6.0 + B.d) * x - 4.0 * (np.roll(x, 1) + np.roll(x, -1)) + np.roll(x, 2) + np.roll(x, -2)
    assert np.array_equal(B.apply(x).view(np.int64), reference.view(np.int64))


def test_stencil_apply_matches_toarray():
    B = block(9, 0.5)
    dense = stencil_matrix(9, 0.5)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal(9)
        assert np.allclose(B.apply(x), dense @ x, rtol=0, atol=1e-12)


def test_stencil_eigenvalues_match_dense():
    # includes m=4, where the +-2 taps collide and sum
    for m in (4, 6, 12):
        dense_eigs = np.sort(np.linalg.eigvalsh(densify(block(m, 0.75))))
        assert np.allclose(np.sort(stencil_eigenvalues(m, 0.75)), dense_eigs, rtol=1e-12, atol=0)


def test_stencil_condition_number_even_m():
    _, cond = svd_dense(densify(block(10, 2.0)))
    assert abs(cond - (16.0 + 2.0) / 2.0) / cond <= 1e-12


def test_stencil_validation():
    with pytest.raises(ConfigurationError, match="m >= 4"):
        block(3, 1.0)
    with pytest.raises(ConfigurationError, match="diagonal shift"):
        block(8, 0.0)
    for d in (float("nan"), float("inf"), "1.0", 1 + 0j):
        with pytest.raises(ConfigurationError, match="diagonal shift"):
            block(8, d)


@pytest.mark.parametrize(
    "row_perm, col_perm",
    [
        ([0, 1, 2, 9], range(8)),  # out of range: apply would run, apply_adjoint would not
        ([0, 1, 2, -1], range(8)),
        ([0, 1, 1, 3], range(8)),
        (range(4), [0, 0, 1, 2, 3, 4, 5, 6]),  # column 7 would be silently zero
        (range(4), [0, 1, 2, 3, 4, 5, 6, 8]),
    ],
    ids=["row-out-of-range", "row-negative", "row-repeat", "col-repeat", "col-out-of-range"],
)
def test_sparse_test_matrix_rejects_non_permutations(row_perm, col_perm):
    with pytest.raises(ConfigurationError, match="permutation"):
        SparseTestMatrix(1.0, row_perm, col_perm)


def test_apply_zero_is_zero_exactly():
    A = make_sparse_test(8, 24, 100.0, seed=1)
    assert np.array_equal(A.apply(np.zeros(24)), np.zeros(8))
    assert np.array_equal(A.apply_adjoint(np.zeros(8)), np.zeros(24))


def test_sparse_identity_perms_is_block_sum():
    A = SparseTestMatrix(1.0, np.arange(4), np.arange(8))
    rng = np.random.default_rng(2)
    x = rng.standard_normal(8)
    direct = stencil_matrix(4, 1.0) @ (x[:4] + x[4:])
    assert np.allclose(A.apply(x), direct, rtol=0, atol=1e-12)
    # densified operator agrees with the matrix-free apply
    Ad = densify(A)
    assert np.allclose(Ad @ x, A.apply(x), rtol=0, atol=1e-13)


@pytest.mark.parametrize("block_count", [1, 2, 1000])
def test_sparse_apply_matches_block_loop_reference(block_count):
    # reference: scatter-add x entry by entry into its slot of V x's block
    # sum (the order bincount sums in), and tile then gather for V*
    m = 8
    A = make_sparse_test(m, m * block_count, 1e6, seed=block_count)
    rng = np.random.default_rng(block_count)
    x = rng.standard_normal(m * block_count)
    y = rng.standard_normal(m)
    slot = np.argsort(A.col_perm) % m
    w = np.zeros(m)
    for i in range(m * block_count):
        w[slot[i]] += x[i]
    ref_apply = A._stencil(w)[np.argsort(A.row_perm)]
    ref_adjoint = np.tile(A._stencil(y[A.row_perm]), block_count)[np.argsort(A.col_perm)]
    Ax = A.apply(x)
    assert np.array_equal(Ax, ref_apply)
    assert np.array_equal(A.apply_adjoint(y), ref_adjoint)
    # the block-by-block sum differs only by the two orders' summation error,
    # amplified at most by B's largest absolute row sum 16+d
    z = x[A.col_perm].reshape(block_count, m)
    w_blocks = np.zeros(m)
    for b in range(block_count):
        w_blocks += z[b]
    block_apply = A._stencil(w_blocks)[np.argsort(A.row_perm)]
    eps = np.finfo(float).eps
    bound = 2 * block_count * eps * (16 + A.d) * np.abs(z).sum(axis=0).max()
    assert np.abs(Ax - block_apply).max() <= bound


def test_sparse_apply_allocates_no_length_n_array():
    # V x is summed straight into its m slots; a gather of x[col_perm]
    # would hold one length-n copy at the peak
    m, n = 20, 20_000
    A = make_sparse_test(m, n, 1e8, seed=40)
    x = np.random.default_rng(41).standard_normal(n)
    A.apply(x)  # any one-time setup happens outside the traced call
    peak = traced_peak(A.apply, x)
    assert peak < 0.1 * n * 8


def test_sparse_adjoint_holds_one_length_n_array():
    # A* y is the one length-n array; the output's finiteness check
    # allocates no length-n mask.  Measured 1952 bytes above n*8 (m-sized
    # temporaries); the 4096 allows about twice that.  An n-byte bool mask
    # from np.isfinite(out) would add 100 kB.
    m, n = 100, 100_000
    A = make_sparse_test(m, n, 1e8, 0)
    y = np.random.default_rng(42).standard_normal(m)
    A.apply_adjoint(y)  # any one-time setup happens outside the traced call
    peak = traced_peak(A.apply_adjoint, y)
    assert peak < n * 8 + 4096


def test_densify_of_identity_perm_single_block_is_stencil():
    assert np.array_equal(densify(block(6, 2.0)), stencil_matrix(6, 2.0))


@pytest.mark.parametrize("make,label", [(make_sparse_test, "sparse"), (make_dense_test, "dense")])
def test_adjoint_consistency(make, label):
    A = make(8, 32, 1e4, seed=3)
    rng = np.random.default_rng(4)
    for _ in range(100):
        x = rng.standard_normal(32)
        x /= np.linalg.norm(x)
        y = rng.standard_normal(8)
        y /= np.linalg.norm(y)
        lhs = np.dot(A.apply(x), y)
        rhs = np.dot(x, A.apply_adjoint(y))
        assert abs(lhs - rhs) <= 1e-12


def test_sparse_adjoint_survives_an_edit_of_the_callers_row_permutation():
    # the operator keeps its own row permutation, so A* stays A's adjoint
    row_perm, col_perm = np.array([2, 0, 3, 1]), np.arange(8)
    A = SparseTestMatrix(1.0, row_perm, col_perm)
    row_perm[:] = row_perm[::-1]
    rng = np.random.default_rng(7)
    x, y = rng.standard_normal(8), rng.standard_normal(4)
    assert abs(np.dot(A.apply(x), y) - np.dot(x, A.apply_adjoint(y))) <= 1e-12


def test_sparse_test_matrix_keeps_its_own_column_permutation():
    # an intp col_perm is copied too, so A.col_perm keeps describing A
    cp = np.array([3, 1, 7, 5, 0, 2, 6, 4], dtype=np.intp)
    A = SparseTestMatrix(1.0, range(4), cp)
    dense = densify(A)
    cp[:] = cp[::-1]
    assert A.col_perm is not cp
    assert np.array_equal(A.col_perm, [3, 1, 7, 5, 0, 2, 6, 4])
    assert np.array_equal(densify(A), dense)


def test_triplet_matrix_keeps_its_own_index_arrays():
    rows, cols = np.array([0, 1, 1], dtype=np.intp), np.array([2, 0, 1], dtype=np.intp)
    A = TripletMatrix(2, 3, rows, cols, [1.0, 2.0, 3.0])
    dense = densify(A)
    rows[:], cols[:] = 0, 0
    assert np.array_equal(densify(A), dense)


def test_linearity():
    A = make_sparse_test(8, 40, 1e3, seed=5)
    rng = np.random.default_rng(6)
    x = rng.standard_normal(40)
    y = rng.standard_normal(40)
    combo = A.apply(2.5 * x - 0.75 * y)
    parts = 2.5 * A.apply(x) - 0.75 * A.apply(y)
    assert np.allclose(combo, parts, rtol=1e-12, atol=1e-12 * np.linalg.norm(combo))


def test_counters_increment_by_one():
    A = make_sparse_test(4, 8, 10.0, seed=7)
    assert A.counts() == (0, 0)
    x = np.zeros(8)
    y = np.zeros(4)
    for k in range(1, 4):
        A.apply(x)
        assert A.counts() == (k, 0)
    for k in range(1, 3):
        A.apply_adjoint(y)
        assert A.counts() == (3, k)


def test_dense_test_counts_once_per_apply():
    A = make_dense_test(4, 8, 10.0, seed=8)
    A.apply(np.zeros(8))
    assert A.counts() == (1, 0)
    A.apply_adjoint(np.zeros(4))
    assert A.counts() == (1, 1)


def test_counters_are_thread_safe():
    A = make_sparse_test(4, 8, 10.0, seed=9)
    x = np.zeros(8)

    def worker():
        for _ in range(200):
            A.apply(x)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert A.counts() == (1600, 0)


def test_make_sparse_test_d_from_kappa():
    A = make_sparse_test(8, 16, 1e8, seed=10)
    assert A.d == pytest.approx(16.0 / (1e8 - 1.0), rel=1e-15)
    A17 = make_sparse_test(8, 16, 17.0, seed=10)
    assert A17.d == 1.0  # diagonal entry 6 + d = 7


def test_make_sparse_test_condition_number_oracle():
    A = make_sparse_test(8, 32, 1e4, seed=11)
    _, cond = svd_dense(densify(A))
    assert abs(cond - 1e4) / 1e4 <= 1e-6


def test_sparse_singular_value_envelope():
    # all singular values within [sigma * d/(16+d), sigma] for sigma = largest
    A = make_sparse_test(16, 64, 1e3, seed=12)
    s, cond = svd_dense(densify(A))
    d = A.d
    assert abs(cond - (16.0 + d) / d) / cond <= 1e-6
    assert s.min() >= s.max() * d / (16.0 + d) * (1.0 - 1e-9)


def test_make_sparse_test_validation():
    with pytest.raises(ConfigurationError):
        make_sparse_test(8, 20, 1e4, seed=0)  # n not a multiple of m
    with pytest.raises(ConfigurationError):
        make_sparse_test(8, 16, 0.5, seed=0)  # kappa <= 1
    with pytest.raises(ConfigurationError, match="kappa"):
        make_sparse_test(8, 16, float("inf"), seed=0)  # d = 16/(kappa-1) would be 0
    for kappa in ("1e4", None, 1j, 10**400):  # the last would overflow float()
        with pytest.raises(ConfigurationError, match="kappa"):
            make_sparse_test(8, 16, kappa, seed=0)
    with pytest.raises(ConfigurationError):
        make_sparse_test(5, 20, 1e4, seed=0)  # odd m: kappa would not be exact
    with pytest.raises(ConfigurationError):
        make_sparse_test(2, 8, 1e4, seed=0)


def reference_dense_draws(m, n, seed):
    """The dense family's draws as first written: the base's generator, then a second one that
    discards the same two permutations before drawing E and F."""
    rng = np.random.default_rng(seed)
    row_perm, col_perm = rng.permutation(m), rng.permutation(n)
    rng = np.random.default_rng(seed)
    rng.permutation(m)
    rng.permutation(n)
    E = rng.standard_normal((m, 10))
    F = rng.standard_normal((10, n))
    return row_perm, col_perm, E, F


@pytest.mark.parametrize("m,n", [(8, 32), (100, 20000)])
@pytest.mark.parametrize("seed", [0, 3, 7])
def test_dense_test_draws_match_the_two_generator_reference_bitwise(m, n, seed):
    row_perm, col_perm, E, F = reference_dense_draws(m, n, seed)
    A = make_dense_test(m, n, 1e4, seed)
    for got, want in ((A.base.row_perm, row_perm), (A.base.col_perm, col_perm)):
        assert np.array_equal(got, want)
    for got, want in ((A.E, E), (A.F, F)):
        assert got.tobytes() == want.tobytes()
    sparse = make_sparse_test(m, n, 1e4, seed)
    assert np.array_equal(sparse.row_perm, row_perm) and np.array_equal(sparse.col_perm, col_perm)


def test_dense_test_matches_sparse_plus_lowrank():
    A = make_dense_test(8, 32, 1e4, seed=13)
    expected = densify(A.base) + A.E @ A.F / np.sqrt(8 * 32)
    assert np.allclose(densify(A), expected, rtol=0, atol=1e-14)


def test_dense_test_refuses_a_base_that_is_not_sparse():
    # A* y reads the sparse base's adjoint slots, so another base would only
    # fail at the first A* y, after a build had spent its sketch applies
    with pytest.raises(
        ConfigurationError, match="^base must be a SparseTestMatrix, got MatrixOperator$"
    ):
        DenseTestMatrix(MatrixOperator(np.eye(4, 8)), np.ones((4, 10)), np.ones((10, 8)))


def test_dense_test_condition_within_factor_ten():
    # kappa only roughly estimates the dense operator's condition number, and
    # only while the sparse part keeps more than 10 small singular values; at
    # desk scale that means modest kappa (at kappa=1e4 and m <= 20 the rank-10
    # update lifts every tiny mode and the estimate is off by orders).
    kappa = 100.0
    for seed in range(4):
        A = make_dense_test(8, 32, kappa, seed=seed)
        _, cond = svd_dense(densify(A))
        assert kappa / 10.0 <= cond <= kappa * 10.0


def test_dense_adjoint_matches_transposed_dense():
    A = make_dense_test(6, 24, 100.0, seed=15)
    Ad = densify(A)
    rng = np.random.default_rng(16)
    y = rng.standard_normal(6)
    assert np.allclose(A.apply_adjoint(y), Ad.T @ y, rtol=0, atol=1e-12)


@pytest.mark.parametrize("m,n", [(8, 32), (100, 4000), (64, 4096), (100, 20000)])
def test_dense_adjoint_is_bitwise_the_sum_of_its_terms(m, n):
    # the base's gather is added into the rank-10 term a chunk at a time,
    # for n below, equal to and a non-multiple of the chunk; the reference
    # is the same sum written as one expression
    A = make_dense_test(m, n, 1e4, seed=17)
    for y in np.random.default_rng(18).standard_normal((3, m)):
        want = A.base._apply_adjoint_impl(y) + A.scale * (A.F.T @ (A.E.T @ y))
        assert A.apply_adjoint(y).tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "n", [k * _ADJOINT_CHUNK + d for k in (1, 2) for d in (-1, 0, 1)]
)
def test_dense_adjoint_is_bitwise_the_two_array_sum_around_its_chunk(n):
    # one entry short of one and of two whole chunks, exactly one and two,
    # and one entry into a second and a third; m is the smallest stencil
    # size that divides n
    m = next(d for d in range(4, n + 1) if n % d == 0)
    rng = np.random.default_rng(n)
    base = SparseTestMatrix(0.5, rng.permutation(m), rng.permutation(n))
    A = DenseTestMatrix(base, rng.standard_normal((m, 10)), rng.standard_normal((10, n)))
    for y in rng.standard_normal((3, m)):
        assert A.apply_adjoint(y).tobytes() == dense_adjoint_two_arrays(A, y).tobytes()


def test_dense_adjoint_holds_one_length_n_array():
    # the rank-10 term is the one length-n array and the base's gather is
    # added into it a chunk at a time; gathering it whole holds two
    m, n = 20, 200_000
    A = make_dense_test(m, n, 1e8, seed=43)
    y = np.random.default_rng(44).standard_normal(m)
    A.apply_adjoint(y)  # any one-time setup happens outside the traced call
    peak = traced_peak(A.apply_adjoint, y)
    assert peak < 1.5 * n * 8


def test_dense_adjoint_holds_its_output_and_one_chunk():
    # beyond its output the gather holds one chunk of _ADJOINT_CHUNK entries
    # at a time, at most 32 KiB: about 34.3 KB measured, against 67.1 KB
    # with the 8192-entry chunk
    assert 8 * _ADJOINT_CHUNK <= 32 * 1024
    m, n = 100, 20_000
    A = make_dense_test(m, n, 1e12, seed=45)
    y = np.random.default_rng(46).standard_normal(m)
    A.apply_adjoint(y)  # any one-time setup happens outside the traced call
    peak = traced_peak(A.apply_adjoint, y)
    assert peak < 8 * n + 8 * _ADJOINT_CHUNK + 4096


def test_dimension_errors():
    A = make_sparse_test(4, 8, 10.0, seed=17)
    with pytest.raises(DimensionError):
        A.apply(np.zeros(7))
    with pytest.raises(DimensionError):
        A.apply_adjoint(np.zeros(8))
    with pytest.raises(DimensionError):
        MatrixOperator(np.zeros((5, 3)))  # taller than wide


class BadOutput(LinearOperator):
    """A 2x8 matrix operator; a given `apply_out` or `adjoint_out` replaces A x or A* y."""

    def __init__(self, apply_out=None, adjoint_out=None):
        super().__init__(2, 8)
        self._mat = np.eye(2, 8) + np.eye(2, 8, 3)
        self._apply_out = apply_out
        self._adjoint_out = adjoint_out

    def _apply_impl(self, x):
        return self._mat @ x if self._apply_out is None else self._apply_out

    def _apply_adjoint_impl(self, y):
        return self._mat.T @ y if self._adjoint_out is None else self._adjoint_out


def test_wrong_length_apply_output_is_a_dimension_error_at_the_first_apply():
    A = BadOutput(apply_out=np.ones(1))
    with pytest.raises(DimensionError, match="A x"):
        A.apply(np.ones(8))
    assert A.counts() == (1, 0)
    # broadcast into the sketch, a length-1 output would read as a rank-deficient sketch
    A = BadOutput(apply_out=np.ones(1))
    with pytest.raises(DimensionError, match="A x"):
        build_preconditioner(A, 4, UniformLaggedFibonacci(18))
    assert A.counts() == (1, 0)


def test_scalar_adjoint_output_is_a_dimension_error_at_the_first_apply():
    A = BadOutput(adjoint_out=1.0)
    with pytest.raises(DimensionError, match=r"A\* y"):
        A.apply_adjoint(np.ones(2))
    assert A.counts() == (0, 1)
    A = BadOutput(adjoint_out=np.float64(1.0))
    with pytest.raises(DimensionError, match=r"A\* y"):
        ClassicalProjector(A)
    assert A.counts() == (0, 1)


def test_densify_shape_and_cap():
    op = MatrixOperator(np.arange(8.0).reshape(2, 4))
    assert densify(op).shape == (2, 4)
    assert np.array_equal(densify(op), op.mat)
    # one column over the cap, refused before the snapshot is allocated
    with pytest.raises(SizeCapError):
        densify(LinearOperator(1000, 1001))


class RecordingBadOutput(BadOutput):
    """BadOutput that records the column index of each unit vector it is applied to."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.columns = []

    def _apply_impl(self, x):
        self.columns.append(int(np.argmax(x)))
        return super()._apply_impl(x)


@pytest.mark.parametrize(
    "apply_out, error, match",
    [
        (np.ones(1), DimensionError, r"A x must have shape \(2,\)"),
        (np.array([1.0, np.nan]), DomainError, "A x holds a NaN"),
    ],
    ids=["length-1", "nan"],
)
def test_densify_holds_the_apply_output_contract_uncounted(apply_out, error, match):
    A = RecordingBadOutput(apply_out=apply_out)
    with pytest.raises(error, match=match):
        densify(A)
    assert A.columns == [0]  # stopped at the first column
    assert A.counts() == (0, 0)


def test_operator_impls_are_reached_only_through_the_checked_body():
    # Every product of an operator passes the output checks of LinearOperator._checked_apply.
    # An operator may build on another one inside its own impls (DenseTestMatrix on its base).
    impls = {"_apply_impl", "_apply_adjoint_impl"}
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "nullproj"
    offenders = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "LinearOperator":
                bodies = [f for f in node.body if getattr(f, "name", None) == "_checked_apply"]
            elif isinstance(node, ast.FunctionDef) and node.name in impls:
                bodies = [node]
            else:
                continue
            allowed.update(n for body in bodies for n in ast.walk(body))
        offenders += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in impls and node not in allowed
        ]
    assert offenders == []


def test_densify_leaves_counters_alone():
    A = make_sparse_test(4, 8, 10.0, seed=18)
    densify(A)
    assert A.counts() == (0, 0)


def test_triplet_file_round_trip(tmp_path):
    # 2x4 matrix: [[1, 0, 2.5, 0], [0, -3, 0, 0]]
    path = tmp_path / "mat.txt"
    path.write_text("2 4 3\n1 1 1.0\n1 3 2.5\n2 2 -3.0\n")
    op = load_triplet_operator(path)
    dense = np.array([[1.0, 0.0, 2.5, 0.0], [0.0, -3.0, 0.0, 0.0]])
    assert np.array_equal(densify(op), dense)
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(op.apply(x), dense @ x)
    assert op.counts() == (1, 0)
    y = np.array([2.0, -1.0])
    assert np.array_equal(op.apply_adjoint(y), dense.T @ y)


def test_triplet_file_trailing_blank_lines_load(tmp_path):
    path = tmp_path / "mat.txt"
    path.write_text("2 3 1\n1 1 5.0\n\n   \n")
    assert np.array_equal(densify(load_triplet_operator(path)), [[5.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


@pytest.mark.parametrize(
    "text, where",
    [
        ("2 4\n", "header"),
        ("2 3 -1\n", "header"),
        ("2 3 x\n", "header"),
        ("2 3 1\n1 1 abc\n", "entry 1 \\(line 2\\)"),
        ("2 3 2\n1 1 1.0\n1 99999999999999999999 1.0\n", "entry 2 \\(line 3\\)"),
        ("2 3 99999999999999999999\n1 1 1.0\n", "entry 2 \\(line 3\\)"),
        ("2 3 1\n1 1 5.0\n2 3 7.0\n", "line 3 lies past the header's nnz=1"),
        ("2 3 1\n1 1 5.0\n\n2 3 7.0\n", "line 4 lies past the header's nnz=1"),
    ],
    ids=[
        "short",
        "negative-nnz",
        "non-integer",
        "non-numeric-entry",
        "index-overflow",
        "huge-nnz",
        "extra-entry",
        "extra-entry-after-blank",
    ],
)
def test_triplet_file_bad_header(tmp_path, text, where):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ConfigurationError, match=where):
        load_triplet_operator(path)
