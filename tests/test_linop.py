import threading

import numpy as np
import pytest

from nullproj import (
    CirculantStencil,
    ConfigurationError,
    DimensionError,
    LinearOperator,
    MatrixOperator,
    SizeCapError,
    SparseTestMatrix,
    UniformLaggedFibonacci,
    build_preconditioner,
    densify,
    load_triplet_operator,
    make_dense_test,
    make_sparse_test,
    svd_dense,
)
from nullproj.linop import apply_gram


def test_stencil_first_column_m5():
    st = CirculantStencil(5, 1.0)
    e1 = np.zeros(5)
    e1[0] = 1.0
    assert np.array_equal(st.apply(e1), np.array([7.0, -4.0, 1.0, 1.0, -4.0]))


@pytest.mark.parametrize("m", [4, 5, 6, 100, 400])
def test_stencil_apply_matches_roll_formula_bitwise(m):
    # m = 4 is the wrap case, where the +-2 offsets land on the same entry
    st = CirculantStencil(m, 0.3)
    x = np.random.default_rng(m).standard_normal(m)
    reference = (6.0 + st.d) * x - 4.0 * (np.roll(x, 1) + np.roll(x, -1)) + np.roll(x, 2) + np.roll(x, -2)
    assert np.array_equal(st.apply(x).view(np.int64), reference.view(np.int64))


def test_stencil_apply_matches_toarray():
    st = CirculantStencil(9, 0.5)
    B = st.toarray()
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.standard_normal(9)
        assert np.allclose(st.apply(x), B @ x, rtol=0, atol=1e-12)


def test_stencil_eigenvalues_match_dense():
    # includes m=4, where the +-2 taps collide and sum
    for m in (4, 6, 12):
        st = CirculantStencil(m, 0.75)
        dense_eigs = np.sort(np.linalg.eigvalsh(st.toarray()))
        assert np.allclose(np.sort(st.eigenvalues()), dense_eigs, rtol=1e-12, atol=0)


def test_stencil_condition_number_even_m():
    st = CirculantStencil(10, 2.0)
    _, cond = svd_dense(st.toarray())
    assert abs(cond - (16.0 + 2.0) / 2.0) / cond <= 1e-12


def test_stencil_validation():
    with pytest.raises(ConfigurationError):
        CirculantStencil(3, 1.0)
    with pytest.raises(ConfigurationError):
        CirculantStencil(8, 0.0)


def test_apply_zero_is_zero_exactly():
    A = make_sparse_test(8, 24, 100.0, seed=1)
    assert np.array_equal(A.apply(np.zeros(24)), np.zeros(8))
    assert np.array_equal(A.apply_adjoint(np.zeros(8)), np.zeros(24))


def test_sparse_identity_perms_is_block_sum():
    st = CirculantStencil(4, 1.0)
    A = SparseTestMatrix(st, np.arange(4), np.arange(8))
    rng = np.random.default_rng(2)
    x = rng.standard_normal(8)
    direct = st.toarray() @ (x[:4] + x[4:])
    assert np.allclose(A.apply(x), direct, rtol=0, atol=1e-12)
    # densified operator agrees with the matrix-free apply
    Ad = densify(A)
    assert np.allclose(Ad @ x, A.apply(x), rtol=0, atol=1e-13)


@pytest.mark.parametrize("block_count", [1, 2, 1000])
def test_sparse_apply_matches_block_loop_reference(block_count):
    # reference: accumulate the blocks one by one, and tile then gather for V*
    m = 8
    A = make_sparse_test(m, m * block_count, 1e6, seed=block_count)
    rng = np.random.default_rng(block_count)
    x = rng.standard_normal(m * block_count)
    y = rng.standard_normal(m)
    z = x[A.col_perm]
    w = np.zeros(m)
    for b in range(block_count):
        w += z[b * m : (b + 1) * m]
    ref_apply = A.stencil.apply(w)[np.argsort(A.row_perm)]
    ref_adjoint = np.tile(A.stencil.apply(y[A.row_perm]), block_count)[np.argsort(A.col_perm)]
    assert np.array_equal(A.apply(x), ref_apply)
    assert np.array_equal(A.apply_adjoint(y), ref_adjoint)


def test_densify_of_identity_perm_single_block_is_stencil():
    st = CirculantStencil(6, 2.0)
    A = SparseTestMatrix(st, np.arange(6), np.arange(6))
    assert np.array_equal(densify(A), st.toarray())


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


def test_apply_gram_costs_one_pair_per_column():
    A = make_dense_test(6, 24, 100.0, seed=21)
    W = np.random.default_rng(22).standard_normal((6, 4))
    Ad = densify(A)
    expected = Ad @ (Ad.T @ W)
    assert apply_gram(A, W) is W
    assert A.counts() == (4, 4)
    assert np.allclose(W, expected, rtol=0, atol=1e-12 * np.abs(expected).max())


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
    assert A.stencil.d == pytest.approx(16.0 / (1e8 - 1.0), rel=1e-15)
    A17 = make_sparse_test(8, 16, 17.0, seed=10)
    assert A17.stencil.d == 1.0  # diagonal entry 6 + d = 7


def test_make_sparse_test_condition_number_oracle():
    A = make_sparse_test(8, 32, 1e4, seed=11)
    _, cond = svd_dense(densify(A))
    assert abs(cond - 1e4) / 1e4 <= 1e-6


def test_sparse_singular_value_envelope():
    # all singular values within [sigma * d/(16+d), sigma] for sigma = largest
    A = make_sparse_test(16, 64, 1e3, seed=12)
    s, cond = svd_dense(densify(A))
    d = A.stencil.d
    assert abs(cond - (16.0 + d) / d) / cond <= 1e-6
    assert s.min() >= s.max() * d / (16.0 + d) * (1.0 - 1e-9)


def test_make_sparse_test_validation():
    with pytest.raises(ConfigurationError):
        make_sparse_test(8, 20, 1e4, seed=0)  # n not a multiple of m
    with pytest.raises(ConfigurationError):
        make_sparse_test(8, 16, 0.5, seed=0)  # kappa <= 1
    with pytest.raises(ConfigurationError):
        make_sparse_test(5, 20, 1e4, seed=0)  # odd m: kappa would not be exact
    with pytest.raises(ConfigurationError):
        make_sparse_test(2, 8, 1e4, seed=0)


def test_dense_test_matches_sparse_plus_lowrank():
    A = make_dense_test(8, 32, 1e4, seed=13)
    expected = densify(A.base) + A.E @ A.F / np.sqrt(8 * 32)
    assert np.allclose(densify(A), expected, rtol=0, atol=1e-14)


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
        apply_gram(A, np.eye(2))
    assert A.counts() == (0, 1)


def test_densify_shape_and_cap():
    op = MatrixOperator(np.arange(8.0).reshape(2, 4))
    assert densify(op).shape == (2, 4)
    assert np.array_equal(densify(op), op.mat)
    # one column over the cap, refused before the snapshot is allocated
    with pytest.raises(SizeCapError):
        densify(LinearOperator(1000, 1001))


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


@pytest.mark.parametrize(
    "text, where",
    [
        ("2 4\n", "header"),
        ("2 3 -1\n", "header"),
        ("2 3 x\n", "header"),
        ("2 3 1\n1 1 abc\n", "entry 1 \\(line 2\\)"),
        ("2 3 2\n1 1 1.0\n1 99999999999999999999 1.0\n", "entry 2 \\(line 3\\)"),
        ("2 3 99999999999999999999\n1 1 1.0\n", "entry 2 \\(line 3\\)"),
    ],
    ids=["short", "negative-nnz", "non-integer", "non-numeric-entry", "index-overflow", "huge-nnz"],
)
def test_triplet_file_bad_header(tmp_path, text, where):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ConfigurationError, match=where):
        load_triplet_operator(path)
