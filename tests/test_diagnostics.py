import math

import numpy as np
import pytest

from nullproj import (
    ClassicalProjector,
    DomainError,
    MatrixOperator,
    UniformLaggedFibonacci,
    build_preconditioner,
    cond_bound,
    densify,
    error_metrics,
    make_sparse_test,
    measured_condition,
    pi_minus,
    pi_plus,
    pi_zero,
    pi_zero_floor,
    project,
    qr_pivoted,
    svd_dense,
)

from helpers import oracle_null_projection, svd_parts, unit_vectors

OBSERVATION_TRIPLES = [
    # (alpha^2, beta, bound multiple of l, failure probability)
    (4.0, 3.0, 10.0, 1e-4),
    (7.0, 26.0, 100.0, 1e-9),
    (9.0, 250.0, 1100.0, 1e-14),
]


def direct_pi_plus(l, alpha):
    """Straight float evaluation, no logs; independent of the library's path."""
    a2 = alpha * alpha
    return 1.0 - (2.0 * a2 / math.exp(a2 - 1.0)) ** l / (
        4.0 * (a2 - 1.0) * math.sqrt(math.pi * l * a2)
    )


def direct_pi_minus(l, m, beta):
    k = l - m + 1
    return 1.0 - (math.e / (k * beta)) ** k / math.sqrt(2.0 * math.pi * k)


@pytest.mark.parametrize("l", [4, 8, 20, 54])
@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
def test_pi_plus_matches_direct_evaluation(l, alpha):
    # pi values can be hugely negative once the tail term passes 1 (the bound
    # is only meaningful when nonnegative), so allow a relative comparison too
    assert pi_plus(l, alpha) == pytest.approx(direct_pi_plus(l, alpha), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("l,m", [(8, 4), (54, 50), (30, 10)])
@pytest.mark.parametrize("beta", [3.0, 26.0, 250.0])
def test_pi_minus_matches_direct_evaluation(l, m, beta):
    assert pi_minus(l, m, beta) == pytest.approx(direct_pi_minus(l, m, beta), abs=1e-12)


def test_pi_plus_example_l8_alpha2():
    value = pi_plus(8, 2.0)
    assert 0.0 < value < 1.0
    assert value >= 1.0 - 1e-2


def test_pi_plus_monotone_in_l_at_alpha2():
    # 2 alpha^2 / e^(alpha^2 - 1) = 8/e^3 < 1, so the tail term shrinks with l
    values = [pi_plus(l, 2.0) for l in range(4, 41)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_pi_minus_example_and_limit():
    assert pi_minus(8, 4, 3.0) >= 1.0 - 1e-4  # l - m + 1 = 5
    assert pi_minus(8, 4, 1e300) == 1.0


def test_pi_identity():
    for l, m in [(8, 4), (54, 50), (100, 40)]:
        for alpha in (1.5, 2.0, 3.0):
            for beta in (3.0, 26.0, 250.0):
                lhs = pi_zero(l, m, alpha, beta)
                rhs = pi_plus(l, alpha) + pi_minus(l, m, beta) - 1.0
                assert abs(lhs - rhs) <= 1e-15


def test_pi_zero_floor_is_a_floor():
    for gap in range(4, 21):
        for m in (2, 10, 50):
            l = m + gap
            for alpha in (2.0, 3.0):
                for beta in (3.0, 26.0, 250.0):
                    assert pi_zero_floor(l, m, alpha, beta) <= pi_zero(l, m, alpha, beta)


@pytest.mark.parametrize("a2,beta,mult,prob", OBSERVATION_TRIPLES)
def test_observation_triples(a2, beta, mult, prob):
    alpha = math.sqrt(a2)
    for m in (2, 50, 400):
        l = m + 4
        assert cond_bound(l, alpha, beta) <= mult * l
        assert pi_zero_floor(l, m, alpha, beta) >= 1.0 - prob


def test_cond_bound_value_and_linearity():
    assert cond_bound(10, 2.0, 3.0) == pytest.approx(math.sqrt(2) * 10 * 6, rel=1e-15)
    for l in (5, 54, 400):
        assert cond_bound(2 * l, 2.0, 3.0) == 2.0 * cond_bound(l, 2.0, 3.0)


def test_domain_errors():
    with pytest.raises(DomainError):
        pi_plus(8, 1.0)
    with pytest.raises(DomainError):
        pi_plus(0, 2.0)
    with pytest.raises(DomainError):
        pi_minus(4, 8, 3.0)  # l < m
    with pytest.raises(DomainError):
        pi_minus(8, 4, 0.0)
    with pytest.raises(DomainError):
        pi_zero_floor(8, 1, 2.0, 3.0)  # m < 2
    with pytest.raises(DomainError):
        pi_zero_floor(8, 4, 1.5, 3.0)  # alpha < 2
    with pytest.raises(DomainError):
        cond_bound(8, 0.5, 3.0)
    nan = float("nan")
    for call in (
        lambda: pi_plus(8, nan),
        lambda: pi_minus(8, 4, nan),
        lambda: pi_zero(8, 4, nan, 3.0),
        lambda: pi_zero(8, 4, 2.0, nan),
        lambda: pi_zero_floor(8, 4, nan, 3.0),
        lambda: pi_zero_floor(8, 4, 2.0, nan),
        lambda: cond_bound(8, nan, 3.0),
        lambda: cond_bound(8, 2.0, nan),
    ):
        with pytest.raises(DomainError):
            call()


def test_measured_condition_orthonormal_rows_equals_cond_vstar_g():
    # for an operator with orthonormal rows, V* is the operator itself, so
    # cond(P^-1 A) must equal cond(V* G) computed from a replay of the stream
    rng = np.random.default_rng(0)
    Q = qr_pivoted(rng.standard_normal((30, 6))).Q  # 30x6 orthonormal columns
    A = MatrixOperator(Q.T)
    seed = 1
    pre = build_preconditioner(A, 10, UniformLaggedFibonacci(seed))
    lhs = measured_condition(pre, A)
    g = UniformLaggedFibonacci(seed)
    G = np.column_stack([g.fill_column(30) for _ in range(10)])
    _, _, _, Vh = svd_parts(A)
    rhs = svd_dense(Vh @ G)[1]
    assert abs(lhs - rhs) / rhs <= 1e-6


def test_measured_condition_l_three_m_is_small():
    for seed in range(3):
        A = make_sparse_test(50, 1000, 1e8, seed=seed)
        pre = build_preconditioner(A, 150, UniformLaggedFibonacci(100 + seed))
        assert measured_condition(pre, A) <= 30.0


def test_error_metrics_oracle_null_vector():
    A = make_sparse_test(8, 32, 100.0, seed=2)
    _, _, _, Vh = svd_parts(A)
    rng = np.random.default_rng(3)
    z = oracle_null_projection(Vh, rng.standard_normal(32))
    metrics = error_metrics(A, lambda v: oracle_null_projection(Vh, v), z, 100.0, "oracle")
    assert metrics.delta_over_kappa <= 1e-15
    assert metrics.epsilon_over_kappa <= 1e-15
    assert metrics.method_tag == "oracle"


def test_error_metrics_epsilon_is_idempotence_defect():
    A = make_sparse_test(8, 32, 100.0, seed=4)
    pre = build_preconditioner(A, 12, UniformLaggedFibonacci(5))

    def null_fn(v):
        return project(pre, A, v).null_projection

    _, _, _, Vh = svd_parts(A)
    rng = np.random.default_rng(6)
    b = oracle_null_projection(Vh, rng.standard_normal(32))  # already in the null space
    metrics = error_metrics(A, null_fn, b, 100.0, "randomized")
    z = null_fn(b)
    z2 = null_fn(z)
    assert metrics.epsilon_over_kappa == pytest.approx(np.linalg.norm(z - z2) / 100.0, rel=1e-12)


def test_randomized_beats_classical_at_kappa_1e8():
    kappa = 1e8
    A = make_sparse_test(100, 2000, kappa, seed=7)
    pre = build_preconditioner(A, 104, UniformLaggedFibonacci(8))
    cl = ClassicalProjector(A)
    worst_rand = worst_norm = 0.0
    for b in unit_vectors(2000, 10, seed=9):
        mr = error_metrics(A, lambda v: project(pre, A, v).null_projection, b, kappa, "rand")
        mc = error_metrics(A, lambda v: cl.project(v).null_projection, b, kappa, "norm")
        worst_rand = max(worst_rand, mr.epsilon_over_kappa)
        worst_norm = max(worst_norm, mc.epsilon_over_kappa)
    assert worst_rand < worst_norm


def test_measured_condition_rejects_mismatched_operator():
    from nullproj import DimensionError

    A = make_sparse_test(8, 32, 100.0, seed=50)
    pre = build_preconditioner(A, 12, UniformLaggedFibonacci(51))
    other = make_sparse_test(8, 40, 100.0, seed=52)
    with pytest.raises(DimensionError):
        measured_condition(pre, other)


def test_error_metrics_rejects_bad_kappa():
    A = make_sparse_test(8, 32, 100.0, seed=53)
    for kappa in (0.0, float("nan"), float("inf")):
        with pytest.raises(DomainError):
            error_metrics(A, lambda v: v, np.ones(32), kappa, "x")
