"""Probability bounds for the sketch conditioning, plus empirical error metrics.

The pi_* functions evaluate the tail-probability formulas for an m-by-l
Gaussian matrix: pi_plus bounds the largest singular value (<= sqrt(2l)*alpha),
pi_minus the smallest (>= 1/(sqrt(l)*beta)), and pi_zero both at once, so the
condition number stays below sqrt(2)*l*alpha*beta with probability pi_zero.
pi_zero_floor is the simplified lower bound that only depends on the gap l-m.
The subtracted terms are computed in log space; the power (l-m+1)^(l-m+1)
overflows long before the probabilities stop being interesting.

measured_condition and error_metrics are the empirical side: the former
checks the actual conditioning of the preconditioned operator on a
densifiable instance, the latter computes the delta (annihilation) and
epsilon (idempotence) error numbers that the benchmark tables report,
both divided by the constructed condition number.

Each domain check is written `not x > bound`, so a NaN argument fails it
and raises DomainError instead of returning NaN.
"""

from dataclasses import dataclass

import numpy as np

from .dense_core import solve_upper_permuted_adjoint, svd_dense
from .errors import DomainError
from .linop import densify
from .projector import _check_pair


def _check_dims(l, m):
    if not 1 <= m <= l:
        raise DomainError(f"need l >= m >= 1, got l={l}, m={m}")


def _term_plus(l, alpha):
    # (1 / (4 (a^2-1) sqrt(pi l a^2))) * (2 a^2 / e^(a^2-1))^l
    a2 = alpha * alpha
    log_term = (
        l * (np.log(2.0 * a2) - (a2 - 1.0))
        - np.log(4.0 * (a2 - 1.0))
        - 0.5 * np.log(np.pi * l * a2)
    )
    return np.exp(log_term)


def _term_minus(l, m, beta):
    # (1 / sqrt(2 pi (l-m+1))) * (e / ((l-m+1) beta))^(l-m+1)
    k = l - m + 1
    log_term = k * (1.0 - np.log(k * beta)) - 0.5 * np.log(2.0 * np.pi * k)
    return np.exp(log_term)


def pi_plus(l, alpha):
    """Probability floor for the top singular value bound sqrt(2l)*alpha."""
    if not alpha > 1.0:
        raise DomainError(f"alpha must exceed 1, got {alpha}")
    if not l >= 1:
        raise DomainError(f"l must be positive, got {l}")
    return 1.0 - _term_plus(l, alpha)


def pi_minus(l, m, beta):
    """Probability floor for the bottom singular value bound 1/(sqrt(l)*beta)."""
    _check_dims(l, m)
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    return 1.0 - _term_minus(l, m, beta)


def pi_zero(l, m, alpha, beta):
    """Probability floor for the condition bound; equals pi_plus + pi_minus - 1."""
    if not alpha > 1.0:
        raise DomainError(f"alpha must exceed 1, got {alpha}")
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    _check_dims(l, m)
    return 1.0 - (_term_plus(l, alpha) + _term_minus(l, m, beta))


def pi_zero_floor(l, m, alpha, beta):
    """Simplified lower bound on pi_zero: the first term's l becomes l-m+2.

    Valid for m >= 2 and alpha >= 2; depends on l only through the gap
    l-m, which is what makes the fixed-gap parameter triples work for
    every m.
    """
    if m < 2:
        raise DomainError(f"the simplified bound needs m >= 2, got m={m}")
    if not alpha >= 2.0:
        raise DomainError(f"the simplified bound needs alpha >= 2, got {alpha}")
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    _check_dims(l, m)
    return 1.0 - (_term_plus(l - m + 2, alpha) + _term_minus(l, m, beta))


def cond_bound(l, alpha, beta):
    """The condition-number bound sqrt(2) * l * alpha * beta."""
    if not alpha > 1.0:
        raise DomainError(f"alpha must exceed 1, got {alpha}")
    if not beta > 0.0:
        raise DomainError(f"beta must be positive, got {beta}")
    return np.sqrt(2.0) * l * alpha * beta


def measured_condition(pre, A):
    """Actual condition number of the preconditioned operator, via the SVD oracle.

    Densifies A (at most `dense_core.ORACLE_CAP` entries), forms P^-1 A with
    the adjoint permuted solve, and returns sigma_max / sigma_min.
    """
    _check_pair(pre, A)
    preconditioned = solve_upper_permuted_adjoint(pre.R, pre.perm, densify(A))
    return svd_dense(preconditioned)[1]


@dataclass
class ErrorMetrics:
    """delta = ||A z|| / kappa and epsilon = ||z - z'|| / kappa for one vector.

    z is the computed null projection of b and z' the projection of z;
    kappa normalization follows the benchmark convention of reporting
    errors divided by the condition number.
    """

    delta_over_kappa: float
    epsilon_over_kappa: float
    method_tag: str


def error_metrics(A, project_fn, b, kappa, method_tag):
    """Annihilation and idempotence errors of one projection method on one b.

    `project_fn` maps a vector to its computed null-space projection and
    is applied to b and then to that projection.  Callers aggregating
    over many b take the max of each field.
    """
    if not kappa > 0.0:
        raise DomainError(f"kappa must be positive, got {kappa}")
    z = project_fn(b)
    z2 = project_fn(z)
    delta = float(np.linalg.norm(A.apply(z))) / kappa
    epsilon = float(np.linalg.norm(z - z2)) / kappa
    return ErrorMetrics(delta_over_kappa=delta, epsilon_over_kappa=epsilon, method_tag=method_tag)
