"""Exception types shared across the library, the one check of the integers a caller passes,
the one check of the real numbers (kappa, the shift d, alpha, beta) a caller passes, the one
length check of a random stream's draw, the one refusal of complex and non-numeric data, and
the one finiteness test of an array."""

import numbers
import operator
import sys

import numpy as np


class NullProjError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(NullProjError):
    """A vector or matrix has the wrong shape for the requested operation."""


class ConfigurationError(NullProjError):
    """Invalid construction parameters: bad sizes, l out of range, a size, width, column length,
    count or index array not of Python or numpy integers (a float, a str), a seed not a
    nonnegative one, or kappa or the shift d not a finite real number above 1 or 0."""


class DomainError(NullProjError):
    """A value lies outside its domain: alpha, beta or `error_metrics`' kappa not a finite
    real number above 1, 0 and 0, another probability/bound formula's parameter, a vector to
    project that holds a NaN or infinite entry, an operator whose output does, or a matrix
    handed to the pivoted QR, the small inverse or the SVD oracle that does; or a complex,
    text or object vector handed to an operator or a projection, such an operator output, or
    such construction data of an operator, a preconditioner or a dense kernel."""


class SizeCapError(NullProjError):
    """A densification or dense-oracle request exceeds the entry cap `dense_core.ORACLE_CAP`."""


class SingularFactorError(NullProjError):
    """A triangular factor has a zero diagonal entry; the message names its index."""


class FactorizationError(NullProjError):
    """A dense factorization failed: the matrix is singular or, for Cholesky, not SPD."""


class RankDeficientSketchError(NullProjError):
    """The sketch S = A G came out rank deficient.

    Retriable: a fresh draw of G almost surely fixes it when A has full rank.
    """


def as_index(value, name, least=None):
    """`value` as a Python int; ConfigurationError naming it unless it is an integer >= least.

    A bool is refused, as `operator.index` refuses `np.True_` and
    `as_index_array` a bool array."""
    try:
        if isinstance(value, bool):  # operator.index would take True as 1
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ConfigurationError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        bound = "nonnegative" if least == 0 else f"at least {least}"
        raise ConfigurationError(f"{name} must be {bound}, got {value}")
    return value


def as_real_number(value, name, above, error):
    """`value` as a Python float; `error` naming it unless it is a finite real number > above.

    A bool, an array (0-d too), a str, None and a complex number are refused; the bounds are
    compared before `float()`, so NaN fails them and 10**400 raises no OverflowError."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and above < value <= sys.float_info.max):
        raise error(f"{name} must be a finite real number above {above}, got {value!r}")
    return float(value)


def checked_draw(values, k, stream):
    """`values`, which `stream.fill_column(k)` returned; DimensionError naming the stream unless
    they are `k` values in a 1-D array.  The test reads the shape, not the values."""
    if np.shape(values) != (k,):
        raise DimensionError(
            f"the stream {type(stream).__name__}.fill_column({k}) must return {k} "
            f"values in a 1-D array, got shape {np.shape(values)}"
        )
    return values


def as_index_array(values, name):
    """`values` as a new 1-D `intp` array; ConfigurationError naming it unless its dtype is
    an integer one or it is empty.  The entries are not range-checked.

    Always a copy, even of an `intp` array: an object that keeps an index
    array keeps this one, so a caller that edits its own array afterwards
    cannot change what was checked."""
    arr = np.asarray(values)
    if arr.ndim != 1 or (arr.dtype.kind not in "iu" and arr.size):
        raise ConfigurationError(f"{name} must be 1-D integers, got {arr.ndim}-D {arr.dtype}")
    return arr.astype(np.intp)


def inverse_permutation(perm, name):
    """(a new `intp` copy of `perm`, its argsort); ConfigurationError unless it permutes its range."""
    perm = as_index_array(perm, name)
    inv = np.argsort(perm)
    if not np.array_equal(perm[inv], np.arange(perm.size)):
        raise ConfigurationError(f"{name} must be a permutation of range({perm.size})")
    return perm, inv


def as_real(values, name):
    """`values` as a float array, not copied when it is one; DomainError naming it unless it
    holds bools, integers or floats: complex, text and object data (None too) are refused.

    Converting a complex array to float would drop its imaginary part with
    no more than a `ComplexWarning`, and a text one would be parsed as numbers,
    so both are refused before the conversion.  The test reads the dtype.
    """
    arr = np.asarray(values)
    if arr.dtype.kind not in "biuf":
        got = "a complex array" if arr.dtype.kind == "c" else f"an array of dtype {arr.dtype}"
        raise DomainError(f"{name} must be real, got {got}")
    # one asarray and a dtype test cost half of np.iscomplexobj and a second
    # asarray, and this runs on every apply and every solve
    return arr.astype(float, copy=False)


def all_finite(a):
    """True unless the float array `a` holds a NaN or infinite entry; allocates no mask.

    The smallest and the largest entry, taken over every axis, are finite
    exactly when every entry is: both reductions carry a NaN through, and an
    infinity is an extreme.  Unlike a sum, they cannot overflow on large
    finite entries.  An empty array passes without a reduction.  Callers
    pass what `as_real` returns, so complex data is refused there.
    """
    if not a.size:
        return True
    # the ufunc reductions called directly, over every axis (axis=None),
    # skip the Python-level wrapper of ndarray.min and ndarray.max
    return bool(-np.inf < np.minimum.reduce(a, None) and np.maximum.reduce(a, None) < np.inf)
