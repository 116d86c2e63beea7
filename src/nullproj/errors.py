"""Exception types shared across the library."""


class NullProjError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(NullProjError):
    """A vector or matrix has the wrong shape for the requested operation."""


class ConfigurationError(NullProjError):
    """Invalid construction parameters (bad sizes, kappa <= 1, l out of range...)."""


class DomainError(NullProjError):
    """A value lies outside its domain: a probability/bound formula's
    parameters, a vector to project that holds a NaN or infinite entry, an
    operator whose output does, or a matrix handed to the pivoted QR, the
    small inverse or the SVD oracle that does."""


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
