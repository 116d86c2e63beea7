"""Fast orthogonal projection onto the null space / row space of a short,
fat matrix, via a randomized preconditioner.

The operator only has to support matrix-vector products with itself and
its adjoint.  A cheap random sketch yields a triangular preconditioner
that makes the projection numerically stable even when the normal
equations would square an already huge condition number; setup costs
l+m applies of the operator and m of its adjoint, and every projection
afterwards costs one of each.
"""

from .errors import (
    ConfigurationError,
    DimensionError,
    DomainError,
    FactorizationError,
    NullProjError,
    RankDeficientSketchError,
    SingularFactorError,
    SizeCapError,
)
from .linop import (
    DenseTestMatrix,
    LinearOperator,
    MatrixOperator,
    SparseTestMatrix,
    TripletMatrix,
    densify,
    load_triplet_operator,
    make_dense_test,
    make_sparse_test,
)
from .rng import GaussianStream, UniformLaggedFibonacci
from .dense_core import (
    invert_small,
    qr_pivoted,
    solve_upper,
    solve_upper_adjoint,
    svd_dense,
)
from .precond import (
    Preconditioner,
    build_gram,
    build_preconditioner,
    build_sketch,
    default_sketch_width,
)
from .projector import (
    ClassicalProjector,
    ProjectionResult,
    project,
    refine_lstsq,
    solve_lstsq,
)
from .diagnostics import (
    ErrorMetrics,
    cond_bound,
    error_metrics,
    measured_condition,
    pi_minus,
    pi_plus,
    pi_zero,
    pi_zero_floor,
)
from .bench import TrialConfig, TrialRow, run_trial

__version__ = "0.1.0"

__all__ = [
    "ClassicalProjector",
    "ConfigurationError",
    "DenseTestMatrix",
    "DimensionError",
    "DomainError",
    "ErrorMetrics",
    "FactorizationError",
    "GaussianStream",
    "LinearOperator",
    "MatrixOperator",
    "NullProjError",
    "Preconditioner",
    "ProjectionResult",
    "RankDeficientSketchError",
    "SingularFactorError",
    "SizeCapError",
    "SparseTestMatrix",
    "TrialConfig",
    "TrialRow",
    "TripletMatrix",
    "UniformLaggedFibonacci",
    "build_gram",
    "build_preconditioner",
    "build_sketch",
    "cond_bound",
    "default_sketch_width",
    "densify",
    "error_metrics",
    "invert_small",
    "load_triplet_operator",
    "make_dense_test",
    "make_sparse_test",
    "measured_condition",
    "pi_minus",
    "pi_plus",
    "pi_zero",
    "pi_zero_floor",
    "project",
    "qr_pivoted",
    "refine_lstsq",
    "run_trial",
    "solve_lstsq",
    "solve_upper",
    "solve_upper_adjoint",
    "svd_dense",
]
