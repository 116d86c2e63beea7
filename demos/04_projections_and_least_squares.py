"""Projecting vectors and solving the overdetermined least-squares problem.

Once the preconditioner exists, each projection costs one apply of A, one
of A*, and some m x m triangle work.  The classical normal-equations
route costs the same per vector but squares the condition number, and at
kappa = 1e8 the difference is not subtle.
"""

import numpy as np

from nullproj import (
    ClassicalProjector,
    UniformLaggedFibonacci,
    build_preconditioner,
    make_sparse_test,
    project,
    refine_lstsq,
    solve_lstsq,
)

m, n, kappa = 100, 3000, 1e8
A = make_sparse_test(m, n, kappa, seed=0)
pre = build_preconditioner(A, m + 4, UniformLaggedFibonacci(1))

rng = np.random.default_rng(2)
b = rng.standard_normal(n)
b /= np.linalg.norm(b)

# ----------------------------------------------------------------------
# One projection: row part + null part = b, and A annihilates the null part
# ----------------------------------------------------------------------
res = project(pre, A, b)
print(f"||row|| = {np.linalg.norm(res.row_projection):.6f}, ||null|| = {np.linalg.norm(res.null_projection):.6f}")
print(f"complementarity max gap: {np.abs(res.row_projection + res.null_projection - b).max():.2e}")
print(f"||A z|| / kappa for the null part: {np.linalg.norm(A.apply(res.null_projection)) / kappa:.2e}")

# ----------------------------------------------------------------------
# Idempotence: project the projection, compare.  The classical method
# goes through (A A*)^-1 and falls apart at this kappa.
# ----------------------------------------------------------------------
z = res.null_projection
z_again = project(pre, A, z).null_projection
print(f"randomized idempotence ||z - Pz|| / kappa: {np.linalg.norm(z - z_again) / kappa:.2e}")

classical = ClassicalProjector(A)
zc = classical.project(b).null_projection
zc_again = classical.project(zc).null_projection
print(f"classical  idempotence ||z - Pz|| / kappa: {np.linalg.norm(zc - zc_again) / kappa:.2e}")

# ----------------------------------------------------------------------
# The least-squares view: h minimizes ||A* h - b||, and iterative
# refinement polishes it for the cost of one more apply pair per pass
# ----------------------------------------------------------------------
h = solve_lstsq(pre, A, b)
resid = np.linalg.norm(A.apply(b - A.apply_adjoint(h)))
print(f"\nlstsq solution: ||h|| = {np.linalg.norm(h):.3e}, projected residual {resid:.3e}")
h2 = refine_lstsq(pre, A, b, h, iterations=1)
resid2 = np.linalg.norm(A.apply(b - A.apply_adjoint(h2)))
print(f"after one refinement pass:            projected residual {resid2:.3e}")
