"""Matrix-free operators and the synthetic test families.

An operator is any short, fat matrix we can only touch through products
with itself and its adjoint.  This walk-through builds the two synthetic
families, checks the adjoint identity, and shows the call counters that
every cost claim in this library leans on.
"""

import os
import tempfile

import numpy as np

from nullproj import densify, load_triplet_operator, make_dense_test, make_sparse_test, svd_dense

# ----------------------------------------------------------------------
# A sparse test operator: permuted circulant blocks with a known condition
# number.  kappa is exact by construction: the operator's diagonal shift
# A.d = 16/(kappa - 1) sets its circulant block's spectrum.
# ----------------------------------------------------------------------
m, n, kappa = 8, 48, 1e6
A = make_sparse_test(m, n, kappa, seed=0)
print(f"sparse operator: {A.shape[0]}x{A.shape[1]}, A.d = {A.d:.3e}")

sigma, cond = svd_dense(densify(A))
print(f"oracle condition number: {cond:.6e}  (requested {kappa:.0e})")

# ----------------------------------------------------------------------
# The adjoint identity <A x, y> = <x, A* y> is what makes everything else
# in this library legal.
# ----------------------------------------------------------------------
rng = np.random.default_rng(1)
x = rng.standard_normal(n)
y = rng.standard_normal(m)
lhs = np.dot(A.apply(x), y)
rhs = np.dot(x, A.apply_adjoint(y))
print(f"adjoint identity gap: {abs(lhs - rhs):.2e}")

# ----------------------------------------------------------------------
# Call counters: apply and apply_adjoint each count exactly once per call,
# and densify deliberately does not count (it is oracle machinery).
# ----------------------------------------------------------------------
print(f"counters after the demo so far: {A.counts()}")
densify(A)
print(f"counters after densify:         {A.counts()}  (unchanged)")

# ----------------------------------------------------------------------
# The dense family adds a scaled Gaussian rank-10 update.  It is dense as
# a matrix but still applies in O(n) work, and one apply counts as one.
# ----------------------------------------------------------------------
At = make_dense_test(m, n, kappa, seed=0)
At.apply(x)
print(f"dense operator counters after one apply: {At.counts()}")
gap = np.abs(densify(At) - (densify(At.base) + At.E @ At.F / np.sqrt(m * n))).max()
print(f"dense = sparse + E F / sqrt(mn), max entry gap: {gap:.2e}")

# ----------------------------------------------------------------------
# User matrices load from a triplet text file: a header `m n nnz`, then
# one `row col value` line per entry (1-indexed).
# ----------------------------------------------------------------------
with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as fh:
    fh.write("2 4 3\n1 1 1.0\n1 3 2.5\n2 2 -3.0\n")
    path = fh.name
user_op = load_triplet_operator(path)
os.remove(path)
print(f"\ntriplet file -> {user_op.shape[0]}x{user_op.shape[1]} operator:")
print(densify(user_op))
