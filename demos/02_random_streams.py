"""The two sketch-entry streams: lagged Fibonacci and Gaussian.

The uniform stream, on [-1, 1), is defined by a floating-point
subtraction and a fold per value, but every step is exact, so it is a
linear recurrence mod 2^53 on the integers 2^52 x.  A column is
therefore computed in lanes: jump matrices give each lane its starting
window, and integer array subtractions advance all lanes 24 values at a
time, bitwise equal to the value-at-a-time loop.  The Gaussian stream
is numpy's ziggurat method on one PCG64 generator, one C call per
column.  Both are exact functions of their seed, however a stream is
split into columns, which is what lets tests replay the full random
matrix G column by column without ever storing it, and lets a sketch
draw G in blocks of several columns per request: each lagged Fibonacci
request pays a fixed cost for its lanes' starting windows, so a few
large requests cost less per value than many small ones.
"""

import time

import numpy as np

from nullproj import GaussianStream, UniformLaggedFibonacci

# ----------------------------------------------------------------------
# Uniform on [-1, 1): range, moments, determinism
# ----------------------------------------------------------------------
g = UniformLaggedFibonacci(2024)
xs = g.fill_column(100_000)
print(f"uniform range: [{xs.min():+.6f}, {xs.max():+.6f}]")
print(f"uniform mean {xs.mean():+.5f} (target 0), variance {xs.var():.5f} (target {1 / 3:.5f})")

again = UniformLaggedFibonacci(2024).fill_column(5)
print(f"replayed first five: {again}")
print(f"bitwise equal to the original run: {np.array_equal(again, UniformLaggedFibonacci(2024).fill_column(5))}")

# ----------------------------------------------------------------------
# Gaussian stream (ziggurat on PCG64): standard-normal moments and the
# 68% central mass
# ----------------------------------------------------------------------
zs = GaussianStream(2024).fill_column(100_000)
print(f"gaussian mean {zs.mean():+.5f}, variance {zs.var():.5f}")
print(f"fraction with |z| <= 1: {np.mean(np.abs(zs) <= 1.0):.4f} (normal: 0.6827)")

# ----------------------------------------------------------------------
# Throughput: the uniform stream is what keeps sketch construction cheap
# ----------------------------------------------------------------------
t0 = time.perf_counter()
g.fill_column(1_000_000)
dt = time.perf_counter() - t0
print(f"uniform throughput: {1.0 / dt:.1f}M values/s")
t0 = time.perf_counter()
GaussianStream(7).fill_column(200_000)
dt = time.perf_counter() - t0
print(f"gaussian throughput: {0.2 / dt:.1f}M values/s")

# ----------------------------------------------------------------------
# Request size: a sketch draws G in blocks of whole columns, one request
# per block; the values do not depend on how the requests are split
# ----------------------------------------------------------------------
n, cols = 4000, 40
by_column, by_block = UniformLaggedFibonacci(11), UniformLaggedFibonacci(11)
columns = np.concatenate([by_column.fill_column(n) for _ in range(cols)])
block = by_block.fill_column(cols * n)
print(f"one {cols}-column request bitwise equal to {cols} columns: {np.array_equal(block, columns)}")


def ns_per_value(draw):
    """Fastest of five calls of `draw`, which draws `cols` columns, in ns per value."""
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        draw()
        best = min(best, time.perf_counter() - t0)
    return best / (cols * n) * 1e9


small = ns_per_value(lambda: [by_column.fill_column(n) for _ in range(cols)])
large = ns_per_value(lambda: by_block.fill_column(cols * n))
print(f"cost per value: {small:.1f} ns in {n}-value requests, {large:.1f} ns in {cols}-column requests")
