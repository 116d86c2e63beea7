import math

import numpy as np
import pytest

from nullproj import GaussianStream, UniformLaggedFibonacci

N_BIG = 100_000


class ScalarPolarReference:
    """The one-pair-at-a-time polar method the vectorised stream must match bitwise."""

    def __init__(self, seed):
        self._base = UniformLaggedFibonacci(seed)
        self._spare = None

    def next_gaussian(self):
        if self._spare is not None:
            v = self._spare
            self._spare = None
            return v
        base = self._base
        while True:
            u = base.next_uniform()
            v = base.next_uniform()
            s = u * u + v * v
            if 0.0 < s < 1.0:
                break
        factor = np.sqrt(-2.0 * np.log(s) / s)
        self._spare = v * factor
        return u * factor


def ks_statistic(samples, cdf):
    """Kolmogorov-Smirnov distance between the empirical and target CDF."""
    x = np.sort(samples)
    n = x.size
    f = cdf(x)
    grid = np.arange(1, n + 1) / n
    return max(np.max(grid - f), np.max(f - (grid - 1.0 / n)))


def test_uniform_stays_in_range():
    g = UniformLaggedFibonacci(1)
    xs = g.fill_column(N_BIG)
    assert xs.min() >= -1.0
    assert xs.max() <= 1.0


def test_uniform_moments():
    xs = UniformLaggedFibonacci(2).fill_column(N_BIG)
    assert abs(xs.mean()) <= 0.02
    assert abs(xs.var() - 1.0 / 3.0) <= 0.02


def test_uniform_determinism_bitwise():
    a = UniformLaggedFibonacci(12345)
    b = UniformLaggedFibonacci(12345)
    va = [a.next_uniform() for _ in range(1000)]
    vb = [b.next_uniform() for _ in range(1000)]
    assert va == vb


def test_distinct_seeds_differ():
    a = UniformLaggedFibonacci(1).fill_column(100)
    b = UniformLaggedFibonacci(2).fill_column(100)
    assert not np.array_equal(a, b)


def test_fill_column_matches_flat_stream():
    flat = UniformLaggedFibonacci(7).fill_column(2 * 321)
    g = UniformLaggedFibonacci(7)
    first = g.fill_column(321)
    second = g.fill_column(321)
    assert np.array_equal(np.concatenate([first, second]), flat)


def test_fill_column_zero_returns_empty():
    g = UniformLaggedFibonacci(7)
    out = g.fill_column(0)
    assert out.shape == (0,)
    # state untouched: next draw equals a fresh generator's first draw
    assert g.next_uniform() == UniformLaggedFibonacci(7).next_uniform()


def test_fill_column_55_equals_singles():
    col = UniformLaggedFibonacci(99).fill_column(55)
    g = UniformLaggedFibonacci(99)
    singles = np.array([g.next_uniform() for _ in range(55)])
    assert np.array_equal(col, singles)


def test_uniform_ks():
    xs = UniformLaggedFibonacci(3).fill_column(N_BIG)
    assert ks_statistic(xs, lambda x: (x + 1.0) / 2.0) <= 0.01


def test_gaussian_moments():
    xs = GaussianStream(4).fill_column(N_BIG)
    assert abs(xs.mean()) <= 0.02
    assert abs(xs.var() - 1.0) <= 0.05


def test_gaussian_central_mass():
    xs = GaussianStream(5).fill_column(N_BIG)
    frac = np.mean(np.abs(xs) <= 1.0)
    assert abs(frac - 0.683) <= 0.01


def test_gaussian_determinism_bitwise():
    a = GaussianStream(777)
    b = GaussianStream(777)
    assert [a.next_gaussian() for _ in range(1000)] == [b.next_gaussian() for _ in range(1000)]


@pytest.mark.parametrize("seed", [0, 777, 2**63 - 1])
def test_gaussian_matches_scalar_polar_reference_bitwise(seed):
    # sizes cross the spare (odd counts) and the 4096-uniform chunk boundary
    ref = ScalarPolarReference(seed)
    base = UniformLaggedFibonacci(seed)
    g = GaussianStream(seed, base=base)
    for n in (1, 2, 3, 4095, 4096, 4097, 8193, 20001):
        expected = np.array([ref.next_gaussian() for _ in range(n)])
        assert np.array_equal(g.fill_column(n).view(np.int64), expected.view(np.int64))
        # the base stream is never drawn ahead of the reference's
        assert base.next_uniform() == ref._base.next_uniform()


def test_gaussian_fill_column_matches_flat_stream():
    # the single draws land once on a held spare and once on a fresh pair
    flat = GaussianStream(7).fill_column(321 + 1 + 320 + 1 + 321)
    g = GaussianStream(7)
    parts = [g.fill_column(321), [g.next_gaussian()], g.fill_column(320), [g.next_gaussian()]]
    parts.append(g.fill_column(321))
    assert np.array_equal(np.concatenate(parts), flat)


def test_gaussian_ks():
    xs = GaussianStream(6).fill_column(N_BIG)

    def normal_cdf(x):
        return np.array([0.5 * (1.0 + math.erf(t / math.sqrt(2.0))) for t in x])

    assert ks_statistic(xs, normal_cdf) <= 0.01


@pytest.mark.parametrize("seed", [0, 1, 2**63 - 1])
def test_long_stream_stays_in_range(seed):
    xs = UniformLaggedFibonacci(seed).fill_column(10_000)
    assert np.all(np.abs(xs) <= 1.0)
