import math

import numpy as np
import pytest

from nullproj import ConfigurationError, DimensionError, GaussianStream, UniformLaggedFibonacci
from nullproj import rng
from nullproj.rng import _JUMPS, _LANES, _MAX_ROUNDS_LOG2, _ROWS

from helpers import traced_peak

N_BIG = 100_000
# values one round of all lanes produces
CHUNK = _LANES * _ROWS
# longest lane and largest group of one fill_column call
LANE_MAX = _ROWS << _MAX_ROUNDS_LOG2
GROUP = _LANES * LANE_MAX


class ScalarLaggedFibonacciReference:
    """The ring-buffer loop, one value per call, the windowed stream must match bitwise."""

    def __init__(self, seed):
        mask = (1 << 64) - 1
        state = int(seed) & mask
        buf = []
        for _ in range(55):
            # splitmix64, top 53 bits -> [0, 1) -> [-1, 1)
            state = (state + 0x9E3779B97F4A7C15) & mask
            z = state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
            z = z ^ (z >> 31)
            buf.append(2.0 * ((z >> 11) / 9007199254740992.0) - 1.0)
        self._buf = buf
        self._i = 0
        self._j = 55 - 24  # slot written 24 steps before slot _i
        for _ in range(550):
            self.next_uniform()

    def next_uniform(self):
        buf = self._buf
        i = self._i
        v = buf[i] - buf[self._j]
        if v < -1.0:
            v += 2.0
        elif v >= 1.0:
            v -= 2.0
        buf[i] = v
        self._i = i + 1 if i + 1 < 55 else 0
        j = self._j + 1
        self._j = j if j < 55 else 0
        return v


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
    assert xs.max() < 1.0


def test_uniform_moments():
    xs = UniformLaggedFibonacci(2).fill_column(N_BIG)
    assert abs(xs.mean()) <= 0.02
    assert abs(xs.var() - 1.0 / 3.0) <= 0.02


def test_uniform_determinism_bitwise():
    a = UniformLaggedFibonacci(12345)
    b = UniformLaggedFibonacci(12345)
    va = [a.fill_column(1)[0] for _ in range(1000)]
    vb = [b.fill_column(1)[0] for _ in range(1000)]
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
    assert g.fill_column(1)[0] == UniformLaggedFibonacci(7).fill_column(1)[0]


def test_fill_column_55_equals_singles():
    col = UniformLaggedFibonacci(99).fill_column(55)
    g = UniformLaggedFibonacci(99)
    singles = np.array([g.fill_column(1)[0] for _ in range(55)])
    assert np.array_equal(col, singles)


@pytest.mark.parametrize("seed", [0, 777, 2**63 - 1])
def test_uniform_matches_scalar_reference_bitwise(seed):
    # sizes cross the 55-value window and the chunk boundary
    ref = ScalarLaggedFibonacciReference(seed)
    g = UniformLaggedFibonacci(seed)
    for n in (1, 2, 54, 55, 56, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7, 100_000):
        expected = np.array([ref.next_uniform() for _ in range(n)])
        assert np.array_equal(g.fill_column(n).view(np.int64), expected.view(np.int64))
        assert g.fill_column(1)[0] == ref.next_uniform()


@pytest.mark.parametrize("seed", [3, 2**62 + 5])
def test_uniform_matches_reference_at_round_lane_and_group_boundaries(seed):
    ref = ScalarLaggedFibonacciReference(seed)
    g = UniformLaggedFibonacci(seed)
    sizes = [b + d for b in (_ROWS, CHUNK, LANE_MAX, GROUP) for d in (-1, 0, 1)]
    for n in sizes + [1, 54, 55, 56, 4000, 4096, 20001, N_BIG]:
        expected = np.array([ref.next_uniform() for _ in range(n)])
        assert np.array_equal(g.fill_column(n).view(np.int64), expected.view(np.int64)), n
        assert g.fill_column(1)[0] == ref.next_uniform()


def test_uniform_matches_reference_at_two_round_steps_and_one_round_lanes(monkeypatch):
    # lanes advance two rounds (2 _ROWS values) between slides; a request of
    # at most 3 _ROWS values runs one-round lanes (t = 0), 13 _ROWS ends one
    # round into the last of seven two-round lanes (t = 1), and the longer
    # sizes run lanes of 2^t rounds for t = 2 to 6
    groups = []

    def recording_group(start, region, t, lanes):
        groups.append((region.size, t, lanes))
        run_group(start, region, t, lanes)

    run_group = rng._run_group
    monkeypatch.setattr(rng, "_run_group", recording_group)
    ref = ScalarLaggedFibonacciReference(12)
    g = UniformLaggedFibonacci(12)
    two_rounds = [2 * _ROWS + d for d in (-1, 0, 1)]
    one_round = [1, _ROWS - 1, _ROWS, 2 * _ROWS + 5, 3 * _ROWS]
    mid_step = [13 * _ROWS + d for d in (-1, 0, 1)]
    longer = [1696, 4096, 20_000, 40_000, GROUP]
    for n in two_rounds + one_round + mid_step + longer:
        expected = np.array([ref.next_uniform() for _ in range(n)])
        assert np.array_equal(g.fill_column(n).view(np.int64), expected.view(np.int64)), n
        assert g.fill_column(1)[0] == ref.next_uniform()
    assert (3 * _ROWS, 0, 3) in groups
    assert (13 * _ROWS, 1, 7) in groups
    assert {t for _, t, _ in groups} == set(range(_MAX_ROUNDS_LOG2 + 1))


def window_of(ref):
    """The reference's last 55 values, oldest first."""
    return ref._buf[ref._i :] + ref._buf[: ref._i]


def classes(values):
    """Residues 2^52 x mod 2^53 of stream values x."""
    return (np.array(values) * 2.0**52).astype(np.int64).view(np.uint64) & np.uint64(2**53 - 1)


def test_jump_matrices_advance_the_window_exactly():
    ref = ScalarLaggedFibonacciReference(31)
    for t, jump in enumerate(_JUMPS):
        jumped = (jump @ classes(window_of(ref))) & np.uint64(2**53 - 1)
        for _ in range(_ROWS << t):
            ref.next_uniform()
        assert np.array_equal(jumped, classes(window_of(ref))), t


def load_window(window):
    """A stream and a reference that both continue from `window` (oldest first)."""
    g = UniformLaggedFibonacci(0)
    g._window = np.array(window)
    ref = ScalarLaggedFibonacciReference(0)
    ref._buf, ref._i, ref._j = list(window), 0, 55 - 24
    return g, ref


def test_forced_plus_minus_one_values_match_reference_bitwise():
    # +1 and -1 share a residue mod 2^53, which the stream always reads as -1
    w = list(UniformLaggedFibonacci(5).fill_column(55))
    w[0], w[31] = 0.5, -0.5  # a - b = +1 for x[0]
    w[1], w[32] = -0.25, 0.75  # a - b = -1 for x[1]
    w[2], w[3], w[40], w[41] = 1.0, -1.0, 1.0, -1.0  # exact +-1 read as a and as b
    w[24] = w[25] = 0.0  # a - b = 0 - x[0] = +1 for x[24], 0 - x[1] = +1 for x[25]
    g, ref = load_window(w)
    for n in (30, 1, 5000):
        expected = np.array([ref.next_uniform() for _ in range(n)])
        got = g.fill_column(n)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64)), n
        if n == 30:
            assert got[[0, 1, 24, 25]].tolist() == [-1.0, -1.0, -1.0, -1.0]


def test_residue_two_to_the_52_is_minus_one_whatever_its_operands_signs():
    # the stream is a function of residues mod 2^53: a window entry of +1 or
    # -1 (one residue) gives the same column, and x[2] = w[2] - w[33] = +-1
    # lands on the residue that reads as -1
    w = list(UniformLaggedFibonacci(7).fill_column(55))
    w[33] = 0.0
    columns = []
    for sign in (1.0, -1.0):
        w[2] = sign
        g, _ = load_window(w)
        columns.append(g.fill_column(5000))
    assert np.array_equal(columns[0].view(np.int64), columns[1].view(np.int64))
    assert columns[0][2] == -1.0


@pytest.mark.parametrize("k", [_ROWS, CHUNK - 1, CHUNK, LANE_MAX, GROUP])
def test_forced_plus_minus_one_at_a_boundary_matches_reference_bitwise(k):
    # x[k] is linear mod 2^53 in the window's integers 2^52 w: solve for one
    # window entry (with an odd, so invertible, coefficient) to put x[k] on
    # residue 2^52, that is on -1
    step = np.eye(55, k=1, dtype=np.uint64)
    step[-1, 0] = 1
    step[-1, 55 - 24] = np.uint64(2**64 - 1)
    coef = [int(c) % 2**53 for c in np.linalg.matrix_power(step, k + 1)[-1]]
    w = list(UniformLaggedFibonacci(6).fill_column(55))
    X = [round(x * 2**52) for x in w]
    i = next(j for j, c in enumerate(coef) if c % 2)
    rest = sum(c * x for j, (c, x) in enumerate(zip(coef, X)) if j != i)
    Xi = (2**52 - rest) * pow(coef[i], -1, 2**53) % 2**53
    w[i] = (Xi if Xi <= 2**52 else Xi - 2**53) / 2**52
    g, ref = load_window(w)
    expected = np.array([ref.next_uniform() for _ in range(k + 100)])
    got = g.fill_column(k + 100)
    assert abs(got[k]) == 1.0
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def test_uniform_golden_values():
    # recorded from the ring-buffer implementation; guards against a rewrite
    # of both the stream and its test reference drifting together
    xs = UniformLaggedFibonacci(2024).fill_column(100_001)
    expected = ["0x1.4433cdf1f530cp-1", "0x1.b640733bbeeb8p-1", "-0x1.e82e489efac88p-1"]
    assert xs[:3].tolist() == [float.fromhex(h) for h in expected]
    assert xs[100_000] == float.fromhex("-0x1.e7c202cc0cc18p-2")


def test_uniform_fill_column_memory_is_bounded():
    # the window is trimmed every chunk; a list of the whole column would
    # hold about 32 bytes per value on top of the output array
    n = 100_000
    g = UniformLaggedFibonacci(8)
    peak = traced_peak(g.fill_column, n)
    assert peak < n * 8 + 64 * 1024


def test_gaussian_fill_column_temporaries_are_bounded():
    # one standard_normal call writes the column and allocates nothing else:
    # 240 bytes over n values were measured, so any length-n temporary fails
    n = 100_000
    g = GaussianStream(8)
    g.fill_column(n)  # any one-time setup happens outside the traced call
    peak = traced_peak(g.fill_column, n)
    assert peak - (n + 1) * 8 < 108_000


def test_uniform_construction_and_first_column_memory_is_bounded():
    # the jump matrices are built at import, not on the first call
    n = 100_000
    peak = traced_peak(lambda: UniformLaggedFibonacci(8).fill_column(n))
    assert peak < n * 8 + 64 * 1024


@pytest.mark.parametrize("stream_cls", [UniformLaggedFibonacci, GaussianStream])
def test_fill_column_negative_raises_and_keeps_state(stream_cls):
    # one draw first, so the refused call comes after the stream has advanced
    g = stream_cls(1)
    first = g.fill_column(1)
    with pytest.raises(ConfigurationError):
        g.fill_column(-3)
    flat = stream_cls(1).fill_column(11)
    assert np.array_equal(np.concatenate([first, g.fill_column(10)]), flat)


@pytest.mark.parametrize("n", [0, 1, 54, 55, 56, 1696, 98_304, 98_305, N_BIG])
def test_uniform_fill_column_into_out_is_bitwise_the_returned_column(n):
    g, h = UniformLaggedFibonacci(21), UniformLaggedFibonacci(21)
    buf = np.full(n, np.nan)
    assert h.fill_column(n, out=buf) is buf
    assert np.array_equal(buf.view(np.int64), g.fill_column(n).view(np.int64))
    assert h.fill_column(60).tolist() == g.fill_column(60).tolist()


def bad_out(kind):
    """An `out` for a 10-value request that the stream must refuse."""
    if kind == "read-only":
        out = np.zeros(10)
        out.setflags(write=False)
        return out
    return {
        "long": np.zeros(11),
        "2-D": np.zeros((1, 10)),
        "float32": np.zeros(10, dtype=np.float32),
        "int64": np.zeros(10, dtype=np.int64),
        "list": [0.0] * 10,
        "strided": np.zeros(20)[::2],
    }[kind]


@pytest.mark.parametrize(
    "kind, error",
    [("long", DimensionError), ("2-D", DimensionError)]
    + [(kind, ConfigurationError) for kind in ("float32", "int64", "list", "read-only", "strided")],
)
def test_uniform_fill_column_refuses_a_bad_out_and_keeps_state(kind, error):
    g = UniformLaggedFibonacci(22)
    out = bad_out(kind)
    before = np.array(out)
    with pytest.raises(error, match="^out must"):
        g.fill_column(10, out=out)
    assert np.array_equal(np.array(out), before)
    assert g.fill_column(60).tolist() == UniformLaggedFibonacci(22).fill_column(60).tolist()


@pytest.mark.parametrize("n", [20_000, 200_000])
def test_gaussian_column_draws_its_rounds_into_its_frame(n):
    # a column is one standard_normal call, which holds nothing beyond the
    # column it returns (240 bytes over n values measured at both sizes)
    g = GaussianStream(8)
    g.fill_column(n)
    peak = traced_peak(g.fill_column, n)
    assert peak - (n + 1) * 8 < 64 * 1024


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
    assert [a.fill_column(1)[0] for _ in range(1000)] == [b.fill_column(1)[0] for _ in range(1000)]


def test_gaussian_fill_column_matches_flat_stream():
    # odd and even single draws between columns, then empty, tiny and
    # uneven requests; seeds past 2^64 reach PCG64 through its SeedSequence
    splits = {7: [321, 1, 320, 1, 321]}
    for seed in (0, 1, 777, 2**63 - 1, 2**64 + 5, 10**30):
        splits[seed] = [0, 1, 1, 2, 3, 0, 4093, 50_000, 45_900, 4, 149_999]
    for seed, sizes in splits.items():
        flat = GaussianStream(seed).fill_column(sum(sizes))
        g = GaussianStream(seed)
        parts = np.concatenate([g.fill_column(k) for k in sizes])
        assert np.array_equal(parts.view(np.int64), flat.view(np.int64)), seed


def test_gaussian_golden_values():
    # recorded from numpy 2.4's Generator(PCG64(seed)).standard_normal; a numpy
    # release that changes its normal algorithm would silently change every
    # Gaussian build, so it fails here instead
    expected = {
        0: ["0x1.017ed89db8441p-3", "-0x1.0e8cfe9bd45ccp-3", "0x1.47e57a468b06dp-1", "0x1.adabbec84d4f0p-4"],
        2**63 - 1: [
            "-0x1.1c5601bb0f770p-2",
            "-0x1.253c19676598ap+0",
            "0x1.e8af88489bc42p-1",
            "-0x1.89c6111e036b8p-3",
        ],
    }
    for seed, values in expected.items():
        assert GaussianStream(seed).fill_column(4).tolist() == [float.fromhex(h) for h in values], seed


def test_gaussian_ks():
    xs = GaussianStream(6).fill_column(N_BIG)

    def normal_cdf(x):
        return np.array([0.5 * (1.0 + math.erf(t / math.sqrt(2.0))) for t in x])

    assert ks_statistic(xs, normal_cdf) <= 0.01


@pytest.mark.parametrize("seed", [0, 1, 2**63 - 1])
def test_long_stream_stays_in_range(seed):
    xs = UniformLaggedFibonacci(seed).fill_column(10_000)
    assert np.all((-1.0 <= xs) & (xs < 1.0))
