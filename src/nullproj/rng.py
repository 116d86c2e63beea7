"""Deterministic random streams used to fill sketch columns.

Two generators are provided: a subtractive lagged Fibonacci stream that is
uniform on [-1, 1), and a standard-normal stream, numpy's ziggurat method
on one PCG64 generator.  Both are pure functions of their integer seed,
and neither depends on how its requests are split, so a stream can be
replayed column by column without ever holding a full n-by-l random
matrix in memory.

Every lagged Fibonacci value is a multiple of 2^-52 in [-1, 1), and every
subtract-and-fold step is exact, so the stream is the linear recurrence
X[k] = X[k-55] - X[k-24] (mod 2^53) on the integers X = x 2^52, the
subtractive generator of Knuth (TAOCP vol. 2, 3.2.2).  A linear recurrence
can be jumped ahead: the window after d steps is a fixed 55-by-55 matrix
power applied to the window now.  `fill_column` uses this to split a
request into contiguous lanes, computes each lane's starting window with
jump matrices built at import time, and then advances all lanes together
with integer array subtractions, 24 values per lane at a time (the short
lag, so no value in a 24-block depends on another).  The lanes run two
rounds of 48 values between slides of their windows, so each pair of
rounds makes one copy into the column and one slide.  The residues mod 2^53
("classes") are held scaled by 2^11, so uint64 arithmetic, which wraps mod
2^64, is exact on them, and read as int64 they are the values times 2^63,
which convert to floats exactly.  Each class names a single value in
[-1, 1), class 2^52 reading as -1.  The lanes write straight into the
column, which may be the caller's (`fill_column(n, out)`); a group of
lanes starts from the 55 values before it, the stream's window or the
end of the group before.  The output is bitwise the value-at-a-time
loop's, whatever column sizes are requested.
"""

import numpy as np

from .errors import ConfigurationError, DimensionError, as_index

_MASK64 = (1 << 64) - 1

# subtractive lags: x[k] = x[k-55] - x[k-24], folded back into [-1, 1): a
# difference at or above 1 loses 2, one below -1 gains 2
_LAG_LONG = 55
_LAG_SHORT = 24
_WARMUP = 10 * _LAG_LONG

# a round advances every lane by two short-lag blocks; a request is split
# into at most _LANES lanes of _ROWS << t values each, t <= _MAX_ROUNDS_LOG2,
# and longer requests into several such groups, so the working memory is
# one (55 + _SLIDE_ROWS)-by-_LANES buffer whatever the column length
_LANES = 32
_ROWS = 2 * _LAG_SHORT
_MAX_ROUNDS_LOG2 = 6
# rows the lanes advance between two slides of their windows: two rounds
# halve the copy-outs and slides; three would take a 1e5 column's working
# memory past 64 KiB
_SLIDE_ROWS = 2 * _ROWS

# classes are held as X 2^11 mod 2^64; read as int64 that is the value
# times 2^63, class 2^52 reading as -1
_SCALE_OUT = 2.0**-63


def _splitmix64(state):
    """Advance a splitmix64 counter; returns (value, new_state)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z = z ^ (z >> 31)
    return z, state


def _jump_matrices():
    """`J[t]` maps a window (a column, oldest first) to the window _ROWS 2^t steps on.

    Entries are wrapped mod 2^64, which keeps every product exact mod 2^53.
    Lane doubling reads `J[t]` for t up to _MAX_ROUNDS_LOG2 + log2(_LANES) - 1.
    """
    step = np.zeros((_LAG_LONG, _LAG_LONG), dtype=np.uint64)
    step[np.arange(_LAG_LONG - 1), np.arange(1, _LAG_LONG)] = 1
    step[-1, 0] = 1
    step[-1, _LAG_LONG - _LAG_SHORT] = np.uint64(_MASK64)  # -1 mod 2^64
    jump = np.linalg.matrix_power(step, _ROWS)
    jumps = []
    for _ in range(_MAX_ROUNDS_LOG2 + _LANES.bit_length() - 1):
        jump.setflags(write=False)
        jumps.append(jump)
        jump = jump @ jump
    return tuple(jumps)


_JUMPS = _jump_matrices()


def _classes(x):
    """Classes of stream values x as lanes hold them: X 2^11 mod 2^64 for X = x 2^52."""
    return (x * 2.0**52).astype(np.int64).view(np.uint64) << 11


def _run_group(start, region, t, lanes):
    """Fill `region` with the values after window `start`, `lanes` lanes of _ROWS << t each.

    Lane j starts j (_ROWS << t) values in; its window is a jump of lane
    j - s's, s the largest power of two not above j.  `region` may end
    inside the last lane.  Each step of two rounds (one in a lane of a
    single round) copies its classes into `region` as int64, exact as
    floats since they are multiples of 2^11; one multiply at the end
    scales the group into [-1, 1).
    """
    lane = _ROWS << t
    step = min(lane, _SLIDE_ROWS)
    buf = np.empty((_LAG_LONG + step, lanes), dtype=np.uint64)
    buf[:_LAG_LONG, 0] = _classes(start)
    s = 1
    while s < lanes:
        k = min(s, lanes - s)
        np.matmul(_JUMPS[t], buf[:_LAG_LONG, :k], out=buf[:_LAG_LONG, s : s + k])
        s += k
        t += 1
    full = region.size // lane
    whole = region[: full * lane].reshape(full, lane)
    part = region[full * lane :]
    new = buf[_LAG_LONG:].view(np.int64)
    for r in range(0, lane, step):
        if r:
            # only lanes of two rounds or more slide, so step > 55 and the
            # copy does not overlap itself
            buf[:_LAG_LONG] = buf[step:]
        for a in range(0, step, _LAG_SHORT):
            b = a + _LAG_LONG - _LAG_SHORT
            c = a + _LAG_LONG
            np.subtract(buf[a : a + _LAG_SHORT], buf[b:c], out=buf[c : c + _LAG_SHORT])
        np.copyto(whole[:, r : r + step].T, new[:, :full])
        if r < part.size:
            dst = part[r : r + step]
            np.copyto(dst, new[: dst.size, full])
    region *= _SCALE_OUT


class UniformLaggedFibonacci:
    """Lagged Fibonacci stream, uniform on [-1, 1), lags (55, 24).

    The state is a window: an array of the last 55 values, oldest first,
    which `fill_column` extends into one frame and copies back from its
    end.  It is seeded by expanding a nonnegative integer, read modulo
    2^64, through a splitmix64 mixer and then discarding 550 draws so the
    recurrence has fully churned the initial state.  Each value is defined
    by one floating-point subtraction plus a fold back into [-1, 1),
    `x[k] = x[k-55] - x[k-24]`; `fill_column` computes the same values in
    exact integer arithmetic mod 2^53 on up to `_LANES` lanes at once (see
    the module docstring), so its working memory is bounded whatever the
    column length.
    """

    def __init__(self, seed):
        state = as_index(seed, "seed", least=0)  # _splitmix64 reads it modulo 2^64
        window = []
        for _ in range(_LAG_LONG):
            z, state = _splitmix64(state)
            # top 53 bits -> [0, 1) -> [-1, 1)
            window.append(2.0 * ((z >> 11) / 9007199254740992.0) - 1.0)
        self._window = np.array(window)
        self.fill_column(_WARMUP)

    def fill_column(self, n, out=None):
        """Return the next `n` stream values as a float array, written into `out` if given.

        `out` must be a writeable, C-contiguous float64 ndarray of shape
        (n,): a wrong shape raises `DimensionError`, anything else
        `ConfigurationError`, and the state is untouched in either case.
        `n = 0` is accepted and returns an empty array; the state is
        untouched in that case.  A negative `n` raises `ConfigurationError`
        and leaves the state untouched.
        """
        n = as_index(n, "column length", least=0)
        out = np.empty(n) if out is None else _checked_out(out, n)
        window = self._window
        done = 0
        while done < n:
            # fewest rounds (up to the cap) that fit the rest into _LANES
            # lanes, but no more lanes than about the rounds in each: a lane
            # costs a jump to its starting window and a round a step of all
            # lanes, which take about the same time
            blocks = -(-(n - done) // _ROWS)
            fit = (-(-blocks // _LANES) - 1).bit_length()
            t = min(_MAX_ROUNDS_LOG2, max((blocks.bit_length() - 1) // 2, fit))
            lanes = min(_LANES, -(-blocks >> t))
            size = lanes * (_ROWS << t)
            # a group after the first follows a whole group, far longer than a window
            start = out[done - _LAG_LONG : done] if done else window
            _run_group(start, out[done : done + size], t, lanes)
            done += size
        # a new array: the window must not alias the column, which the caller owns
        self._window = np.concatenate((window[n:], out[-_LAG_LONG:]))
        return out


def _checked_out(out, n):
    """`out`; DimensionError unless it holds n values in 1-D, ConfigurationError unless it is a
    writeable, C-contiguous float64 ndarray (the lanes write it through reshaped views)."""
    if np.shape(out) != (n,):
        raise DimensionError(f"out must have shape ({n},), got {np.shape(out)}")
    if not isinstance(out, np.ndarray) or out.dtype != np.float64:
        got = f"{type(out).__name__} of {np.asarray(out).dtype}"
        raise ConfigurationError(f"out must be a float64 ndarray, got {got}")
    if not out.flags.writeable or not out.flags.c_contiguous:
        raise ConfigurationError("out must be writeable and C-contiguous")
    return out


class GaussianStream:
    """Standard-normal stream: numpy's ziggurat method on one PCG64 generator.

    `seed`, a nonnegative integer of any size, seeds one
    `np.random.Generator(np.random.PCG64(seed))`, and `fill_column(n)` is
    its `standard_normal(n)`: one C call that writes a new column and
    allocates nothing else.  The ziggurat (Marsaglia and Tsang, J. Stat.
    Softw. 2000) consumes whole 64-bit PCG words and carries nothing from
    one call to the next, so the values do not depend on how the stream is
    split into columns.  They follow numpy's `Generator` algorithm, which
    a numpy feature release may change (NEP 19).  `GaussianStream(s)`
    reads the same bits as `np.random.default_rng(s)`, which draws the
    test operators of seed s, so give a stream and an operator different
    seeds.
    """

    def __init__(self, seed):
        self._normal = np.random.Generator(np.random.PCG64(as_index(seed, "seed", least=0)))

    def fill_column(self, n):
        """Return the next `n` variates as a float array (empty for n = 0).

        A negative `n` raises `ConfigurationError` and leaves the state
        untouched.
        """
        return self._normal.standard_normal(as_index(n, "column length", least=0))
