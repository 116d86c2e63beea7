"""Deterministic random streams used to fill sketch columns.

Two generators are provided: a subtractive lagged Fibonacci stream that is
uniform on [-1, 1], and a Gaussian stream layered on top of it via the
polar (Marsaglia) method.  Both are pure functions of their integer seed,
so a stream can be replayed column by column without ever holding a full
n-by-l random matrix in memory.

Every lagged Fibonacci value is a multiple of 2^-52 in [-1, 1], and every
subtract-and-fold step is exact, so the stream is the linear recurrence
X[k] = X[k-55] - X[k-24] (mod 2^53) on the integers X = x 2^52, the
subtractive generator of Knuth (TAOCP vol. 2, 3.2.2).  A linear recurrence
can be jumped ahead: the window after d steps is a fixed 55-by-55 matrix
power applied to the window now.  `fill_column` uses this to split a
request into contiguous lanes, computes each lane's starting window with
jump matrices built at import time, and then advances all lanes together
with integer array subtractions, 24 values per lane at a time (the short
lag, so no value in a 24-block depends on another).  The residues mod 2^53
("classes") are held scaled by 2^11, so uint64 arithmetic, which wraps mod
2^64, is exact on them, and read as int64 they are the values times 2^63,
which convert to floats exactly.  Each class but one names a single value
in [-1, 1]; class 2^52 is +1 or -1, and those rare values (about one in
2^53) get their sign from the scalar rule afterwards.  Each call writes
one frame, the window and then the new values, so every operand is a
slice of it.  The output is bitwise the value-at-a-time loop's, whatever
column sizes are requested.

The Gaussian stream draws its uniforms in chunks of bounded size and
transforms each chunk with array operations into a frame one slot longer
than the request; its values are the same as those of the
one-pair-at-a-time polar method.
"""

import numpy as np

from .errors import ConfigurationError

_MASK64 = (1 << 64) - 1

# subtractive lags: x[k] = x[k-55] - x[k-24], folded back into [-1, 1]
_LAG_LONG = 55
_LAG_SHORT = 24
_WARMUP = 10 * _LAG_LONG

# a round advances every lane by two short-lag blocks; a request is split
# into at most _LANES lanes of _ROWS << t values each, t <= _MAX_ROUNDS_LOG2,
# and longer requests into several such groups, so the working memory is
# one (55 + _ROWS)-by-_LANES buffer whatever the column length
_LANES = 32
_ROWS = 2 * _LAG_SHORT
_MAX_ROUNDS_LOG2 = 6
# values one round of all lanes produces
_CHUNK = _LANES * _ROWS

# classes are held as X 2^11 mod 2^64; read as int64 that is the value
# times 2^63, class 2^52 reading as -1
_SCALE_OUT = 2.0**-63

# most uniform pairs the Gaussian stream draws from its base stream at once;
# bounds the stream's working memory whatever the column length
_CHUNK_PAIRS = 2048


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
    inside the last lane.  Each round copies its classes into `region` as
    int64, exact as floats since they are multiples of 2^11; one multiply
    at the end scales the group into [-1, 1].  Class-2^52 values are
    written as -1.
    """
    lane = _ROWS << t
    buf = np.empty((_LAG_LONG + _ROWS, lanes), dtype=np.uint64)
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
    for r in range(0, lane, _ROWS):
        for a in range(0, _ROWS, _LAG_SHORT):
            b = a + _LAG_LONG - _LAG_SHORT
            c = a + _LAG_LONG
            np.subtract(buf[a : a + _LAG_SHORT], buf[b:c], out=buf[c : c + _LAG_SHORT])
        np.copyto(whole[:, r : r + _ROWS].T, new[:, :full])
        if r < part.size:
            dst = part[r : r + _ROWS]
            np.copyto(dst, new[: dst.size, full])
        # slide the windows in two copies that do not overlap, so numpy
        # needs no temporary for them
        buf[:_ROWS] = buf[_ROWS : 2 * _ROWS]
        buf[_ROWS:_LAG_LONG] = buf[2 * _ROWS :]
    region *= _SCALE_OUT


class UniformLaggedFibonacci:
    """Lagged Fibonacci stream, uniform on [-1, 1], lags (55, 24).

    The state is a window: an array of the last 55 values, oldest first,
    which `fill_column` extends into one frame and copies back from its
    end.  It is seeded by expanding a 64-bit integer through a splitmix64
    mixer and then discarding 550 draws so the recurrence has fully churned
    the initial state.  Each value is defined by one floating-point subtraction plus
    a fold back into [-1, 1], `x[k] = x[k-55] - x[k-24]`;
    `fill_column` computes the same values in exact integer arithmetic mod
    2^53 on up to `_LANES` lanes at once (see the module docstring), so
    its working memory is bounded whatever the column length, and a single
    `next_uniform` costs one small lane call.
    """

    def __init__(self, seed):
        state = int(seed) & _MASK64
        window = []
        for _ in range(_LAG_LONG):
            z, state = _splitmix64(state)
            # top 53 bits -> [0, 1) -> [-1, 1)
            window.append(2.0 * ((z >> 11) / 9007199254740992.0) - 1.0)
        self._window = np.array(window)
        self.fill_column(_WARMUP)

    def next_uniform(self):
        """Next value in [-1, 1]; advances the state by one step."""
        return self.fill_column(1)[0]

    def fill_column(self, n):
        """Return the next `n` stream values as a float array.

        `n = 0` is accepted and returns an empty array; the state is
        untouched in that case.  A negative `n` raises `ConfigurationError`
        and leaves the state untouched.
        """
        n = int(n)
        if n < 0:
            raise ConfigurationError(f"column length must be nonnegative, got {n}")
        frame = np.empty(_LAG_LONG + n)
        frame[:_LAG_LONG] = self._window
        done = _LAG_LONG
        while done < frame.size:
            # fewest rounds (up to the cap) that fit the rest into _LANES lanes
            blocks = -(-(frame.size - done) // _ROWS)
            t = min(_MAX_ROUNDS_LOG2, (-(-blocks // _LANES) - 1).bit_length())
            lanes = min(_LANES, -(-blocks >> t))
            size = lanes * (_ROWS << t)
            _run_group(frame[done - _LAG_LONG : done], frame[done : done + size], t, lanes)
            done += size
        out = frame[_LAG_LONG:]
        if out.min(initial=0.0) == -1.0:
            _resolve_signs(frame)
        # copied, so the window neither aliases the returned column nor keeps the frame alive
        self._window = frame[-_LAG_LONG:].copy()
        return out


def _resolve_signs(frame):
    """Replace each -1 that `_run_group` wrote for class 2^52 past the window by the loop's `a - b`.

    Going in increasing order, both operands already hold their exact
    values.  Only class 2^52 converts to -1, so no other value changes.
    """
    for s in range(_LAG_LONG, frame.size, _CHUNK):
        for k in np.flatnonzero(frame[s : s + _CHUNK] == -1.0) + s:
            frame[k] = frame[k - _LAG_LONG] - frame[k - _LAG_SHORT]


class GaussianStream:
    """Standard-normal stream built from a uniform [-1, 1] base generator.

    Uses the polar method: pairs (u, v) from the base stream are rejected
    until u^2 + v^2 lands in (0, 1), then both transformed variates are
    used, in that order.  A request of n fills a frame of n + 1: its last
    slot catches the second variate of a pair the request ends inside,
    which becomes the spare the next request starts with.  Pairs are drawn
    and transformed as arrays, at most `_CHUNK_PAIRS` at a time, and never
    more pairs than the variates still owed: each pair yields at most two,
    so every pair drawn is used.  The
    base stream therefore advances exactly as under the one-pair-at-a-time
    method, and the output does not depend on how it is split into columns.

    A `base` stream (any object with a uniform `fill_column`; by default
    `UniformLaggedFibonacci(seed)`) belongs to this stream from then on.
    """

    def __init__(self, seed, base=None):
        self._base = base if base is not None else UniformLaggedFibonacci(seed)
        self._spare = None

    def next_gaussian(self):
        """Next standard-normal variate; advances the state."""
        return self.fill_column(1)[0]

    def fill_column(self, n):
        """Return the next `n` variates as a float array (empty for n = 0).

        A negative `n` raises `ConfigurationError` and leaves the state
        untouched.
        """
        n = int(n)
        if n < 0:
            raise ConfigurationError(f"column length must be nonnegative, got {n}")
        frame = np.empty(n + 1)
        k = 0
        if self._spare is not None:
            frame[0] = self._spare
            k = 1
        while k < n:
            pairs = min((n - k + 1) // 2, _CHUNK_PAIRS)
            uv = self._base.fill_column(2 * pairs)
            u = uv[0::2]
            v = uv[1::2]
            s = u * u + v * v
            accepted = np.flatnonzero((0.0 < s) & (s < 1.0))
            s = s[accepted]
            factor = np.sqrt(-2.0 * np.log(s) / s)
            # x and y interleave into the frame, whose last slot takes the
            # second variate of a pair the request ends inside
            dst = frame[k : k + 2 * accepted.size]
            dst[0::2] = u[accepted] * factor
            dst[1::2] = v[accepted] * factor
            k += dst.size
        self._spare = frame[n] if k > n else None
        return frame[:n]
