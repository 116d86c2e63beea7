"""Deterministic random streams used to fill sketch columns.

Two generators are provided: a subtractive lagged Fibonacci stream that is
uniform on [-1, 1] and runs on floating-point adds/subtracts alone, and a
Gaussian stream layered on top of it via the polar (Marsaglia) method.
The lagged Fibonacci stream keeps its state as a sliding window, a list of
its last 55 values, oldest first: each new value is appended behind the
window and the oldest are trimmed after every chunk of bounded size, so a
column costs one short interpreter step per value and bounded memory.
Its fold makes the recurrence nonlinear, so it cannot be jumped ahead or
run on arrays wider than its short lag.  The Gaussian stream draws its
uniforms in chunks of bounded size and transforms each chunk with array
operations; its values are the same as those of the one-pair-at-a-time
polar method, whatever column sizes are requested.  Both are pure
functions of their integer seed, so a stream can be replayed column by
column without ever holding a full n-by-l random matrix in memory.
"""

from itertools import islice

import numpy as np

from .errors import ConfigurationError

_MASK64 = (1 << 64) - 1

# subtractive lags: x[k] = x[k-55] - x[k-24], folded back into [-1, 1]
_LAG_LONG = 55
_LAG_SHORT = 24
_WARMUP = 10 * _LAG_LONG

# most values the uniform stream appends to its window before trimming it;
# bounds the stream's working memory whatever the column length
_CHUNK = 1024

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


class UniformLaggedFibonacci:
    """Lagged Fibonacci stream, uniform on [-1, 1], lags (55, 24).

    The state is a sliding window: a list of the last 55 values, oldest
    first.  It is seeded by expanding a 64-bit integer through a splitmix64
    mixer and then discarding 550 draws so the recurrence has fully churned
    the initial state.  After seeding, each draw is one floating-point
    subtraction plus a fold back into [-1, 1], appended to the window;
    `fill_column` drops the oldest values after every chunk of at most
    `_CHUNK` draws, so the window never holds more than `55 + _CHUNK`
    values whatever the column length.
    """

    def __init__(self, seed):
        state = int(seed) & _MASK64
        window = []
        for _ in range(_LAG_LONG):
            z, state = _splitmix64(state)
            # top 53 bits -> [0, 1) -> [-1, 1)
            window.append(2.0 * ((z >> 11) / 9007199254740992.0) - 1.0)
        self.seed = int(seed)
        self._window = window
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
        out = np.empty(n)
        x = self._window
        append = x.append
        for start in range(0, n, _CHUNK):
            c = min(_CHUNK, n - start)
            # x[k] = x[k-55] - x[k-24] reads window slots t and t+31 at step t.
            # List iterators index the live list and check its length on every
            # step, so the second one walks on into the values appended here.
            for a, b in zip(islice(x, c), islice(x, _LAG_LONG - _LAG_SHORT, None)):
                v = a - b
                if v < -1.0:
                    v += 2.0
                elif v > 1.0:
                    v -= 2.0
                append(v)
            out[start : start + c] = x[_LAG_LONG:]
            del x[:c]
        return out


class GaussianStream:
    """Standard-normal stream built from a uniform [-1, 1] base generator.

    Uses the polar method: pairs (u, v) from the base stream are rejected
    until u^2 + v^2 lands in (0, 1), then both transformed variates are
    used, in that order, the second one cached as the spare if the request
    ends between them.  Pairs are drawn and transformed as arrays, at most
    `_CHUNK_PAIRS` at a time, and never more pairs than the variates still
    owed: each pair yields at most two, so every pair drawn is used.  The
    base stream therefore advances exactly as under the one-pair-at-a-time
    method, and the output does not depend on how it is split into columns.

    A `base` stream (any object with a uniform `fill_column`; by default
    `UniformLaggedFibonacci(seed)`) belongs to this stream from then on.
    """

    def __init__(self, seed, base=None):
        self.seed = int(seed)
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
        out = np.empty(n)
        k = 0
        if n > 0 and self._spare is not None:
            out[0] = self._spare
            self._spare = None
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
            x = u[accepted] * factor
            y = v[accepted] * factor
            # x and y interleave into the output; an odd count leaves y[-1] over
            take = min(2 * accepted.size, n - k)
            dst = out[k : k + take]
            dst[0::2] = x[: (take + 1) // 2]
            dst[1::2] = y[: take // 2]
            if take < 2 * accepted.size:
                self._spare = y[-1]
            k += take
        return out
