"""In-memory spans around calls into the library's layers.

The benchmark records spans from its own side of each layer boundary: a
proxy stream around `fill_column` and a `LinearOperator` subclass around
another operator's `_apply_impl` / `_apply_adjoint_impl`, plus spans that
the harness opens around whole calls.  Spans stay in memory until the run
ends; self times are derived from them afterwards.
"""

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

from nullproj import LinearOperator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, or -1 for a root
    op: str  # operation id shared by all spans of one setup or projection


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name, op=None):
        """Record `name` around the with-block, nested under the open span."""
        parent = self._stack[-1] if self._stack else -1
        if op is None:
            op = self.spans[parent].op if parent >= 0 else ""
        idx = len(self.spans)
        rec = Span(name, time.perf_counter(), 0.0, parent, op)
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def self_times(self):
        """Per span: its duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, child)]

    def nesting_errors(self):
        """Spans that do not lie inside their parent, or whose children overrun them."""
        bad = []
        for i, (s, own) in enumerate(zip(self.spans, self.self_times())):
            p = self.spans[s.parent] if s.parent >= 0 else None
            # the tolerance absorbs rounding in the duration sums, not real overlap
            if own < -1e-9 or (p is not None and not (p.start <= s.start <= s.end <= p.end)):
                bad.append(i)
        return bad

    def durations(self, name, self_time=False):
        """Durations, or self times, of every span called `name`."""
        values = self.self_times() if self_time else [s.end - s.start for s in self.spans]
        return [v for s, v in zip(self.spans, values) if s.name == name]

    def dump(self):
        return [asdict(s) for s in self.spans]


class TracedStream:
    """Proxy stream: records a span around each `fill_column` of the wrapped stream."""

    def __init__(self, stream, tracer):
        self._stream = stream
        self._tracer = tracer
        self.values = 0

    def fill_column(self, n):
        with self._tracer.span("rng.fill_column"):
            col = self._stream.fill_column(n)
        self.values += col.size
        return col


class TracedOperator(LinearOperator):
    """Counted operator that forwards to `inner` and records a span per apply.

    The wrapper keeps its own apply counters, so cost contracts are checked
    on it exactly as on the operator it wraps.
    """

    def __init__(self, inner, tracer):
        super().__init__(*inner.shape)
        self._inner = inner
        self._tracer = tracer

    def _apply_impl(self, x):
        with self._tracer.span("linop.apply"):
            return self._inner._apply_impl(x)

    def _apply_adjoint_impl(self, y):
        with self._tracer.span("linop.apply_adjoint"):
            return self._inner._apply_adjoint_impl(y)
