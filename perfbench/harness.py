"""One benchmark run: timed setups, a closed loop of projections and
least-squares solves, correctness checks and, when traced, per-layer figures.

Everything goes through the package's public functions.  One caller drives
the load and starts each call when the previous one has returned.  Checks
run outside the timed sections; a failed check or a raised `NullProjError`
counts the operation as failed.
"""

import statistics
import time
import tracemalloc
from contextlib import nullcontext

import numpy as np

import spec
from nullproj import (
    ClassicalProjector,
    GaussianStream,
    NullProjError,
    Preconditioner,
    UniformLaggedFibonacci,
    build_gram,
    build_preconditioner,
    build_sketch,
    error_metrics,
    invert_small,
    make_dense_test,
    make_sparse_test,
    project,
    qr_pivoted,
    refine_lstsq,
    solve_lstsq,
    solve_upper,
    solve_upper_adjoint,
)
from tracing import TracedOperator, TracedStream, Tracer

LOOP_OVERRUN_S = 60  # the loop stops this long after --seconds even if sample minimums are unmet
CLASSICAL_VECTORS = 20  # unit vectors for the classical error maxima (traced run)
SOLVE_SAMPLES = 100  # single triangular solves timed per kind (traced run)
COLUMN_SAMPLES = 5  # stream columns timed per stream kind (traced run)

_STREAMS = {"lfg": UniformLaggedFibonacci, "gauss": GaussianStream}
_FAMILIES = {"sparse": make_sparse_test, "dense": make_dense_test}


class Ledger:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, what):
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(what)


def _no_span(name, op=None):
    return nullcontext()


def _delta(before, after):
    return (after[0] - before[0], after[1] - before[1])


def _median(values):
    return statistics.median(values) if values else float("nan")


def _upper_percentile(values, q):
    """Nearest-rank percentile q (0..1) of the samples."""
    ordered = sorted(values)
    return ordered[max(0, int(np.ceil(q * len(ordered))) - 1)] if ordered else float("nan")


def _cond_estimate(X):
    """sqrt(cond(X)) of the preconditioned Gram matrix = cond(P^-1 A)."""
    return float(np.sqrt(np.linalg.cond(X)))


def check_build(pre, wl):
    """Exact (l+m, m) build applies and the paper's cond <= 10 l bound.

    `pre.Y` is the inverse of the Gram matrix X, so cond(Y) = cond(X).
    """
    if pre.build_apply_counts != (wl.l + wl.m, wl.m):
        return False, f"build applies {pre.build_apply_counts} != {(wl.l + wl.m, wl.m)}"
    cond = _cond_estimate(pre.Y)
    if not cond <= spec.COND_FACTOR * wl.l:
        return False, f"cond estimate {cond:.1f} > {spec.COND_FACTOR * wl.l}"
    return True, ""


class Run:
    """State of one run of one workload for one seed."""

    def __init__(self, wl, seed):
        self.wl = wl
        self.A = _FAMILIES[wl.family](wl.m, wl.n, wl.kappa, seed)
        self.ledger = Ledger()
        self._stream_seeds = np.random.default_rng([seed, 1])
        self._vectors = np.random.default_rng([seed, 2])
        self.error_max = {"delta": 0.0, "eps": 0.0}
        self.project_counts = None  # apply counts of the last projection

    def unit_vector(self):
        v = self._vectors.standard_normal(self.wl.n)
        return v / np.linalg.norm(v)

    def new_stream(self, kind=None):
        """A fresh stream of the workload's kind (or `kind`), seeded from the run's seed."""
        seed = int(self._stream_seeds.integers(2**62))
        return _STREAMS[kind or self.wl.stream](seed)

    # -- setup ---------------------------------------------------------

    def build(self, measure_memory=False):
        """One `build_preconditioner` as a user calls it; returns (seconds, peak bytes, pre)."""
        wl = self.wl
        peak = 0
        if measure_memory:
            tracemalloc.start()
        try:
            t0 = time.perf_counter()
            pre = build_preconditioner(self.A, wl.l, self.new_stream())
            dt = time.perf_counter() - t0
        except NullProjError as exc:
            self.ledger.record(False, f"setup raised {exc!r}")
            return None, 0, None
        finally:
            if measure_memory:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
        ok, why = check_build(pre, wl)
        self.ledger.record(ok, f"setup: {why}")
        return dt, peak, pre if ok else None

    def traced_build(self, Aw, tracer, op):
        """The setup pieces one by one, each in its own span, on a traced operator.

        Returns (preconditioner or None, cond estimate, stream values drawn, seconds).
        """
        wl = self.wl
        before = Aw.counts()
        try:
            with tracer.span("precond.build", op) as root:
                stream = TracedStream(self.new_stream(), tracer)
                with tracer.span("precond.build_sketch"):
                    S = build_sketch(Aw, wl.l, stream)
                with tracer.span("dense_core.qr_pivoted"):
                    qr = qr_pivoted(S.T)
                with tracer.span("precond.build_gram"):
                    X = build_gram(Aw, qr.R, qr.perm)
                with tracer.span("dense_core.invert_small"):
                    Y = invert_small(X)
        except NullProjError as exc:
            self.ledger.record(False, f"traced setup raised {exc!r}")
            return None, None, 0, None
        pre = Preconditioner(
            R=qr.R, perm=qr.perm, Y=Y, l=wl.l, m=wl.m, n=wl.n,
            build_apply_counts=_delta(before, Aw.counts()),
        )
        ok, why = check_build(pre, wl)
        self.ledger.record(ok, f"traced setup: {why}")
        return (pre if ok else None), _cond_estimate(X), stream.values, root.end - root.start

    # -- the closed loop -------------------------------------------------

    def _check_errors(self, null_fn, b, what):
        m = error_metrics(self.A, null_fn, b, self.wl.kappa, "randomized")
        self.error_max["delta"] = max(self.error_max["delta"], m.delta_over_kappa)
        self.error_max["eps"] = max(self.error_max["eps"], m.epsilon_over_kappa)
        if m.delta_over_kappa <= spec.ERROR_TOL and m.epsilon_over_kappa <= spec.ERROR_TOL:
            return ""
        return f"{what}: delta/kappa {m.delta_over_kappa:.2e}, eps/kappa {m.epsilon_over_kappa:.2e}"

    def _project_op(self, pre, A, b, check, span, op):
        """One timed projection; returns its seconds, or None if it failed."""
        before = A.counts()
        try:
            with span("projector.project", op):
                t0 = time.perf_counter()
                project(pre, A, b)
                dt = time.perf_counter() - t0
            counts = _delta(before, A.counts())
            why = "" if counts == (1, 1) else f"projection applies {counts} != (1, 1)"
            if check and not why:
                why = self._check_errors(lambda v: project(pre, self.A, v).null_projection, b, "projection")
            self.project_counts = counts
        except NullProjError as exc:
            dt, why = None, f"projection raised {exc!r}"
        self.ledger.record(not why, why)
        return None if why else dt

    def _lstsq_op(self, pre, A, b, check, span, op):
        """`solve_lstsq` then one `refine_lstsq` iteration, timed together."""
        A0 = self.A

        def refined_null(v):
            h = refine_lstsq(pre, A0, v, solve_lstsq(pre, A0, v), 1)
            return v - A0.apply_adjoint(h)

        before = A.counts()
        try:
            with span("projector.lstsq", op):
                t0 = time.perf_counter()
                with span("projector.solve_lstsq"):
                    h = solve_lstsq(pre, A, b)
                with span("projector.refine_lstsq"):
                    refine_lstsq(pre, A, b, h, 1)
                dt = time.perf_counter() - t0
            counts = _delta(before, A.counts())
            why = "" if counts == (2, 1) else f"lstsq applies {counts} != (2, 1)"
            if check and not why:
                why = self._check_errors(refined_null, b, "lstsq")
        except NullProjError as exc:
            dt, why = None, f"lstsq raised {exc!r}"
        self.ledger.record(not why, why)
        return None if why else dt

    def closed_loop(self, pre, A, seconds, proj, lstsq, minimums=(0, 0), tracer=None):
        """Projections and least-squares solves on fresh unit vectors, one at a time.

        Every PROJECTIONS_PER_LSTSQ+1-th operation is a least-squares
        solve.  Runs for `seconds`, and on until `proj` and `lstsq` hold
        `minimums` samples; appends the latencies of the operations that
        passed their checks to them.
        """
        deadline = time.perf_counter() + seconds
        hard_stop = deadline + LOOP_OVERRUN_S
        span = tracer.span if tracer else _no_span
        i = n_proj = n_lstsq = 0
        while True:
            now = time.perf_counter()
            if now >= hard_stop or (now >= deadline and len(proj) >= minimums[0] and len(lstsq) >= minimums[1]):
                break
            b = self.unit_vector()
            if i % (spec.PROJECTIONS_PER_LSTSQ + 1) == spec.PROJECTIONS_PER_LSTSQ:
                dt = self._lstsq_op(pre, A, b, n_lstsq % spec.CHECK_EVERY == 0, span, f"op{i}")
                n_lstsq += 1
                if dt is not None:
                    lstsq.append(dt)
            else:
                dt = self._project_op(pre, A, b, n_proj % spec.CHECK_EVERY == 0, span, f"op{i}")
                n_proj += 1
                if dt is not None:
                    proj.append(dt)
            i += 1


def run_untraced(wl, seed, seconds):
    """End-to-end metrics: setup time and memory, projection and lstsq latency.

    The loop is cut into slices that alternate with the timed builds, so
    its samples span most of the run rather than its last seconds: host
    speed drifts over tens of seconds, and a wider span averages more of it.
    """
    run = Run(wl, seed)
    _, peak, pre = run.build(measure_memory=True)  # also warms caches before timing
    if pre is None:
        return run.ledger, {}, {}, {}
    setup_times, proj, lstsq = [], [], []
    slices = spec.SETUP_REPEATS + 1
    for k in range(slices):
        last = k == slices - 1
        minimums = (spec.MIN_PROJECTIONS, spec.MIN_LSTSQ) if last else (0, 0)
        run.closed_loop(pre, run.A, seconds / slices, proj, lstsq, minimums)
        if not last:
            dt, _, built = run.build()
            if built is not None:
                setup_times.append(dt)
                pre = built
    metrics = {
        "setup_s": _median(setup_times),
        "setup_peak_mib": peak / 2**20,
        "project_s_p95": _upper_percentile(proj, 0.95),
        "lstsq_s_p95": _upper_percentile(lstsq, 0.95),
    }
    info = {
        "samples": {"setup": len(setup_times), "project": len(proj), "lstsq": len(lstsq)},
        "project_s_p50": _median(proj),
        "lstsq_s_p50": _median(lstsq),
    }
    return run.ledger, metrics, info, {"setup": setup_times, "project": proj, "lstsq": lstsq}


def run_traced(wl, seed, seconds):
    """Per-layer metrics from spans recorded around each layer's calls."""
    run = Run(wl, seed)
    A, m, l, n = run.A, wl.m, wl.l, wl.n
    run.build()  # warm-up, untimed
    tracer = Tracer()
    Aw = TracedOperator(A, tracer)

    # untraced and traced builds alternate, so drift in machine speed
    # does not bias trace.overhead_s
    setup_times, pres, traced, traced_times, conds, values = [], [], [], [], [], 0
    for k in range(spec.SETUP_REPEATS):
        dt, _, pre = run.build()
        if pre is not None:
            setup_times.append(dt)
            pres.append(pre)
        pre, cond, values, dt = run.traced_build(Aw, tracer, f"setup{k}")
        if pre is not None:
            traced.append(pre)
            traced_times.append(dt)
            conds.append(cond)
    if not traced or not pres:
        return run.ledger, {}, {}, {"spans": tracer.dump()}

    pre = traced[-1]
    proj, lstsq = [], []
    run.closed_loop(pre, Aw, seconds, proj, lstsq, (spec.MIN_PROJECTIONS, spec.MIN_LSTSQ), tracer)
    project_counts = run.project_counts or (0, 0)

    rng = np.random.default_rng([seed, 3])
    for k in range(SOLVE_SAMPLES):
        v = rng.standard_normal(m)
        with tracer.span("dense_core.solve_upper", f"solve{k}"):
            solve_upper(pre.R, v)
        with tracer.span("dense_core.solve_upper_adjoint", f"solve{k}"):
            solve_upper_adjoint(pre.R, v)
    for kind in _STREAMS:
        g = run.new_stream(kind)
        for k in range(COLUMN_SAMPLES):
            with tracer.span(f"rng.{kind}_column", f"{kind}{k}"):
                g.fill_column(n)

    classical = None
    for k in range(spec.SETUP_REPEATS):
        with tracer.span("projector.classical_setup", f"classical{k}"):
            classical = ClassicalProjector(A)
    cdelta = ceps = 0.0
    for k in range(CLASSICAL_VECTORS):
        b = run.unit_vector()
        with tracer.span("projector.classical_project", f"cproject{k}"):
            classical.project(b)
        em = error_metrics(A, lambda v: classical.project(v).null_projection, b, wl.kappa, "classical")
        cdelta = max(cdelta, em.delta_over_kappa)
        ceps = max(ceps, em.epsilon_over_kappa)

    bad = tracer.nesting_errors()
    if bad:
        run.ledger.fail(f"{len(bad)} spans do not nest inside their parents")

    d = tracer.durations
    build_applies, build_adjoint_applies = pres[0].build_apply_counts
    randomized_setup = _median(setup_times)
    classical_setup = _median(d("projector.classical_setup"))
    metrics = {
        "rng.fill_column_s": _median(d("rng.fill_column")),
        "rng.values_per_build": values,
        "rng.lfg_column_s": _median(d("rng.lfg_column")),
        "rng.gauss_column_s": _median(d("rng.gauss_column")),
        "linop.apply_s": _median(d("linop.apply")),
        "linop.apply_adjoint_s": _median(d("linop.apply_adjoint")),
        "linop.build_applies": build_applies,
        "linop.build_adjoint_applies": build_adjoint_applies,
        "linop.project_applies": project_counts[0],
        "linop.project_adjoint_applies": project_counts[1],
        "precond.sketch_s": _median(d("precond.build_sketch")),
        "precond.sketch_self_s": _median(d("precond.build_sketch", self_time=True)),
        "precond.gram_s": _median(d("precond.build_gram")),
        "precond.gram_self_s": _median(d("precond.build_gram", self_time=True)),
        "precond.sketch_attempts": max((p.build_apply_counts[0] - m) / l for p in pres),
        "precond.cond_estimate": max(conds),
        "dense_core.qr_s": _median(d("dense_core.qr_pivoted")),
        "dense_core.invert_s": _median(d("dense_core.invert_small")),
        "dense_core.solve_upper_s": _median(d("dense_core.solve_upper")),
        "dense_core.solve_upper_adjoint_s": _median(d("dense_core.solve_upper_adjoint")),
        "projector.project_s": _median(d("projector.project")),
        "projector.project_self_s": _median(d("projector.project", self_time=True)),
        "projector.refine_iter_s": _median(d("projector.refine_lstsq")),
        "projector.randomized_setup_s": randomized_setup,
        "projector.classical_setup_s": classical_setup,
        "projector.classical_project_s": _median(d("projector.classical_project")),
        "projector.setup_vs_classical": randomized_setup / classical_setup,
        "diagnostics.delta_rand_over_kappa_max": run.error_max["delta"],
        "diagnostics.eps_rand_over_kappa_max": run.error_max["eps"],
        "diagnostics.delta_norm_over_kappa_max": cdelta,
        "diagnostics.eps_norm_over_kappa_max": ceps,
        "trace.overhead_s": _median(traced_times) - randomized_setup,
    }
    info = {
        "samples": {
            "setup": len(setup_times), "traced_setup": len(traced), "project": len(proj), "lstsq": len(lstsq)
        }
    }
    raw = {"setup": setup_times, "traced_setup": traced_times, "project": proj, "lstsq": lstsq}
    raw["spans"] = tracer.dump()
    return run.ledger, metrics, info, raw
