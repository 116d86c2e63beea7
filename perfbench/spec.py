"""What the benchmark measures: workloads, metric names and their bounds.

`BENCHMARK.json` at the repository root is generated from this module
(`python3 perfbench/run.py --write-manifest`), and a test checks that the
two agree, so a metric is renamed or added here and nowhere else.
"""

from dataclasses import dataclass

RUN_SECONDS = 8
SETUP_REPEATS = 3  # timed builds per run; setup_s is their median
MIN_PROJECTIONS = 200  # p95 needs ten samples beyond it
MIN_LSTSQ = 200
PROJECTIONS_PER_LSTSQ = 4  # operation mix of the closed loop
CHECK_EVERY = 10  # delta/eps checked on every 10th projection and every 10th lstsq
ERROR_TOL = 1e-13  # delta/kappa and eps/kappa, pinned by acceptance criteria 06-09
COND_FACTOR = 10  # paper bound cond(P^-1 A) <= 10 l


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a synthetic operator, a stream and why it is here.

    `family` is "sparse" (circulant blocks under permutations) or "dense"
    (sparse plus a rank-10 update); `stream` is "lfg" or "gauss".
    """

    name: str
    family: str
    m: int
    n: int
    kappa: float
    stream: str
    why: str
    moves: str  # which layers dominate here, so a later change knows what should move

    @property
    def l(self):
        return self.m + 4


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sketch_bound",
            family="sparse",
            m=100,
            n=100_000,
            kappa=1e8,
            stream="lfg",
            why="ROADMAP target size (100, 1e5): setup is mostly the rng stream, projection is split between linop applies and the chain",
            moves="A stream or apply optimisation should move setup_s and project_s_* here.",
        ),
        Workload(
            name="dense_bound",
            family="sparse",
            m=400,
            n=4000,
            kappa=1e8,
            stream="lfg",
            why="large m, small n: setup is Gram, QR and inverse in dense_core/precond, projection is the m=400 triangular-solve chain",
            moves="A dense-kernel optimisation should move setup_s and project_s_* here and not on sketch_bound; a stream one should not move this workload.",
        ),
        Workload(
            name="gauss_refine",
            family="dense",
            m=100,
            n=20_000,
            kappa=1e12,
            stream="gauss",
            why="dense rank-10 operator, polar Gaussian stream and refined least squares: the other code paths through rng, linop and projector",
            moves="A gain for the LFG stream or for project that costs the Gaussian, BLAS-operator or refinement path shows up here.",
        ),
    )
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str = "lower"
    bound: float = None  # end-to-end metrics only


# Latency is gated at p95, not p50.  The 2-core host the benchmark was
# written on alternates between two speeds about 1.8x apart, for tens of
# seconds at a time, so a run's median lands in either.  In two sets of ten
# seeds per workload the spread (quartile distance over median) was
# 0.12-0.45 for p50 and 0.05-0.19 for p95.  The medians are still printed.
END_TO_END = (
    Metric("setup_s", "s", bound=0.25),
    Metric("setup_peak_mib", "MiB", bound=0.05),
    Metric("project_s_p95", "s", bound=0.25),
    Metric("lstsq_s_p95", "s", bound=0.25),
)

PER_LAYER = (
    Metric("rng.fill_column_s", "s"),
    Metric("rng.values_per_build", "count"),
    Metric("rng.lfg_column_s", "s"),
    Metric("rng.gauss_column_s", "s"),
    Metric("linop.apply_s", "s"),
    Metric("linop.apply_adjoint_s", "s"),
    Metric("linop.build_applies", "count"),
    Metric("linop.build_adjoint_applies", "count"),
    Metric("linop.project_applies", "count"),
    Metric("linop.project_adjoint_applies", "count"),
    Metric("precond.sketch_s", "s"),
    Metric("precond.sketch_self_s", "s"),
    Metric("precond.gram_s", "s"),
    Metric("precond.gram_self_s", "s"),
    Metric("precond.sketch_attempts", "count"),
    Metric("precond.cond_estimate", "ratio"),
    Metric("dense_core.qr_s", "s"),
    Metric("dense_core.invert_s", "s"),
    Metric("dense_core.solve_upper_s", "s"),
    Metric("dense_core.solve_upper_adjoint_s", "s"),
    Metric("projector.project_s", "s"),
    Metric("projector.project_self_s", "s"),
    Metric("projector.refine_iter_s", "s"),
    Metric("projector.randomized_setup_s", "s"),
    Metric("projector.classical_setup_s", "s"),
    Metric("projector.classical_project_s", "s"),
    Metric("projector.setup_vs_classical", "ratio"),
    Metric("diagnostics.delta_rand_over_kappa_max", "ratio"),
    Metric("diagnostics.eps_rand_over_kappa_max", "ratio"),
    Metric("diagnostics.delta_norm_over_kappa_max", "ratio"),
    Metric("diagnostics.eps_norm_over_kappa_max", "ratio"),
    Metric("trace.overhead_s", "s"),
)


def manifest():
    """The content of BENCHMARK.json, as a dict."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in END_TO_END
        ],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER],
    }
