"""Benchmark command for nullproj: one workload, one seed, one run.

    python3 perfbench/run.py --workload sketch_bound --seed 1 --seconds 10 --trace 0

`--trace 0` prints the end-to-end metrics (setup time and memory,
projection and least-squares latency); `--trace 1` runs the same load with
spans around each layer's calls and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The full result, with machine
metadata and, when traced, every span, is written to
`.perfbench_out/<workload>-seed<seed>-trace<t>.json`.

The package is imported from `src/` next to this directory, never from an
installed copy.  Exit codes: 0 when every check passed, 1 when an operation
failed or a check did not hold, 2 for usage errors or a missing package.

`--write-manifest` regenerates `BENCHMARK.json` from `spec.py`;
`--size M N` overrides a workload's dimensions, e.g. to reproduce other
table rows or to make a quick run.
"""

import argparse
import dataclasses
import json
import math
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def limit_blas_threads():
    """Cap BLAS threads at the number of usable cores; must run before numpy loads."""
    cores = nproc()
    for var in BLAS_ENV:
        try:
            wanted = int(os.environ.get(var, cores))
        except ValueError:
            wanted = cores
        os.environ[var] = str(min(max(wanted, 1), cores))


def use_source_tree():
    """Put `src/` first on the import path; False when the package is not there."""
    src = ROOT / "src"
    if not (src / "nullproj" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    return True


def blas_threads():
    """Thread count reported by OpenBLAS itself, else the environment cap."""
    import ctypes

    import numpy as np

    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*")):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return fn()
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def metadata(workload, seed, seconds, trace):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": dataclasses.asdict(workload),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "nproc": nproc(),
        "machine": platform.machine(),
    }


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="measured loop length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, nargs=2, metavar=("M", "N"), help="override m and n")
    parser.add_argument("--write-manifest", action="store_true", help="regenerate BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if not args.write_manifest and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None):
    limit_blas_threads()
    if not use_source_tree():
        print(f"perfbench: no nullproj package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    import spec

    args = parse_args(argv, spec.WORKLOADS)
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec.manifest(), indent=2) + "\n")
        return 0

    import harness
    from nullproj import NullProjError

    wl = spec.WORKLOADS[args.workload]
    if args.size:
        wl = dataclasses.replace(wl, m=args.size[0], n=args.size[1])
    seconds = spec.RUN_SECONDS if args.seconds is None else args.seconds
    meta = metadata(wl, args.seed, seconds, args.trace)
    print("meta " + json.dumps(meta), flush=True)

    run = harness.run_traced if args.trace else harness.run_untraced
    try:
        ledger, metrics, info, raw = run(wl, args.seed, seconds)
    except NullProjError as exc:  # the workload itself could not be made
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    wanted = spec.PER_LAYER if args.trace else spec.END_TO_END
    metrics = {k: v for k, v in metrics.items() if math.isfinite(v)}
    correct = ledger.failed == 0 and all(m.name in metrics for m in wanted)
    for m in wanted:
        print(f"{m.name:42s} {metrics.get(m.name, float('nan')):<24.10g} {m.unit}")
    print(f"{'failed_fraction':42s} {ledger.failed / max(ledger.attempted, 1):<24.10g} "
          f"({ledger.failed} of {ledger.attempted})")
    print("not gated: " + json.dumps(info))
    for msg in ledger.messages:
        print(f"FAILED: {msg}")

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    record = {
        "meta": meta,
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.messages,
        "info": info,
        "metrics": metrics,
        "raw": raw,
    }
    (out / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))

    result = {
        "correct": correct,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "metrics": {m.name: {"value": metrics[m.name], "unit": m.unit} for m in wanted if m.name in metrics},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
