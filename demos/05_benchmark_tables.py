"""Reproducing the benchmark table structure at desk scale.

Each row: build the operator, time classical setup/projection (s_pre,
s_pro) and randomized setup/projection (t_pre, t_pro), then report the
worst annihilation (delta) and idempotence (epsilon) errors over many
random unit vectors, everything divided by kappa.

The same harness drives the CLI:  nullproj-bench --m 100 --n 3000
--kappa 1e8 --format md --table errors
"""

from nullproj import TrialConfig, emit_report, run_trial

# a kappa sweep at fixed desk-scale dimensions, 25 vectors per row
rows = [
    run_trial(TrialConfig(m=40, n=2000, kappa=kappa, trials=25, seed=0))
    for kappa in (1e4, 1e6, 1e8, 1e10, 1e12)
]

print("error table (worst case over 25 unit vectors per row):\n")
print(emit_report(rows, "md", "errors"))
print("timing table (seconds):\n")
print(emit_report(rows, "md", "timings"))

# the CSV form round-trips exactly and carries every field, including the
# measured apply counts
print("full CSV record of the first row:\n")
print(emit_report(rows[:1], "csv"))
