"""CI gate: fresh benchmark runs vs the committed baselines.

Each row of :data:`GATES` pairs a committed baseline at the repository
root with the bench module that produced it.  For every row the checker
re-measures with the parameters recorded in the baseline's ``meta``
block (``bench.measure_from_meta``), floors each ratio in the baseline's
``guarded`` block at ``baseline * (1 - TOLERANCE)``, and applies the
bench's own hard criteria (``bench.absolute_checks``).  Ratios rather
than absolute numbers are guarded because they cancel most host-speed
variance.  A missing baseline fails the gate.

Run:  python benchmarks/check_comm_regression.py
"""

from __future__ import annotations

import importlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.join(HERE, os.pardir)

#: Allowed fractional drop of a guarded ratio below its baseline.
TOLERANCE = 0.30

#: (committed baseline, bench module that re-measures it).
GATES = (
    ("BENCH_comm.json", "bench_comm_transport"),
    ("BENCH_sched.json", "bench_sched"),
    ("BENCH_tune.json", "bench_tune"),
    ("BENCH_serve.json", "bench_serve"),
    ("BENCH_placement.json", "bench_placement"),
    ("BENCH_scale.json", "bench_scale"),
    ("BENCH_scenarios.json", "bench_scenarios"),
)


def compare(baseline: dict, fresh: dict) -> list[str]:
    """Floor every guarded ratio at baseline * (1 - TOLERANCE)."""
    failures = []
    rows = [f"{'metric':>32} {'baseline':>10} {'fresh':>10} {'floor':>10}  verdict"]
    for key, base_value in sorted(baseline["guarded"].items()):
        fresh_value = fresh["guarded"][key]
        floor = base_value * (1.0 - TOLERANCE)
        ok = fresh_value >= floor
        rows.append(
            f"{key:>32} {base_value:>9.2f}x {fresh_value:>9.2f}x "
            f"{floor:>9.2f}x  {'ok' if ok else 'REGRESSION'}"
        )
        if not ok:
            failures.append(
                f"{key}: {fresh_value:.2f}x is below {floor:.2f}x "
                f"(baseline {base_value:.2f}x - {TOLERANCE:.0%})"
            )
    print("\n".join(rows))
    return failures


def evaluate(baseline: dict, fresh: dict, bench) -> list[str]:
    """Guarded-ratio floors plus the bench's absolute criteria."""
    return compare(baseline, fresh) + bench.absolute_checks(fresh)


def check(name: str, module: str) -> list[str]:
    """Re-measure one baseline and gate the fresh run against it."""
    path = os.path.join(ROOT, name)
    if not os.path.exists(path):
        return [f"{name}: no committed baseline at {os.path.normpath(path)}"]
    with open(path) as fh:
        baseline = json.load(fh)
    bench = importlib.import_module(module)
    fresh = bench.measure_from_meta(baseline["meta"])
    print(bench.render(fresh))
    print()
    return [f"{name}: {failure}" for failure in evaluate(baseline, fresh, bench)]


def main() -> int:
    failures = []
    for name, module in GATES:
        print(f"== {name}")
        failures += check(name, module)
        print()
    if failures:
        print("FAIL:", *failures, sep="\n  ")
        return 1
    print("no regression")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
