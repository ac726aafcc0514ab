"""The repository benchmark: real-backend training and serving at world 2.

Run from the repository root::

    python3 perfbench/run.py --workload lm-embrace --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload untraced and prints its end-to-end
metrics; ``--trace 1`` runs the traced pass and prints the per-layer
metrics (see ``layers.py``).  Both check the program's outputs and end
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
Metric names and units come from ``BENCHMARK.json`` at the root; a run
whose metrics differ from the declared set fails.  Run conditions (CPUs,
BLAS threads, CPU steal, versions) are printed on the ``conditions``
line just before the result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def declared_metrics(trace: bool) -> dict[str, str]:
    """Declared metric name -> unit for one pass."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(outcome, units: dict[str, str]) -> str:
    """The final JSON line; raises if the metrics differ from ``units``."""
    if set(outcome.metrics) != set(units):
        missing = sorted(set(units) - set(outcome.metrics))
        extra = sorted(set(outcome.metrics) - set(units))
        raise RuntimeError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    return json.dumps(
        {
            "correct": not outcome.problems,
            "attempted": int(outcome.attempted),
            "failed": int(outcome.failed),
            "metrics": {
                name: {"value": float(outcome.metrics[name]), "unit": unit}
                for name, unit in units.items()
            },
        }
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from conditions import WORLD, Conditions, pin_threads

    pinned = pin_threads(WORLD)  # before anything imports numpy
    sys.path.insert(0, str(ROOT / "src"))
    import endtoend
    import harness
    import layers

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(harness.WORKLOADS)}")
    spec = harness.WORKLOADS[args.workload]
    size = harness.FULL if args.size == "full" else harness.TINY
    units = declared_metrics(bool(args.trace))

    conditions = Conditions(args.workload, args.seed, WORLD, pinned)
    conditions.start()
    if args.trace:
        outcome = layers.measure(spec, args.workload, args.seed, size)
    else:
        outcome = endtoend.measure(spec, args.seed, args.seconds, size)
    recorded = conditions.finish()

    for line in outcome.lines:
        print(line)
    for problem in outcome.problems:
        print(f"INCORRECT: {problem}")
    for name, unit in units.items():
        print(f"{name:>48} {outcome.metrics.get(name, float('nan')):14.6g} {unit}")
    print("conditions " + json.dumps(recorded))
    for flag in recorded["flags"]:
        print(f"WARNING: {flag}; this run is not a result")
    print(result_line(outcome, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
