"""Bench: the scenario matrix — models x strategies x pipeline schedules.

Runs :func:`repro.scenarios.run_matrix` over the benchmark models
(Table 1 plus DLRM), the five communication strategies and the four
tabular schedules (data-parallel, GPipe, 1F1B, nested EmbRace), then
gates the claims the matrix exists to check:

* **real fidelity** — every strategy with an exact real twin trains
  bit-identically with the communication scheduler on and off, on every
  model in the matrix (the tiny-scale 4-rank backend);
* **nested wins** — the NestPipe-style nested schedule (EmbRace's
  prior/delayed split riding the stage bubbles) yields a lower
  steady-state step time than GPipe's synchronous flush for EmbRace on
  at least ``MIN_NESTED_WINS`` models at paper scale;
* **schedule ordering** — per model, the GPipe-over-nested step-time
  ratio and the data-parallel advantage of EmbRace over the densified
  AllReduce are recorded as guarded ratios for the CI regression gate.

Results land in ``BENCH_scenarios.json`` (see ``--out``); the committed
copy at the repository root is the baseline
``benchmarks/check_comm_regression.py`` diffs against in CI.

Run:  python benchmarks/bench_scenarios.py [--quick] [--out BENCH_scenarios.json]
"""

from __future__ import annotations

import argparse
import json
import os

from repro.scenarios import ScenarioSpec, run_matrix

MODELS = ("LM", "GNMT-8", "Transformer", "BERT-base", "DLRM")
STRATEGIES = (
    "EmbRace", "Horovod-AllReduce", "Horovod-AllGather", "BytePS", "Parallax",
)
SCHEDULES = ("data_parallel", "gpipe", "1f1b", "nested")

#: Nested must beat GPipe for EmbRace on at least this many models.
MIN_NESTED_WINS = 2


def measure(
    models=MODELS,
    strategies=STRATEGIES,
    schedules=SCHEDULES,
    world: int = 8,
    gpu: str = "rtx3090",
    stages: int = 4,
    microbatches: int = 4,
    real: bool = True,
    real_world: int = 4,
    real_steps: int = 3,
) -> dict:
    spec = ScenarioSpec(
        models=tuple(models),
        strategies=tuple(strategies),
        schedules=tuple(schedules),
        world_size=world,
        gpu_kind=gpu,
        n_stages=stages,
        n_microbatches=microbatches,
        validate_real=real,
        real_world_size=real_world,
        real_steps=real_steps,
    )
    report = run_matrix(spec)
    results: dict = {
        "meta": {
            "models": list(models),
            "strategies": list(strategies),
            "schedules": list(schedules),
            "world": world,
            "gpu": gpu,
            "stages": stages,
            "microbatches": microbatches,
            "real": real,
            "real_world": real_world,
            "real_steps": real_steps,
            "cpus": os.cpu_count(),
            "min_nested_wins": MIN_NESTED_WINS,
        },
        "report": report.to_dict(),
        "all_real_identical": all(r.identical for r in report.real_checks),
        "real_checks": len(report.real_checks),
    }
    # Machine-portable ratios for the CI regression gate (floors at
    # baseline * (1 - tolerance); >= 1.0 means the claim holds).
    guarded: dict[str, float] = {}
    nested_wins = []
    for model in models:
        if "gpipe" in schedules and "nested" in schedules and "EmbRace" in strategies:
            gp = report.cell(model, "EmbRace", "gpipe").step_time_s
            ne = report.cell(model, "EmbRace", "nested").step_time_s
            guarded[f"gpipe_over_nested_step:{model}"] = gp / ne if ne > 0 else 1.0
            if ne < gp:
                nested_wins.append(model)
        if (
            "data_parallel" in schedules
            and {"EmbRace", "Horovod-AllReduce"} <= set(strategies)
        ):
            ar = report.cell(model, "Horovod-AllReduce", "data_parallel").step_time_s
            em = report.cell(model, "EmbRace", "data_parallel").step_time_s
            guarded[f"allreduce_over_embrace_dp:{model}"] = (
                ar / em if em > 0 else 1.0
            )
    results["guarded"] = guarded
    results["nested_wins"] = nested_wins
    return results


def render(results: dict) -> str:
    from repro.scenarios import ScenarioReport

    meta = results["meta"]
    report = ScenarioReport.from_dict(results["report"])
    lines = [
        f"scenario matrix benchmark ({len(meta['models'])} models x "
        f"{len(meta['strategies'])} strategies x "
        f"{len(meta['schedules'])} schedules, {meta['cpus']} cpus)",
        "",
        report.render(),
        "",
        f"nested beats gpipe for EmbRace on: "
        f"{', '.join(results['nested_wins']) or '(none)'} "
        f"(gate >= {meta['min_nested_wins']})",
        f"real-backend checks: {results['real_checks']} run, "
        f"all bit-identical = {results['all_real_identical']}",
    ]
    return "\n".join(lines)


def measure_from_meta(meta: dict) -> dict:
    """Re-run :func:`measure` with a baseline's recorded parameters."""
    return measure(
        models=tuple(meta["models"]),
        strategies=tuple(meta["strategies"]),
        schedules=tuple(meta["schedules"]),
        world=meta["world"],
        gpu=meta["gpu"],
        stages=meta["stages"],
        microbatches=meta["microbatches"],
        real=meta["real"],
        real_world=meta["real_world"],
        real_steps=meta["real_steps"],
    )


def absolute_checks(results: dict) -> list[str]:
    """The bench's hard criteria (used on both baseline and fresh runs)."""
    failures = []
    if results["meta"]["real"] and not results["all_real_identical"]:
        failures.append(
            "all_real_identical: a real-backend run diverged between "
            "overlapped and unoverlapped execution (must be bit-identical)"
        )
    wins = len(results["nested_wins"])
    if wins < results["meta"]["min_nested_wins"]:
        failures.append(
            f"nested_wins: the nested schedule beat GPipe for EmbRace on "
            f"only {wins} models "
            f"({results['nested_wins']}); needs >= "
            f"{results['meta']['min_nested_wins']}"
        )
    return failures


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--world", type=int, default=8)
    parser.add_argument("--stages", type=int, default=4)
    parser.add_argument("--microbatches", type=int, default=4)
    parser.add_argument(
        "--quick", action="store_true",
        help="3 models, 3 strategies, 2-stage pipeline, 2 real ranks",
    )
    parser.add_argument("--out", default=None, help="write JSON here")
    args = parser.parse_args()
    kw = dict(
        world=args.world, stages=args.stages, microbatches=args.microbatches
    )
    if args.quick:
        kw.update(
            models=("LM", "GNMT-8", "DLRM"),
            strategies=("EmbRace", "Horovod-AllReduce", "Horovod-AllGather"),
            world=4, stages=2, microbatches=2, real_world=2,
        )

    results = measure(**kw)
    print(render(results))
    failures = absolute_checks(results)
    if failures:
        print("\nFAIL:", *failures, sep="\n  ")
        raise SystemExit(1)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\nwrote {args.out}")


def test_scenarios_quick(benchmark=None):
    """CI smoke: the small matrix holds the absolute criteria (the
    paper-scale claims are asserted by the committed baseline via
    check_comm_regression)."""
    results = measure(
        models=("LM", "GNMT-8", "DLRM"),
        strategies=("EmbRace", "Horovod-AllReduce", "Horovod-AllGather"),
        world=4, stages=2, microbatches=2, real_world=2,
    )
    print()
    print(render(results))
    assert not absolute_checks(results), absolute_checks(results)


if __name__ == "__main__":
    main()
