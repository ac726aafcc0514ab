"""The untraced pass: end-to-end metrics of one workload.

Each run sets up ``size.setups`` rank pools (open the pool, then a
warm-up call that forks the ranks, links shm and makes the first-step
allocations) and reports the median set-up time as ``setup_s``.  The
pools then take turns repeating the workload's timed call until
``seconds`` are spent, and the metrics are medians over those
repetitions.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median

import numpy as np

import checks
from conditions import Stopwatch
from harness import Serving, Size, Training, open_pool, serve, train
from repro.serve import offline_reference


@dataclass
class Outcome:
    metrics: dict[str, float]
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)


def _repeat(call, pools: list, seconds: float, min_reps: int) -> list:
    """Call ``call(pool)`` until ``seconds`` are spent (at least
    ``min_reps`` times), taking the pools in turn so no one pool's
    placement weighs on the median; a repetition starts only if it
    should end within budget."""
    reps = []
    t0 = time.perf_counter()
    while len(reps) < min_reps or (
        time.perf_counter() - t0 + reps[-1].elapsed <= seconds
    ):
        reps.append(call(pools[len(reps) % len(pools)]))
    return reps


@contextmanager
def _set_up(size: Size, warm_up):
    """Open ``size.setups`` pools, each followed by ``warm_up(pool)``.

    Yields the open pools, each set-up's time and the warm-up results;
    closes the pools on exit.
    """
    pools, times, warm = [], [], []
    try:
        for _ in range(size.setups):
            with Stopwatch() as clock:
                pools.append(open_pool())
                warm.append(warm_up(pools[-1]))
            times.append(clock.seconds)
        yield pools, times, warm
    finally:
        for pool in pools:
            pool.close()


def measure_training(spec: Training, seed: int, seconds: float, size: Size) -> Outcome:
    config, steps = spec.config(size), size.steps
    other = "allgather" if spec.strategy == "embrace" else "embrace"
    with _set_up(
        size, lambda p: train(p, config, spec.strategy, seed, size.warmup_steps)
    ) as (pools, setup_times, warm):
        reps = _repeat(
            lambda p: train(p, config, spec.strategy, seed, steps),
            pools,
            seconds,
            size.min_reps,
        )
        cross = train(pools[0], config, other, seed, size.cross_steps)

    reference = reps[0].losses
    problems: list[str] = []
    attempted = failed = 0
    for i, run in enumerate(warm + reps):
        what = f"warm-up {i}" if i < len(warm) else f"repetition {i - len(warm)}"
        bad = checks.same_curve(reference, run.losses, what)
        if i >= len(warm):
            bad += checks.descends(run.losses, what)
        attempted += run.steps
        failed += run.steps if bad else 0
        problems += bad
    bad = checks.same_curve(reference, cross.losses, f"{other} cross-check")
    attempted += cross.steps
    failed += cross.steps if bad else 0
    problems += bad

    metrics = {
        "tokens_per_s": median(r.tokens_per_s for r in reps),
        "wire_mb_per_step": median(r.wire_mb_per_step for r in reps),
        "setup_s": median(setup_times),
    }
    lines = [
        f"{len(reps)} repetitions x {steps} steps, {spec.strategy}: tokens/s "
        + " ".join(f"{r.tokens_per_s:.1f}" for r in reps),
        "  wall-clock tokens/s " + " ".join(f"{r.tokens / r.elapsed:.1f}" for r in reps),
        "set-up s: " + " ".join(f"{t:.3f}" for t in setup_times),
        f"losses {reference[0]:.6f} -> {reference[-1]:.6f}; "
        f"{other} cross-check over {cross.steps} steps",
    ]
    return Outcome(metrics, attempted, failed, problems, lines)


def measure_serving(spec: Serving, seed: int, seconds: float, size: Size) -> Outcome:
    config = spec.config(size, seed)
    warm_config = spec.config(size, seed, warmup=True)
    with _set_up(size, lambda p: serve(p, warm_config)) as (pools, setup_times, warm):
        reps = _repeat(lambda p: serve(p, config), pools, seconds, size.min_reps)

    problems: list[str] = []
    attempted = failed = 0
    for runs, cfg, what in ((warm, warm_config, "warm-up"), (reps, config, "repetition")):
        reference = offline_reference(cfg)[0]
        for i, run in enumerate(runs):
            report = run.report
            bad = checks.serve_report(report, reference, f"{what} {i}")
            attempted += cfg.total_requests + cfg.train_steps
            failed += checks.serve_failures(report, reference)
            problems += bad

    latencies = np.concatenate([np.asarray(r.report.latencies_s) for r in reps]) * 1e3
    p50, p99 = np.percentile(latencies, [50, 99])
    metrics = {
        "tokens_per_s": median(r.tokens_per_s for r in reps),
        "wire_mb_per_step": median(r.wire_mb_per_step for r in reps),
        "setup_s": median(setup_times),
    }
    lines = [
        f"{len(reps)} repetitions x {config.total_requests} lookups "
        f"(+{config.train_steps} online steps): ids/s "
        + " ".join(f"{r.tokens_per_s:.0f}" for r in reps),
        "  online steps/s " + " ".join(f"{r.steps_per_s:.1f}" for r in reps),
        "  share of wall time stolen by the host "
        + " ".join(f"{1 - r.seconds / r.elapsed:.3f}" for r in reps),
        f"lookup latency over {latencies.size} requests: p50 {p50:.3f} ms, "
        f"p99 {p99:.3f} ms ({int((latencies > p99).sum())} beyond p99); "
        f"QPS while the clients were active {median(r.qps for r in reps):.1f}",
        "set-up s: " + " ".join(f"{t:.3f}" for t in setup_times),
    ]
    return Outcome(metrics, attempted, failed, problems, lines)


def measure(spec, seed: int, seconds: float, size: Size) -> Outcome:
    if isinstance(spec, Training):
        return measure_training(spec, seed, seconds, size)
    return measure_serving(spec, seed, seconds, size)
