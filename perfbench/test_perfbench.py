"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench -q

Checks that every workload's emitted metric names equal those declared
in ``BENCHMARK.json``; that each correctness check rejects an injected
fault; that the per-layer rows add up to the rank-0 step; and that the
benchmark fails without the program's sources.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
from run import declared_metrics  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
def test_emits_declared_metrics(workload, trace):
    out = _run(workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stdout
    assert result["attempted"] >= 1 and result["failed"] == 0
    units = declared_metrics(bool(trace))
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert NAME.match(name), name
        assert metric["unit"] == units[name]
        assert np.isfinite(metric["value"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_declared_workloads_match():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]), metric["name"]


@pytest.fixture(scope="module")
def tiny_training():
    spec = harness.WORKLOADS["lm-embrace"]
    config = spec.config(harness.TINY)
    pool = harness.open_pool()
    try:
        return harness.train(pool, config, "embrace", 3, 4, trace=True)
    finally:
        pool.close()


@pytest.fixture(scope="module")
def tiny_serve_report():
    config = harness.WORKLOADS["serve-zipf"].config(harness.TINY, seed=3)
    pool = harness.open_pool()
    try:
        return harness.serve(pool, config).report
    finally:
        pool.close()


def test_curve_checks_reject_a_perturbed_loss(tiny_training):
    losses = tiny_training.losses
    assert checks.same_curve(losses, list(losses), "run") == []
    assert checks.descends(losses, "run") == []
    perturbed = list(losses)
    perturbed[1] = float(np.nextafter(perturbed[1], np.inf))
    assert checks.same_curve(losses, perturbed, "run")
    assert checks.descends([losses[0], losses[0]], "run")


def test_serve_check_rejects_torn_and_cancelled(tiny_serve_report):
    from repro.serve import offline_reference

    report = tiny_serve_report
    reference = offline_reference(report.config)[0]
    assert checks.serve_report(report, reference, "run") == []
    assert checks.serve_failures(report, reference) == 0
    torn = dataclasses.replace(report, torn_batches=1)
    assert checks.serve_report(torn, reference, "run")
    assert checks.serve_failures(torn, reference) == 1
    cancelled = dataclasses.replace(report, requests_cancelled=2)
    assert checks.serve_report(cancelled, reference, "run")
    assert checks.serve_failures(cancelled, reference) == 2
    drifted = dataclasses.replace(report, losses=[x * 1.5 for x in report.losses])
    assert checks.serve_report(drifted, reference, "run")
    assert checks.serve_failures(drifted, reference) == report.steps_done


def test_rows_add_up_to_the_step(tiny_training):
    steps = tiny_training.steps
    m, rows, step_ms = layers.trace_metrics(tiny_training.trace, steps)
    assert step_ms > 0 and rows[layers.UNCOVERED] >= 0
    assert sum(rows.values()) == pytest.approx(step_ms, rel=1e-9)
    assert m["step.compute_ms"] + m["step.comm_exposed_ms"] + m[
        "step.uncovered_ms"
    ] == pytest.approx(m["step.ms"], rel=1e-9)


def test_partition_prefers_compute_then_comm():
    def span(name, start, end):
        return SimpleNamespace(name=name, start=start, end=end)

    compute = [span("fwd_bwd", 0.0, 2.0), span("optimizer", 5.0, 6.0)]
    comm = [span("allreduce", 1.0, 3.0), span("allgather", 2.5, 4.0)]
    rows, window = layers.partition(compute, comm)
    assert window == 6.0
    assert rows == {
        "fwd_bwd": 2.0,
        "allreduce (exposed)": 1.0,
        "allgather (exposed)": 1.0,
        "uncovered": 1.0,
        "optimizer": 1.0,
    }


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("lm-embrace", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
