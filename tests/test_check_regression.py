"""The benchmark regression checker, fed synthetic fresh results.

No benchmark runs here: every case hands the checker a fresh dict built
from a committed ``BENCH_*.json`` baseline, so the gate logic is pinned
without touching the wall clock.
"""

from __future__ import annotations

import copy
import glob
import importlib
import json
import os
import sys

import pytest

BENCH_DIR = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks")
)
sys.path.insert(0, BENCH_DIR)

import check_comm_regression as checker  # noqa: E402

GATE_IDS = [name for name, _ in checker.GATES]

#: One injected violation of each bench's absolute criteria:
#: (bench module, dotted path into the fresh dict, bad value).
VIOLATIONS = [
    ("bench_comm_transport", "zero_alloc.numpy_alloc_count", 3),
    ("bench_comm_transport", "sparse_adaptive.wins", 1),
    ("bench_sched", "losses_identical", False),
    ("bench_tune", "losses_identical", False),
    ("bench_serve", "losses_identical", False),
    ("bench_serve", "torn_batches", 1),
    ("bench_placement", "losses_identical", False),
    ("bench_placement", "torn_batches", 1),
    ("bench_scale", "losses_identical", False),
    ("bench_scenarios", "all_real_identical", False),
]


def _baseline(name: str) -> dict:
    with open(os.path.join(checker.ROOT, name)) as fh:
        return json.load(fh)


def _gate(name: str):
    module = dict(checker.GATES)[name]
    return _baseline(name), importlib.import_module(module)


def _committed() -> list[str]:
    return sorted(
        os.path.basename(p)
        for p in glob.glob(os.path.join(checker.ROOT, "BENCH_*.json"))
    )


def test_every_committed_baseline_is_gated():
    assert sorted(GATE_IDS) == _committed()


@pytest.mark.parametrize("name", GATE_IDS)
def test_fresh_equal_to_baseline_passes(name):
    baseline, bench = _gate(name)
    assert checker.evaluate(baseline, copy.deepcopy(baseline), bench) == []


@pytest.mark.parametrize("name", GATE_IDS)
def test_guarded_ratio_floor_is_thirty_percent(name):
    baseline, bench = _gate(name)
    for key, value in baseline["guarded"].items():
        fresh = copy.deepcopy(baseline)
        fresh["guarded"][key] = value * 0.69
        failures = checker.evaluate(baseline, fresh, bench)
        assert len(failures) == 1 and failures[0].startswith(f"{key}: ")
        fresh["guarded"][key] = value * 0.71
        assert checker.evaluate(baseline, fresh, bench) == []


def test_gated_keys_are_the_union_of_guarded_blocks():
    gated = set()
    for name, _ in checker.GATES:
        baseline = _baseline(name)
        fresh = copy.deepcopy(baseline)
        fresh["guarded"] = {key: 0.0 for key in baseline["guarded"]}
        gated |= {f.split(": ")[0] for f in checker.compare(baseline, fresh)}
    union = set()
    for name in _committed():
        union |= set(_baseline(name)["guarded"])
    assert gated == union


@pytest.mark.parametrize(
    "module,path,value",
    VIOLATIONS,
    ids=[f"{module}-{path}" for module, path, _ in VIOLATIONS],
)
def test_absolute_checks_report_injected_violation(module, path, value):
    name = next(n for n, m in checker.GATES if m == module)
    baseline, bench = _gate(name)
    fresh = copy.deepcopy(baseline)
    *parents, leaf = path.split(".")
    target = fresh
    for part in parents:
        target = target[part]
    target[leaf] = value
    failures = checker.evaluate(baseline, fresh, bench)
    assert len(failures) == 1 and failures[0].startswith(parents[0] if parents else leaf)


def test_missing_baseline_fails(monkeypatch, tmp_path):
    monkeypatch.setattr(checker, "ROOT", str(tmp_path))
    failures = checker.check("BENCH_comm.json", "bench_comm_transport")
    assert len(failures) == 1 and "no committed baseline" in failures[0]
