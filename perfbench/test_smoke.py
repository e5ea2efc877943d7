"""Smoke tests for the benchmark itself, at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "main-tiny": workloads.verify_spec("main", 4),
    "w0k-tiny": workloads.verify_spec("w0k", 4),
    "fk-tiny": workloads.verify_spec("fk", 6),
    "products-tiny": workloads.products_spec(3),
}


def _declared(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_reports_every_metric_with_its_unit(name, trace):
    result = run.run_workload(name, TINY[name], seed=3, seconds=0, trace=trace)
    assert result["correct"], result["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == _declared("per_layer" if trace else "end_to_end")
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        assert result["metrics"]["trace.wall_s"]["value"] > 0


def test_wrong_expected_list_counts_as_failed():
    spec = workloads.verify_spec("main", 4)
    spec["expected"] = spec["expected"][1:] + ["main(k=9,n=0)"]
    result = run.run_workload("main-wrong", spec, seed=3, seconds=0, trace=False)
    assert not result["correct"]
    # one expected check missing from the list shows up as unexpected,
    # and the one added to it is never reported
    assert result["failed"] == 2
    assert result["failed"] / result["attempted"] > 0


def test_named_workloads_expect_the_documented_check_counts():
    counts = {name: len(spec["expected"]) for name, spec in run.WORKLOADS.items() if "expected" in spec}
    assert counts == {"main-r7": 28, "w0k-r10": 10, "fk-r12": 12}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_expressions_depend_only_on_the_seed():
    a = workloads.generate_expressions(7, 50, batch=2)
    assert a == workloads.generate_expressions(7, 50, batch=2)
    assert a != workloads.generate_expressions(8, 50, batch=2)
    assert a != workloads.generate_expressions(7, 50, batch=3)
    lo, hi = workloads.DESCENT_WINDOW
    for item in a:
        assert item["rank"] in (5, 6)
        assert lo <= workloads.descent_count([(item["letters"], 1)], item["rank"]) <= hi


def test_pinned_invariants_detect_a_change():
    pinned = json.loads((HERE / "invariants.json").read_text())["main-r7"]
    per_check = {}
    for key, values in pinned["per_check"].items():
        for cid, v in values.items():
            per_check.setdefault(cid, {})[key] = v
    traced = {"per_check": per_check, "layers": dict(pinned["totals"])}
    assert run._invariant_mismatches("main-r7", traced) == []
    per_check["main(k=5,n=2)"]["hecke.coset_terms"] += 1
    assert run._invariant_mismatches("main-r7", traced)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "main-r7", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
