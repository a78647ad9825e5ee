"""The benchmark's own test: one small task per workload.

    python3 -m pytest bench/test_bench.py

Checks that every metric of BENCHMARK.json is printed with its unit, and
that a deliberately wrong expected answer is counted as a failure.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# prove_numeric is not in BENCHMARK.json but stays runnable by hand
WORKLOADS = ["prove_symbolic", "prove_numeric", "solve_search"]


def run(workload, *extra):
    got = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0", "--smoke", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert got.returncode == 0, got.stderr
    return json.loads(got.stdout.strip().splitlines()[-1])


def units(metric_list):
    return {m["name"]: m["unit"] for m in metric_list}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_printed(workload):
    result = run(workload, "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_printed(workload):
    result = run(workload, "--trace", "1")
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == units(SPEC["per_layer"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_expected_answer_counts_as_failed(workload):
    result = run(workload, "--trace", "0", "--negate-expected")
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1
    assert result["metrics"]["passed_frac"]["value"] == 0.0


def test_refuses_without_sources(tmp_path):
    """Run from a tree that holds only the benchmark: non-zero exit, no
    result line."""
    bench = tmp_path / "bench"
    bench.mkdir()
    for f in (ROOT / "bench").glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    got = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert got.returncode != 0
    assert got.stdout.strip() == ""
