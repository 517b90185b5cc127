"""Smoke test of the benchmark: every workload at toy size, untraced and
traced, reports every metric BENCHMARK.json names, with its unit, and no op
fails.  Takes a few seconds."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from workloads import count_partitions

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, *args):
    return subprocess.run(
        [sys.executable, str(cwd / HERE.name / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_toy_run_reports_every_metric(workload, trace):
    proc = run(ROOT, "--workload", workload, "--seed", "3", "--seconds",
               "0.1", "--trace", str(trace), "--size", "toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], proc.stdout
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in spec})
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_without_source_tree_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, "--workload", "scan", "--seed", "1", "--seconds",
               "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_partition_count_oracle():
    assert count_partitions(9, 3, 4) == 1855  # d=3, r=3
    assert count_partitions(7, 3, 3) == 175  # d=2, r=3
    for d in range(1, 10):
        assert count_partitions(d + 2, 2, d + 1) == 2 ** (d + 1) - 1
