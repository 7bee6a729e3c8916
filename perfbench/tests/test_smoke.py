"""Smoke test of the benchmark on its smallest inputs.

    python3 -m pytest perfbench/tests -q

Each run must end with the JSON result line, report every metric named in
BENCHMARK.json, and find every operation correct.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "1",
         *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_tiny_run(workload):
    proc = run("--workload", workload, "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = {m["name"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == names
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_tiny_run():
    proc = run("--workload", "f4-session", "--trace", "1", "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    declared = {m["name"] for m in SPEC["per_layer"]}
    # the tiny probe skips the larger ranks and most CLI calls
    assert set(result["metrics"]) <= declared
    assert result["metrics"]["duality.calls"]["value"] > 0


def test_fails_without_sources():
    bare = ROOT / ".perfbench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("--workload", "f4-cli", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
