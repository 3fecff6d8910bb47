"""Toy-size smoke test: every workload, both modes, against BENCHMARK.json."""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from benchlib import WORKLOADS
from benchlib.metrics import END_TO_END, PER_LAYER

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_declared_workloads_and_metrics_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_declared_metric_is_emitted(workload, trace):
    proc = run(
        "--workload", workload, "--seed", "5", "--seconds", "1",
        "--trace", str(trace), "--size", "toy",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    assert set(result["metrics"]) == set(units), "undeclared or missing metric"
    for name, entry in result["metrics"].items():
        assert NAME.fullmatch(name)
        assert entry == {"value": entry["value"], "unit": units[name]}
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])
    if trace:
        notes = next(line for line in proc.stdout.splitlines() if line.startswith("notes "))
        assert json.loads(notes[len("notes "):])["traced_results_unchanged"] is True


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: non-zero, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"),
    )
    proc = run(
        "--workload", "q3-dense-local", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
