"""Tests of the benchmark itself, at tiny sizes: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import ledger  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path, root: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def test_benchmark_json_matches_the_code():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == ledger.PER_LAYER
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, tmp_path):
    proc = _run(workload, trace, tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    human = "\n".join(lines[:-1])
    for m in expected:
        assert any(line.split()[:1] == [m["name"]] and m["unit"] in line.split()
                   for line in human.splitlines()), m["name"]
    for name in ("rmsd_A", "error_rate", "# environment"):
        assert name in human
    if trace:
        spans = next(tmp_path.glob(".perfbench/*/spans.jsonl"))
        check = subprocess.run(
            [sys.executable, "-m", "repro.obs.validate", str(spans), "--expect-name",
             "solver.cycle"], capture_output=True, text=True,
            env={"PYTHONPATH": str(ROOT / "src")}, timeout=60,
        )
        assert check.returncode == 0, check.stderr


@pytest.mark.parametrize("workload, corrupt", [
    ("helix-serial", "posterior"),
    ("helix-edits", "dirty-full"),
])
def test_corrupted_output_counts_as_failed(workload, corrupt, tmp_path):
    runner = workloads.Runner(workloads.WORKLOADS[workload], 3, 0.1, False, scale="tiny",
                              out_dir=tmp_path, corrupt=corrupt)
    result = runner.run()
    assert result.failed >= 1
    assert any(line.startswith("FAILED") for line in result.notes) or result.failures
    clean = workloads.Runner(workloads.WORKLOADS[workload], 3, 0.1, False, scale="tiny",
                             out_dir=tmp_path).run()
    assert clean.failed == 0, clean.failures


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("helix-serial", 0, tmp_path, root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
