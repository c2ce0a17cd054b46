"""The benchmark at tiny sizes: every workload runs and checks its outputs.

Only correctness is asserted, never a timing. The tables workload compares
the SHA-256 of every CLI output with bench/tables_sha256.json, so this also
holds the table commands to byte-identical output. The traced run checks
that every per-layer metric is still measured, which needs each traced
layer to be reached: for instance, grid_minimize must refine with
single-angle (float) energy calls.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["pointwise", "certify", "verify", "tables"])
def test_workload_runs_correctly(workload):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", "0", "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1


def test_traced_run_measures_every_layer():
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "certify",
           "--seed", "1", "--seconds", "1", "--trace", "1", "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} <= set(result["metrics"])
