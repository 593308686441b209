"""Smoke test of the benchmark itself, at the tiny size.

    python3 -m pytest -q perfbench/test_smoke.py

For each workload, an untraced and a traced run must emit every metric
BENCHMARK.json declares, with its unit; every verdict must equal its known
answer; and the traced run must reproduce the untraced residuals bit for
bit.  A copy holding only the benchmark, without the package, must fail.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, workload, trace, seed=7):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric_and_passes(workload, trace):
    r = _run(ROOT, workload, trace)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    assert result["failed"] == 0, r.stderr
    assert result["correct"] is True, r.stderr
    assert result["attempted"] >= 1
    notes = json.loads(next(l for l in lines if l.startswith(f"{workload} notes "))
                       .split(" ", 2)[2])
    assert notes["fail_ratio"] == 0.0
    if trace:
        assert notes["transparent"] is True
        assert notes["tiny_failed"] == 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    r = _run(tmp_path, "sweep", 0)
    assert r.returncode != 0
    assert '"correct"' not in r.stdout
