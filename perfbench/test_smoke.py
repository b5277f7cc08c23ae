"""Smoke test for the benchmark: every workload at minimum size, timed and traced.

    python -m pytest -q perfbench/test_smoke.py

Checks that every metric is printed with its unit, that the JSON result
line follows BENCHMARK.json, and that tracing does not change any output
(losses, predictions, artifacts): the traced run's output digest must
equal the untraced run's.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

COMMON_E2E = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "error_rate": "ratio"}


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", str(trace), "--size", "min"],
        cwd=root, capture_output=True, text=True, timeout=180)


def printed(stdout: str) -> dict:
    """name -> (value, unit) from the `metric` lines, plus the digest."""
    out = {}
    for line in stdout.splitlines():
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            out[name] = (float(value), unit)
        elif line.startswith("info passes="):
            out["digest"] = line.split("digest=")[1]
    return out


@pytest.fixture(scope="module")
def results():
    got = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr[-3000:]
            got[workload, trace] = (json.loads(proc.stdout.strip().splitlines()[-1]),
                                    printed(proc.stdout))
    return got


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_prints_every_end_to_end_metric(results, workload):
    result, lines = results[workload, 0]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    expected = {**COMMON_E2E, **workloads.WORKLOAD_METRICS[workload]}
    for name, unit in expected.items():
        assert lines[name][1] == unit, name
    assert lines["error_rate"][0] == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_metric(results, workload):
    result, lines = results[workload, 1]
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["per_layer"]}
    for m in BENCH["per_layer"]:
        assert lines[m["name"]][1] == m["unit"], m["name"]
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_leaves_outputs_unchanged(results, workload):
    assert results[workload, 0][1]["digest"] == results[workload, 1][1]["digest"]


def test_training_step_is_covered_by_layer_spans(results):
    coverage = results["zoo-train", 1][0]["metrics"]["trace.step_coverage"]["value"]
    assert 0.9 <= coverage <= 1.0


def test_fails_without_the_program():
    bare = ROOT / ".perfbench_work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(bare, WORKLOADS[0], 0)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
