"""Smoke test of the benchmark's own code: every workload at tiny scale,
with all result checks on.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parents[1]
ROOT = PERF.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, cwd=ROOT, env=None):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--trace", str(trace), "--quick"],
        capture_output=True, text=True, cwd=cwd, timeout=300,
        env=None if env is None else dict(os.environ, **env),
    )
    return out


def result(out):
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"], out.stdout
    assert res["failed"] == 0 and res["attempted"] >= 1
    return res


def counter_lines(stdout):
    return [line for line in stdout.splitlines() if "work counters" in line]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_end_to_end_metrics(workload):
    res = result(run(workload, 0))
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_repeat_their_work_counters(workload):
    first, second = run(workload, 1), run(workload, 1)
    a, b = result(first), result(second)
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in a["metrics"].items()} == want
    assert counter_lines(first.stdout) == counter_lines(second.stdout)
    assert len(counter_lines(first.stdout)) == 2
    calls = [k for k in want if k.endswith(".calls")]
    calls += ["search.evaluations", "serve.journal_writes"]
    assert {k: a["metrics"][k] for k in calls} == {
        k: b["metrics"][k] for k in calls
    }
    assert "attribution check" in first.stdout


def test_attribution_check_fails_without_a_wrapper():
    """With ``ErrorEstimator.execute`` unwrapped, its time is left in the
    ``bench.op`` self time and the traced run must fail its check."""
    out = run("estimate-warm", 1, env={"PERFBENCH_UNWRAP": "core.execute"})
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert not res["correct"] and res["failed"] >= 1
    assert "time unattributed" in out.stdout


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run must fail
    without printing a result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERF, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run(WORKLOADS[0], 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
