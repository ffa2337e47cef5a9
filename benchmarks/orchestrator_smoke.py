"""Orchestrator crash/resume smoke: kill a plan mid-run, resume it.

The end-to-end durability check behind the run store:

1. run a small two-scenario plan uninterrupted (the reference);
2. launch the *same* plan against a fresh store in a subprocess with
   ``REPRO_SEARCH_CRASH_AFTER=N`` — the search SIGKILLs its own process
   after ``N`` computed candidate evaluations (right after their
   checkpoint lands), simulating an OOM kill / CI timeout at the worst
   possible moment;
3. resume the killed plan in-process and assert every scenario's Pareto
   front **and full evaluation history** are bit-identical to the
   reference, with strictly fewer candidates recomputed than the
   reference evaluated.

Run as a script (CI job)::

    PYTHONPATH=src python benchmarks/orchestrator_smoke.py --crash-after 5

Under ``pytest benchmarks/`` the same flow runs as a test.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import List, Optional

_REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.search import SearchOrchestrator  # noqa: E402

#: two scenarios, sized so the smoke stays fast while the kill lands
#: mid-plan with real checkpointed state behind it
PLAN = {
    "defaults": {"seed": 0},
    "entries": [
        {
            "scenario": "blackscholes",
            "budget": 10,
            "strategies": ["greedy", "delta"],
            "scenario_args": {"n_points": 2, "n_samples": 16},
        },
        {
            "scenario": "kmeans",
            "budget": 8,
            "strategies": ["greedy", "delta"],
            "scenario_args": {"size": 12, "n_workloads": 2},
        },
    ],
}


def _front(result) -> List[tuple]:
    return [(p.key, p.error, p.cycles) for p in result.front.points]


def _trace(result) -> List[tuple]:
    return [
        (c.key, c.error, c.cycles, c.point_errors, c.strategy, c.index)
        for c in result.evaluations
    ]


def run_crash_resume(crash_after: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        ref_store = tmp_path / "ref-store"
        crash_store = tmp_path / "crash-store"
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps(PLAN))

        # 1. uninterrupted reference
        ref = SearchOrchestrator.from_plan(PLAN, store=ref_store)
        ref_runs = ref.run()
        assert ref.ok, [r.error for r in ref_runs]

        # 2. the same plan, SIGKILLed after `crash_after` evaluations
        env = dict(
            os.environ,
            PYTHONPATH=str(_REPO_ROOT / "src"),
            REPRO_SEARCH_CRASH_AFTER=str(crash_after),
        )
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro", "plan",
                "--plan", str(plan_file), "--store", str(crash_store),
            ],
            env=env, capture_output=True, text=True, timeout=600,
        )
        assert proc.returncode == -signal.SIGKILL, (
            f"expected the child to be SIGKILLed, got rc="
            f"{proc.returncode}\n{proc.stderr}"
        )
        from repro.search import RunStore

        partial = RunStore(crash_store).list_runs()
        assert partial and not any(m["completed"] for m in partial), (
            "the killed plan left no partial run behind"
        )
        n_checkpointed = sum(
            len(RunStore(crash_store).load_records(m["run_id"]))
            for m in partial
        )
        assert n_checkpointed >= crash_after

        # 3. resume and compare
        res = SearchOrchestrator.from_plan(PLAN, store=crash_store)
        res_runs = res.run()
        assert res.ok, [r.error for r in res_runs]
        total_recomputed = 0
        for a, b in zip(ref_runs, res_runs):
            assert _front(a.result) == _front(b.result), (
                f"{a.entry.scenario}: resumed front differs"
            )
            assert _trace(a.result) == _trace(b.result), (
                f"{a.entry.scenario}: resumed history differs"
            )
            total_recomputed += b.result.stats["run_store"]["computed"]
        total_ref = sum(r.result.n_evaluated for r in ref_runs)
        assert total_recomputed < total_ref, (
            "resume recomputed the whole plan"
        )
        return {
            "crash_after": crash_after,
            "checkpointed_before_kill": n_checkpointed,
            "reference_evaluations": total_ref,
            "resumed_recomputed": total_recomputed,
            "fronts_bit_identical": True,
        }


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--crash-after", type=int, default=5,
        help="SIGKILL the child plan after this many computed "
             "candidate evaluations",
    )
    args = ap.parse_args(argv)
    summary = run_crash_resume(args.crash_after)
    print(
        f"killed after {summary['checkpointed_before_kill']} "
        f"checkpointed evaluations; resume recomputed "
        f"{summary['resumed_recomputed']}/"
        f"{summary['reference_evaluations']} — fronts bit-identical"
    )
    return 0


# -- pytest smoke version -----------------------------------------------------


def test_orchestrator_crash_resume():
    summary = run_crash_resume(crash_after=4)
    assert summary["fronts_bit_identical"]
    assert (
        summary["resumed_recomputed"] < summary["reference_evaluations"]
    )


if __name__ == "__main__":
    raise SystemExit(main())
