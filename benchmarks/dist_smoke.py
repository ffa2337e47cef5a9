"""Distributed-fleet smoke: SIGKILL a worker, steal its lease, finish.

The fleet's contract is that worker death and lease-layer corruption
change *who* computes, never *what* is computed: shard runs are
content-addressed, checkpoints are atomic prefixes of a deterministic
order, and leases only minimize duplicate work.  This smoke proves it
in three phases:

1. **Reference** — the 3-shard plan executed serially in one process,
   fault-free; stored records and the elected winner front captured;
2. **Fleet under fire** — the same plan under a 3-worker fleet where
   worker 0 ``SIGKILL``s itself mid-entry (two computed candidates
   after its last checkpoint, via the ``REPRO_SEARCH_CRASH_AFTER``
   seam) and every worker runs a seeded fault plan tearing its second
   lease acquire — the torn lease is unreadable to everyone, so it is
   stolen like an expired one;
3. **Verdict** — the fleet completed, at least one lease was stolen,
   and every shard run's records *and* the elected front are
   bit-identical to the uninterrupted serial reference.

Every wait is deadline-bounded — the smoke fails structurally, it
never hangs.  Run as a script (exit 0 = pass)::

    PYTHONPATH=src python benchmarks/dist_smoke.py

or under pytest, which wraps the same flow in a test function.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional

_REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_REPO_ROOT / "src"))

ENTRY = {"scenario": "kmeans", "scenario_args": {"size": 8}}
DEFAULTS = {"budget": 6, "strategies": ["greedy"]}
SHARDS = 3
WORKERS = 3

#: each worker tears its second lease acquire: the worker that "wins"
#: that claim holds an unreadable lease every contender treats as
#: stealable — the claim layer's own corruption mode, injected
LEASE_CHAOS = {
    "seed": 99,
    "faults": [
        {"site": "lease.acquire", "kind": "torn", "nth": [2]},
    ],
}


def run_smoke(verbose: bool = True) -> None:
    from repro import RunStore, Session, SessionConfig, faults
    from repro.dist.fleet import elect_front, run_fleet
    from repro.search.orchestrator import (
        PlanEntry,
        app_scenarios,
        shard_entries,
    )

    def say(msg: str) -> None:
        if verbose:
            print(f"dist-smoke: {msg}", flush=True)

    faults.disable()
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)

        # ---- phase 1: serial single-process reference -------------------
        t0 = time.perf_counter()
        ref_store = RunStore(tmp_path / "ref")
        ref_sess = Session(store=ref_store)
        sharded = shard_entries(
            [PlanEntry.from_dict(ENTRY)], SHARDS, default_seed=0
        )
        for entry in sharded:
            merged = dict(DEFAULTS)
            merged.update(entry.overrides)
            merged["strategies"] = tuple(merged["strategies"])
            scen = app_scenarios()[entry.scenario].search_scenario(
                **entry.scenario_args
            )
            scen.run(session=ref_sess, store=ref_store, **merged)
        ref_manifests = ref_store.list_runs()
        assert len(ref_manifests) == SHARDS
        ref_front = [
            p.to_dict() for p in elect_front(ref_manifests).points
        ]
        say(
            f"reference: {SHARDS} shard runs in "
            f"{time.perf_counter() - t0:.2f}s, winner front "
            f"{len(ref_front)} point(s)"
        )

        # ---- phase 2: 3-worker fleet, one SIGKILLed mid-entry -----------
        fleet_store = RunStore(tmp_path / "fleet")
        t0 = time.perf_counter()
        result = run_fleet(
            [ENTRY],
            fleet_store,
            workers=WORKERS,
            shards=SHARDS,
            defaults=DEFAULTS,
            session_config=SessionConfig(
                lease_ttl_s=1.0,
                fault_plan=json.dumps(LEASE_CHAOS),
            ),
            deadline_s=240.0,
            worker_env={0: {"REPRO_SEARCH_CRASH_AFTER": "2"}},
        )
        say(
            f"fleet: completed={result.completed} in "
            f"{time.perf_counter() - t0:.2f}s  stats={result.stats}"
        )

        # ---- phase 3: verdict -------------------------------------------
        assert result.completed, (
            f"fleet left work incomplete: {result.entries}"
        )
        steals = result.stats.get("steals", 0)
        assert steals >= 1, (
            f"no lease was stolen despite a SIGKILLed worker and a "
            f"torn claim: {result.stats}"
        )
        ref_ids = {m["run_id"] for m in ref_manifests}
        fleet_ids = {m["run_id"] for m in fleet_store.list_runs()}
        assert fleet_ids == ref_ids, (
            f"fleet produced different runs: {fleet_ids} != {ref_ids}"
        )
        for rid in sorted(ref_ids):
            assert fleet_store.load_records(rid) == ref_store.load_records(
                rid
            ), f"records of shard run {rid[:12]} drifted"
        assert result.front == ref_front, (
            "elected winner front drifted from the serial reference"
        )
        say(
            f"bit-identical under fire: {steals} steal(s), "
            f"{result.stats.get('claims')} claim(s), front "
            f"{len(result.front)} point(s) unchanged"
        )


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress progress lines",
    )
    args = ap.parse_args(argv)
    run_smoke(verbose=not args.quiet)
    print("dist-smoke: OK", flush=True)
    return 0


# -- pytest smoke version -----------------------------------------------------


def test_dist_smoke():
    run_smoke(verbose=False)


if __name__ == "__main__":
    raise SystemExit(main())
