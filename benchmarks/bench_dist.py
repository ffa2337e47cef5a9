"""Distributed-fleet benchmark: 4-worker speedup over a serial run.

Quantifies what the lease-claiming worker fleet buys over executing
the same sharded plan serially in one process.  The workload is a
4-shard search whose per-entry latency is dominated by **deterministic
injected I/O stalls** (``delay`` faults on every ``store.write``):
stall-dominated entries parallelize across worker processes on any
machine, so the measured quantity is the *coordination* speedup — how
well claim/heartbeat/steal overhead stays out of the way — rather
than raw CPU scaling, which a shared CI box cannot promise.  (The
fault layer's chaos contract guarantees the stalls change timing
only: the benchmark re-verifies that the fleet's stored records and
elected winner front are bit-identical to the serial reference.)

Run as a script to (re)generate ``BENCH_dist.json`` at the repo
root::

    PYTHONPATH=src python benchmarks/bench_dist.py

Exit code asserts the 4-worker fleet is at least 2x faster than the
serial execution and that the results match bit-for-bit.  Under
pytest (``pytest benchmarks/``) a scaled-down version of the same
flow runs as a test with the same assertions.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

_REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_REPO_ROOT / "src"))

ENTRY = {"scenario": "kmeans", "scenario_args": {"size": 8}}
DEFAULTS = {"budget": 6, "strategies": ["greedy"]}
SHARDS = 4
WORKERS = 4
MIN_SPEEDUP = 2.0


def _stall_plan(delay_s: float) -> str:
    """Every store write stalls ``delay_s`` — deterministic, seeded."""
    return json.dumps(
        {
            "seed": 7,
            "faults": [
                {
                    "site": "store.write",
                    "kind": "delay",
                    "probability": 1.0,
                    "delay_s": delay_s,
                }
            ],
        }
    )


def run_bench(
    delay_s: float = 0.15, verbose: bool = True
) -> Dict[str, object]:
    from repro import RunStore, Session, SessionConfig, faults
    from repro.dist.fleet import elect_front, run_fleet
    from repro.search.orchestrator import (
        PlanEntry,
        app_scenarios,
        shard_entries,
    )

    def say(msg: str) -> None:
        if verbose:
            print(f"bench-dist: {msg}", flush=True)

    faults.disable()
    config = SessionConfig(lease_ttl_s=10.0, fault_plan=_stall_plan(delay_s))
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)

        # ---- serial reference: same stalls, one process -----------------
        ref_store = RunStore(tmp_path / "ref")
        ref_sess = Session(config, store=ref_store)
        sharded = shard_entries(
            [PlanEntry.from_dict(ENTRY)], SHARDS, default_seed=0
        )
        t0 = time.perf_counter()
        for entry in sharded:
            merged = dict(DEFAULTS)
            merged.update(entry.overrides)
            merged["strategies"] = tuple(merged["strategies"])
            scen = app_scenarios()[entry.scenario].search_scenario(
                **entry.scenario_args
            )
            scen.run(session=ref_sess, store=ref_store, **merged)
        serial_s = time.perf_counter() - t0
        faults.disable()
        ref_manifests = ref_store.list_runs()
        ref_front = [
            p.to_dict() for p in elect_front(ref_manifests).points
        ]
        say(
            f"serial: {SHARDS} shard runs in {serial_s:.2f}s "
            f"(stall {delay_s * 1000:.0f}ms/write)"
        )

        # ---- the same plan under a 4-worker fleet -----------------------
        fleet_store = RunStore(tmp_path / "fleet")
        t0 = time.perf_counter()
        result = run_fleet(
            [ENTRY],
            fleet_store,
            workers=WORKERS,
            shards=SHARDS,
            defaults=DEFAULTS,
            session_config=config,
            deadline_s=300.0,
        )
        fleet_s = time.perf_counter() - t0
        assert result.completed, result.entries
        speedup = serial_s / fleet_s
        say(
            f"fleet:  {WORKERS} workers in {fleet_s:.2f}s — "
            f"{speedup:.2f}x"
        )

        # ---- bit-identity: stalls and parallelism changed nothing -------
        ref_ids = {m["run_id"] for m in ref_manifests}
        assert {m["run_id"] for m in fleet_store.list_runs()} == ref_ids
        for rid in sorted(ref_ids):
            assert fleet_store.load_records(rid) == ref_store.load_records(
                rid
            ), f"records of shard run {rid[:12]} drifted"
        assert result.front == ref_front, "elected front drifted"
        assert speedup >= MIN_SPEEDUP, (
            f"4-worker fleet speedup {speedup:.2f}x is below the "
            f"{MIN_SPEEDUP:.1f}x bar"
        )
        return {
            "entry": ENTRY,
            "defaults": DEFAULTS,
            "shards": SHARDS,
            "workers": WORKERS,
            "stall_per_write_s": delay_s,
            "serial_s": serial_s,
            "fleet_s": fleet_s,
            "speedup": speedup,
            "min_speedup": MIN_SPEEDUP,
            "bit_identical": True,
            "front_size": len(result.front),
            "fleet_stats": {
                k: v
                for k, v in result.stats.items()
                if isinstance(v, int)
            },
        }


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--out",
        default=str(_REPO_ROOT / "BENCH_dist.json"),
        help="output JSON path (default: repo root BENCH_dist.json)",
    )
    ap.add_argument(
        "--delay",
        type=float,
        default=0.15,
        help="injected stall per store write, seconds",
    )
    ap.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress progress lines",
    )
    args = ap.parse_args(argv)
    results = run_bench(delay_s=args.delay, verbose=not args.quiet)
    payload = {
        "benchmark": "dist",
        "description": (
            "4-worker lease-claiming fleet vs serial execution of the "
            "same 4-shard plan over stall-dominated entries "
            "(deterministic delay faults on store writes) — measures "
            "coordination speedup with bit-identical results"
        ),
        "cpu_count": os.cpu_count(),
        "results": results,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"bench-dist: OK — {results['speedup']:.2f}x at "
        f"{WORKERS} workers, wrote {args.out}",
        flush=True,
    )
    return 0


# -- pytest version -----------------------------------------------------------


def test_bench_dist(tmp_path):
    results = run_bench(delay_s=0.1, verbose=False)
    assert results["speedup"] >= MIN_SPEEDUP
    assert results["bit_identical"]


if __name__ == "__main__":
    raise SystemExit(main())
