"""Precision-search benchmark: Pareto search vs the greedy baseline.

Runs the app search scenarios (Black-Scholes, k-Means) end-to-end and
records: the Pareto front, whether it dominates or matches the paper's
greedy choice, the evaluation count, and the cold wall-clock —
asserting along the way that the front is non-empty and
dominance-consistent.

The run executes against a persistent :class:`RunStore`; a
subsequent warm resume of the same run is timed too, asserting it
re-evaluates **zero** candidates and reproduces the front bit-for-bit
(the ``warm_resume_speedup`` column).

Run as a script to (re)generate ``BENCH_search.json`` at the repo
root::

    PYTHONPATH=src python benchmarks/bench_search.py               # full
    PYTHONPATH=src python benchmarks/bench_search.py --budget 16   # smoke

Under pytest (``pytest benchmarks/``) the module runs a scaled-down
version of the same checks.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

_REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.codegen.compile import clear_config_kernel_cache  # noqa: E402
from repro.core.api import clear_estimator_memo  # noqa: E402
from repro.search import SearchResult  # noqa: E402
from repro.session import Session  # noqa: E402


def _scenario(app: str, budget: Optional[int]):
    if app == "blackscholes":
        from repro.apps import blackscholes as mod

        scen = mod.search_scenario(n_points=4, n_samples=48)
    elif app == "kmeans":
        from repro.apps import kmeans as mod

        scen = mod.search_scenario(size=16, n_workloads=2)
    else:
        raise KeyError(app)
    if budget is not None:
        scen.budget = min(scen.budget, budget)
    return scen


def _front_fingerprint(res: SearchResult) -> List[tuple]:
    return [(p.key, p.error, p.cycles) for p in res.front.points]


def run_app(
    app: str, budget: Optional[int], seed: int = 0
) -> Dict[str, object]:
    scen = _scenario(app, budget)
    # cold start: the process-wide estimator memo and config-kernel
    # cache would otherwise hand the run an earlier app's compiles
    clear_estimator_memo()
    clear_config_kernel_cache()
    with tempfile.TemporaryDirectory() as store_dir:
        t0 = time.perf_counter()
        serial = scen.run(seed=seed, store=store_dir)
        serial_s = time.perf_counter() - t0
        # how much compiled-estimator reuse the serial run enjoyed
        memo_after_serial = Session().estimator_memo_stats()
        # warm resume: the completed run restores straight from the
        # store — zero candidates re-evaluated, front bit-identical
        t0 = time.perf_counter()
        warm = scen.run(seed=seed, store=store_dir, resume=True)
        warm_s = time.perf_counter() - t0

    assert len(serial.front) > 0, f"{app}: empty Pareto front"
    assert serial.front.is_consistent(), f"{app}: inconsistent front"
    assert _front_fingerprint(serial) == _front_fingerprint(warm), (
        f"{app}: warm-resumed front differs from the stored run"
    )
    warm_recomputed = (warm.stats or {}).get("run_store", {}).get(
        "computed"
    )
    assert warm_recomputed == 0, (
        f"{app}: warm resume recomputed {warm_recomputed} candidates"
    )
    baseline_covered = serial.baseline is not None and serial.front.covers(
        serial.baseline
    )
    assert baseline_covered, f"{app}: front does not cover greedy baseline"

    best = serial.best_under()
    return {
        "app": app,
        "budget": scen.budget,
        "seed": seed,
        "n_evaluated": serial.n_evaluated,
        "eval_stats": serial.stats["evaluator"] if serial.stats else None,
        "front_size": len(serial.front),
        "dominance_consistent": serial.front.is_consistent(),
        "baseline_covered": baseline_covered,
        "serial_s": serial_s,
        "warm_resume_s": warm_s,
        "warm_recomputed": warm_recomputed,
        "warm_resume_speedup": (
            serial_s / warm_s if warm_s > 0 else None
        ),
        "estimator_memo": memo_after_serial,
        "baseline": serial.baseline.to_dict() if serial.baseline else None,
        "best_under_threshold": best.to_dict() if best else None,
        "front": serial.front.to_dicts(),
    }


def build_report(budget: Optional[int], seed: int = 0) -> Dict[str, object]:
    import os

    return {
        "benchmark": "search",
        "seed": seed,
        "description": (
            "cost-aware Pareto precision search (greedy ladder + "
            "delta debugging + annealing) vs the paper's one-shot "
            "greedy pass, cold in-process search; the run persists to "
            "a RunStore and a warm resume is timed (zero candidates "
            "re-evaluated, bit-identical front)"
        ),
        "cpu_count": os.cpu_count(),
        "results": [
            run_app("blackscholes", budget, seed),
            run_app("kmeans", budget, seed),
        ],
    }


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--budget", type=int, default=None,
        help="cap the per-scenario evaluation budget (CI smoke)",
    )
    ap.add_argument(
        "--seed", type=int, default=0,
        help="strategy RNG seed (recorded in the report for "
             "reproducible search trajectories)",
    )
    ap.add_argument(
        "--out", type=Path, default=_REPO_ROOT / "BENCH_search.json"
    )
    args = ap.parse_args(argv)
    from _provenance import with_timing

    report = with_timing(build_report, args.budget, args.seed)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    for r in report["results"]:  # type: ignore[union-attr]
        best = r["best_under_threshold"]
        speedup = best["speedup"] if best else None
        print(
            f"{r['app']:14s} evals={r['n_evaluated']:3d} "
            f"front={r['front_size']:2d} "
            f"baseline_covered={r['baseline_covered']} "
            f"cold {r['serial_s']:6.2f}s "
            f"warm-resume {r['warm_resume_s']:5.2f}s"
            + (
                f"  best@threshold {speedup:.3f}x"
                if speedup is not None
                else "  (no feasible point)"
            )
        )
    print(f"wrote {args.out}")
    ok = all(
        r["front_size"] > 0
        and r["dominance_consistent"]
        and r["baseline_covered"]
        and r["warm_recomputed"] == 0
        for r in report["results"]  # type: ignore[union-attr]
    )
    return 0 if ok else 1


# -- pytest smoke version -----------------------------------------------------


def test_search_blackscholes_smoke():
    r = run_app("blackscholes", budget=12)
    assert r["front_size"] > 0
    assert r["dominance_consistent"] and r["baseline_covered"]


def test_search_kmeans_smoke():
    r = run_app("kmeans", budget=8)
    assert r["front_size"] > 0
    assert r["dominance_consistent"] and r["baseline_covered"]


if __name__ == "__main__":
    raise SystemExit(main())
