"""Sweep-engine benchmark: batched adjoint evaluation vs the naive loop.

Times an N-point error sweep through the vectorized batch backend
against a Python loop of single-input ``ErrorEstimator.execute`` calls
— the workflow the paper's Discussion asks callers to run — and checks
per-point agreement between the two backends at the same time.

Run as a script to (re)generate ``BENCH_sweep.json`` at the repo root::

    PYTHONPATH=src python benchmarks/bench_sweep.py            # N=1000
    PYTHONPATH=src python benchmarks/bench_sweep.py --n 100    # quick

Under pytest the module runs a scaled-down smoke version of the same
comparison (agreement is asserted tightly; the speedup assertion is
conservative to stay robust on loaded CI machines).

simpsons' scalar loop runs on the native scalar engine (its adjoint has
a loop); the report records its native runs and fallbacks, and a
fallback on a machine with a C compiler fails the script as a
disagreement does, so a silent slide back to Python shows in CI.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Dict, List

import numpy as np

_REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.apps import blackscholes as bs  # noqa: E402
from repro.apps import simpsons  # noqa: E402
from repro.codegen import native  # noqa: E402
from repro.experiments.sweep_bench import (  # noqa: E402
    SweepBenchResult,
    blackscholes_sweep,
    run_sweep_benchmark,
)

#: per-point agreement bound between the batched and scalar backends
MATCH_RTOL = 1e-12


#: historical default — the sweep the PR-1 numbers were measured on
DEFAULT_SEED = 404


def run_blackscholes(n: int, seed: int = DEFAULT_SEED) -> SweepBenchResult:
    return run_sweep_benchmark(
        "blackscholes", bs.bs_price, blackscholes_sweep(n, seed=seed)
    )


def run_simpsons(n: int, seed: int = DEFAULT_SEED) -> SweepBenchResult:
    rng = np.random.default_rng(seed)
    samples = {
        "lo": rng.uniform(0.0, 0.5, n),
        "hi": rng.uniform(math.pi / 2, math.pi, n),
    }
    return run_sweep_benchmark(
        "simpsons", simpsons.simpson, samples, fixed={"n": 100}
    )


def build_report(n: int, seed: int = DEFAULT_SEED) -> Dict[str, object]:
    results: List[SweepBenchResult] = [
        run_blackscholes(n, seed),
        run_simpsons(max(n // 5, 10), seed),
    ]
    return {
        "benchmark": "sweep",
        "description": (
            "batched input-sweep error estimation vs a Python loop of "
            "single-input ErrorEstimator.execute calls"
        ),
        "match_rtol": MATCH_RTOL,
        "seed": seed,
        "results": [r.to_dict() for r in results],
    }


def main(argv: List[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=1000,
                    help="batch size for the Black-Scholes sweep")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="input-sweep sampling seed (recorded in the "
                         "report for reproducible trajectories)")
    ap.add_argument("--out", type=Path,
                    default=_REPO_ROOT / "BENCH_sweep.json")
    args = ap.parse_args(argv)
    from _provenance import with_timing

    report = with_timing(build_report, args.n, args.seed)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    for r in report["results"]:  # type: ignore[union-attr]
        print(
            f"{r['app']:14s} n={r['n']:5d}  loop {r['loop_s']*1e3:8.1f} ms"
            f"  batched {r['batched_s']*1e3:7.1f} ms"
            f"  speedup {r['speedup']:6.1f}x"
            f"  max_rel_diff {r['max_rel_diff']:.3g}"
            f"  [{r['backend']}]"
            f"  loop native {r['loop_native_runs']}"
            f" / fallbacks {r['loop_native_fallbacks']}"
        )
    print(f"wrote {args.out}")
    # without a C compiler every loop call falls back, by design
    engine = native.library() is not None
    ok = all(
        r["max_rel_diff"] <= MATCH_RTOL
        and not (engine and r["loop_native_fallbacks"])
        for r in report["results"]  # type: ignore[union-attr]
    )
    return 0 if ok else 1


# -- pytest smoke version -----------------------------------------------------


def test_sweep_blackscholes_matches_and_beats_loop():
    r = run_blackscholes(200)
    assert r.backend == "vectorized"
    assert r.max_rel_diff <= MATCH_RTOL
    # the full benchmark shows >>10x; keep CI robust on noisy machines
    assert r.speedup > 2.0


def test_sweep_simpsons_matches():
    r = run_simpsons(30)
    assert r.backend == "vectorized"
    assert r.max_rel_diff <= MATCH_RTOL
    if native.library() is not None:
        assert r.loop_native_fallbacks == 0


if __name__ == "__main__":
    raise SystemExit(main())
