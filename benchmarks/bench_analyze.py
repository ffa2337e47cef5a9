"""Static-analysis benchmark: analysis cost and search-space payoff.

Measures, per app scenario: the wall-clock of the full static-analysis
pipeline (dataflow + ranges + sensitivity + lint), and the candidate-
space reduction its pinned/safe sets give the precision search.  Then
runs the pruned-vs-unpruned search comparison on the two scenarios
where pruning bites (``simpsons``, ``arclength``) and records the
evaluations saved — asserting, via the exit code, that the pruned
front is never worse on the threshold-feasible region and that every
app's report digest equals the one in the committed
``BENCH_analyze.json`` (the analysis is deterministic, so a changed
digest is a changed result; the run still writes its report, so an
intended change is accepted by committing the regenerated file).

Run as a script to (re)generate ``BENCH_analyze.json`` at the repo
root::

    PYTHONPATH=src python benchmarks/bench_analyze.py
    PYTHONPATH=src python benchmarks/bench_analyze.py --repeat 5

Under pytest the module runs the analysis phase only (the search
comparison is covered by ``tests/test_analyze.py``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

_REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.analyze import prune_candidates  # noqa: E402
from repro.search.orchestrator import app_scenarios  # noqa: E402
from repro.session import Session, SessionConfig  # noqa: E402

APPS = ("simpsons", "arclength", "kmeans", "blackscholes", "hpccg")

#: scenarios where pruning removes candidates, with search overrides
SEARCH_CASES = (("simpsons", {}), ("arclength", {"budget": 80}))

#: the committed report whose digests every run must reproduce
COMMITTED = _REPO_ROOT / "BENCH_analyze.json"


def analysis_rows(repeat: int) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    sess = Session()
    for app in APPS:
        best = float("inf")
        report = None
        for _ in range(repeat):
            t0 = time.perf_counter()
            report = sess.analyze(app)
            best = min(best, time.perf_counter() - t0)
        scen = app_scenarios()[app].search_scenario()
        kept, dropped = prune_candidates(report, scen.candidates)
        rows.append(
            {
                "app": app,
                "analysis_s": best,
                "diagnostics": len(report.diagnostics),
                "pinned": list(report.pinned),
                "safe": list(report.safe),
                "candidates": len(scen.candidates),
                "candidates_pruned": len(kept),
                "space_before": 2 ** len(scen.candidates),
                "space_after": 2 ** len(kept),
                "digest": report.digest(),
            }
        )
    return rows


def search_rows() -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for app, overrides in SEARCH_CASES:
        off = Session().search(app, **overrides)
        on = Session(config=SessionConfig(analyze=True)).search(
            app, **overrides
        )
        front_no_worse = all(
            any(
                p.error <= u.error and p.cycles <= u.cycles
                for p in on.front.points
            )
            for u in off.front.points
            if u.error <= off.threshold
        )
        rows.append(
            {
                "app": app,
                "overrides": dict(overrides),
                "evaluations_unpruned": off.n_evaluated,
                "evaluations_pruned": on.n_evaluated,
                "evaluations_saved": off.n_evaluated - on.n_evaluated,
                "front_unpruned": len(off.front.points),
                "front_pruned": len(on.front.points),
                "front_no_worse": front_no_worse,
            }
        )
    return rows


def build_report(repeat: int) -> Dict[str, object]:
    return {
        "benchmark": "static-analysis cost and search-space pruning",
        "repeat": repeat,
        "analysis": analysis_rows(repeat),
        "search": search_rows(),
    }


# -- pytest smoke -------------------------------------------------------------


def test_analysis_smoke() -> None:
    rows = analysis_rows(repeat=1)
    assert [r["app"] for r in rows] == list(APPS)
    for r in rows:
        assert r["analysis_s"] < 5.0, (r["app"], r["analysis_s"])
        assert r["candidates_pruned"] <= r["candidates"]


def committed_digests(path: Path = COMMITTED) -> Dict[str, str]:
    """Per-app report digests of a written report (empty if absent)."""
    if not path.exists():
        return {}
    rows = json.loads(path.read_text())["analysis"]
    return {str(r["app"]): str(r["digest"]) for r in rows}


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        description="static-analysis cost / pruning-payoff benchmark"
    )
    ap.add_argument("--repeat", type=int, default=3,
                    help="timing repetitions per app (best-of)")
    ap.add_argument("--out", type=Path,
                    default=_REPO_ROOT / "BENCH_analyze.json")
    args = ap.parse_args(argv)
    from _provenance import with_timing

    committed = committed_digests()
    report = with_timing(build_report, args.repeat)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    for r in report["analysis"]:  # type: ignore[union-attr]
        print(
            f"{r['app']:14s} analyze {r['analysis_s']*1e3:7.1f} ms"
            f"  findings {r['diagnostics']:2d}"
            f"  candidates {r['candidates']}->{r['candidates_pruned']}"
            f"  space {r['space_before']}->{r['space_after']}"
        )
    for r in report["search"]:  # type: ignore[union-attr]
        print(
            f"{r['app']:14s} search evals "
            f"{r['evaluations_unpruned']}->{r['evaluations_pruned']}"
            f"  saved {r['evaluations_saved']}"
            f"  front_no_worse={r['front_no_worse']}"
        )
    print(f"wrote {args.out}")
    changed = [
        r["app"]
        for r in report["analysis"]  # type: ignore[union-attr]
        if committed.get(r["app"]) != r["digest"]
    ]
    for app in changed:
        print(f"{app}: report digest differs from {COMMITTED.name}")
    ok = not changed and all(
        r["front_no_worse"] and r["evaluations_saved"] > 0
        for r in report["search"]  # type: ignore[union-attr]
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
