"""Render the README performance table from the recorded BENCH files.

Reads ``BENCH_sweep.json``, ``BENCH_search.json``, and
``BENCH_eval.json`` at the repo root and prints the GitHub-markdown
table embedded in README's *Performance* section — rerun after
regenerating any of the benchmarks and paste the output over the old
table::

    PYTHONPATH=src python benchmarks/perf_table.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List

_REPO_ROOT = Path(__file__).resolve().parents[1]


def _load(name: str) -> dict:
    path = _REPO_ROOT / name
    if not path.exists():
        raise SystemExit(
            f"{name} not found — regenerate it first "
            f"(see benchmarks/bench_*.py)"
        )
    return json.loads(path.read_text())


def rows() -> List[List[str]]:
    out: List[List[str]] = []
    sweep = _load("BENCH_sweep.json")
    for r in sweep["results"]:
        out.append(
            [
                "input sweep",
                r["app"],
                f"N={r['n']} points",
                f"{r['loop_s'] * 1e3:.1f} ms",
                f"{r['batched_s'] * 1e3:.1f} ms",
                f"**{r['speedup']:.1f}×**",
                f"{r['max_rel_diff']:g}",
            ]
        )
    ev = _load("BENCH_eval.json")
    for r in ev["results"]:
        out.append(
            [
                "candidate eval",
                r["app"],
                f"K={r['k']} configs × N={r['n_points']}",
                f"{r['per_candidate_s'] * 1e3:.1f} ms",
                f"{r['batched_s'] * 1e3:.1f} ms",
                f"**{r['speedup']:.1f}×**",
                f"{r['max_rel_diff']:g}",
            ]
        )
    search = _load("BENCH_search.json")
    for r in search["results"]:
        best = r.get("best_under_threshold")
        speed = (
            f"{best['speedup']:.3f}× @ threshold"
            if best and best.get("speedup") is not None
            else "—"
        )
        out.append(
            [
                "full search",
                r["app"],
                f"budget {r['budget']}, front {r['front_size']}",
                f"{r['serial_s']:.2f} s cold",
                "—",
                speed,
                "—",
            ]
        )
        warm = r.get("warm_resume_s")
        if warm is not None:
            out.append(
                [
                    "warm resume",
                    r["app"],
                    f"{r['n_evaluated']} stored evals",
                    f"{r['serial_s']:.2f} s cold",
                    f"{warm * 1e3:.1f} ms resume",
                    f"**{r['warm_resume_speedup']:.0f}×** "
                    f"({r['warm_recomputed']} recomputed)",
                    "bit-identical",
                ]
            )
    return out


def main() -> int:
    header = [
        "benchmark",
        "app",
        "workload",
        "scalar / per-candidate",
        "batched",
        "speedup",
        "max_rel_diff",
    ]
    table = [header, ["---"] * len(header)] + rows()
    for row in table:
        print("| " + " | ".join(row) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
