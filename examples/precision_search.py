"""Cost-aware Pareto precision search on Black-Scholes.

The paper's workflow picks ONE mixed-precision configuration with a
single greedy pass over estimated error contributions.  This example
runs the search subsystem instead: three strategies (the greedy ladder,
Precimonious-style delta debugging, simulated annealing) explore the
demotion space of the option-pricing kernel, every candidate is scored
on BOTH axes — worst-case error over a swept input distribution plus
actual validation error, and modelled cycles — and the result is the
whole error/performance Pareto front, not one point.

The greedy baseline is printed alongside: the front always contains a
configuration that dominates or matches it.

Run:  python examples/precision_search.py
"""

import repro
from repro.apps import blackscholes as bs

BUDGET = 48


def bar(value: float, lo: float, hi: float, width: int = 28) -> str:
    """Crude text gauge for the cycles axis."""
    if hi <= lo:
        return "#" * width
    frac = (value - lo) / (hi - lo)
    n = max(1, round(frac * width))
    return "#" * n + "." * (width - n)


def main() -> None:
    # one Session owns the sweep cache + estimator memo the search
    # shares with any other work in this process
    sess = repro.Session(cache=repro.SweepCache())
    scenario = bs.search_scenario()
    print(
        f"Searching {scenario.kernel.ir.name}: "
        f"{len(scenario.candidates)} demotion candidates, "
        f"threshold {scenario.threshold:g}, budget {BUDGET}\n"
    )
    result = sess.search(scenario, budget=BUDGET, seed=0)

    points = result.front.points
    lo = min(p.cycles for p in points)
    hi = max(p.cycles for p in points)
    print(
        f"{result.n_evaluated} configurations evaluated -> "
        f"Pareto front of {len(points)} points "
        f"(error vs modelled cycles):\n"
    )
    header = f"{'cycles':>10s}  {'speedup':>8s}  {'error':>10s}  "
    print(header + "cost gauge / configuration")
    for p in points:
        print(
            f"{p.cycles:10.1f}  {p.speedup:7.3f}x  {p.error:10.3g}  "
            f"{bar(p.cycles, lo, hi)}"
        )
        print(f"{'':34s}{p.config.describe()}  [{p.strategy}]")

    assert result.front.is_consistent(), "dominance violated"

    baseline = result.baseline
    assert baseline is not None
    print(
        f"\nGreedy baseline (paper workflow): error={baseline.error:.3g} "
        f"cycles={baseline.cycles:.1f} speedup={baseline.speedup:.3f}x"
    )
    print(f"  {baseline.config.describe()}")
    assert result.front.covers(baseline), (
        "the front must dominate or match the greedy baseline"
    )
    print("Front dominates or matches the greedy baseline  ✓")

    best = result.best_under()
    if best is not None:
        print(
            f"\nCheapest configuration within the {result.threshold:g} "
            f"threshold: {best.config.describe() or '(uniform f64)'}"
            f" — {best.speedup:.3f}x at error {best.error:.3g}"
        )
        # the analytic screen agrees in sign with the exact counted
        # delta, without compiling or running anything
        from repro.interp.cost_model import config_cycle_delta

        static_delta = config_cycle_delta(
            scenario.kernel.ir, best.config
        )
        counted_delta = best.cycles - best.cycles_reference
        print(
            f"  cycle delta vs reference: counted {counted_delta:+.1f},"
            f" static screen {static_delta:+.1f}"
        )


if __name__ == "__main__":
    main()
