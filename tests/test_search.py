"""Pareto precision-search subsystem tests: front invariants, candidate
evaluation, the strategy line-up, the
acceptance criteria on Black-Scholes and k-Means, and the CLI."""

import json

import numpy as np
import pytest

import repro
from repro.cli import main as cli
from repro.frontend import kernel
from repro.interp.cost_model import (
    config_cycle_delta,
    static_config_cost,
    static_function_cost,
)
from repro.ir.types import DType
from repro.search import (
    CandidateEvaluator,
    EvaluatedCandidate,
    ParetoFront,
    STRATEGIES,
    SearchProblem,
    SearchStrategy,
    config_key,
    dominates,
    get_strategy,
    register_strategy,
)
from repro.search.api import run_search
from repro.tuning import PrecisionConfig


@kernel
def ps_kernel(n: int, h: float, data: "f64[]") -> float:
    s = 0.0
    t = 0.0
    for i in range(n):
        t = data[i] * h + t * 0.5
        s = s + sqrt(t * t + h)
    return s


def _points(n=48, seeds=(5, 6)):
    out = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        out.append((n, 1.0 / 3.0, rng.uniform(0.1, 1.0, n)))
    return out


def _cand(key, error, cycles, strategy="t", index=0):
    """A minimal EvaluatedCandidate for front unit tests."""
    return EvaluatedCandidate(
        key=key,
        config=PrecisionConfig.demote(key.split("+") if key else []),
        actual_error=error,
        point_errors=(error,),
        estimated_error=None,
        error=error,
        cycles=cycles,
        cycles_reference=100.0,
        strategy=strategy,
        index=index,
    )


class TestParetoFront:
    def test_dominance(self):
        a = _cand("a", 1.0, 10.0)
        b = _cand("b", 2.0, 20.0)
        c = _cand("c", 1.0, 10.0)
        assert dominates(a, b)
        assert not dominates(b, a)
        assert not dominates(a, c) and not dominates(c, a)

    def test_add_prunes_dominated(self):
        front = ParetoFront()
        assert front.add(_cand("a", 2.0, 20.0))
        assert front.add(_cand("b", 1.0, 30.0))  # trade-off: stays
        assert front.add(_cand("c", 1.0, 10.0))  # dominates both
        assert len(front) == 1
        assert front.points[0].key == "c"

    def test_exact_tie_keeps_first(self):
        front = ParetoFront()
        assert front.add(_cand("a", 1.0, 10.0, index=0))
        assert not front.add(_cand("b", 1.0, 10.0, index=1))
        assert front.points[0].key == "a"

    def test_consistency_and_best_under(self):
        front = ParetoFront(
            [_cand("a", 1e-3, 50.0), _cand("b", 1e-6, 80.0)]
        )
        assert front.is_consistent()
        assert front.best_under(1e-5).key == "b"
        assert front.best_under(1e-2).key == "a"
        assert front.best_under(1e-9) is None

    def test_covers(self):
        front = ParetoFront([_cand("a", 1.0, 10.0)])
        assert front.covers(_cand("x", 2.0, 20.0))
        assert front.covers(_cand("y", 1.0, 10.0))
        assert not front.covers(_cand("z", 0.5, 5.0))

    def test_nan_error_never_dominates_and_never_joins(self):
        # a numerically broken config (inf-inf -> NaN error) with few
        # cycles must not evict valid points or join the front
        good = _cand("good", 1e-7, 80.0)
        broken = _cand("broken", float("nan"), 5.0)
        assert not dominates(broken, good)
        assert not dominates(good, broken)
        front = ParetoFront([good])
        assert not front.add(broken)
        assert [p.key for p in front.points] == ["good"]
        assert front.is_consistent()
        assert front.best_under(1e-3).key == "good"
        # any valid point beats a broken baseline
        assert front.covers(broken)

    def test_inf_error_is_ordered_normally(self):
        front = ParetoFront([_cand("a", 1e-7, 80.0)])
        assert not front.add(_cand("b", float("inf"), 90.0))
        assert front.add(_cand("c", float("inf"), 5.0))  # cheapest


class TestCandidateEvaluator:
    def test_empty_config_is_exact_reference(self):
        ev = CandidateEvaluator(ps_kernel, _points())
        res = ev.evaluate(PrecisionConfig(), "test")
        assert res.actual_error == 0.0
        assert res.cycles == res.cycles_reference
        assert res.speedup == 1.0
        assert res.estimated_error is None

    def test_demotion_trades_error_for_cycles(self):
        ev = CandidateEvaluator(ps_kernel, _points())
        res = ev.evaluate(
            PrecisionConfig.demote(["t", "s", "data", "h"]), "test"
        )
        assert res.actual_error > 0.0
        assert res.cycles < res.cycles_reference
        assert res.speedup > 1.0
        assert len(res.point_errors) == 2

    def test_memo_dedupes_across_strategies(self):
        ev = CandidateEvaluator(ps_kernel, _points())
        cfg = PrecisionConfig.demote(["t"])
        first = ev.evaluate(cfg, "alpha")
        again = ev.evaluate(PrecisionConfig.demote(["t"]), "beta")
        assert again is first
        assert again.strategy == "alpha"  # provenance: first proposer
        assert ev.n_computed == 1 and ev.n_memo_hits == 1
        assert len(ev.history) == 1

    def test_sweep_estimate_present_with_samples(self):
        ev = CandidateEvaluator(
            ps_kernel,
            _points(),
            samples={"h": np.linspace(0.2, 0.5, 8)},
            fixed={"n": 48, "data": _points()[0][2]},
        )
        res = ev.evaluate(PrecisionConfig.demote(["t"]), "test")
        assert res.estimated_error is not None
        assert res.estimated_error > 0.0
        # "worst" metric: objective is the max of the two measurements
        assert res.error == max(res.actual_error, res.estimated_error)

    def test_requires_points(self):
        with pytest.raises(ValueError, match="validation point"):
            CandidateEvaluator(ps_kernel, [])

    def test_bad_error_metric(self):
        with pytest.raises(ValueError, match="error metric"):
            CandidateEvaluator(ps_kernel, _points(), error_metric="bogus")
        with pytest.raises(ValueError, match="sweep"):
            CandidateEvaluator(
                ps_kernel, _points(), error_metric="estimate"
            )

    def test_config_key_canonical(self):
        a = PrecisionConfig({"b": DType.F32, "a": DType.F32})
        b = PrecisionConfig({"a": DType.F32, "b": DType.F32})
        assert config_key(a) == config_key(b) == "a:f32,b:f32"
        assert config_key(PrecisionConfig()) == ""


class TestSearch:
    def test_exhaustive_covers_space_and_is_consistent(self):
        res = run_search(
            ps_kernel,
            _points(),
            threshold=1e-7,
            candidates=("t", "s", "h"),
            strategies=("exhaustive",),
            budget=16,
        )
        assert res.n_evaluated == 8  # 2^3 subsets
        assert len(res.front) >= 1
        assert res.front.is_consistent()
        keys = {e.key for e in res.evaluations}
        assert "" in keys  # uniform f64 evaluated
        assert "h:f32,s:f32,t:f32" in keys

    def test_budget_is_a_hard_cap(self):
        res = run_search(
            ps_kernel,
            _points(),
            threshold=1e-7,
            candidates=("t", "s", "h", "data"),
            strategies=("exhaustive",),
            budget=5,
        )
        assert res.n_evaluated == 5

    def test_front_contains_threshold_feasible_point(self):
        res = run_search(
            ps_kernel,
            _points(),
            threshold=1e-6,
            candidates=("t", "s", "h"),
            strategies=("greedy", "delta", "anneal"),
            budget=16,
            seed=3,
        )
        best = res.best_under()
        assert best is not None
        assert best.error <= 1e-6

    def test_anneal_small_space_falls_back_to_exhaustive(self):
        res = run_search(
            ps_kernel,
            _points(),
            threshold=1e-7,
            candidates=("t", "s"),
            strategies=("anneal",),
            budget=16,
        )
        # 2^2 = 4 <= budget: the fallback enumerates everything
        assert res.n_evaluated == 4
        assert {e.strategy for e in res.evaluations} == {"exhaustive"}

    def test_candidate_autoderivation(self):
        res = run_search(
            ps_kernel,
            _points(),
            threshold=1e-7,
            strategies=("greedy",),
            budget=12,
        )
        assert set(res.candidates) >= {"t", "s"}
        assert not any(c.startswith("_") for c in res.candidates)

    def test_contributions_ranked_and_positive_total(self):
        res = run_search(
            ps_kernel,
            _points(),
            threshold=1e-7,
            candidates=("t", "s", "h"),
            strategies=("greedy",),
            budget=8,
        )
        assert set(res.contributions) == {"t", "s", "h"}
        assert all(v >= 0.0 for v in res.contributions.values())

    def test_to_dict_roundtrips_through_json(self):
        res = run_search(
            ps_kernel,
            _points(),
            threshold=1e-7,
            candidates=("t", "s"),
            strategies=("exhaustive",),
            budget=8,
        )
        blob = json.dumps(res.to_dict())
        loaded = json.loads(blob)
        assert loaded["kernel"] == "ps_kernel"
        assert len(loaded["front"]) == len(res.front)


class TestAcceptance:
    """ISSUE acceptance: the search front dominates-or-matches the
    greedy baseline on Black-Scholes and k-Means."""

    def _check(self, scen, **overrides):
        res = scen.run(**overrides)
        assert len(res.front) > 0
        assert res.front.is_consistent()
        assert res.baseline is not None
        assert res.front.covers(res.baseline), (
            f"front fails to dominate/match the greedy baseline: "
            f"{res.summary()}"
        )
        return res

    def test_blackscholes_front_covers_greedy_baseline(self):
        from repro.apps import blackscholes as bs

        scen = bs.search_scenario(n_points=2, n_samples=16)
        self._check(scen, budget=14, strategies=("greedy", "delta"))

    def test_kmeans_front_covers_greedy_baseline(self):
        from repro.apps import kmeans

        scen = kmeans.search_scenario(size=12, n_workloads=2)
        res = self._check(
            scen, budget=10, strategies=("greedy", "delta", "anneal")
        )
        # k-Means exact-representability story: attributes demote free
        by_key = {e.key: e for e in res.evaluations}
        attrs_only = by_key.get("attributes:f32")
        if attrs_only is not None:
            assert attrs_only.actual_error == 0.0


class TestStrategyRegistry:
    def test_builtins_registered(self):
        assert {"greedy", "delta", "anneal", "exhaustive"} <= set(
            STRATEGIES
        )

    def test_unknown_strategy_raises(self):
        with pytest.raises(KeyError, match="unknown search strategy"):
            get_strategy("nope")
        with pytest.raises(KeyError, match="unknown search strategy"):
            run_search(
                ps_kernel, _points(), 1e-6, strategies=("nope",),
                candidates=("t",),
            )

    def test_custom_strategy_runs(self):
        @register_strategy
        class EmptyOnly(SearchStrategy):
            name = "test-empty-only"

            def run(self, problem: SearchProblem) -> None:
                problem.evaluate(frozenset(), self.name)
                problem.evaluate(frozenset(problem.candidates), self.name)

        try:
            res = run_search(
                ps_kernel,
                _points(),
                threshold=1e-6,
                candidates=("t", "s"),
                strategies=("test-empty-only",),
                budget=4,
            )
            assert res.n_evaluated == 2
            assert {e.strategy for e in res.evaluations} == {
                "test-empty-only"
            }
        finally:
            del STRATEGIES["test-empty-only"]

    def test_nameless_strategy_rejected(self):
        with pytest.raises(ValueError, match="non-empty name"):

            @register_strategy
            class Nameless(SearchStrategy):
                pass


class TestCostDeltas:
    def test_empty_config_zero_delta(self):
        assert (
            config_cycle_delta(ps_kernel.ir, PrecisionConfig()) == 0.0
        )

    def test_demotion_reduces_static_cycles(self):
        cfg = PrecisionConfig.demote(["t", "s", "data", "h"])
        delta = config_cycle_delta(ps_kernel.ir, cfg)
        assert delta < 0.0
        ref = static_function_cost(ps_kernel.ir, {})
        assert static_config_cost(ps_kernel.ir, cfg) == ref + delta

    def test_trip_counts_scale_the_delta(self):
        cfg = PrecisionConfig.demote(["t", "s", "data", "h"])
        small = config_cycle_delta(ps_kernel.ir, cfg, {"i": 10.0})
        large = config_cycle_delta(ps_kernel.ir, cfg, {"i": 1000.0})
        assert large < small < 0.0


class TestCLI:
    def test_list(self, capsys):
        assert cli(["search", "--list"]) == 0
        out = capsys.readouterr().out
        assert "blackscholes" in out and "kmeans" in out

    def test_unknown_kernel(self, capsys):
        assert cli(["search", "--kernel", "nope"]) == 2

    def test_end_to_end_with_json(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        code = cli(
            [
                "search", "--kernel", "kmeans",
                "--budget", "8",
                "--strategies", "greedy,anneal",
                "--json", str(out),
            ]
        )
        assert code == 0
        blob = json.loads(out.read_text())
        assert blob["kernel"] == "kmeans_cost"
        assert len(blob["front"]) >= 1
        text = capsys.readouterr().out
        assert "ParetoFront" in text


class TestExports:
    def test_top_level_surface(self):
        assert repro.ParetoFront is ParetoFront
        assert repro.STRATEGIES is STRATEGIES

    def test_tuning_reexports(self):
        import repro.tuning as tuning

        assert tuning.ParetoFront is ParetoFront
        assert tuning.STRATEGIES is STRATEGIES
        with pytest.raises(AttributeError):
            tuning.not_a_thing
