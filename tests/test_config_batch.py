"""Config-batched candidate evaluation: lanes vs the scalar path.

The contract under test is *bitwise* equivalence: every number the
compile-once precision-parameterized lane engine produces — values,
actual errors, modelled cycles, adjoint error estimates — must equal
what the per-config ``apply_precision`` + compile + run path produces,
float for float.  Plus the supporting machinery: vectorized pool
lowering against its type-inference reference, the fingerprint-keyed
kernel cache, fallback paths, and the generation-based population
strategy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import blackscholes as bs
from repro.apps import kmeans as km
from repro.codegen.compile import (
    ConfigLoweringError,
    clear_config_kernel_cache,
    config_lane_kernel,
    lower_config_pool,
    lower_config_pool_reference,
)
from repro.codegen.npgen import (
    UnvectorizableError,
    generate_config_lane_source,
)
from repro.core.api import (
    cached_error_estimator,
    clear_estimator_memo,
)
from repro.core.models import AdaptModel, TaylorModel
from repro.frontend.registry import kernel as register_kernel
from repro.ir.fingerprint import ir_fingerprint
from repro.ir.types import DType
from repro.search.evaluate import CandidateEvaluator, config_key
from repro.search.parallel import ParallelEvaluator
from repro.session import Session
from repro.sweep.samplers import random_sweep
from repro.tuning.config import (
    PrecisionConfig,
    apply_precision,
    resolve_targets,
)
from repro.tuning.validate import counting_runner, pool_counting_runner

KM_CANDIDATES = ("attributes", "clusters", "sum", "total", "best", "d")


def make_pool(names, k, seed=0, p=0.4):
    """Distinct random configurations with per-variable f32/f16 mixes."""
    names = sorted(names)
    rng = np.random.default_rng(seed)
    pool, seen = [], set()
    while len(pool) < k:
        demotions = {
            n: (DType.F32 if rng.random() < 0.7 else DType.F16)
            for n in names
            if rng.random() < p
        }
        cfg = PrecisionConfig(demotions)
        key = config_key(cfg)
        if demotions and key not in seen:
            seen.add(key)
            pool.append(cfg)
    return pool


def bs_points(n=4):
    wl = bs.make_workload(8)
    return [bs.point_args(wl, i) for i in range(n)]


def km_points(n=2, size=12):
    return [km.make_workload(size, seed=2023 + 7 * i) for i in range(n)]


# --------------------------------------------------------------------------
# Pool runner: bitwise identity against the per-config scalar path
# --------------------------------------------------------------------------


class TestPoolRunner:
    @pytest.mark.parametrize(
        "fn,points,names,mode",
        [
            (bs.bs_price.ir, bs_points(), bs.SEARCH_CANDIDATES, "grid"),
            (km.kmeans_cost.ir, km_points(), KM_CANDIDATES, "perpoint"),
        ],
        ids=["blackscholes", "kmeans"],
    )
    def test_bitwise_identical_to_scalar(self, fn, points, names, mode):
        pool = make_pool(names, 20, seed=1)
        runner = pool_counting_runner(fn)
        assert runner is not None and runner.mode == mode
        values, costs = runner(pool, points)
        for lane, cfg in enumerate(pool):
            run = counting_runner(apply_precision(fn, cfg))
            for j, pt in enumerate(points):
                v, c = run(pt)
                assert v == values[lane, j]  # bitwise, not approx
                assert c == costs[lane, j]

    def test_bitwise_identical_with_approx_intrinsics(self):
        # FastApprox substitutions must flow into the lane bindings —
        # regression: approx was once only part of the cache key
        fn = bs.bs_price.ir
        points = bs_points(2)
        approx = frozenset({"log", "sqrt", "exp"})
        pool = make_pool(bs.SEARCH_CANDIDATES, 8, seed=11)
        runner = pool_counting_runner(fn, approx=approx)
        values, costs = runner(pool, points)
        for lane, cfg in enumerate(pool):
            run = counting_runner(
                apply_precision(fn, cfg), approx=approx
            )
            for j, pt in enumerate(points):
                assert run(pt) == (values[lane, j], costs[lane, j])

    def test_negative_cycle_counts_raise(self):
        # same guard as the scalar counting_runner (the PR-2 fix)
        from repro.interp.cost_model import CostModel

        broken = CostModel()
        broken.add = {dt: -100.0 for dt in broken.add}
        broken.mul = {dt: -100.0 for dt in broken.mul}
        broken.div = {dt: -100.0 for dt in broken.div}
        broken.scalar_store = {dt: -100.0 for dt in broken.scalar_store}
        runner = pool_counting_runner(bs.bs_price.ir, cost_model=broken)
        with pytest.raises(ValueError, match="negative modelled cycle"):
            runner(
                make_pool(bs.SEARCH_CANDIDATES, 2, seed=12), bs_points(1)
            )

    def test_single_config_pool(self):
        fn = bs.bs_price.ir
        points = bs_points(2)
        cfg = PrecisionConfig.demote(["login", "xd1"], to=DType.F16)
        runner = pool_counting_runner(fn)
        values, costs = runner([cfg], points)
        run = counting_runner(apply_precision(fn, cfg))
        for j, pt in enumerate(points):
            v, c = run(pt)
            assert (v, c) == (values[0, j], costs[0, j])

    def test_unknown_variable_raises_keyerror(self):
        runner = pool_counting_runner(bs.bs_price.ir)
        bad = PrecisionConfig.demote(["no_such_var"])
        with pytest.raises(KeyError, match="no_such_var"):
            runner([bad], bs_points(1))

    def test_non_float_target_raises_lowering_error(self):
        runner = pool_counting_runner(km.kmeans_cost.ir)
        bad = PrecisionConfig.demote(["npoints"])  # i64 parameter
        with pytest.raises(ConfigLoweringError):
            runner([bad], km_points(1))

    def test_lowering_restores_nothing_because_nothing_mutates(self):
        # a pool lowering must leave the kernel IR untouched: the same
        # fingerprint (and bit-identical scalar behaviour) afterwards
        fn = bs.bs_price.ir
        before = ir_fingerprint(fn)
        runner = pool_counting_runner(fn)
        runner(make_pool(bs.SEARCH_CANDIDATES, 8), bs_points(1))
        assert ir_fingerprint(fn) == before
        # reference lowering mutates in place but restores on exit
        lower_config_pool_reference(
            runner.kernel.program, make_pool(bs.SEARCH_CANDIDATES, 4)
        )
        assert ir_fingerprint(fn) == before


# --------------------------------------------------------------------------
# Vectorized lowering vs the type-inference reference
# --------------------------------------------------------------------------


def _pools_equal(a, b):
    assert a.k == b.k
    assert len(a.selectors) == len(b.selectors)
    for sa, sb in zip(a.selectors, b.selectors):
        assert (sa is None) == (sb is None)
        if sa is not None:
            assert np.array_equal(sa.codes, sb.codes)
    assert len(a.charges) == len(b.charges)
    for ca, cb in zip(a.charges, b.charges):
        va = np.broadcast_to(np.asarray(ca, float), (a.k, 1))
        vb = np.broadcast_to(np.asarray(cb, float), (b.k, 1))
        assert np.array_equal(va, vb)
    for ca, cb in zip(a.consts, b.consts):
        va = np.broadcast_to(np.asarray(ca, float), (a.k, 1))
        vb = np.broadcast_to(np.asarray(cb, float), (b.k, 1))
        assert np.array_equal(va, vb)


class TestLoweringEquivalence:
    @pytest.mark.parametrize(
        "fn,names",
        [
            (bs.bs_price.ir, bs.SEARCH_CANDIDATES),
            (km.kmeans_cost.ir, KM_CANDIDATES),
        ],
        ids=["blackscholes", "kmeans"],
    )
    def test_vectorized_matches_reference(self, fn, names):
        runner = pool_counting_runner(fn)
        program = runner.kernel.program
        for seed in range(3):
            pool = make_pool(names, 16, seed=seed, p=0.5)
            fast = lower_config_pool(program, pool)
            ref = lower_config_pool_reference(program, pool)
            _pools_equal(fast, ref)

    def test_fast_targets_matches_resolve_targets(self):
        # exact keys must win over inlined-prefix matches, in both
        fn = bs.bs_price.ir  # cndf inlined twice: x_in1, x_in2 etc.
        cfgs = [
            PrecisionConfig({"expin": DType.F32}),
            PrecisionConfig(
                {"expin_in1": DType.F16, "expin": DType.F32}
            ),
            PrecisionConfig({"x": DType.F32}),  # only inlined copies
        ]
        from repro.codegen.compile import _fast_targets, _plan_for

        runner = pool_counting_runner(fn)
        plan = _plan_for(runner.kernel.program)
        for cfg in cfgs:
            assert _fast_targets(plan, fn.name, cfg) == resolve_targets(
                fn, cfg
            )
        with pytest.raises(KeyError):
            _fast_targets(
                plan, fn.name, PrecisionConfig({"zzz": DType.F32})
            )


# --------------------------------------------------------------------------
# Fingerprint-keyed compile cache
# --------------------------------------------------------------------------


class TestKernelCache:
    def test_same_content_shares_compiled_kernel(self):
        clear_config_kernel_cache()
        fn = bs.bs_price.ir
        batched = {p.name for p in fn.params}
        k1 = config_lane_kernel(fn, batched=batched, counting=True)
        k2 = config_lane_kernel(fn, batched=batched, counting=True)
        assert k1 is k2
        stats = Session().stats()["config_kernel_cache"]
        assert stats["entries"] == 1
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_different_content_misses(self):
        clear_config_kernel_cache()
        fn = bs.bs_price.ir
        batched = {p.name for p in fn.params}
        k1 = config_lane_kernel(fn, batched=batched, counting=True)
        # a *semantically different* kernel (a demoted clone) must not
        # reuse the baseline's compiled code
        demoted = apply_precision(
            fn, PrecisionConfig.demote(["login"])
        )
        demoted.name = fn.name  # same name, different content
        k3 = config_lane_kernel(demoted, batched=batched, counting=True)
        assert k3 is not k1
        assert Session().stats()["config_kernel_cache"]["entries"] == 2

    def test_config_change_cannot_reuse_stale_lanes(self):
        # configurations are lowering-time lane parameters, never part
        # of the compiled kernel: two different pools through the same
        # kernel must score differently (no stale selector reuse)
        fn = bs.bs_price.ir
        points = bs_points(2)
        runner = pool_counting_runner(fn)
        a = PrecisionConfig.demote(["login"], to=DType.F16)
        b = PrecisionConfig.demote(["xden"], to=DType.F32)
        va, ca = runner([a], points)
        vb, cb = runner([b], points)
        assert not np.array_equal(va, vb) or not np.array_equal(ca, cb)
        # and each matches its own scalar evaluation
        for cfg, (v, c) in ((a, (va, ca)), (b, (vb, cb))):
            run = counting_runner(apply_precision(fn, cfg))
            for j, pt in enumerate(points):
                assert run(pt) == (v[0, j], c[0, j])


# --------------------------------------------------------------------------
# CandidateEvaluator: batched pools vs per-candidate scoring
# --------------------------------------------------------------------------


def _candidates_identical(xs, ys):
    assert len(xs) == len(ys)
    for x, y in zip(xs, ys):
        assert x.key == y.key
        assert x.actual_error == y.actual_error
        assert x.point_errors == y.point_errors
        assert x.estimated_error == y.estimated_error
        assert x.error == y.error
        assert x.cycles == y.cycles
        assert x.cycles_reference == y.cycles_reference
        assert x.index == y.index and x.strategy == y.strategy


class TestCandidateEvaluator:
    def test_batched_equals_scalar_blackscholes_with_sweep(self):
        fn = bs.bs_price.ir
        points = bs_points()
        samples = random_sweep(
            {"sptprice": (25.0, 150.0), "volatility": (0.05, 0.65)},
            n=16,
            seed=5,
        )
        fixed = {"strike": 100.0, "rate": 0.05, "otime": 0.5, "otype": 0}
        pool = [PrecisionConfig()] + make_pool(
            bs.SEARCH_CANDIDATES, 12, seed=2
        )
        kwargs = dict(samples=samples, fixed=fixed)
        batched = CandidateEvaluator(fn, points, **kwargs)
        scalar = CandidateEvaluator(
            fn, points, config_batch=False, **kwargs
        )
        rb = batched.evaluate_many(pool, "t")
        rs = scalar.evaluate_many(pool, "t")
        _candidates_identical(rb, rs)
        assert batched.n_pool_lanes == 12  # empty config not laned
        assert batched.pool_mode == "grid"
        assert scalar.pool_mode is None

    def test_batched_equals_scalar_kmeans(self):
        fn = km.kmeans_cost.ir
        points = km_points()
        pool = make_pool(KM_CANDIDATES, 10, seed=3)
        batched = CandidateEvaluator(fn, points)
        scalar = CandidateEvaluator(fn, points, config_batch=False)
        _candidates_identical(
            batched.evaluate_many(pool, "t"),
            scalar.evaluate_many(pool, "t"),
        )
        assert batched.pool_mode == "perpoint"
        assert batched.n_pool_runs == 1

    def test_memo_preserved_across_pool_calls(self):
        fn = bs.bs_price.ir
        ev = CandidateEvaluator(fn, bs_points(2))
        pool = make_pool(bs.SEARCH_CANDIDATES, 6, seed=4)
        ev.evaluate_many(pool, "first")
        n = ev.n_computed
        again = ev.evaluate_many(pool + pool[:3], "second")
        assert ev.n_computed == n  # everything served from the memo
        assert ev.n_memo_hits >= len(pool) + 3
        assert [c.strategy for c in again] == ["first"] * len(again)

    def test_parallel_blocks_identical_to_serial(self):
        fn = bs.bs_price.ir
        points = bs_points(2)
        pool = make_pool(bs.SEARCH_CANDIDATES, 8, seed=6)
        serial = CandidateEvaluator(fn, points)
        rs = serial.evaluate_many(pool, "t")
        with ParallelEvaluator(fn, points, workers=2) as par:
            rp = par.evaluate_many(pool, "t")
            if par.parallel:
                # worker-side pool telemetry must surface in the parent
                assert par.n_pool_lanes == len(pool)
                assert par.n_pool_runs >= 1
        _candidates_identical(rs, rp)


# --------------------------------------------------------------------------
# Scalar fallbacks: kernels the lane generator cannot express
# --------------------------------------------------------------------------


@register_kernel
def cb_while_kernel(x: float) -> float:
    s = 0.0
    while s < x:  # trip count depends on batched/config data
        s = s + 0.25
    return s


@register_kernel
def cb_simple_kernel(x: float, y: float) -> float:
    a = x * y
    b = a + x
    return b


class TestFallbacks:
    def test_while_kernel_unvectorizable_falls_back(self):
        fn = cb_while_kernel.ir
        assert pool_counting_runner(fn) is None
        ev = CandidateEvaluator(fn, [(1.0,), (2.5,)])
        scalar = CandidateEvaluator(
            fn, [(1.0,), (2.5,)], config_batch=False
        )
        pool = [
            PrecisionConfig.demote(["s"]),
            PrecisionConfig.demote(["s", "x"], to=DType.F16),
        ]
        _candidates_identical(
            ev.evaluate_many(pool, "t"), scalar.evaluate_many(pool, "t")
        )
        assert ev.pool_mode is None and ev.n_pool_runs == 0

    def test_generator_rejects_tainted_while(self):
        with pytest.raises(UnvectorizableError, match="while"):
            generate_config_lane_source(
                cb_while_kernel.ir,
                batched={"x"},
                counting=True,
            )

    def test_sweep_loop_backend_still_used_for_arrays(self):
        # the input-sweep engine's scalar-loop fallback (array params)
        est = Session().estimate(km.euclid_dist, model=AdaptModel())
        size, _, nf, attrs, cl = km.make_workload(8)
        batch = est.execute_batch(nf, [0, 1, 2], 0, attrs, cl)
        assert batch.backend == "loop"
        for i, pt in enumerate([0, 1, 2]):
            rep = est.execute(nf, pt, 0, attrs.copy(), cl.copy())
            assert rep.value == batch.values[i]
            assert rep.total_error == batch.total_error[i]


# --------------------------------------------------------------------------
# ErrorEstimator.execute_config_batch
# --------------------------------------------------------------------------


class TestExecuteConfigBatch:
    @pytest.mark.parametrize(
        "model_cls", [TaylorModel, AdaptModel], ids=["taylor", "adapt"]
    )
    def test_lanes_match_per_config_estimators(self, model_cls):
        clear_estimator_memo()
        sw = random_sweep(
            {"sptprice": (25.0, 150.0), "volatility": (0.05, 0.65)},
            n=12,
            seed=9,
        )
        args = (sw["sptprice"], 100.0, 0.05, sw["volatility"], 0.5, 0)
        pool = [PrecisionConfig()] + make_pool(
            bs.SEARCH_CANDIDATES, 8, seed=7
        )
        est = Session().estimate(bs.bs_price, model=model_cls())
        rep = est.execute_config_batch(pool, *args)
        assert rep.backend == "lanes"
        assert rep.total_error.shape == (len(pool), 12)
        for lane, cfg in enumerate(pool):
            mixed = (
                apply_precision(bs.bs_price.ir, cfg)
                if cfg
                else bs.bs_price.ir
            )
            ref = cached_error_estimator(
                mixed, model=model_cls()
            ).execute_batch(*args)
            assert np.array_equal(ref.values, rep.values[lane])
            assert np.array_equal(
                ref.total_error, rep.total_error[lane]
            )
            row = rep.report(lane)
            for v, e in ref.per_variable.items():
                assert np.array_equal(e, row.per_variable[v])
            for g, a in ref.gradients.items():
                assert np.array_equal(np.asarray(a), row.gradients[g])

    def test_array_kernel_falls_back_to_loop_backend(self):
        est = Session().estimate(km.euclid_dist, model=AdaptModel())
        size, _, nf, attrs, cl = km.make_workload(6)
        pool = [
            PrecisionConfig.demote(["sum"]),
            PrecisionConfig.demote(["attributes", "clusters"]),
        ]
        rep = est.execute_config_batch(pool, nf, [0, 1], 0, attrs, cl)
        assert rep.backend == "loop"
        for lane, cfg in enumerate(pool):
            mixed = apply_precision(km.euclid_dist.ir, cfg)
            ref = cached_error_estimator(
                mixed, model=AdaptModel()
            ).execute_batch(nf, [0, 1], 0, attrs, cl)
            assert np.array_equal(ref.values, rep.values[lane])
            assert np.array_equal(
                ref.total_error, rep.total_error[lane]
            )


# --------------------------------------------------------------------------
# Population strategy and search-level identity
# --------------------------------------------------------------------------


class TestSearchIntegration:
    def _front_fp(self, res):
        return [(p.key, p.error, p.cycles) for p in res.front.points]

    def test_search_config_batch_identical_to_per_candidate(self):
        scen = km.search_scenario(size=10, n_workloads=2)
        a = scen.run(seed=0, budget=10)
        b = scen.run(seed=0, budget=10, config_batch=False)
        assert self._front_fp(a) == self._front_fp(b)
        evs_a = [(c.key, c.error, c.cycles) for c in a.evaluations]
        evs_b = [(c.key, c.error, c.cycles) for c in b.evaluations]
        assert evs_a == evs_b
        assert a.stats["evaluator"]["pool_mode"] == "perpoint"
        assert b.stats["evaluator"]["pool_mode"] is None

    def test_population_strategy_deterministic_and_budgeted(self):
        scen = km.search_scenario(size=10, n_workloads=2)
        a = scen.run(seed=3, budget=12, strategies=("population",))
        b = scen.run(seed=3, budget=12, strategies=("population",))
        assert self._front_fp(a) == self._front_fp(b)
        assert 0 < a.n_evaluated <= 12
        assert a.front.is_consistent()
        assert all(
            c.strategy in ("population", "exhaustive")
            for c in a.evaluations
        )

    def test_population_proposes_generations(self):
        # on a space too big to enumerate, generations arrive as pools:
        # the config-batched evaluator must see multi-lane runs
        scen = bs.search_scenario(n_points=2, n_samples=8)
        res = scen.run(seed=1, budget=14, strategies=("population",))
        ev = res.stats["evaluator"]
        assert ev["pool_runs"] >= 1
        assert ev["pool_lanes"] >= 4  # at least one whole generation
        assert res.front.is_consistent()

    def test_cli_prints_cache_and_memo_stats(self, capsys, tmp_path):
        from repro.cli import main

        rc = main(
            [
                "search",
                "--kernel",
                "kmeans",
                "--budget",
                "6",
                "--cache",
                str(tmp_path / "cache"),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "evaluator: computed=" in out
        assert "estimator memo: entries=" in out
        assert "kernel cache: entries=" in out
        assert "sweep cache: hits=" in out
