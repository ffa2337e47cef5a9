"""Config-batched candidate evaluation: lanes vs the scalar path.

The contract under test is *bitwise* equivalence: every number the
compile-once precision-parameterized lane engine produces — values,
actual errors, modelled cycles, adjoint error estimates — must equal
what the per-config ``apply_precision`` + compile + run path produces,
float for float.  Plus the supporting machinery: vectorized pool
lowering against its type-inference reference, adjoint lowering
against per-config rebuilt adjoints, the fingerprint-keyed
kernel cache, fallback paths, and the generation-based population
strategy.
"""

from __future__ import annotations

from typing import Optional, Sequence, Set

import numpy as np
import pytest

from repro.apps import arclength
from repro.apps import blackscholes as bs
from repro.apps import kmeans as km
from repro.apps import simpsons
from repro.codegen import runtime
from repro.codegen.compile import (
    ConfigLoweringError,
    LoweredConfigPool,
    LoweringPlan,
    _pack_row,
    clear_config_kernel_cache,
    config_lane_kernel,
    lower_adjoint_pool,
    lower_config_pool,
)
from repro.codegen.npgen import (
    _FLOAT_DTYPES,
    ConfigLaneProgram,
    UnvectorizableError,
    generate_config_lane_source,
)
from repro.core.api import (
    ErrorEstimator,
    _memo_stats,
    _work_stats,
    build_adjoint,
    cached_error_estimator,
    clear_estimator_memo,
)
from repro.core.estimation import ErrorEstimationModule
from repro.core.models import (
    AdaptModel,
    ApproxModel,
    CenaModel,
    ErrorModel,
    TaylorModel,
    _target_name,
    _target_read,
)
from repro.frontend.registry import kernel as register_kernel
from repro.interp.cost_model import (
    CostModel,
    DEFAULT_COST_MODEL,
    expr_cost,
    store_cost,
)
from repro.ir import builder as ir_builder
from repro.ir import nodes as N
from repro.ir.fingerprint import ir_fingerprint
from repro.ir.typecheck import infer_types
from repro.ir.types import ArrayType, DType, ScalarType, machine_eps
from repro.ir.visitor import iter_stmt_exprs, walk_expr, walk_stmts
from repro.search.evaluate import CandidateEvaluator, config_key
from repro.search.parallel import ParallelEvaluator
from repro.session import Session
from repro.sweep.cache import SweepCache
from repro.sweep.engine import run_sweep
from repro.sweep.samplers import random_sweep
from repro.tuning.config import (
    PrecisionConfig,
    apply_precision,
    resolve_targets,
)
from repro.tuning.validate import counting_runner, pool_counting_runner
from tests.conftest import assert_reports_identical, search_fingerprint

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


def _dtype_code(dt: Optional[DType]) -> int:
    return {DType.F32: 1, DType.F16: 2}.get(dt, 0)


def _site_dtype(kind: str, node: object) -> Optional[DType]:
    if kind == "param":
        return node.type.dtype  # type: ignore[attr-defined]
    return getattr(node, "dtype", None)


def _pack_rows(rows: np.ndarray, k: int):
    return [_pack_row(row, k) for row in rows]


def _charge_value(
    site,
    cost_model: CostModel,
    approx: Optional[Set[str]],
) -> float:
    """Evaluate one charge site against current node dtypes — the same
    ``expr_cost``/``store_cost`` arithmetic pygen bakes into counting
    code."""
    s = site.node
    if site.kind == "decl":
        tgt = N.Name(s.name)
        tgt.dtype = s.dtype
        return expr_cost(s.init, cost_model, approx) + store_cost(
            tgt, s.init, cost_model
        )
    if site.kind == "store":
        return expr_cost(s.value, cost_model, approx) + store_cost(
            s.target, s.value, cost_model
        )
    if site.kind == "if":
        return expr_cost(s.cond, cost_model, approx)
    if site.kind == "while":
        return 1.0 + expr_cost(s.cond, cost_model, approx)
    raise KeyError(site.kind)


def lower_config_pool_reference(
    program: ConfigLaneProgram,
    configs: Sequence[object],
    cost_model: CostModel = DEFAULT_COST_MODEL,
    approx: Optional[Set[str]] = None,
) -> LoweredConfigPool:
    """Reference lowering: one full type-inference pass per config.

    The semantics oracle of ``repro.codegen.compile.lower_config_pool``;
    test-only, so it lives here rather than in the package.

    Applies each configuration's storage dtypes to the program's IR *in
    place* (restored afterwards) and re-runs the shared type inference —
    exactly what ``apply_precision`` does on a clone — then reads each
    site's dtype/cost off the re-typed nodes.  No cloning, no code
    generation, no compilation.

    :func:`lower_config_pool` (the vectorized production path) must
    produce identical lane parameters; the tests below assert it does.

    :raises KeyError: if a configuration names unknown variables (the
        same error the scalar path raises).
    :raises ConfigLoweringError: if a configuration targets a variable
        whose baseline storage is not a float (the scalar path would
        change integer semantics; callers fall back to it).
    """
    fn = program.fn
    k = len(configs)
    if k == 0:
        raise ValueError("empty configuration pool")
    decls = [s for s in walk_stmts(fn.body) if isinstance(s, N.VarDecl)]
    base_params = [p.type for p in fn.params]
    base_decls = [d.dtype for d in decls]
    rs = np.zeros((len(program.round_sites), k), dtype=np.int8)
    ch = np.zeros((len(program.charge_sites), k), dtype=np.float64)
    cs = np.zeros((len(program.const_sites), k), dtype=np.float64)

    def restore() -> None:
        for p, t in zip(fn.params, base_params):
            p.type = t
        for d, t in zip(decls, base_decls):
            d.dtype = t

    try:
        for j, config in enumerate(configs):
            targets = resolve_targets(fn, config)
            for name in targets:
                if program.var_baseline.get(name) not in _FLOAT_DTYPES:
                    raise ConfigLoweringError(
                        f"{fn.name}: config targets non-float "
                        f"variable {name!r}"
                    )
            restore()
            for p in fn.params:
                dt = targets.get(p.name)
                if dt is not None:
                    p.type = (
                        ArrayType(dt)
                        if isinstance(p.type, ArrayType)
                        else ScalarType(dt)
                    )
            for d in decls:
                dt = targets.get(d.name)
                if dt is not None:
                    d.dtype = dt
            infer_types(fn)
            for i, site in enumerate(program.round_sites):
                rs[i, j] = _dtype_code(_site_dtype(site.kind, site.node))
            for i, site in enumerate(program.charge_sites):
                ch[i, j] = _charge_value(site, cost_model, approx)
            for i, cnode in enumerate(program.const_sites):
                cs[i, j] = cnode.value
    finally:
        restore()
        infer_types(fn)
    return LoweredConfigPool(
        k=k,
        selectors=[
            runtime.LaneSelector.from_codes(rs[i])
            for i in range(len(program.round_sites))
        ],
        charges=_pack_rows(ch, k),
        consts=_pack_rows(cs, k),
    )


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
            assert _fast_targets(plan, cfg) == resolve_targets(
                fn, cfg
            )
        with pytest.raises(KeyError):
            _fast_targets(plan, PrecisionConfig({"zzz": DType.F32}))


# --------------------------------------------------------------------------
# Adjoint lowering: derived lane parameters vs per-config rebuilt adjoints
# --------------------------------------------------------------------------

#: per-config differences the structural pairing allows: dtypes (and
#: parameter types), source locations and constant markers
_PAIR_VARYING = frozenset(["dtype", "type", "loc", "eps_of"])


def _pair(a, b, twin) -> None:
    """Map ``id`` of every node of ``a`` to its twin in ``b``, asserting
    both trees have the same shape; only dtypes and float constant
    values may differ."""
    assert type(a) is type(b), f"{type(a).__name__} vs {type(b).__name__}"
    if isinstance(a, (list, tuple)):
        assert len(a) == len(b), "sequence length diverged"
        for x, y in zip(a, b):
            _pair(x, y, twin)
        return
    twin[id(a)] = b
    for key, va in vars(a).items():
        if key in _PAIR_VARYING:
            continue
        vb = vars(b)[key]
        if type(va).__module__ == N.__name__ or isinstance(
            va, (list, tuple)
        ):
            _pair(va, vb, twin)
        elif key == "value" and isinstance(va, float):
            # float constants are lane parameters
            assert isinstance(vb, float)
        else:
            assert va == vb and type(va) is type(vb), (key, va, vb)


def rebuilt_adjoints(primal, model, configs):
    """Each configuration's adjoint, built the way a per-config
    estimator builds it (transform + optimisation, no compile)."""
    return [
        build_adjoint(
            apply_precision(primal, c) if c else primal,
            ErrorEstimationModule(model=model),
        )
        for c in configs
    ]


def lower_adjoint_pool_reference(program, variants) -> LoweredConfigPool:
    """Structural-pairing oracle of ``lower_adjoint_pool``.

    Pairs the program's baseline adjoint node by node with each
    configuration's rebuilt adjoint and reads every round site's dtype
    and every float constant's value off its twin — what the lanes
    must reproduce without rebuilding anything.
    """
    k = len(variants)
    rs = np.zeros((len(program.round_sites), k), dtype=np.int8)
    cs = np.zeros((len(program.const_sites), k), dtype=np.float64)
    for j, variant in enumerate(variants):
        twin = {}
        _pair(program.fn.params, variant.params, twin)
        _pair(program.fn.body, variant.body, twin)
        for i, site in enumerate(program.round_sites):
            rs[i, j] = _dtype_code(
                _site_dtype(site.kind, twin[id(site.node)])
            )
        for i, c in enumerate(program.const_sites):
            cs[i, j] = twin[id(c)].value
    return LoweredConfigPool(
        k=k,
        selectors=[runtime.LaneSelector.from_codes(row) for row in rs],
        charges=[],
        consts=_pack_rows(cs, k),
    )


#: the apps whose estimators run on lanes (kmeans and hpccg estimators
#: take array parameters): kernel, candidates, swept inputs, a config
#: keyed by an inlined-prefix name, and an approx-model variable map
LANE_APPS = {
    "arclength": (
        arclength.arclength,
        arclength.TUNING_CANDIDATES,
        ("h",),
        {"t": DType.F16, "x": DType.F32},
        {"diff": "sqrt"},
    ),
    "simpsons": (
        simpsons.simpson,
        simpsons.TUNING_CANDIDATES,
        ("lo", "hi"),
        {"fx": DType.F32, "s": DType.F16},
        {"x": "sqrt"},
    ),
    "blackscholes": (
        bs.bs_price,
        bs.SEARCH_CANDIDATES,
        ("sptprice", "volatility"),
        {"x": DType.F16, "expin_in1": DType.F16, "expin": DType.F32},
        bs.APPROX_VARIABLE_MAP,
    ),
}
LANE_MODELS = {
    "taylor": lambda app: TaylorModel(),
    "adapt": lambda app: AdaptModel(),
    "cena": lambda app: CenaModel(),
    "approx+taylor": lambda app: ApproxModel(
        LANE_APPS[app][4], fallthrough=TaylorModel()
    ),
}


class TestAdjointLowering:
    @pytest.mark.parametrize("model_name", sorted(LANE_MODELS))
    @pytest.mark.parametrize("app", sorted(LANE_APPS))
    def test_derived_matches_rebuilt_adjoints(self, app, model_name):
        kern, names, swept, prefixed, _ = LANE_APPS[app]
        model = LANE_MODELS[model_name](app)
        pool = (
            [PrecisionConfig(), PrecisionConfig(prefixed)]
            + make_pool(names, 8, seed=len(app), p=0.5)
        )
        variants = rebuilt_adjoints(kern.ir, model, pool)
        est = cached_error_estimator(kern, model=model)
        plan = LoweringPlan(kern.ir)
        for batched in (frozenset(), frozenset(swept)):
            program = est.config_batched._kernel(batched).program
            _pools_equal(
                lower_adjoint_pool(program, plan, pool),
                lower_adjoint_pool_reference(program, variants),
            )

    def test_unknown_name_raises_the_scalar_keyerror(self):
        est = cached_error_estimator(bs.bs_price)
        program = est.config_batched._kernel(frozenset()).program
        bad = PrecisionConfig({"_d_login": DType.F32})
        with pytest.raises(KeyError) as derived:
            lower_adjoint_pool(program, LoweringPlan(bs.bs_price.ir), [bad])
        with pytest.raises(KeyError) as scalar:
            apply_precision(bs.bs_price.ir, bad)
        assert str(derived.value) == str(scalar.value)

    def test_marker_is_invisible_and_survives_clone(self):
        def consts(fn):
            return [
                n
                for s in walk_stmts(fn.body)
                for e in iter_stmt_exprs(s)
                for n in walk_expr(e)
                if isinstance(n, N.Const)
            ]

        adj = cached_error_estimator(bs.bs_price).adjoint_ir
        copy = ir_builder.clone(adj)
        marks = [c.eps_of for c in consts(adj)]
        assert any(marks)
        assert [c.eps_of for c in consts(copy)] == marks
        for c in consts(copy):
            c.eps_of = None
        assert ir_fingerprint(copy) == ir_fingerprint(adj)


class _UnmarkedEpsModel(ErrorModel):
    """Eq. 1 with the machine epsilon baked in *unmarked*: a third-party
    model whose dtype-dependent constant the lanes cannot see."""

    name = "unmarked-eps"

    def error_expr(self, ctx, target, adjoint, stmt):
        dt = target.dtype or DType.F64
        if not dt.is_float:
            return None
        return ir_builder.fabs(
            ir_builder.mul(
                ir_builder.const(machine_eps(dt)),
                ir_builder.mul(
                    _target_read(target), ir_builder.clone(adjoint)
                ),
            )
        )


class _ClaimsMarkedModel(_UnmarkedEpsModel):
    """The same model wrongly declaring its constants marked."""

    name = "claims-marked"
    marks_dtype_constants = True


class _FoldedEpsModel(ErrorModel):
    """Marks its epsilon but multiplies it by a constant the optimiser
    folds in, so the marked constant does not survive."""

    name = "folded-eps"
    marks_dtype_constants = True

    def error_expr(self, ctx, target, adjoint, stmt):
        from repro.core.models import eps_const

        dt = target.dtype or DType.F64
        if not dt.is_float:
            return None
        scaled = ir_builder.mul(
            ir_builder.const(0.5), eps_const(_target_name(target), dt)
        )
        return ir_builder.fabs(
            ir_builder.mul(
                scaled,
                ir_builder.mul(
                    _target_read(target), ir_builder.clone(adjoint)
                ),
            )
        )


class TestLaneSafety:
    def _sweep(self):
        sw = random_sweep(
            {"sptprice": (25.0, 150.0), "volatility": (0.05, 0.65)},
            n=6,
            seed=5,
        )
        return (sw["sptprice"], 100.0, 0.05, sw["volatility"], 0.5, 0)

    def _assert_lanes_match_fresh(self, rep, pool, model, args):
        for lane, cfg in enumerate(pool):
            mixed = (
                apply_precision(bs.bs_price.ir, cfg)
                if cfg
                else bs.bs_price.ir
            )
            ref = ErrorEstimator(mixed, model=model).execute_batch(*args)
            assert np.array_equal(ref.values, rep.values[lane])
            assert np.array_equal(ref.total_error, rep.total_error[lane])

    @pytest.mark.parametrize(
        "model_cls", [_UnmarkedEpsModel, _FoldedEpsModel],
        ids=["undeclared", "folded"],
    )
    def test_unliftable_constants_take_the_loop_backend(self, model_cls):
        args = self._sweep()
        pool = make_pool(bs.SEARCH_CANDIDATES, 4, seed=3)
        model = model_cls()
        est = cached_error_estimator(bs.bs_price, model=model)
        before = _work_stats()["config_batch_fallbacks"]
        rep = est.execute_config_batch(pool, *args)
        assert rep.backend == "loop"
        assert _work_stats()["config_batch_fallbacks"] == before + 1
        self._assert_lanes_match_fresh(rep, pool, model, args)

    def test_marked_and_unmarked_twins_never_share_lanes(self):
        # TaylorModel(precision=F64) prints the same adjoint as the
        # default Taylor model, but its epsilons are fixed while the
        # default's follow each lane's dtypes
        args = self._sweep()
        pool = make_pool(bs.SEARCH_CANDIDATES, 4, seed=8)
        for model in (TaylorModel(precision=DType.F64), TaylorModel()):
            rep = cached_error_estimator(
                bs.bs_price, model=model
            ).execute_config_batch(pool, *args)
            assert rep.backend == "lanes"
            self._assert_lanes_match_fresh(rep, pool, model, args)

    def test_the_declaration_is_what_keeps_lanes_correct(self):
        # the same unmarked constant run on lanes anyway: the baseline
        # epsilon leaks into every demoted lane
        args = self._sweep()
        pool = [PrecisionConfig.demote(bs.SEARCH_CANDIDATES)]
        model = _ClaimsMarkedModel()
        rep = cached_error_estimator(
            bs.bs_price, model=model
        ).execute_config_batch(pool, *args)
        assert rep.backend == "lanes"
        ref = ErrorEstimator(
            apply_precision(bs.bs_price.ir, pool[0]), model=model
        ).execute_batch(*args)
        assert not np.array_equal(ref.total_error, rep.total_error[0])


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


#: small search scenarios: kmeans has no input sweep; simpsons sweeps
#: its integration domain, so it also pins the estimated-error axis
SEARCH_SCENARIOS = {
    "kmeans": lambda: km.search_scenario(size=10, n_workloads=2),
    "simpsons": lambda: simpsons.search_scenario(size=20, n_samples=8),
}


class TestSearchIntegration:
    def _front_fp(self, res):
        return [(p.key, p.error, p.cycles) for p in res.front.points]

    @pytest.mark.parametrize("name", sorted(SEARCH_SCENARIOS))
    def test_search_config_batch_identical_to_per_candidate(
        self, name, tmp_path
    ):
        scen = SEARCH_SCENARIOS[name]()
        runs, builds = {}, {}
        for batch in (True, False):
            clear_estimator_memo()
            runs[batch] = scen.run(
                session=Session(store=tmp_path / str(batch)),
                seed=0,
                budget=10,
                config_batch=batch,
            )
            builds[batch] = _memo_stats()["misses"]
        a, b = runs[True], runs[False]
        assert search_fingerprint(a) == search_fingerprint(b)
        assert a.run_id is not None
        assert b.stats["evaluator"]["pool_mode"] is None
        if name == "kmeans":
            assert a.stats["evaluator"]["pool_mode"] == "perpoint"
        else:
            assert a.stats["evaluator"]["pool_runs"] >= 1
            assert all(c.estimated_error is not None for c in a.evaluations)
            # pools are estimated on the kernel's own estimator instead
            # of one adjoint build per demoted candidate
            assert builds[True] < builds[False]

    def test_blackscholes_search_builds_one_adjoint_per_estimator(self):
        clear_estimator_memo()
        scen = bs.search_scenario(n_points=2, n_samples=8)
        res = scen.run(session=Session(), seed=0, budget=16)
        work = res.stats["work"]
        assert res.stats["evaluator"]["pool_runs"] >= 1
        assert work["estimator_builds"] >= 1
        assert work["adjoint_builds"] == work["estimator_builds"]
        assert work["config_batch_fallbacks"] == 0
        assert set(Session().stats()["work"]) == set(work)

    def test_prepare_prewarms_the_estimator_lanes(self):
        # forked workers inherit the compiled lane kernel instead of
        # compiling their own
        clear_estimator_memo()
        scen = bs.search_scenario(n_points=2, n_samples=8)
        ev = CandidateEvaluator(
            scen.kernel, scen.points, samples=scen.samples,
            fixed=scen.fixed,
        )
        ev.prepare()
        est = cached_error_estimator(scen.kernel, model=TaylorModel())
        kernels = est.config_batched._kernels
        assert [k for k in kernels.values() if k is not None]

    def test_searched_candidates_hit_the_sweep_cache(self):
        # pool-wise estimates store each candidate's report under the
        # key a later per-candidate run_sweep looks up, and the stored
        # report equals a fresh one bit for bit
        scen = SEARCH_SCENARIOS["simpsons"]()
        cache = SweepCache()
        res = scen.run(session=Session(cache=cache), seed=0, budget=10)
        assert res.stats["evaluator"]["pool_runs"] >= 1
        for c in res.evaluations:
            mixed = (
                apply_precision(scen.kernel, c.config)
                if c.config
                else scen.kernel
            )
            kwargs = dict(
                samples=scen.samples, fixed=scen.fixed, model=TaylorModel()
            )
            hit = run_sweep(mixed, cache=cache, **kwargs)
            assert hit.from_cache
            assert_reports_identical(hit, run_sweep(mixed, **kwargs))
            assert c.estimated_error == float(np.max(hit.total_error))

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
