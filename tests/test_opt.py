"""Optimization-pass tests: folding, DCE, CSE — each pass must be
semantics-preserving (checked by executing before/after) and must
actually simplify its target patterns."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.codegen.compile import compile_primal
from repro.frontend import kernel
from repro.ir import builder as b
from repro.ir import nodes as N
from repro.ir.types import DType, ScalarType
from repro.opt import dce_function, fold_function, optimize

xs = st.floats(min_value=-50.0, max_value=50.0)


def _fn_of(expr_builder):
    fn = N.Function(
        name="opt_t",
        params=[N.Param("x", ScalarType(DType.F64))],
        body=[N.Return(expr_builder(b.name("x", DType.F64)))],
        ret_dtype=DType.F64,
    )
    return fn


def _ret_expr(fn):
    return fn.body[-1].value


class TestFolding:
    def test_const_arith(self):
        fn = _fn_of(lambda x: b.add(b.const(2.0), b.const(3.0)))
        fold_function(fn)
        assert isinstance(_ret_expr(fn), N.Const)
        assert _ret_expr(fn).value == 5.0

    def test_mul_one_identity(self):
        fn = _fn_of(lambda x: b.mul(x, b.const(1.0)))
        fold_function(fn)
        assert isinstance(_ret_expr(fn), N.Name)

    def test_mul_minus_one_becomes_neg(self):
        fn = _fn_of(lambda x: b.mul(b.const(-1.0), x))
        fold_function(fn)
        assert isinstance(_ret_expr(fn), N.UnaryOp)

    def test_add_zero(self):
        fn = _fn_of(lambda x: b.add(b.const(0.0), x))
        fold_function(fn)
        assert isinstance(_ret_expr(fn), N.Name)

    def test_sub_zero_left(self):
        fn = _fn_of(lambda x: b.sub(b.const(0.0), x))
        fold_function(fn)
        e = _ret_expr(fn)
        assert isinstance(e, N.UnaryOp) and e.op == "-"

    def test_double_negation(self):
        fn = _fn_of(lambda x: b.neg(b.neg(x)))
        fold_function(fn)
        assert isinstance(_ret_expr(fn), N.Name)

    def test_nested_fabs(self):
        fn = _fn_of(lambda x: b.fabs(b.fabs(x)))
        fold_function(fn)
        e = _ret_expr(fn)
        assert isinstance(e, N.Call) and isinstance(e.args[0], N.Name)

    def test_fabs_of_neg(self):
        fn = _fn_of(lambda x: b.fabs(b.neg(x)))
        fold_function(fn)
        e = _ret_expr(fn)
        assert isinstance(e.args[0], N.Name)

    def test_cast_of_const(self):
        fn = _fn_of(lambda x: b.cast(DType.F32, b.const(math.pi)))
        fold_function(fn)
        e = _ret_expr(fn)
        assert isinstance(e, N.Const)
        assert e.value == float(np.float32(math.pi))

    def test_division_by_zero_not_folded(self):
        fn = _fn_of(lambda x: b.div(b.const(1.0), b.const(0.0)))
        fold_function(fn)
        assert isinstance(_ret_expr(fn), N.BinOp)  # left for runtime

    def test_comparison_folding(self):
        fn = _fn_of(lambda x: b.binop("<", b.const(1.0), b.const(2.0)))
        fold_function(fn)
        assert _ret_expr(fn).value is True


class TestDCE:
    def test_dead_store_removed(self):
        fn = N.Function(
            "dce_t",
            [N.Param("x", ScalarType(DType.F64))],
            [
                N.VarDecl("dead", DType.F64, b.mul(b.name("x"), b.const(3.0))),
                N.VarDecl("live", DType.F64, b.add(b.name("x"), b.const(1.0))),
                N.Return(b.name("live", DType.F64)),
            ],
            DType.F64,
        )
        dce_function(fn)
        names = [s.name for s in fn.body if isinstance(s, N.VarDecl)]
        assert "dead" not in names and "live" in names

    def test_dead_pop_becomes_discard(self):
        fn = N.Function(
            "dce_p",
            [N.Param("x", ScalarType(DType.F64))],
            [
                N.VarDecl("v", DType.F64, None),
                N.Push("tape", b.name("x", DType.F64)),
                N.Pop("tape", b.name("v", DType.F64)),
                N.Return(b.name("x", DType.F64)),
            ],
            DType.F64,
        )
        dce_function(fn)
        kinds = [type(s).__name__ for s in fn.body]
        assert "PopDiscard" in kinds  # stack alignment preserved
        assert "Pop" not in kinds


class TestCSE:
    def test_repeated_calls_hoisted(self):
        @kernel
        def cse_k(x: float) -> float:
            a = sin(x) * 2.0
            c = sin(x) * 3.0
            d = sin(x) + a + c
            return d

        opt = optimize(cse_k.ir, level=2)
        src_opt = compile_primal(opt).source
        # three textual sin() calls collapse to one
        assert src_opt.count("_i_sin(") == 1

    def test_invalidation_on_write(self):
        @kernel
        def cse_inv(x: float) -> float:
            a = cos(x) * 1.5
            x = x + 1.0
            c = cos(x) * 2.5
            return a + c

        opt = optimize(cse_inv.ir, level=2)
        src_opt = compile_primal(opt).source
        # the second cos(x) sees a *different* x: must NOT be merged
        assert src_opt.count("_i_cos(") == 2
        assert cse_inv(0.7) == pytest.approx(
            math.cos(0.7) * 1.5 + math.cos(1.7) * 2.5
        )


class TestSemanticsPreservation:
    @given(xs)
    @settings(max_examples=40, deadline=None)
    def test_optimize_preserves_kernel_semantics(self, x):
        @kernel
        def opt_sem(v: float) -> float:
            a = v * 1.0 + 0.0
            c = sin(a) * sin(a) + cos(a) * cos(a)
            d = c - 1.0 + v * 2.0
            return d

        raw = compile_primal(opt_sem.ir)
        opt = compile_primal(optimize(opt_sem.ir, level=2))
        assert raw(x) == opt(x)

    @given(xs)
    @settings(max_examples=25, deadline=None)
    def test_optimized_adjoint_matches_unoptimized(self, x):
        @kernel
        def opt_adj(v: float) -> float:
            w = exp(v * 0.1) * sin(v)
            return w * w

        g0 = repro.gradient(opt_adj, opt_level=0).execute(x)
        g2 = repro.gradient(opt_adj, opt_level=2).execute(x)
        assert g0.value == g2.value
        assert g0.grad("v") == pytest.approx(g2.grad("v"), rel=1e-12)

    def test_optimized_ee_matches_unoptimized(self):
        @kernel
        def opt_ee(v: float) -> float:
            w = v * v + sin(v)
            return w / 2.0

        e0 = repro.Session().estimate(opt_ee, opt_level=0).execute(1.7)
        e2 = repro.Session().estimate(opt_ee, opt_level=2).execute(1.7)
        assert e0.total_error == pytest.approx(e2.total_error, rel=1e-12)
        assert e0.per_variable == pytest.approx(e2.per_variable)

    def test_optimization_reduces_intrinsic_calls(self):
        @kernel
        def opt_sz(v: float) -> float:
            w = sin(v) * cos(v) + sin(v) / (1.0 + cos(v))
            return w

        e0 = repro.Session().estimate(opt_sz, opt_level=0)
        e2 = repro.Session().estimate(opt_sz, opt_level=2)
        calls0 = e0.source.count("_i_sin(") + e0.source.count("_i_cos(")
        calls2 = e2.source.count("_i_sin(") + e2.source.count("_i_cos(")
        assert calls2 < calls0
        # and the optimized analysis is measurably cheaper to run
        assert e2.execute(0.8).total_error == pytest.approx(
            e0.execute(0.8).total_error, rel=1e-12
        )
