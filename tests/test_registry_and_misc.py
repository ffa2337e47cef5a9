"""Kernel registry, Kernel object API, the CENA extension model, and
interpreter/frontend corner cases not covered elsewhere."""

import math

import numpy as np
import pytest

import repro
from repro.frontend import get_kernel, kernel
from repro.frontend.intrinsics import INTRINSICS, get_intrinsic, intrinsic_names
from repro.tuning import PrecisionConfig, apply_precision
from repro.codegen.compile import compile_primal


@kernel
def rm_square(x: float) -> float:
    y = x * x
    return y


class TestRegistry:
    def test_lookup_by_name(self):
        assert get_kernel("rm_square") is rm_square
        assert get_kernel("no_such_kernel") is None

    def test_repr_and_source(self):
        assert "rm_square" in repr(rm_square)
        assert "def rm_square(x: f64) -> f64:" in rm_square.source

    def test_callable_like_original(self):
        assert rm_square(3.0) == 9.0

    def test_run_reference_matches(self):
        assert rm_square.run_reference(2.5) == rm_square(2.5)

    def test_redefinition_replaces(self):
        @kernel
        def rm_temp(x: float) -> float:
            return x + 1.0

        first = get_kernel("rm_temp")

        @kernel  # noqa: F811
        def rm_temp(x: float) -> float:  # noqa: F811
            return x + 2.0

        second = get_kernel("rm_temp")
        assert second is not first
        assert second(1.0) == 3.0


class TestIntrinsicsRegistry:
    def test_all_have_impls(self):
        for name in intrinsic_names():
            info = get_intrinsic(name)
            assert callable(info.impl), name
            assert info.arity in (1, 2, 3), name

    def test_derivative_arity_matches(self):
        from repro.ir import builder as b
        from repro.ir.types import DType

        for name, info in INTRINSICS.items():
            if info.deriv is None:
                continue
            args = [b.name(f"a{i}", DType.F64) for i in range(info.arity)]
            partials = info.deriv(args)
            assert len(partials) == info.arity, name

    def test_fast_variants_registered(self):
        for base in ("exp", "log", "sqrt", "pow", "log2", "exp2"):
            info = get_intrinsic(f"fast_{base}")
            exact = get_intrinsic(base)
            # approximate versions are priced below libm
            assert (
                list(info.cost.values())[0]
                < exact.cost[repro.DType.F64]
            )

    def test_numeric_agreement_with_adapt_tables(self):
        """The registry's symbolic derivatives and ADAPT's numeric
        tables must agree (two implementations, one math)."""
        from repro.adapt.advalues import _NUMERIC_DERIVS
        from repro.core.pullback import pullback
        from repro.interp.interpreter import run_function
        from repro.ir import builder as b
        from repro.ir import nodes as N
        from repro.ir.types import DType, ScalarType
        from repro.ir.typecheck import infer_types

        test_points = {1: (0.37,), 2: (1.3, 0.7)}
        for name, info in INTRINSICS.items():
            if info.deriv is None or name.startswith("fast_"):
                continue
            if name == "user_err":
                continue
            args_v = test_points[info.arity]
            numeric = _NUMERIC_DERIVS[name](*args_v)
            # evaluate the symbolic partials at the same point
            params = [
                N.Param(f"a{i}", ScalarType(DType.F64))
                for i in range(info.arity)
            ]
            arg_exprs = [b.name(f"a{i}", DType.F64) for i in range(info.arity)]
            call = b.call(name, arg_exprs)
            contribs = pullback(call, b.fone())
            got = {}
            for lv, contrib in contribs:
                fn = N.Function("d", params, [N.Return(contrib)], DType.F64)
                infer_types(fn)
                got[lv.id] = got.get(lv.id, 0.0) + run_function(
                    fn, list(args_v)
                )
            for i, expected in enumerate(numeric):
                sym = got.get(f"_d_a{i}", 0.0)
                assert sym == pytest.approx(expected, rel=1e-12), name


class TestCenaModel:
    @kernel
    def cena_fn(x: float) -> float:  # noqa: N805
        a = x * 1.0000001
        c = a + x
        d = c * a - x
        return d

    def test_signed_total_tighter_than_abs_bound(self):
        x = math.pi
        cena = repro.Session().estimate(
            self.cena_fn, model=repro.CenaModel()
        ).execute(x)
        adapt = repro.Session().estimate(
            self.cena_fn, model=repro.AdaptModel()
        ).execute(x)
        assert abs(cena.total_error) <= adapt.total_error + 1e-300

    def test_signed_estimate_tracks_net_error(self):
        mixed = apply_precision(
            self.cena_fn.ir,
            PrecisionConfig.demote(["a", "c", "d", "x"]),
        )
        low = compile_primal(mixed)
        cena_errs, adapt_errs = [], []
        signs_right = 0
        points = (math.pi, 1.7, 0.123456789, 9.87654321, 0.777, 42.42)
        for x in points:
            actual = self.cena_fn(x) - low(x)
            cena = repro.Session().estimate(
                self.cena_fn, model=repro.CenaModel()
            ).execute(x)
            adapt = repro.Session().estimate(
                self.cena_fn, model=repro.AdaptModel()
            ).execute(x)
            if math.copysign(1.0, cena.total_error) == math.copysign(
                1.0, actual
            ):
                signs_right += 1
            cena_errs.append(abs(cena.total_error - actual))
            adapt_errs.append(abs(adapt.total_error - abs(actual)))
            # theorem: |signed sum| <= sum of absolutes, always
            assert abs(cena.total_error) <= adapt.total_error + 1e-300
        # first-order signed estimation gets the error's *direction*
        # right for most points (second-order effects may flip it when
        # the net error is tiny); per-point accuracy may favour either
        # estimator — that is exactly the CENA-versus-bound trade-off
        assert signs_right >= len(points) - 2
        assert min(c / a for c, a in zip(cena_errs, adapt_errs)) < 1.0

    def test_sign_information_preserved(self):
        # a pure subtraction of equal demotion errors cancels
        @kernel
        def cena_cancel(x: float) -> float:
            a = x * 1.0
            c = x * 1.0
            d = a - c
            return d

        rep = repro.Session().estimate(
            cena_cancel, model=repro.CenaModel()
        ).execute(math.pi)
        assert rep.total_error == pytest.approx(0.0, abs=1e-300)


class TestInterpreterCorners:
    def test_while_with_guard_break(self):
        @kernel
        def rm_while_guard(x: float) -> float:
            s = 0.0
            while s < 100.0:
                if s > x:
                    break
                s = s + 1.0
            return s

        assert rm_while_guard(5.5) == 6.0
        g = repro.gradient(rm_while_guard).execute(5.5)
        assert g.grad("x") == 0.0  # piecewise-constant in x

    def test_integer_floor_div_and_mod(self):
        @kernel
        def rm_intops(n: int) -> float:
            a = n // 3
            c = n % 3
            return a * 10.0 + c

        for n in (0, 1, 7, 12):
            assert rm_intops(n) == (n // 3) * 10.0 + (n % 3)
            assert rm_intops.run_reference(n) == rm_intops(n)

    def test_boolean_operators(self):
        @kernel
        def rm_bool(x: float) -> float:
            y = 0.0
            if x > 0.0 and not (x > 10.0) or x < -100.0:
                y = 1.0
            return y

        for x, expected in [(5.0, 1.0), (20.0, 0.0), (-200.0, 1.0),
                            (-1.0, 0.0)]:
            assert rm_bool(x) == expected
            assert rm_bool.run_reference(x) == expected

    def test_f16_storage(self):
        @kernel
        def rm_half(x: "f16") -> float:
            y: "f16" = x * x
            return y

        v = rm_half(1.2345)
        h = np.float16
        assert v == float(h(float(h(1.2345)) ** 2))
