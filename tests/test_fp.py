"""FP substrate tests: rounding, ULPs, FastApprox accuracy, counters."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fp import (
    CastCounter,
    EPS_F32,
    demotion_error,
    eps_of,
    fastapprox as fa,
    float_distance,
    round_f16,
    round_f32,
    round_to,
    ulp,
)
from repro.ir.types import DType

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e30, max_value=1e30
)
positive_floats = st.floats(min_value=1e-30, max_value=1e30)


class TestRounding:
    def test_round_f32_idempotent(self):
        v = round_f32(math.pi)
        assert round_f32(v) == v

    def test_round_f32_matches_numpy(self):
        for x in (math.pi, 1e-7, 12345.6789, -2.5e10):
            assert round_f32(x) == float(np.float32(x))

    def test_round_f16(self):
        assert round_f16(1.0) == 1.0
        assert round_f16(math.pi) == float(np.float16(math.pi))

    def test_round_f16_overflow_guard_matches_the_cast(self):
        below = np.nextafter(65520.0, 0.0)  # 65519.99...
        edges = [65504.0, below, 65520.0, 1e300, math.inf]
        with np.errstate(over="ignore"):
            for x in edges + [-x for x in edges]:
                want = float(np.float16(x))
                assert round_f16(x) == want
                assert math.copysign(1.0, round_f16(x)) == math.copysign(
                    1.0, want
                )
        assert round_f16(below) == 65504.0
        assert round_f16(65520.0) == math.inf
        assert math.isnan(round_f16(math.nan))
        arr = np.array(edges)
        assert np.array_equal(
            round_to(arr, DType.F16),
            np.array([65504.0, 65504.0, math.inf, math.inf, math.inf]),
        )

    def test_round_to_arrays(self):
        a = np.array([math.pi, math.e])
        r = round_to(a, DType.F32)
        assert r.dtype == np.float64
        assert np.all(r == a.astype(np.float32).astype(np.float64))

    def test_round_to_non_float_passthrough(self):
        assert round_to(5, DType.I64) == 5

    @given(finite_floats.filter(lambda x: x == 0.0 or abs(x) > 1e-37))
    @settings(max_examples=300)
    def test_demotion_error_bound(self, x):
        # |x - (float)x| <= eps_f32 * |x| in binary32's *normal* range
        # (subnormal underflow legitimately violates the relative bound)
        err = abs(demotion_error(x))
        assert err <= EPS_F32 * abs(x) + 1e-300

    @given(finite_floats)
    def test_roundtrip_exact_for_f32_values(self, x):
        v = round_f32(x)
        assert demotion_error(v) == 0.0

    def test_eps_of(self):
        assert eps_of(DType.F32) == 2.0 ** -23
        with pytest.raises(KeyError):
            eps_of(DType.B1)


class TestUlp:
    def test_float_distance_adjacent(self):
        x = 1.0
        y = math.nextafter(x, 2.0)
        assert float_distance(x, y) == 1

    def test_float_distance_symmetric(self):
        assert float_distance(1.0, 1.5) == float_distance(1.5, 1.0)

    def test_float_distance_across_zero(self):
        a = math.nextafter(0.0, -1.0)
        c = math.nextafter(0.0, 1.0)
        assert float_distance(a, c) == 2

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            float_distance(float("nan"), 1.0)

    def test_ulp_positive(self):
        assert ulp(1.0) == 2.0 ** -52


class TestFastApprox:
    @given(st.floats(min_value=1e-20, max_value=1e20))
    @settings(max_examples=300)
    def test_fastlog2_accuracy(self, x):
        assert fa.fastlog2(x) == pytest.approx(
            math.log2(x), abs=2e-4, rel=1e-3
        )

    @given(st.floats(min_value=-80.0, max_value=80.0))
    @settings(max_examples=300)
    def test_fastpow2_relative_accuracy(self, p):
        assert fa.fastpow2(p) == pytest.approx(2.0 ** p, rel=3e-4)

    @given(st.floats(min_value=-50.0, max_value=50.0))
    def test_fastexp(self, p):
        assert fa.fastexp(p) == pytest.approx(math.exp(p), rel=5e-4)

    @given(positive_floats)
    @settings(max_examples=300)
    def test_fastsqrt(self, x):
        assert fa.fastsqrt(x) == pytest.approx(math.sqrt(x), rel=5e-3)

    def test_fastsqrt_zero(self):
        assert fa.fastsqrt(0.0) == 0.0

    @given(st.floats(min_value=0.1, max_value=100.0),
           st.floats(min_value=-3.0, max_value=3.0))
    def test_fastpow(self, x, p):
        assert fa.fastpow(x, p) == pytest.approx(x ** p, rel=2e-3)

    def test_faster_tier_is_cruder_but_sane(self):
        x = 7.3
        fine = abs(fa.fastlog(x) - math.log(x))
        crude = abs(fa.fasterlog(x) - math.log(x))
        assert fine < 1e-4
        assert crude < 0.05

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            fa.fastlog(-1.0)
        with pytest.raises(ValueError):
            fa.fastrsqrt(0.0)

    def test_variant_tables_consistent(self):
        for name, fn in fa.FAST_VARIANTS.items():
            assert name in fa.EXACT_REFERENCE
            assert callable(fn)

    def test_nonzero_approximation_error(self):
        # the whole point: these are *approximate*
        assert fa.fastexp(1.0) != math.exp(1.0)
        assert fa.fastlog(2.7) != math.log(2.7)


class TestCastCounter:
    def test_records_and_totals(self):
        c = CastCounter()
        c.record(DType.F64, DType.F32)
        c.record(DType.F64, DType.F32, times=2)
        c.record(DType.F32, DType.F64)
        assert c.total == 4
        assert c.as_dict()[("f64", "f32")] == 3

    def test_same_precision_ignored(self):
        c = CastCounter()
        c.record(DType.F64, DType.F64)
        assert c.total == 0

    def test_merge(self):
        a, b = CastCounter(), CastCounter()
        a.record(DType.F64, DType.F32)
        b.record(DType.F64, DType.F32)
        a.merge(b)
        assert a.total == 2

    def test_str(self):
        c = CastCounter()
        assert "empty" in str(c)
        c.record(DType.F64, DType.F16)
        assert "f64->f16" in str(c)
