"""Error-estimation tests: models, the EE module, report plumbing,
and the bound-quality property (estimates track/bound actual demotion
errors)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.frontend import kernel
from repro.fp.precision import round_f32
from repro.tuning import PrecisionConfig, apply_precision
from repro.codegen.compile import compile_primal

xs = st.floats(min_value=0.1, max_value=10.0)


@kernel
def ee_listing1(x: "f32", y: "f32") -> float:
    z: "f32" = x + y
    return z


@kernel
def ee_chain(x: float) -> float:
    a = x * 1.000001
    c = a * a + 0.5
    d = sin(c) * c
    return d


@kernel
def ee_accum(n: int, x: float) -> float:
    s = 0.0
    for i in range(n):
        s = s + x / (i + 1.0)
    return s


@kernel
def ee_approx_target(x: float) -> float:
    login = x + 1.0
    y = log(login)
    return y * 2.0


class TestListing1:
    """The paper's minimal demonstrator (Listing 1)."""

    def test_estimate_error_runs(self):
        df = repro.Session().estimate(ee_listing1)
        rep = df.execute(1.95e-5, 1.37e-7)
        assert rep.value == float(
            np.float32(np.float32(1.95e-5) + np.float32(1.37e-7))
        )
        assert rep.total_error > 0
        # gradients are exposed like Clad's dx/dy outputs
        assert rep.grad("x") == 1.0
        assert rep.grad("y") == 1.0

    def test_taylor_total_is_sum_of_deltas_plus_inputs(self):
        df = repro.Session().estimate(ee_chain)
        rep = df.execute(1.7)
        assignment_sum = sum(rep.per_variable.values())
        assert rep.total_error == pytest.approx(assignment_sum, rel=1e-12)


class TestTaylorModel:
    @given(xs)
    @settings(max_examples=30, deadline=None)
    def test_scales_with_machine_eps(self, x):
        f64_est = repro.Session().estimate(
            ee_chain, model=repro.TaylorModel()
        ).execute(x)
        f32_est = repro.Session().estimate(
            ee_chain, model=repro.TaylorModel(precision=repro.DType.F32)
        ).execute(x)
        # same structure at eps_f32/eps_f64 ratio = 2^29
        assert f32_est.total_error == pytest.approx(
            f64_est.total_error * 2.0 ** 29, rel=1e-6
        )

    def test_zero_for_zero_values(self):
        rep = repro.Session().estimate(ee_accum).execute(5, 0.0)
        assert rep.total_error == 0.0


class TestAdaptModel:
    @given(xs)
    @settings(max_examples=25, deadline=None)
    def test_estimate_bounds_actual_demotion(self, x):
        """The Eq. 2 estimate must upper-bound (to first order) the
        error of actually demoting everything to f32."""
        est = repro.Session().estimate(
            ee_chain, model=repro.AdaptModel()
        ).execute(x)
        mixed = apply_precision(
            ee_chain.ir,
            PrecisionConfig.demote(["a", "c", "d", "x"]),
        )
        actual = abs(
            ee_chain(x) - compile_primal(mixed)(x)
        )
        # a first-order model: the compounded re-rounding of the real
        # f32 program can exceed the per-assignment sum by small
        # factors, so this is an order-of-magnitude bound, exactly the
        # paper's "loose upper bounds" framing
        assert actual <= 10.0 * est.total_error + 1e-12

    def test_zero_for_f32_representable(self):
        # 0.5 and 0.25 are exact in binary32 -> all deltas are zero
        rep = repro.Session().estimate(
            ee_accum, model=repro.AdaptModel()
        ).execute(2, 0.5)
        assert rep.total_error == 0.0

    def test_per_variable_registers(self):
        rep = repro.Session().estimate(
            ee_chain, model=repro.AdaptModel()
        ).execute(math.pi)
        assert set(rep.per_variable) >= {"a", "c", "d", "x"}
        assert rep.per_variable["x"] == pytest.approx(
            abs(rep.grad("x")) * abs(math.pi - round_f32(math.pi)),
            rel=1e-12,
        )


class TestApproxModel:
    def test_tracks_actual_substitution_error(self):
        """Algorithm 2 weights Δ by the adjoint of the function's
        *input* (paper-faithful), so the estimate differs from the
        actual error by a factor of f'(x) = 1/login here; near
        login ≈ 1 the two coincide."""
        model = repro.ApproxModel({"login": "log"})
        est = repro.Session().estimate(ee_approx_target, model=model)
        exact = compile_primal(ee_approx_target.ir)
        approx = compile_primal(ee_approx_target.ir, approx={"log"})
        # near x=0 (login≈1): estimate ≈ actual
        for x in (0.01, 0.05):
            rep = est.execute(x)
            actual = abs(exact(x) - approx(x))
            assert rep.total_error == pytest.approx(actual, rel=0.12)
        # further out the known chain factor 1/login applies
        for x in (0.5, 4.2, 20.0):
            rep = est.execute(x)
            actual = abs(exact(x) - approx(x))
            assert rep.total_error * (x + 1.0) == pytest.approx(
                actual, rel=0.15, abs=1e-9
            )

    def test_unmapped_variables_skipped(self):
        model = repro.ApproxModel({"nonexistent": "exp"})
        rep = repro.Session().estimate(ee_approx_target, model=model).execute(2.0)
        assert rep.total_error == 0.0

    def test_rejects_unsupported_intrinsic(self):
        with pytest.raises(ValueError, match="sin"):
            repro.ApproxModel({"v": "sin"})

    def test_inline_suffix_matching(self):
        model = repro.ApproxModel({"login": "log"})
        assert model._lookup("login_in1") == "log"
        assert model._lookup("login_in1_in3") == "log"
        assert model._lookup("loginx") is None


class TestExternalModel:
    def test_user_function_receives_names(self):
        seen = []

        def user_fn(dx, x, name):
            seen.append(name)
            return abs(dx * x) * 1e-9

        model = repro.ExternalModel(user_fn)
        rep = repro.Session().estimate(ee_chain, model=model).execute(2.0)
        assert rep.total_error > 0
        assert "a" in seen and "c" in seen and "d" in seen

    def test_adapt_model_reimplementable_externally(self):
        """Listing 3: the ADAPT model expressed as a user callback must
        agree with the built-in AdaptModel."""

        def get_error_val(dx, x, name):
            return abs(dx * (x - round_f32(x)))

        ext = repro.Session().estimate(
            ee_chain, model=repro.ExternalModel(get_error_val)
        ).execute(math.e)
        builtin = repro.Session().estimate(
            ee_chain, model=repro.AdaptModel()
        ).execute(math.e)
        assert ext.total_error == pytest.approx(
            builtin.total_error, rel=1e-12
        )


class TestSensitivityTracking:
    def test_traces_collected_in_backward_order(self):
        est = repro.Session().estimate(ee_accum, track=["s"])
        rep = est.execute(4, 1.0)
        # one trace sample per assignment to s: init + 4 loop iterations
        assert len(rep.traces["s"]) == 5
        # backward order: the *first* sample is the last assignment
        fwd = list(reversed(rep.traces["s"]))
        # s's sensitivity |s*ds| with ds=1 grows with the partial sums
        assert fwd[-1] >= fwd[1]

    def test_untracked_vars_have_no_traces(self):
        est = repro.Session().estimate(ee_accum)
        rep = est.execute(3, 1.0)
        assert rep.traces == {}


class TestReportAPI:
    def test_dominant_variables_sorted(self):
        rep = repro.Session().estimate(ee_chain).execute(2.5)
        dom = rep.dominant_variables(2)
        vals = [rep.per_variable[v] for v in dom]
        assert vals == sorted(vals, reverse=True)

    def test_str_contains_total(self):
        rep = repro.Session().estimate(ee_chain).execute(2.5)
        assert "total_error" in str(rep)
