"""Direct coverage for :mod:`repro.tuning.validate` and
:mod:`repro.tuning.perforation`: speedup edge cases (zero-cost versus
degenerate configurations), reference reuse, the ``apply_precision``
round trip, and perforated-loop error accounting on real traces."""

import numpy as np
import pytest

import repro
from repro.frontend import kernel
from repro.ir import nodes as N
from repro.ir.types import DType
from repro.ir.visitor import walk_stmts
from repro.tuning import (
    ConfigValidation,
    PrecisionConfig,
    ReferencePoint,
    apply_precision,
    estimate_split_speedup,
    find_split_iteration,
    iteration_sensitivity,
    measure_reference,
    validate_config,
)
from repro.tuning.validate import counting_runner


@kernel
def vp_kernel(n: int, h: float, data: "f64[]") -> float:
    s = 0.0
    t = 0.0
    for i in range(n):
        t = data[i] * h + t * 0.5
        s = s + sqrt(t * t + h)
    return s


def _workload(n=32, seed=9):
    rng = np.random.default_rng(seed)
    return (n, 0.25, rng.uniform(0.1, 1.0, n))


def _validation(ref_cost, mixed_cost):
    return ConfigValidation(
        config=PrecisionConfig(),
        reference_value=1.0,
        mixed_value=1.0,
        actual_error=0.0,
        cost_reference=ref_cost,
        cost_mixed=mixed_cost,
    )


class TestSpeedupEdgeCases:
    def test_zero_cost_kernel_is_unit_speedup(self):
        v = _validation(0.0, 0.0)
        assert v.is_zero_cost
        assert not v.degenerate
        assert v.speedup == 1.0

    def test_degenerate_config_raises_instead_of_reporting_one(self):
        v = _validation(100.0, 0.0)
        assert v.degenerate
        with pytest.raises(ValueError, match="degenerate"):
            v.speedup

    def test_negative_cycle_counts_rejected_at_construction(self):
        with pytest.raises(ValueError, match="negative"):
            _validation(-1.0, 10.0)
        with pytest.raises(ValueError, match="negative"):
            _validation(10.0, -1.0)

    def test_normal_ratio(self):
        assert _validation(100.0, 50.0).speedup == 2.0


class TestReferenceReuse:
    def test_measure_reference_matches_validate(self):
        args = _workload()
        ref = measure_reference(vp_kernel, args)
        v = validate_config(vp_kernel, PrecisionConfig(), args)
        assert ref.value == v.reference_value
        assert ref.cost == v.cost_reference

    def test_validate_with_precomputed_reference(self):
        args = _workload()
        ref = measure_reference(vp_kernel, args)
        cfg = PrecisionConfig.demote(["t", "s"])
        direct = validate_config(vp_kernel, cfg, args)
        reused = validate_config(vp_kernel, cfg, args, reference=ref)
        assert reused.actual_error == direct.actual_error
        assert reused.cost_mixed == direct.cost_mixed
        assert reused.cost_reference == direct.cost_reference

    def test_reference_is_trusted_verbatim(self):
        # the supplied reference feeds the error/speedup arithmetic
        args = _workload()
        fake = ReferencePoint(value=0.0, cost=1.0)
        v = validate_config(
            vp_kernel, PrecisionConfig.demote(["t"]), args,
            reference=fake,
        )
        assert v.reference_value == 0.0
        assert v.actual_error == abs(v.mixed_value)

    def test_counting_runner_reusable_and_copies_arrays(self):
        run = counting_runner(vp_kernel.ir)
        args = _workload()
        before = args[2].copy()
        v1, c1 = run(args)
        v2, c2 = run(args)
        assert (v1, c1) == (v2, c2)
        np.testing.assert_array_equal(args[2], before)


class TestApplyPrecisionRoundTrip:
    def test_demote_then_promote_restores_dtypes(self):
        down = apply_precision(
            vp_kernel.ir, PrecisionConfig.demote(["t", "data"])
        )
        up = apply_precision(
            down, PrecisionConfig({"t": DType.F64, "data": DType.F64})
        )
        decls = {
            s.name: s.dtype
            for s in walk_stmts(up.body)
            if isinstance(s, N.VarDecl)
        }
        assert decls["t"] is DType.F64
        assert up.param("data").type.dtype is DType.F64

    def test_round_trip_restores_reference_values(self):
        from repro.codegen.compile import compile_primal

        args = _workload()
        ref = vp_kernel(*_workload())
        down = apply_precision(
            vp_kernel.ir, PrecisionConfig.demote(["t", "s", "h"])
        )
        up = apply_precision(
            down,
            PrecisionConfig(
                {"t": DType.F64, "s": DType.F64, "h": DType.F64}
            ),
        )
        assert compile_primal(up)(*args) == ref

    def test_round_trip_cost_matches_reference(self):
        args = _workload()
        ref = measure_reference(vp_kernel, args)
        down = apply_precision(
            vp_kernel.ir, PrecisionConfig.demote(["t"])
        )
        up = apply_precision(down, PrecisionConfig({"t": DType.F64}))
        again = measure_reference(up, args)
        assert again.cost == ref.cost
        assert again.value == ref.value


class TestPerforationAccounting:
    """Per-iteration error accounting on a *real* sensitivity trace."""

    N_ITER = 6

    def _trace(self):
        @kernel
        def vp_accum(n: int, x: float) -> float:
            s = 0.0
            for i in range(n):
                s = s + x * x
            return s

        est = repro.Session().estimate(vp_accum, track=["s"])
        rep = est.execute(self.N_ITER, 0.37)
        trace = rep.traces["s"]
        # one sample per assignment to `s`, backward order: the final
        # entry is the `s = 0.0` initialization (executed first) — the
        # loop-body accounting folds the remaining N_ITER samples
        assert len(trace) == self.N_ITER + 1
        assert trace[-1] == 0.0
        return trace[:-1]

    def test_trace_folds_into_iterations_and_preserves_mass(self):
        trace = self._trace()
        assert len(trace) % self.N_ITER == 0
        series = iteration_sensitivity(trace, self.N_ITER)
        assert series.shape == (self.N_ITER,)
        assert series.sum() == pytest.approx(float(np.sum(trace)))

    def test_iteration_order_is_forward(self):
        trace = self._trace()
        series = iteration_sensitivity(trace, self.N_ITER)
        per_iter = self._group_backward(trace)
        # trace arrives in backward-sweep order: its first group is the
        # LAST iteration
        assert series[-1] == pytest.approx(per_iter[0])
        assert series[0] == pytest.approx(per_iter[-1])

    def _group_backward(self, trace):
        width = len(trace) // self.N_ITER
        arr = np.asarray(trace, dtype=np.float64)
        return arr.reshape(self.N_ITER, width).sum(axis=1)

    def test_split_pipeline_on_decaying_series(self):
        # a decaying sensitivity profile: split where it goes quiet
        series = {
            "r": np.array([1.0, 0.5, 0.1, 1e-8, 1e-9, 1e-9]),
            "p": np.array([0.8, 0.7, 0.2, 1e-7, 1e-9, 1e-10]),
        }
        split = find_split_iteration(series, threshold=1e-5)
        assert split == 3
        sp = estimate_split_speedup(10.0, 5.0, split, 6)
        assert 1.0 < sp < 2.0

    def test_split_speedup_degenerate_inputs(self):
        assert estimate_split_speedup(10.0, 5.0, 0, 0) == 1.0
        assert estimate_split_speedup(10.0, 5.0, 2, -1) == 1.0
        # non-positive split cost cannot report a speedup
        assert estimate_split_speedup(0.0, 0.0, 0, 10) == 1.0
