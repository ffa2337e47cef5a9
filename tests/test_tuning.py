"""Mixed-precision tuning tests: precision rewriting, the greedy
threshold search, configuration validation, and the loop-split
(perforation) analysis."""


import numpy as np
import pytest

from repro.frontend import kernel
from repro.ir.types import ArrayType, DType
from repro.ir.visitor import walk_stmts
from repro.ir import nodes as N
from repro.tuning import (
    PrecisionConfig,
    apply_precision,
    estimate_split_speedup,
    find_split_iteration,
    iteration_sensitivity,
    validate_config,
)
from repro.tuning.greedy import run_greedy_tune


@kernel
def tu_kernel(n: int, h: float, data: "f64[]") -> float:
    s = 0.0
    t = 0.0
    for i in range(n):
        t = data[i] * h + t * 0.5
        s = s + sqrt(t * t + h)
    return s


def _workload(n=64, seed=5):
    rng = np.random.default_rng(seed)
    return (n, 1.0 / 3.0, rng.uniform(0.1, 1.0, n))


class TestPrecisionConfig:
    def test_demote_builder(self):
        c = PrecisionConfig.demote(["a", "b"])
        assert c.demotions == {"a": DType.F32, "b": DType.F32}
        assert c.demoted_names == ["a", "b"]
        assert bool(c)
        assert not PrecisionConfig()

    def test_describe(self):
        c = PrecisionConfig.demote(["t"], to=DType.F16)
        assert "t->f16" in c.describe()
        assert PrecisionConfig().describe() == "(uniform f64)"


class TestApplyPrecision:
    def test_rewrites_local_dtype(self):
        mixed = apply_precision(
            tu_kernel.ir, PrecisionConfig.demote(["t"])
        )
        decls = {
            s.name: s.dtype
            for s in walk_stmts(mixed.body)
            if isinstance(s, N.VarDecl)
        }
        assert decls["t"] is DType.F32
        assert decls["s"] is DType.F64

    def test_rewrites_array_param(self):
        mixed = apply_precision(
            tu_kernel.ir, PrecisionConfig.demote(["data"])
        )
        assert mixed.param("data").type == ArrayType(DType.F32)

    def test_original_untouched(self):
        apply_precision(tu_kernel.ir, PrecisionConfig.demote(["t"]))
        decls = {
            s.name: s.dtype
            for s in walk_stmts(tu_kernel.ir.body)
            if isinstance(s, N.VarDecl)
        }
        assert decls["t"] is DType.F64

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="nope"):
            apply_precision(
                tu_kernel.ir, PrecisionConfig.demote(["nope"])
            )

    def test_demotion_changes_result(self):
        args = _workload()
        mixed = apply_precision(
            tu_kernel.ir, PrecisionConfig.demote(["t", "s", "data", "h"])
        )
        from repro.codegen.compile import compile_primal

        ref = tu_kernel(*args)
        low = compile_primal(mixed)(*_workload())
        assert ref != low
        assert abs(ref - low) / abs(ref) < 1e-5  # still close


class TestGreedy:
    def test_respects_threshold(self):
        args = _workload()
        result = run_greedy_tune(tu_kernel, args, threshold=1e-7)
        assert result.estimated_error <= 1e-7
        # the ranking covers every error register
        assert len(result.ranking) >= 3

    def test_zero_threshold_demotes_nothing_inexact(self):
        args = _workload()
        result = run_greedy_tune(tu_kernel, args, threshold=0.0)
        # only exactly-zero-contribution variables may be demoted
        for v in result.demoted:
            assert dict(result.ranking)[v] == 0.0

    def test_huge_threshold_demotes_everything(self):
        args = _workload()
        result = run_greedy_tune(tu_kernel, args, threshold=1e6)
        assert set(result.demoted) == {v for v, _ in result.ranking}

    def test_candidates_filter(self):
        args = _workload()
        result = run_greedy_tune(
            tu_kernel, args, threshold=1e6, candidates=["t"]
        )
        assert result.demoted == ["t"]

    def test_monotone_in_threshold(self):
        args = _workload()
        small = run_greedy_tune(tu_kernel, args, threshold=1e-9)
        large = run_greedy_tune(tu_kernel, args, threshold=1e-3)
        assert set(small.demoted) <= set(large.demoted)


class TestValidate:
    def test_actual_error_within_estimate_ballpark(self):
        args = _workload()
        tuning = run_greedy_tune(tu_kernel, args, threshold=1e-6)
        v = validate_config(tu_kernel, tuning.config, _workload())
        # first-order estimates: actual within ~10x of the bound
        assert v.actual_error <= 10.0 * max(tuning.estimated_error, 1e-300)

    def test_empty_config_identity(self):
        v = validate_config(tu_kernel, PrecisionConfig(), _workload())
        assert v.actual_error == 0.0
        assert v.speedup == 1.0

    def test_demotion_gives_model_speedup(self):
        config = PrecisionConfig.demote(["t", "s", "data", "h"])
        v = validate_config(tu_kernel, config, _workload(256))
        assert v.speedup > 1.05
        assert v.cost_mixed < v.cost_reference

    def test_arrays_not_clobbered_between_runs(self):
        args = _workload()
        data_before = args[2].copy()
        validate_config(
            tu_kernel, PrecisionConfig.demote(["data"]), args
        )
        np.testing.assert_array_equal(args[2], data_before)


class TestPerforation:
    def test_iteration_sensitivity_reshapes_and_reverses(self):
        # 3 iterations x 2 samples, backward order
        trace = [6.0, 5.0, 4.0, 3.0, 2.0, 1.0]
        s = iteration_sensitivity(trace, 3)
        # iteration 0 (executed first) is at the trace's *end*
        np.testing.assert_array_equal(s, [3.0, 7.0, 11.0])

    def test_iteration_sensitivity_validates(self):
        with pytest.raises(ValueError, match="divisible"):
            iteration_sensitivity([1.0, 2.0, 3.0], 2)
        with pytest.raises(ValueError, match="positive"):
            iteration_sensitivity([1.0], 0)

    def test_find_split_iteration(self):
        a = np.array([1.0, 0.5, 1e-9, 1e-10, 1e-12])
        b = np.array([0.8, 0.2, 1e-8, 1e-11, 1e-12])
        split = find_split_iteration({"a": a, "b": b}, threshold=1e-6)
        assert split == 2

    def test_no_safe_split(self):
        a = np.array([1.0, 0.9, 1.0])
        assert find_split_iteration({"a": a}, threshold=0.5) == 3

    def test_split_at_zero_when_all_quiet(self):
        a = np.zeros(4)
        assert find_split_iteration({"a": a}, threshold=0.5) == 0

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            find_split_iteration(
                {"a": np.zeros(3), "b": np.zeros(4)}, 0.5
            )

    def test_split_speedup_formula(self):
        # all-low is the upper bound on the split speedup
        full = estimate_split_speedup(10.0, 5.0, 0, 100)
        assert full == pytest.approx(2.0)
        none = estimate_split_speedup(10.0, 5.0, 100, 100)
        assert none == pytest.approx(1.0)
        half = estimate_split_speedup(10.0, 5.0, 50, 100)
        assert half == pytest.approx(10.0 / 7.5)
