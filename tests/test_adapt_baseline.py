"""ADAPT baseline tests: tape mechanics, AdFloat arithmetic, the OOM
budget, and tool-versus-tool agreement on error totals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.adapt import AdaptAnalysis, AdFloat, Tape, TapeLimits
from repro.adapt.tape import NODE_BYTES
from repro.frontend import kernel
from repro.util.errors import AnalysisOutOfMemory

xs = st.floats(min_value=-10.0, max_value=10.0)


@kernel
def ab_fn(x: float, y: float) -> float:
    z = x * y + sin(x) / (2.0 + cos(y))
    w = z * z - x
    return w


@kernel
def ab_loop(n: int, h: float) -> float:
    s = 0.0
    for i in range(n):
        s = s + sqrt(h * h + i * h)
    return s


class TestAdFloat:
    def _x(self, v=2.0):
        t = Tape()
        return AdFloat.input(t, v), t

    def test_arithmetic_values(self):
        x, _ = self._x(3.0)
        assert (x + 1).value == 4.0
        assert (1 + x).value == 4.0
        assert (x - 1).value == 2.0
        assert (1 - x).value == -2.0
        assert (x * 2).value == 6.0
        assert (x / 2).value == 1.5
        assert (6 / x).value == 2.0
        assert (-x).value == -3.0
        assert abs(-x).value == 3.0

    def test_comparisons_use_values(self):
        x, _ = self._x(3.0)
        assert x > 2.5
        assert x <= 3.0
        assert x == 3.0
        assert x != 2.0
        assert bool(x)

    def test_reverse_chain_rule(self):
        x, t = self._x(2.0)
        y = x * x * x  # d/dx = 3x^2 = 12
        adj = t.reverse(y.idx)
        assert adj[x.idx] == pytest.approx(12.0)

    def test_intrinsic_application(self):
        x, t = self._x(0.5)
        y = AdFloat.apply_intrinsic("sin", (x,))
        adj = t.reverse(y.idx)
        assert y.value == math.sin(0.5)
        assert adj[x.idx] == pytest.approx(math.cos(0.5))

    def test_two_arg_intrinsic(self):
        x, t = self._x(2.0)
        y = AdFloat.apply_intrinsic("pow", (x, 3.0))
        adj = t.reverse(y.idx)
        assert adj[x.idx] == pytest.approx(12.0)

    def test_round32_records_unit_derivative(self):
        x, t = self._x(math.pi)
        y = x.round32() * 2.0
        adj = t.reverse(y.idx)
        assert adj[x.idx] == 2.0
        assert y.value == 2.0 * float(np.float32(math.pi))


class TestTape:
    def test_node_count_and_bytes(self):
        t = Tape()
        a = AdFloat.input(t, 1.0)
        _ = a + a + a
        assert len(t) == 3
        assert t.estimated_bytes == 3 * NODE_BYTES

    def test_memory_budget_raises(self):
        t = Tape(TapeLimits(memory_budget_bytes=NODE_BYTES * 100))
        a = AdFloat.input(t, 1.0)
        with pytest.raises(AnalysisOutOfMemory):
            for _ in range(100_000):
                a = a + 1.0

    def test_budget_zero_disables(self):
        t = Tape(TapeLimits(memory_budget_bytes=0))
        a = AdFloat.input(t, 1.0)
        for _ in range(5000):
            a = a + 1.0  # no raise

    def test_eq2_error_zero_for_representable(self):
        t = Tape()
        a = AdFloat.input(t, 0.5)
        y = a * 2.0 + 0.25
        adj = t.reverse(y.idx)
        assert t.eq2_error(adj) == 0.0

    def test_eq2_error_positive_for_inexact(self):
        t = Tape()
        a = AdFloat.input(t, math.pi)
        y = a * a
        adj = t.reverse(y.idx)
        assert t.eq2_error(adj) > 0


class TestAnalysis:
    @given(xs, xs)
    @settings(max_examples=25, deadline=None)
    def test_gradients_match_chef(self, x, y):
        rep = AdaptAnalysis(ab_fn).execute(x, y)
        g = repro.gradient(ab_fn).execute(x, y)
        assert rep.value == g.value
        assert rep.grad("x") == pytest.approx(g.grad("x"), rel=1e-12)
        assert rep.grad("y") == pytest.approx(g.grad("y"), rel=1e-12)

    def test_error_totals_same_magnitude_as_chef(self):
        """The paper: CHEF-FP 'produces mixed precision analysis
        results that agree with ADAPT's analysis'."""
        chef = repro.Session().estimate(
            ab_loop, model=repro.AdaptModel()
        ).execute(500, math.pi / 500)
        adapt = AdaptAnalysis(ab_loop).execute(500, math.pi / 500)
        ratio = chef.total_error / adapt.total_error
        assert 0.3 < ratio < 3.0

    def test_tape_grows_linearly_with_iterations(self):
        r1 = AdaptAnalysis(ab_loop).execute(100, 0.01)
        r2 = AdaptAnalysis(ab_loop).execute(1000, 0.001)
        assert 8 <= r2.tape_nodes / r1.tape_nodes <= 12

    def test_chef_memory_smaller_than_tape(self):
        """The paper's memory claim: the minimized push stacks are far
        smaller than the full tape."""
        from repro.experiments.measure import measure_adapt, measure_chef

        n = 3000
        chef = measure_chef(ab_loop, (n, 1e-3))
        adapt = measure_adapt(ab_loop, (n, 1e-3))
        assert not adapt.oom
        assert adapt.peak_bytes > 2 * chef.peak_bytes

    def test_oom_reported_not_raised(self):
        from repro.experiments.measure import measure_adapt

        m = measure_adapt(
            ab_loop, (200_000, 1e-5),
            memory_budget_bytes=1024 * 1024,
        )
        assert m.oom
        assert m.time_s != m.time_s  # NaN

    def test_integer_only_kernel_reports_constant(self):
        @kernel
        def int_only(n: int) -> float:
            s = 0.0
            for i in range(n):
                s = s + 1.0
            return s

        rep = AdaptAnalysis(int_only).execute(4)
        assert rep.value == 4.0
        # nothing differentiable: treated as constant, zero error
        assert rep.total_error == 0.0
