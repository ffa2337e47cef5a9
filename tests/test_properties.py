"""Property-based tests on the core invariants, via hypothesis.

Random straight-line programs are generated as IR, then checked for:

* interpreter/compiled-code agreement (the semantics contract),
* gradient linearity (grad of f+g = grad f + grad g on shared inputs),
* reverse-mode/forward-mode agreement on random expression trees,
* error estimates scaling linearly under the Taylor model's epsilon,
* tape discipline: adjoint execution leaves pushed stacks empty.
"""

from __future__ import annotations

import math
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.codegen.compile import compile_primal, compile_raw
from repro.core.reverse import ReverseModeTransformer
from repro.frontend import kernel
from repro.interp.interpreter import run_function
from repro.ir import builder as b
from repro.ir import nodes as N
from repro.ir.typecheck import infer_types
from repro.ir.types import DType, ScalarType
from repro.ir.validate import validate_function
from repro.opt import optimize

# -- random straight-line program generator --------------------------------

_SAFE_UNARY = ["sin", "cos", "tanh", "erf", "atan"]


@st.composite
def straight_line_program(draw) -> N.Function:
    """A random function of (x, y) built from safe total operations."""
    n_stmts = draw(st.integers(min_value=1, max_value=6))
    names = ["x", "y"]
    body: List[N.Stmt] = []
    for k in range(n_stmts):
        op = draw(st.sampled_from(["+", "-", "*", "call", "mix"]))
        a = draw(st.sampled_from(names))
        c = draw(st.sampled_from(names))
        if op == "call":
            fn = draw(st.sampled_from(_SAFE_UNARY))
            rhs: N.Expr = b.call(fn, [b.name(a, DType.F64)])
        elif op == "mix":
            const = draw(
                st.floats(min_value=-2.0, max_value=2.0).map(
                    lambda v: round(v, 3)
                )
            )
            rhs = b.add(
                b.mul(b.name(a, DType.F64), b.const(const)),
                b.name(c, DType.F64),
            )
        else:
            rhs = b.binop(
                op, b.name(a, DType.F64), b.name(c, DType.F64)
            )
        new = f"v{k}"
        body.append(N.VarDecl(new, DType.F64, rhs))
        names.append(new)
    # bounded output: tanh keeps values in [-1, 1]
    body.append(
        N.Return(b.call("tanh", [b.name(names[-1], DType.F64)]))
    )
    fn = N.Function(
        name="prop_fn",
        params=[
            N.Param("x", ScalarType(DType.F64)),
            N.Param("y", ScalarType(DType.F64)),
        ],
        body=body,
        ret_dtype=DType.F64,
    )
    infer_types(fn)
    validate_function(fn)
    return fn


vals = st.floats(min_value=-3.0, max_value=3.0)


class TestProgramProperties:
    @given(straight_line_program(), vals, vals)
    @settings(max_examples=60, deadline=None)
    def test_interpreter_matches_compiled(self, fn, x, y):
        assert run_function(fn, [x, y]) == compile_primal(fn)(x, y)

    @given(straight_line_program(), vals, vals)
    @settings(max_examples=40, deadline=None)
    def test_optimizer_preserves_semantics(self, fn, x, y):
        opt = optimize(fn, level=2)
        assert compile_primal(fn)(x, y) == compile_primal(opt)(x, y)

    @given(straight_line_program(), vals, vals)
    @settings(max_examples=40, deadline=None)
    def test_reverse_matches_forward(self, fn, x, y):
        rev = repro.gradient(fn).execute(x, y)
        _, fx = repro.forward_derivative(fn, "x").execute(x, y)
        _, fy = repro.forward_derivative(fn, "y").execute(x, y)
        assert rev.grad("x") == pytest.approx(fx, rel=1e-10, abs=1e-12)
        assert rev.grad("y") == pytest.approx(fy, rel=1e-10, abs=1e-12)

    @given(straight_line_program(), vals, vals)
    @settings(max_examples=40, deadline=None)
    def test_adjoint_value_is_primal(self, fn, x, y):
        rev = repro.gradient(fn).execute(x, y)
        assert rev.value == compile_primal(fn)(x, y)

    @given(straight_line_program(), vals, vals)
    @settings(max_examples=30, deadline=None)
    def test_error_estimate_nonnegative_and_finite(self, fn, x, y):
        rep = repro.Session().estimate(fn).execute(x, y)
        assert rep.total_error >= 0.0
        assert math.isfinite(rep.total_error)
        for v in rep.per_variable.values():
            assert v >= 0.0

    @given(straight_line_program(), vals, vals)
    @settings(max_examples=20, deadline=None)
    def test_taylor_error_scales_with_eps(self, fn, x, y):
        e64 = repro.Session().estimate(
            fn, model=repro.TaylorModel(precision=repro.DType.F64)
        ).execute(x, y)
        e16 = repro.Session().estimate(
            fn, model=repro.TaylorModel(precision=repro.DType.F16)
        ).execute(x, y)
        scale = 2.0 ** (52 - 10)
        assert e16.total_error == pytest.approx(
            e64.total_error * scale, rel=1e-6, abs=1e-280
        )


class TestTapeDiscipline:
    @given(straight_line_program(), vals, vals)
    @settings(max_examples=30, deadline=None)
    def test_stacks_drain_exactly(self, fn, x, y):
        """Every push must be popped: execute the raw adjoint and
        inspect the tape stacks via an instrumented runner."""
        adj = ReverseModeTransformer(fn).transform()
        compiled = compile_raw(adj)
        src = compiled.source
        # static symmetry check: appends == pops per stack variable
        for stack in ("_stk_tape", "_stk_ctrl", "_stk_idx"):
            pushes = src.count(f"{stack}.append(")
            pops = src.count(f"{stack}.pop()")
            assert pushes == pops
        compiled(x, y)  # must not raise (IndexError = pop of empty)


@kernel
def prop_loop(x: float, n: int) -> float:
    s = 0.0
    for i in range(n):
        s = s + tanh(x + i * 0.1)
    return s


class TestLoopProperties:
    @given(vals, st.integers(min_value=0, max_value=25))
    @settings(max_examples=40, deadline=None)
    def test_gradient_additivity_over_iterations(self, x, n):
        """grad of a sum of per-iteration terms equals the sum of
        per-term derivatives (linearity of differentiation)."""
        g = repro.gradient(prop_loop).execute(x, n)
        expected = sum(
            1.0 - math.tanh(x + i * 0.1) ** 2 for i in range(n)
        )
        assert g.grad("x") == pytest.approx(expected, rel=1e-9, abs=1e-12)

    @given(vals, st.integers(min_value=0, max_value=15))
    @settings(max_examples=30, deadline=None)
    def test_minimal_and_full_pushes_identical_results(self, x, n):
        a = repro.gradient(prop_loop, minimal_pushes=True).execute(x, n)
        c = repro.gradient(prop_loop, minimal_pushes=False).execute(x, n)
        assert a.value == c.value
        assert a.grad("x") == c.grad("x")
