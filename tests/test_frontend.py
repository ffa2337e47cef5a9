"""Frontend tests: parsing the Python subset, inlining, and rejections."""

import math

import numpy as np
import pytest

from repro.frontend import kernel
from repro.ir import nodes as N
from repro.ir.types import DType
from repro.util.errors import FrontendError


@kernel
def fe_basic(x: float, y: "f32") -> float:
    z: "f32" = x * y + 2.0
    w = z - x / 4.0
    return w


@kernel
def fe_loops(n: int, a: "f64[]") -> float:
    s = 0.0
    for i in range(n):
        s += a[i]
    k = 0
    while k < 3:
        s = s * 0.5
        k = k + 1
    return s


@kernel
def fe_ifs(x: float) -> float:
    y = 0.0
    if x > 0.0 and x < 10.0:
        y = x
    elif x >= 10.0:
        y = 10.0
    else:
        y = -x
    return y


@kernel
def fe_callee(u: float) -> float:
    v = u * u
    return v


@kernel
def fe_caller(x: float) -> float:
    a = fe_callee(x + 1.0)
    bb = fe_callee(a)
    return a + bb


@kernel
def fe_math(x: float) -> float:
    return math.sin(x) + abs(x) + math.pi + x ** 2.0


class TestParsing:
    def test_param_types(self):
        ir = fe_basic.ir
        assert ir.param("x").type.dtype is DType.F64
        assert ir.param("y").type.dtype is DType.F32

    def test_annotated_local_precision(self):
        decls = {
            s.name: s.dtype
            for s in ir_decls(fe_basic.ir)
        }
        assert decls["z"] is DType.F32
        assert decls["w"] is DType.F64

    def test_augassign_desugars(self):
        # s += a[i]  ->  s = s + a[i]
        text = fe_loops.source
        assert "s = s + a[i]" in text

    def test_execution_matches_python(self):
        x, y = 1.7, 2.25  # y exactly representable in f32
        expected = np.float32(np.float32(x * y) + 2.0)
        got = fe_basic(x, y)
        assert got == pytest.approx(float(expected) - x / 4.0, rel=1e-12)

    def test_loops_and_while(self):
        a = np.array([1.0, 2.0, 3.0])
        assert fe_loops(3, a) == pytest.approx(6.0 * 0.125)

    def test_branches(self):
        assert fe_ifs(5.0) == 5.0
        assert fe_ifs(50.0) == 10.0
        assert fe_ifs(-2.0) == 2.0

    def test_inlining_removes_calls(self):
        calls = [
            e.fn
            for s in walk(fe_caller.ir)
            for e in exprs_of(s)
            if isinstance(e, N.Call)
        ]
        assert "fe_callee" not in calls

    def test_inlining_value(self):
        x = 1.5
        a = (x + 1.0) ** 2
        assert fe_caller(x) == pytest.approx(a + a * a)

    def test_math_module_and_named_constants(self):
        x = 0.7
        assert fe_math(x) == pytest.approx(
            math.sin(x) + abs(x) + math.pi + x * x
        )

    def test_pow_becomes_intrinsic(self):
        calls = {
            e.fn
            for s in walk(fe_math.ir)
            for e in exprs_of(s)
            if isinstance(e, N.Call)
        }
        assert "pow" in calls


class TestRejections:
    def _reject(self, fn, pattern):
        with pytest.raises(FrontendError, match=pattern):
            kernel(fn)

    def test_reserved_underscore_names(self):
        def bad(x: float) -> float:
            _tmp = x
            return _tmp

        self._reject(bad, "reserved")

    def test_tuple_assignment(self):
        def bad(x: float) -> float:
            a, c = x, x
            return a

        self._reject(bad, "unsupported expression: Tuple")

    def test_unknown_function(self):
        def bad(x: float) -> float:
            return frobnicate(x)  # noqa: F821

        self._reject(bad, "unknown function")

    def test_chained_compare(self):
        def bad(x: float) -> float:
            y = 0.0
            if 0.0 < x < 1.0:
                y = x
            return y

        self._reject(bad, "chained")

    def test_non_range_for(self):
        def bad(a: "f64[]") -> float:
            s = 0.0
            for v in a:
                s = s + v
            return s

        self._reject(bad, "range")

    def test_array_annotation_on_local(self):
        def bad(x: float) -> float:
            a: "f64[]" = x
            return x

        self._reject(bad, "local arrays")

    def test_keyword_args(self):
        def bad(x: float) -> float:
            return pow(x, y=2.0)

        self._reject(bad, "keyword")

    def test_defaults_rejected(self):
        def bad(x: float = 1.0) -> float:
            return x

        self._reject(bad, "defaults")


# -- helpers ------------------------------------------------------------------

def ir_decls(ir):
    from repro.ir.visitor import walk_stmts

    return [s for s in walk_stmts(ir.body) if isinstance(s, N.VarDecl)]


def walk(ir):
    from repro.ir.visitor import walk_stmts

    return list(walk_stmts(ir.body))


def exprs_of(s):
    from repro.ir.visitor import iter_stmt_exprs, walk_expr

    out = []
    for e in iter_stmt_exprs(s):
        out.extend(walk_expr(e))
    return out
