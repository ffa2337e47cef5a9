"""Unit tests for IR nodes, builder helpers, printer, and validator."""

import dataclasses

import pytest

from repro.ir import builder as b
from repro.ir import nodes as N
from repro.ir.printer import format_expr, format_function, format_stmt
from repro.ir.types import ArrayType, DType, ScalarType
from repro.ir.validate import validate_function
from repro.ir.visitor import walk_expr, walk_stmts
from repro.util.errors import ValidationError


def _fn(body, params=None, ret=DType.F64):
    return N.Function(
        name="t",
        params=params or [N.Param("x", ScalarType(DType.F64))],
        body=body,
        ret_dtype=ret,
    )


class TestBuilder:
    def test_const_dtypes(self):
        assert b.const(1).dtype is DType.I64
        assert b.const(1.5).dtype is DType.F64
        assert b.const(True).dtype is DType.B1

    def test_binop_promotion(self):
        e = b.add(b.name("x", DType.F32), b.const(1))
        assert e.dtype is DType.F32
        e2 = b.div(b.const(1), b.const(2))
        assert e2.dtype is DType.F64  # '/' always floats

    def test_comparison_dtype(self):
        e = b.binop("<", b.const(1.0), b.const(2.0))
        assert e.dtype is DType.B1

    def test_accumulate_reads_target(self):
        st = b.accumulate(b.name("s", DType.F64), b.const(1.0))
        assert isinstance(st.value, N.BinOp) and st.value.op == "+"
        assert isinstance(st.value.left, N.Name)
        assert st.value.left.id == "s"

    def test_accumulate_array_clones_index(self):
        tgt = b.index("a", b.name("i", DType.I64))
        st = b.accumulate(tgt, b.const(1.0))
        read = st.value.left
        assert isinstance(read, N.Index)
        assert read.index is not st.target.index  # independent clones

    def test_clone_is_deep(self):
        e = b.add(b.name("x"), b.const(1.0))
        c = b.clone(e)
        c.left.id = "y"
        assert e.left.id == "x"

        # a whole error-estimating adjoint, plus a tail covering the
        # node classes an adjoint of bs_price lacks
        from repro.apps import blackscholes as bs
        from repro.core.api import build_adjoint
        from repro.core.estimation import ErrorEstimationModule

        fn = build_adjoint(bs.bs_price.ir, ErrorEstimationModule())
        i = b.name("i", DType.I64)
        tail = [
            N.While(
                b.binop("<", i, b.const(3)),
                [
                    N.If(b.const(True), [N.Break()], []),
                    N.ExprStmt(
                        b.call("sin", [b.cast(DType.F32, b.index("a", i))])
                    ),
                ],
            ),
            N.For("j", b.const(0), b.const(2), b.const(1), [
                N.PopDiscard("_t0"),
                N.TraceAppend("tr", b.name("x")),
            ]),
            N.Return(b.name("x")),
        ]
        for line, st in enumerate(tail, start=900):
            st.loc = line
        tail[0].cond.loc = 901
        fn.body.extend(tail)
        c = b.clone(fn)

        assert format_function(c) == format_function(fn)
        assert c.meta == fn.meta and c.meta is not fn.meta
        seen = set()

        def check(x, y):
            assert type(x) is type(y)
            if isinstance(x, (list, tuple)):
                assert len(x) == len(y)
                if isinstance(x, list):
                    assert x is not y
                for u, v in zip(x, y):
                    check(u, v)
            elif isinstance(x, dict):
                assert x is not y and list(x) == list(y)
                for k in x:
                    check(x[k], y[k])
            elif type(x).__module__ == N.__name__:
                seen.add(type(x))
                assert x is not y
                # dataclass == skips dtype and loc: compare every slot
                assert list(vars(x)) == list(vars(y))
                for k in vars(x):
                    check(getattr(x, k), getattr(y, k))
            else:
                assert x == y

        check(fn, c)
        assert seen == {
            cls
            for cls in vars(N).values()
            if dataclasses.is_dataclass(cls)
            and cls.__module__ == N.__name__
            and cls not in (N.Expr, N.Stmt)
        }

        # nothing mutable is shared, not even between non-counterparts
        def mutable_ids(root):
            out, todo = set(), [root]
            while todo:
                x = todo.pop()
                if isinstance(x, tuple):
                    todo.extend(x)
                elif isinstance(x, list):
                    out.add(id(x))
                    todo.extend(x)
                elif isinstance(x, dict):
                    out.add(id(x))
                    todo.extend(x.values())
                elif type(x).__module__ == N.__name__:
                    out.add(id(x))
                    todo.extend(vars(x).values())
            return out

        assert not mutable_ids(fn) & mutable_ids(c)


class TestPrinter:
    def test_expr_precedence(self):
        e = b.mul(b.add(b.name("a"), b.name("b")), b.name("c"))
        assert format_expr(e) == "(a + b) * c"

    def test_no_redundant_parens(self):
        e = b.add(b.name("a"), b.mul(b.name("b"), b.name("c")))
        assert format_expr(e) == "a + b * c"

    def test_call_and_cast(self):
        e = b.call("sin", [b.cast(DType.F32, b.name("x"))])
        assert format_expr(e) == "sin(cast[f32](x))"

    def test_stmt_roundtrip_shapes(self):
        loop = N.For(
            "i", b.const(0), b.name("n", DType.I64), b.const(1),
            [b.assign(b.name("s"), b.add(b.name("s"), b.name("x")))],
        )
        lines = format_stmt(loop)
        assert lines[0] == "for i in range(0, n, 1):"
        assert lines[1].strip() == "s = s + x"

    def test_function_header(self):
        fn = _fn([N.Return(b.name("x", DType.F64))])
        text = format_function(fn)
        assert text.startswith("def t(x: f64) -> f64:")


class TestValidator:
    def test_valid_function_passes(self):
        fn = _fn([
            N.VarDecl("y", DType.F64, b.mul(b.name("x"), b.const(2.0))),
            N.Return(b.name("y")),
        ])
        validate_function(fn)

    def test_undeclared_read_rejected(self):
        fn = _fn([N.Return(b.name("zz"))])
        with pytest.raises(ValidationError, match="zz"):
            validate_function(fn)

    def test_redeclaration_rejected(self):
        fn = _fn([
            N.VarDecl("y", DType.F64, b.const(0.0)),
            N.VarDecl("y", DType.F32, b.const(0.0)),
            N.Return(b.name("y")),
        ])
        with pytest.raises(ValidationError, match="redeclaration"):
            validate_function(fn)

    def test_return_must_be_last(self):
        fn = _fn([
            N.Return(b.name("x")),
            N.VarDecl("y", DType.F64, b.const(0.0)),
        ])
        with pytest.raises(ValidationError, match="final"):
            validate_function(fn)

    def test_break_outside_loop_rejected(self):
        fn = _fn([N.Break(), N.Return(b.name("x"))])
        with pytest.raises(ValidationError, match="break"):
            validate_function(fn)

    def test_adjoint_nodes_rejected_in_primal(self):
        fn = _fn([
            N.Push("tape", b.name("x")),
            N.Return(b.name("x")),
        ])
        with pytest.raises(ValidationError, match="Push"):
            validate_function(fn)
        validate_function(fn, allow_adjoint_nodes=True)

    def test_indexed_store_requires_array(self):
        fn = _fn([
            N.Assign(b.index("x", b.const(0)), b.const(1.0)),
            N.Return(b.name("x")),
        ])
        with pytest.raises(ValidationError, match="non-array"):
            validate_function(fn)

    def test_array_param_indexing_ok(self):
        fn = _fn(
            [
                N.Assign(b.index("a", b.const(0)), b.const(1.0)),
                N.Return(b.index("a", b.const(0))),
            ],
            params=[N.Param("a", ArrayType(DType.F64))],
        )
        validate_function(fn)


class TestVisitors:
    def test_walk_expr_preorder(self):
        e = b.add(b.mul(b.name("a"), b.name("b")), b.const(1.0))
        kinds = [type(n).__name__ for n in walk_expr(e)]
        assert kinds == ["BinOp", "BinOp", "Name", "Name", "Const"]

    def test_walk_stmts_recurses(self):
        inner = b.assign(b.name("s"), b.const(0.0))
        loop = N.For("i", b.const(0), b.const(3), b.const(1), [inner])
        found = list(walk_stmts([loop]))
        assert loop in found and inner in found
