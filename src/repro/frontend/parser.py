"""Python-subset → IR lowering.

This is the analogue of Clad consuming Clang's AST: we parse the source
of a ``@kernel``-decorated function with :mod:`ast` and lower it to
:mod:`repro.ir`.  The supported subset (checked, with line-numbered
errors):

* typed parameters (``float``, ``int``, ``"f32"``, ``"f64[]"``, ...),
* scalar locals (first assignment declares; ``x: "f32" = e`` pins storage
  precision — the hook the mixed-precision tuner rewrites),
* ``for i in range(...)``, ``while``, ``if/elif/else``, ``break``,
* a single ``return`` as the function's final statement,
* arithmetic, comparisons, ``and``/``or``/``not``, array indexing,
* calls to registered intrinsics (``sin``, ``sqrt``, ``math.exp``,
  ``abs`` → ``fabs``, precision casts ``f32(x)``/``f64(x)``/``float(x)``),
* calls to other ``@kernel`` functions — inlined at parse time, so the IR
  that reaches the differentiator is always call-free except for
  intrinsics (Clad instead recurses; inlining is the classic alternative
  and keeps the adjoint generator single-function).
"""

from __future__ import annotations

import ast
import inspect
import math
import textwrap
from typing import Callable, Dict, List, Optional, Tuple

from repro.frontend.intrinsics import INTRINSICS
from repro.ir import builder as b
from repro.ir import nodes as N
from repro.ir.types import (
    ArrayType,
    DType,
    ScalarType,
    Type,
    parse_annotation,
)
from repro.util.errors import FrontendError

#: names accepted as explicit precision casts
_CAST_NAMES = {
    "f16": DType.F16,
    "f32": DType.F32,
    "f64": DType.F64,
    "float": DType.F64,
}

#: attribute constants usable in kernels
_NAMED_CONSTANTS = {
    ("math", "pi"): math.pi,
    ("math", "e"): math.e,
    ("math", "tau"): math.tau,
    ("math", "inf"): math.inf,
}

_BINOP_MAP = {
    ast.Add: "+",
    ast.Sub: "-",
    ast.Mult: "*",
    ast.Div: "/",
    ast.FloorDiv: "//",
    ast.Mod: "%",
}

_CMP_MAP = {
    ast.Eq: "==",
    ast.NotEq: "!=",
    ast.Lt: "<",
    ast.LtE: "<=",
    ast.Gt: ">",
    ast.GtE: ">=",
}


def parse_kernel(
    pyfunc: Callable,
    resolve_kernel: Optional[Callable[[str], Optional[N.Function]]] = None,
) -> N.Function:
    """Parse a Python function into an IR :class:`~repro.ir.Function`.

    :param pyfunc: the function to lower; its source must be retrievable
        via :func:`inspect.getsource`.
    :param resolve_kernel: optional callback mapping a called name to an
        already-parsed kernel IR, enabling cross-kernel inlining.
    :raises FrontendError: on any construct outside the DSL.
    """
    try:
        src = textwrap.dedent(inspect.getsource(pyfunc))
    except (OSError, TypeError) as exc:
        raise FrontendError(
            f"cannot retrieve source of {pyfunc!r}: {exc}"
        ) from exc
    tree = ast.parse(src)
    fndefs = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    if len(fndefs) != 1:
        raise FrontendError("expected exactly one function definition")
    parser = _KernelParser(fndefs[0], resolve_kernel)
    return parser.parse()


class _KernelParser:
    def __init__(
        self,
        fndef: ast.FunctionDef,
        resolve_kernel: Optional[Callable[[str], Optional[N.Function]]],
    ) -> None:
        self.fndef = fndef
        self.resolve_kernel = resolve_kernel or (lambda _name: None)
        self.types: Dict[str, Type] = {}
        self.ret_dtype: Optional[DType] = None
        self._inline_counter = 0

    # -- helpers -------------------------------------------------------------
    def _err(self, node: ast.AST, msg: str) -> FrontendError:
        line = getattr(node, "lineno", "?")
        return FrontendError(
            f"{self.fndef.name}:{line}: {msg}"
        )

    def _dtype_of(self, name: str, node: ast.AST) -> Type:
        if name not in self.types:
            raise self._err(node, f"use of undefined variable {name!r}")
        return self.types[name]

    # -- entry ---------------------------------------------------------------
    def parse(self) -> N.Function:
        params = self._parse_params()
        for p in params:
            self.types[p.name] = p.type
        if self.fndef.returns is not None:
            try:
                rt = parse_annotation(_annotation_value(self.fndef.returns))
            except KeyError as exc:
                raise self._err(
                    self.fndef.returns, f"bad return annotation: {exc}"
                ) from exc
            if isinstance(rt, ArrayType):
                raise self._err(
                    self.fndef.returns, "array returns are not supported"
                )
            self.ret_dtype = rt.dtype
        body = self._parse_body(self.fndef.body)
        if self.ret_dtype is None and any(
            isinstance(s, N.Return) for s in body
        ):
            # infer from the return expression
            last = body[-1]
            if isinstance(last, N.Return):
                self.ret_dtype = last.value.dtype
        fn = N.Function(
            name=self.fndef.name,
            params=params,
            body=body,
            ret_dtype=self.ret_dtype,
        )
        fn.locals = [
            s.name
            for s in _walk_all(body)
            if isinstance(s, N.VarDecl)
        ]
        return fn

    def _parse_params(self) -> List[N.Param]:
        args = self.fndef.args
        if args.vararg or args.kwarg or args.kwonlyargs or args.posonlyargs:
            raise self._err(
                self.fndef, "only plain positional parameters are supported"
            )
        if args.defaults:
            raise self._err(self.fndef, "parameter defaults are not supported")
        params: List[N.Param] = []
        for a in args.args:
            if a.annotation is None:
                ptype: Type = ScalarType(DType.F64)
            else:
                try:
                    ptype = parse_annotation(_annotation_value(a.annotation))
                except KeyError as exc:
                    raise self._err(
                        a, f"bad annotation for parameter {a.arg!r}: {exc}"
                    ) from exc
            diff = ptype.dtype.is_float
            params.append(N.Param(a.arg, ptype, differentiable=diff))
        return params

    # -- statements ----------------------------------------------------------
    def _parse_body(self, stmts: List[ast.stmt]) -> List[N.Stmt]:
        out: List[N.Stmt] = []
        for s in stmts:
            out.extend(self._parse_stmt(s))
        return out

    def _parse_stmt(self, s: ast.stmt) -> List[N.Stmt]:
        if isinstance(s, ast.Assign):
            return self._parse_assign(s)
        if isinstance(s, ast.AnnAssign):
            return self._parse_ann_assign(s)
        if isinstance(s, ast.AugAssign):
            return self._parse_aug_assign(s)
        if isinstance(s, ast.For):
            return self._parse_for(s)
        if isinstance(s, ast.While):
            return self._parse_while(s)
        if isinstance(s, ast.If):
            return self._parse_if(s)
        if isinstance(s, ast.Break):
            stmt = N.Break()
            stmt.loc = s.lineno
            return [stmt]
        if isinstance(s, ast.Return):
            return self._parse_return(s)
        if isinstance(s, ast.Pass):
            return []
        if isinstance(s, ast.Expr):
            if isinstance(s.value, ast.Constant) and isinstance(
                s.value.value, str
            ):
                return []  # docstring
            raise self._err(s, "bare expression statements are not supported")
        raise self._err(
            s, f"unsupported statement: {type(s).__name__}"
        )

    def _declare_or_assign(
        self,
        name: str,
        value: N.Expr,
        node: ast.AST,
        explicit_dtype: Optional[DType] = None,
    ) -> N.Stmt:
        """First assignment declares a local; later ones are plain stores."""
        if name.startswith("_"):
            raise self._err(
                node,
                f"variable names starting with '_' are reserved: {name!r}",
            )
        if name in self.types:
            if explicit_dtype is not None:
                raise self._err(
                    node, f"re-annotation of existing variable {name!r}"
                )
            t = self.types[name]
            if isinstance(t, ArrayType):
                raise self._err(
                    node, f"cannot assign scalar to array {name!r}"
                )
            stmt: N.Stmt = N.Assign(b.name(name, t.dtype), value)
        else:
            dtype = explicit_dtype
            if dtype is None:
                dtype = value.dtype if value.dtype is not None else DType.F64
                if dtype is DType.B1:
                    pass  # boolean locals are allowed
            self.types[name] = ScalarType(dtype)
            stmt = N.VarDecl(name, dtype, value)
        stmt.loc = getattr(node, "lineno", None)
        return stmt

    def _parse_assign(self, s: ast.Assign) -> List[N.Stmt]:
        if len(s.targets) != 1:
            raise self._err(s, "multiple assignment targets not supported")
        target = s.targets[0]
        pre: List[N.Stmt] = []
        value = self._parse_expr(s.value, pre)
        if isinstance(target, ast.Name):
            return pre + [self._declare_or_assign(target.id, value, s)]
        if isinstance(target, ast.Subscript):
            lv = self._parse_subscript_target(target, pre)
            st = N.Assign(lv, value)
            st.loc = s.lineno
            return pre + [st]
        raise self._err(s, "unsupported assignment target")

    def _parse_ann_assign(self, s: ast.AnnAssign) -> List[N.Stmt]:
        if not isinstance(s.target, ast.Name):
            raise self._err(s, "annotated target must be a plain name")
        if s.value is None:
            raise self._err(s, "annotated declaration requires an initializer")
        try:
            t = parse_annotation(_annotation_value(s.annotation))
        except KeyError as exc:
            raise self._err(s, f"bad annotation: {exc}") from exc
        if isinstance(t, ArrayType):
            raise self._err(s, "cannot declare local arrays")
        pre: List[N.Stmt] = []
        value = self._parse_expr(s.value, pre)
        return pre + [
            self._declare_or_assign(
                s.target.id, value, s, explicit_dtype=t.dtype
            )
        ]

    def _parse_aug_assign(self, s: ast.AugAssign) -> List[N.Stmt]:
        if type(s.op) not in _BINOP_MAP:
            raise self._err(s, "unsupported augmented operator")
        op = _BINOP_MAP[type(s.op)]
        pre: List[N.Stmt] = []
        rhs = self._parse_expr(s.value, pre)
        if isinstance(s.target, ast.Name):
            name = s.target.id
            t = self._dtype_of(name, s)
            if isinstance(t, ArrayType):
                raise self._err(s, "augmented assign to whole array")
            read = b.name(name, t.dtype)
            st: N.Stmt = N.Assign(
                b.name(name, t.dtype), b.binop(op, read, rhs)
            )
            st.loc = s.lineno
            return pre + [st]
        if isinstance(s.target, ast.Subscript):
            lv = self._parse_subscript_target(s.target, pre)
            read = b.index(lv.base, b.clone(lv.index), lv.dtype or DType.F64)
            st = N.Assign(lv, b.binop(op, read, rhs))
            st.loc = s.lineno
            return pre + [st]
        raise self._err(s, "unsupported augmented assignment target")

    def _parse_for(self, s: ast.For) -> List[N.Stmt]:
        if s.orelse:
            raise self._err(s, "for/else is not supported")
        if not isinstance(s.target, ast.Name):
            raise self._err(s, "loop target must be a plain name")
        if not (
            isinstance(s.iter, ast.Call)
            and isinstance(s.iter.func, ast.Name)
            and s.iter.func.id == "range"
        ):
            raise self._err(s, "only 'for ... in range(...)' loops supported")
        pre: List[N.Stmt] = []
        rargs = [self._parse_expr(a, pre) for a in s.iter.args]
        if len(rargs) == 1:
            lo, hi, step = b.const(0), rargs[0], b.const(1)
        elif len(rargs) == 2:
            lo, hi, step = rargs[0], rargs[1], b.const(1)
        elif len(rargs) == 3:
            lo, hi, step = rargs
        else:
            raise self._err(s, "range() takes 1-3 arguments")
        var = s.target.id
        if var.startswith("_"):
            raise self._err(s, f"reserved loop variable name {var!r}")
        prev = self.types.get(var)
        self.types[var] = ScalarType(DType.I64)
        body = self._parse_body(s.body)
        if prev is not None:
            self.types[var] = prev
        loop = N.For(var, lo, hi, step, body)
        loop.loc = s.lineno
        return pre + [loop]

    def _parse_while(self, s: ast.While) -> List[N.Stmt]:
        if s.orelse:
            raise self._err(s, "while/else is not supported")
        pre: List[N.Stmt] = []
        cond = self._parse_expr(s.test, pre)
        if pre:
            raise self._err(
                s, "while conditions may not contain kernel calls"
            )
        body = self._parse_body(s.body)
        loop = N.While(cond, body)
        loop.loc = s.lineno
        return [loop]

    def _parse_if(self, s: ast.If) -> List[N.Stmt]:
        pre: List[N.Stmt] = []
        cond = self._parse_expr(s.test, pre)
        then = self._parse_body(s.body)
        orelse = self._parse_body(s.orelse)
        st = N.If(cond, then, orelse)
        st.loc = s.lineno
        return pre + [st]

    def _parse_return(self, s: ast.Return) -> List[N.Stmt]:
        if s.value is None:
            raise self._err(s, "bare return is not supported")
        pre: List[N.Stmt] = []
        value = self._parse_expr(s.value, pre)
        if self.ret_dtype is None:
            self.ret_dtype = value.dtype
        st = N.Return(value)
        st.loc = s.lineno
        return pre + [st]

    def _parse_subscript_target(
        self, t: ast.Subscript, pre: List[N.Stmt]
    ) -> N.Index:
        if not isinstance(t.value, ast.Name):
            raise self._err(t, "only direct array names may be indexed")
        base = t.value.id
        bt = self._dtype_of(base, t)
        if not isinstance(bt, ArrayType):
            raise self._err(t, f"{base!r} is not an array")
        idx = self._parse_expr(t.slice, pre)
        return b.index(base, idx, bt.dtype)

    # -- expressions ----------------------------------------------------------
    def _parse_expr(self, e: ast.expr, pre: List[N.Stmt]) -> N.Expr:
        if isinstance(e, ast.Constant):
            if isinstance(e.value, bool):
                return b.const(e.value)
            if isinstance(e.value, (int, float)):
                return b.const(e.value)
            raise self._err(e, f"unsupported literal {e.value!r}")
        if isinstance(e, ast.Name):
            t = self._dtype_of(e.id, e)
            if isinstance(t, ArrayType):
                raise self._err(
                    e, f"whole-array value use of {e.id!r} is not supported"
                )
            return b.name(e.id, t.dtype)
        if isinstance(e, ast.Subscript):
            lv = self._parse_subscript_target(e, pre)
            return lv
        if isinstance(e, ast.UnaryOp):
            if isinstance(e.op, ast.USub):
                return b.neg(self._parse_expr(e.operand, pre))
            if isinstance(e.op, ast.UAdd):
                return self._parse_expr(e.operand, pre)
            if isinstance(e.op, ast.Not):
                inner = self._parse_expr(e.operand, pre)
                u = N.UnaryOp("not", inner)
                u.dtype = DType.B1
                return u
            raise self._err(e, "unsupported unary operator")
        if isinstance(e, ast.BinOp):
            if isinstance(e.op, ast.Pow):
                left = self._parse_expr(e.left, pre)
                right = self._parse_expr(e.right, pre)
                return b.call("pow", [left, right], dtype=DType.F64)
            if type(e.op) not in _BINOP_MAP:
                raise self._err(e, "unsupported binary operator")
            left = self._parse_expr(e.left, pre)
            right = self._parse_expr(e.right, pre)
            return b.binop(_BINOP_MAP[type(e.op)], left, right)
        if isinstance(e, ast.Compare):
            if len(e.ops) != 1:
                raise self._err(e, "chained comparisons are not supported")
            if type(e.ops[0]) not in _CMP_MAP:
                raise self._err(e, "unsupported comparison operator")
            left = self._parse_expr(e.left, pre)
            right = self._parse_expr(e.comparators[0], pre)
            return b.binop(_CMP_MAP[type(e.ops[0])], left, right)
        if isinstance(e, ast.BoolOp):
            op = "and" if isinstance(e.op, ast.And) else "or"
            parts = [self._parse_expr(v, pre) for v in e.values]
            expr = parts[0]
            for p in parts[1:]:
                expr = b.binop(op, expr, p)
            return expr
        if isinstance(e, ast.Attribute):
            return self._parse_attribute_const(e)
        if isinstance(e, ast.Call):
            return self._parse_call(e, pre)
        raise self._err(e, f"unsupported expression: {type(e).__name__}")

    def _parse_attribute_const(self, e: ast.Attribute) -> N.Expr:
        if isinstance(e.value, ast.Name):
            key = (e.value.id, e.attr)
            if key in _NAMED_CONSTANTS:
                return b.const(_NAMED_CONSTANTS[key])
        raise self._err(e, "unsupported attribute access")

    def _parse_call(self, e: ast.Call, pre: List[N.Stmt]) -> N.Expr:
        if e.keywords:
            raise self._err(e, "keyword arguments are not supported")
        fname = self._call_name(e)
        # precision casts --------------------------------------------------
        if fname in _CAST_NAMES:
            if len(e.args) != 1:
                raise self._err(e, f"{fname}() takes exactly one argument")
            inner = self._parse_expr(e.args[0], pre)
            return b.cast(_CAST_NAMES[fname], inner)
        if fname == "abs":
            fname = "fabs"
        # intrinsics ---------------------------------------------------------
        if fname in INTRINSICS:
            info = INTRINSICS[fname]
            if len(e.args) != info.arity:
                raise self._err(
                    e,
                    f"{fname}() expects {info.arity} argument(s), got "
                    f"{len(e.args)}",
                )
            args = [self._parse_expr(a, pre) for a in e.args]
            out_dtype = DType.F64
            if fname in ("fmax", "fmin", "fabs", "copysign"):
                out_dtype = args[0].dtype or DType.F64
            return b.call(fname, args, dtype=out_dtype)
        # kernel inlining ------------------------------------------------------
        callee = self.resolve_kernel(fname)
        if callee is not None:
            args = [
                self._parse_call_arg(a, pre) for a in e.args
            ]
            return self._inline_call(callee, args, e, pre)
        raise self._err(e, f"unknown function {fname!r}")

    def _parse_call_arg(self, a: ast.expr, pre: List[N.Stmt]):
        """Array arguments are passed as bare names; others as expressions."""
        if isinstance(a, ast.Name) and isinstance(
            self.types.get(a.id), ArrayType
        ):
            return ("array", a.id)
        return ("expr", self._parse_expr(a, pre))

    def _call_name(self, e: ast.Call) -> str:
        f = e.func
        if isinstance(f, ast.Name):
            return f.id
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
            # math.sin, np.sqrt, ... — take the attribute name
            return f.attr
        raise self._err(e, "unsupported call target")

    # -- kernel inlining -------------------------------------------------------
    def _inline_call(
        self,
        callee: N.Function,
        args: List[Tuple[str, object]],
        node: ast.Call,
        pre: List[N.Stmt],
    ) -> N.Expr:
        if len(args) != len(callee.params):
            raise self._err(
                node,
                f"{callee.name}() expects {len(callee.params)} argument(s), "
                f"got {len(args)}",
            )
        self._inline_counter += 1
        suffix = f"_in{self._inline_counter}"
        rename: Dict[str, str] = {}
        # bind parameters
        for p, (kind, val) in zip(callee.params, args):
            if isinstance(p.type, ArrayType):
                if kind != "array":
                    raise self._err(
                        node,
                        f"argument for array parameter {p.name!r} must be "
                        "an array variable",
                    )
                rename[p.name] = str(val)  # alias the caller's array
            else:
                if kind != "expr":
                    raise self._err(
                        node,
                        f"array passed for scalar parameter {p.name!r}",
                    )
                new = f"{p.name}{suffix}"
                rename[p.name] = new
                self.types[new] = p.type
                decl = N.VarDecl(p.name + suffix, p.type.dtype, val)  # type: ignore[arg-type]
                decl.loc = node.lineno
                pre.append(decl)
        # rename locals and loop vars
        for s in _walk_all(callee.body):
            if isinstance(s, N.VarDecl) and s.name not in rename:
                rename[s.name] = s.name + suffix
            if isinstance(s, N.For) and s.var not in rename:
                rename[s.var] = s.var + suffix
        result_name = f"_r{self._inline_counter}"
        ret_dtype = callee.ret_dtype or DType.F64
        body = [_rename_stmt(b.clone(s), rename) for s in callee.body]
        # register renamed locals so later statements may not collide
        for s in _walk_all(body):
            if isinstance(s, N.VarDecl):
                self.types[s.name] = ScalarType(s.dtype)
        if not body or not isinstance(body[-1], N.Return):
            raise self._err(
                node,
                f"inlined kernel {callee.name!r} must end with a return",
            )
        ret = body.pop()
        assert isinstance(ret, N.Return)
        pre.extend(body)
        decl = N.VarDecl(result_name, ret_dtype, ret.value)
        decl.loc = node.lineno
        pre.append(decl)
        self.types[result_name] = ScalarType(ret_dtype)
        return b.name(result_name, ret_dtype)


# --------------------------------------------------------------------------
# Renaming helpers for inlining
# --------------------------------------------------------------------------


def _rename_expr(e: N.Expr, rename: Dict[str, str]) -> N.Expr:
    if isinstance(e, N.Name):
        e.id = rename.get(e.id, e.id)
    elif isinstance(e, N.Index):
        e.base = rename.get(e.base, e.base)
        _rename_expr(e.index, rename)
    elif isinstance(e, N.BinOp):
        _rename_expr(e.left, rename)
        _rename_expr(e.right, rename)
    elif isinstance(e, N.UnaryOp):
        _rename_expr(e.operand, rename)
    elif isinstance(e, N.Call):
        for a in e.args:
            _rename_expr(a, rename)
    elif isinstance(e, N.Cast):
        _rename_expr(e.operand, rename)
    return e


def _rename_stmt(s: N.Stmt, rename: Dict[str, str]) -> N.Stmt:
    if isinstance(s, N.VarDecl):
        s.name = rename.get(s.name, s.name)
        if s.init is not None:
            _rename_expr(s.init, rename)
    elif isinstance(s, N.Assign):
        _rename_expr(s.target, rename)
        _rename_expr(s.value, rename)
    elif isinstance(s, N.For):
        s.var = rename.get(s.var, s.var)
        _rename_expr(s.lo, rename)
        _rename_expr(s.hi, rename)
        _rename_expr(s.step, rename)
        s.body = [_rename_stmt(c, rename) for c in s.body]
    elif isinstance(s, N.While):
        _rename_expr(s.cond, rename)
        s.body = [_rename_stmt(c, rename) for c in s.body]
    elif isinstance(s, N.If):
        _rename_expr(s.cond, rename)
        s.then = [_rename_stmt(c, rename) for c in s.then]
        s.orelse = [_rename_stmt(c, rename) for c in s.orelse]
    elif isinstance(s, N.Return):
        _rename_expr(s.value, rename)
    elif isinstance(s, N.ExprStmt):
        _rename_expr(s.value, rename)
    return s


def _walk_all(body: List[N.Stmt]):
    from repro.ir.visitor import walk_stmts

    return walk_stmts(body)


def _annotation_value(node: ast.expr) -> object:
    """Extract the annotation payload from its AST form."""
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name):
        return {"float": float, "int": int, "bool": bool}.get(
            node.id, node.id
        )
    if isinstance(node, ast.Str):  # pragma: no cover - py<3.8 form
        return node.s
    raise KeyError(ast.dump(node))
