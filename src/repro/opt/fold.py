"""Constant folding and algebraic simplification.

Rewrites (value-preserving on finite inputs; exprs in this IR are pure):

* ``Const ∘ Const`` → folded constant (including comparisons),
* ``x * 1`` / ``1 * x`` / ``x / 1`` → ``x``,
* ``x + 0`` / ``0 + x`` / ``x - 0`` → ``x``,
* ``0 - x`` and double negation → ``-x`` / ``x``,
* ``-Const`` → negated constant, ``fabs(Const)`` → folded,
* casts of constants → rounded constants,
* ``fabs(fabs(x))`` → ``fabs(x)``.

The adjoint generator leans on this heavily: seeds multiplied by unit
partials produce long ``_t * 1.0`` chains that fold away.

Machine-epsilon constants marked by error models (``Const.eps_of``)
take a different value in every precision configuration.  The
rewrites whose outcome would change the program's shape (identities,
comparisons) never fire on them, and a constant folded from one is
marked :data:`FOLDED_EPS`, which names no variable: the config-lane
lowering refuses it and estimates such adjoints one configuration at a
time.
"""

from __future__ import annotations

from typing import Optional

from repro.fp.precision import round_to
from repro.ir import builder as b
from repro.ir import nodes as N
from repro.ir.visitor import Transformer


def _const_value(e: N.Expr) -> Optional[float]:
    if isinstance(e, N.Const) and not isinstance(e.value, bool):
        return e.value  # type: ignore[return-value]
    return None


#: ``eps_of`` of a constant folded from a machine-epsilon constant
FOLDED_EPS = "<folded>"


def _is_const(e: N.Expr, v: float) -> bool:
    c = _const_value(e)
    return c is not None and e.eps_of is None and float(c) == v


def _folded(value, dtype, *sources: N.Expr) -> N.Const:
    """A folded constant, marked if any source was a marked one."""
    c = b.const(value)
    c.dtype = dtype
    if any(s.eps_of is not None for s in sources):
        c.eps_of = FOLDED_EPS
    return c


class _Folder(Transformer):
    def __init__(self) -> None:
        self.changed = False

    def _mark(self, new: N.Expr, old: N.Expr) -> N.Expr:
        self.changed = True
        if new.dtype is None:
            new.dtype = old.dtype
        return new

    def visit_BinOp(self, e: N.BinOp) -> N.Expr:
        e.left = self.visit(e.left)
        e.right = self.visit(e.right)
        lv, rv = _const_value(e.left), _const_value(e.right)
        op = e.op
        if lv is not None and rv is not None and op in N.BINOPS:
            try:
                folded = _apply(op, lv, rv)
            except (ZeroDivisionError, OverflowError):
                return e
            return self._mark(_folded(folded, e.dtype, e.left, e.right), e)
        if (
            lv is not None
            and rv is not None
            and op in N.CMPOPS
            and e.left.eps_of is None
            and e.right.eps_of is None
        ):
            c = b.const(bool(_apply_cmp(op, lv, rv)))
            return self._mark(c, e)
        if op == "*":
            if _is_const(e.right, 1.0):
                return self._mark(e.left, e)
            if _is_const(e.left, 1.0):
                return self._mark(e.right, e)
            if _is_const(e.right, -1.0):
                return self._mark(b.neg(e.left), e)
            if _is_const(e.left, -1.0):
                return self._mark(b.neg(e.right), e)
        elif op == "+":
            if _is_const(e.right, 0.0):
                return self._mark(e.left, e)
            if _is_const(e.left, 0.0):
                return self._mark(e.right, e)
        elif op == "-":
            if _is_const(e.right, 0.0):
                return self._mark(e.left, e)
            if _is_const(e.left, 0.0):
                return self._mark(b.neg(e.right), e)
        elif op == "/":
            if _is_const(e.right, 1.0):
                return self._mark(e.left, e)
        return e

    def visit_UnaryOp(self, e: N.UnaryOp) -> N.Expr:
        e.operand = self.visit(e.operand)
        if e.op == "-":
            cv = _const_value(e.operand)
            if cv is not None:
                return self._mark(_folded(-cv, e.dtype, e.operand), e)
            if isinstance(e.operand, N.UnaryOp) and e.operand.op == "-":
                return self._mark(e.operand.operand, e)
        return e

    def visit_Call(self, e: N.Call) -> N.Expr:
        e.args = [self.visit(a) for a in e.args]
        if e.fn == "fabs":
            cv = _const_value(e.args[0])
            if cv is not None:
                return self._mark(_folded(abs(cv), e.dtype, e.args[0]), e)
            inner = e.args[0]
            if isinstance(inner, N.Call) and inner.fn == "fabs":
                return self._mark(inner, e)
            if isinstance(inner, N.UnaryOp) and inner.op == "-":
                # |−x| = |x|
                e.args[0] = inner.operand
                self.changed = True
        return e

    def visit_Cast(self, e: N.Cast) -> N.Expr:
        e.operand = self.visit(e.operand)
        cv = _const_value(e.operand)
        if cv is not None and e.to.is_float:
            c = _folded(float(round_to(float(cv), e.to)), e.to, e.operand)
            return self._mark(c, e)
        return e


def _apply(op: str, a: float, b_: float) -> float:
    if op == "+":
        return a + b_
    if op == "-":
        return a - b_
    if op == "*":
        return a * b_
    if op == "/":
        return a / b_
    if op == "//":
        return a // b_
    if op == "%":
        return a % b_
    raise ValueError(op)


def _apply_cmp(op: str, a: float, b_: float) -> bool:
    return {
        "==": a == b_,
        "!=": a != b_,
        "<": a < b_,
        "<=": a <= b_,
        ">": a > b_,
        ">=": a >= b_,
    }[op]


def fold_function(fn: N.Function) -> bool:
    """Fold constants/identities in place; returns True if anything
    changed (callers iterate to a fixpoint)."""
    f = _Folder()
    fn.body = f.visit_body(fn.body)
    return f.changed
