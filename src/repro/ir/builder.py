"""Convenience constructors for IR nodes.

Transformation passes build a lot of expressions; these helpers keep that
code terse and make sure ``dtype`` is always populated.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.ir import nodes as N
from repro.ir.types import ArrayType, DType, ScalarType, promote


def const(value: Union[float, int, bool], dtype: Optional[DType] = None) -> N.Const:
    """Build a constant; dtype inferred from the Python type by default."""
    c = N.Const(value)
    if dtype is not None:
        c.dtype = dtype
    return c


def fzero() -> N.Const:
    """The float64 literal ``0.0``."""
    return const(0.0)


def fone() -> N.Const:
    """The float64 literal ``1.0``."""
    return const(1.0)


def name(ident: str, dtype: DType = DType.F64) -> N.Name:
    """Build a scalar variable reference."""
    n = N.Name(ident)
    n.dtype = dtype
    return n


def index(base: str, idx: N.Expr, dtype: DType = DType.F64) -> N.Index:
    """Build an array element reference ``base[idx]``."""
    n = N.Index(base, idx)
    n.dtype = dtype
    return n


def binop(op: str, left: N.Expr, right: N.Expr) -> N.BinOp:
    """Build a binary operation; dtype via standard promotion."""
    b = N.BinOp(op, left, right)
    if op in N.CMPOPS or op in N.BOOLOPS:
        b.dtype = DType.B1
    elif op == "/":
        b.dtype = promote(
            promote(left.dtype or DType.F64, right.dtype or DType.F64),
            DType.F64,
        )
    else:
        b.dtype = promote(left.dtype or DType.F64, right.dtype or DType.F64)
    return b


def add(left: N.Expr, right: N.Expr) -> N.BinOp:
    return binop("+", left, right)


def sub(left: N.Expr, right: N.Expr) -> N.BinOp:
    return binop("-", left, right)


def mul(left: N.Expr, right: N.Expr) -> N.BinOp:
    return binop("*", left, right)


def div(left: N.Expr, right: N.Expr) -> N.BinOp:
    return binop("/", left, right)


def neg(operand: N.Expr) -> N.UnaryOp:
    u = N.UnaryOp("-", operand)
    u.dtype = operand.dtype
    return u


def call(fn: str, args: Sequence[N.Expr], dtype: DType = DType.F64) -> N.Call:
    """Build an intrinsic call with an explicit result dtype."""
    c = N.Call(fn, list(args))
    c.dtype = dtype
    return c


def cast(to: DType, operand: N.Expr) -> N.Cast:
    return N.Cast(to, operand)


def fabs(e: N.Expr) -> N.Call:
    """``fabs(e)`` — the workhorse of every error model."""
    return call("fabs", [e], dtype=e.dtype or DType.F64)


def assign(target: N.LValue, value: N.Expr) -> N.Assign:
    return N.Assign(target, value)


def decl(
    ident: str, dtype: DType, init: Optional[N.Expr] = None
) -> N.VarDecl:
    return N.VarDecl(ident, dtype, init)


def accumulate(target: N.LValue, value: N.Expr) -> N.Assign:
    """``target += value`` desugared to ``target = target + value``."""
    read: N.Expr
    if isinstance(target, N.Name):
        read = name(target.id, target.dtype or DType.F64)
    else:
        read = index(
            target.base, clone(target.index), target.dtype or DType.F64
        )
    return N.Assign(clone(target), add(read, value))


def clone(node):
    """Copy an IR subtree structurally (nodes are mutable dataclasses).

    Every node and list in the tree is copied; the immutable leaves
    (``DType``, the frozen ``Type`` singletons, strings and numbers) are
    shared.  ``Function.meta`` (nested dicts/lists/tuples of leaves) is
    copied the same way.  Unlike ``copy.deepcopy`` there is no memo: a
    node object reachable twice is copied twice, which no IR relies on.

    :raises TypeError: on a value outside the IR's closed set of types.
    """
    return _copy(node)


def _copy(value):
    copier = _COPIERS.get(type(value))
    if copier is None:
        raise TypeError(
            f"clone: unexpected {type(value).__name__} in IR"
        )
    return copier(value)


def _copy_node(node):
    new = object.__new__(type(node))
    # filled in place: measurably cheaper than assigning a fresh dict
    # to ``__dict__``
    attrs = new.__dict__
    for k, v in node.__dict__.items():
        attrs[k] = v if type(v) in _SHARED else _copy(v)
    return new


def _copy_list(items: list) -> list:
    return [v if type(v) in _SHARED else _copy(v) for v in items]


def _copy_tuple(items: tuple) -> tuple:
    return tuple(v if type(v) in _SHARED else _copy(v) for v in items)


def _copy_dict(d: dict) -> dict:
    return {
        k: v if type(v) in _SHARED else _copy(v) for k, v in d.items()
    }


def _share(value):
    return value


#: immutable leaf types: shared between the original and the copy
_SHARED = frozenset(
    [str, int, float, bool, type(None), DType, ScalarType, ArrayType]
)
#: the closed set of IR node classes
_NODES = tuple(
    cls
    for cls in vars(N).values()
    if isinstance(cls, type)
    and cls.__module__ == N.__name__
    and cls not in (N.Expr, N.Stmt)
)
_COPIERS: Dict[type, Callable] = {
    **{t: _share for t in _SHARED},
    **{cls: _copy_node for cls in _NODES},
    list: _copy_list,
    tuple: _copy_tuple,
    dict: _copy_dict,
}


def for_range(
    var: str, lo: N.Expr, hi: N.Expr, body: List[N.Stmt], step: Optional[N.Expr] = None
) -> N.For:
    return N.For(var, lo, hi, step if step is not None else const(1), body)
