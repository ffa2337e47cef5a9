"""Local common-subexpression elimination for intrinsic calls.

The adjoint of one assignment evaluates the same intrinsic several
times: ``y = sin(x) * cos(x)`` produces partials referencing ``cos(x)``
and ``sin(x)`` again, and the error model adds more.  Intrinsic calls
dominate the cycle budget, so this pass hoists *repeated, identical*
intrinsic calls within a straight-line run of assignments into a
temporary.

Scope is deliberately local (one basic-block run, invalidation on any
write to a referenced variable), which keeps the pass trivially sound
across loops and branches.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.ir import builder as b
from repro.ir import nodes as N
from repro.ir.printer import format_expr
from repro.ir.types import DType
from repro.ir.visitor import walk_expr

#: name prefix of the temporaries this pass declares
TEMP_PREFIX = "_cse"


def _expr_vars(e: N.Expr) -> Set[str]:
    out: Set[str] = set()
    for node in walk_expr(e):
        if isinstance(node, N.Name):
            out.add(node.id)
        elif isinstance(node, N.Index):
            out.add(node.base)
    return out


def _collect_calls(e: N.Expr) -> List[N.Call]:
    return [n for n in walk_expr(e) if isinstance(n, N.Call)]


class _BlockCSE:
    def __init__(self, counter: List[int]) -> None:
        self.counter = counter
        self.changed = False

    def run(self, body: List[N.Stmt]) -> List[N.Stmt]:
        out: List[N.Stmt] = []
        run: List[N.Stmt] = []
        for s in body:
            if isinstance(s, N.Assign) or (
                isinstance(s, N.VarDecl) and s.init is not None
            ):
                run.append(s)
                continue
            out.extend(self._process_run(run))
            run = []
            if isinstance(s, (N.For, N.While)):
                s.body = self.run(s.body)
            elif isinstance(s, N.If):
                s.then = self.run(s.then)
                s.orelse = self.run(s.orelse)
            out.append(s)
        out.extend(self._process_run(run))
        return out

    @staticmethod
    def _value_of(s: N.Stmt) -> N.Expr:
        return s.init if isinstance(s, N.VarDecl) else s.value

    @staticmethod
    def _set_value(s: N.Stmt, e: N.Expr) -> None:
        if isinstance(s, N.VarDecl):
            s.init = e
        else:
            s.value = e

    @staticmethod
    def _target_of(s: N.Stmt) -> str:
        if isinstance(s, N.VarDecl):
            return s.name
        return (
            s.target.id
            if isinstance(s.target, N.Name)
            else s.target.base
        )

    def _process_run(self, run: List[N.Stmt]) -> List[N.Stmt]:
        if len(run) < 2:
            return list(run)
        # count identical calls, tracking invalidation by writes
        counts: Dict[str, int] = {}
        avail: Dict[str, N.Call] = {}
        written: Set[str] = set()
        keys_per_stmt: List[List[str]] = []
        for s in run:
            keys: List[str] = []
            for call in _collect_calls(self._value_of(s)):
                if call.fn == "user_err":
                    continue  # sites are distinct by construction
                if _expr_vars(call) & written:
                    continue
                key = format_expr(call)
                counts[key] = counts.get(key, 0) + 1
                avail.setdefault(key, call)
                keys.append(key)
            keys_per_stmt.append(keys)
            written.add(self._target_of(s))
        hot = {k for k, c in counts.items() if c >= 2}
        if not hot:
            return list(run)
        # second sweep: materialize temps at first occurrence, substitute
        out: List[N.Stmt] = []
        temp_of: Dict[str, str] = {}
        written = set()
        for s in run:
            for call in _collect_calls(self._value_of(s)):
                key = format_expr(call)
                if key in hot and key not in temp_of:
                    if _expr_vars(call) & written:
                        continue
                    self.counter[0] += 1
                    t = f"{TEMP_PREFIX}{self.counter[0]}"
                    temp_of[key] = t
                    decl = N.VarDecl(
                        t, call.dtype or DType.F64, b.clone(call)
                    )
                    out.append(decl)
                    self.changed = True
            self._set_value(
                s, _substitute(self._value_of(s), temp_of, written)
            )
            out.append(s)
            tname = self._target_of(s)
            written.add(tname)
            # invalidate temps whose source vars were just written
            stale = [
                k
                for k in temp_of
                if tname in _expr_vars(_parse_back(avail, k))
            ]
            for k in stale:
                del temp_of[k]
        return out


def _parse_back(avail: Dict[str, N.Call], key: str) -> N.Call:
    return avail[key]


def _substitute(
    e: N.Expr, temp_of: Dict[str, str], written: Set[str]
) -> N.Expr:
    if isinstance(e, N.Call):
        key = format_expr(e)
        t = temp_of.get(key)
        if t is not None:
            return b.name(t, e.dtype or DType.F64)
        e.args = [_substitute(a, temp_of, written) for a in e.args]
        return e
    if isinstance(e, N.BinOp):
        e.left = _substitute(e.left, temp_of, written)
        e.right = _substitute(e.right, temp_of, written)
        return e
    if isinstance(e, N.UnaryOp):
        e.operand = _substitute(e.operand, temp_of, written)
        return e
    if isinstance(e, N.Cast):
        e.operand = _substitute(e.operand, temp_of, written)
        return e
    if isinstance(e, N.Index):
        e.index = _substitute(e.index, temp_of, written)
        return e
    return e


def cse_function(fn: N.Function) -> bool:
    """Hoist repeated intrinsic calls in place; True on change."""
    counter = [0]
    pass_ = _BlockCSE(counter)
    fn.body = pass_.run(fn.body)
    return pass_.changed
