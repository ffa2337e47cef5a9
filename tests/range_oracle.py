"""Tree-walking reference interpreter of the interval range analysis.

The differential oracle of :func:`repro.analyze.ranges.analyze_ranges`:
it walks the IR node by node on every abstract loop trip, building an
:class:`~repro.analyze.ranges.Interval` per operation and re-joining
whole environments, which makes it slow but easy to read.  The
compiled engine must reproduce its :class:`RangeResult` exactly --
ranges (bound values and int/float types), events, trip counts,
execution counts and the widening flag.  The iteration caps are read
from the engine module at run time, so a test that monkeypatches
``STEP_BUDGET`` there drives both engines.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.analyze import ranges as R
from repro.analyze.ranges import (
    TOP,
    Interval,
    RangeEvent,
    RangeResult,
    _json_float,
)
from repro.ir import nodes as N

_INF = math.inf


def _mul_bound(a: float, b: float) -> float:
    # endpoint products: 0 * inf contributes 0 (the other endpoint
    # combinations supply the infinite magnitudes)
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


def interval_add(a: Interval, b: Interval) -> Interval:
    return Interval(a.lo + b.lo, a.hi + b.hi)


def interval_sub(a: Interval, b: Interval) -> Interval:
    return Interval(a.lo - b.hi, a.hi - b.lo)


def interval_mul(a: Interval, b: Interval) -> Interval:
    products = [
        _mul_bound(a.lo, b.lo),
        _mul_bound(a.lo, b.hi),
        _mul_bound(a.hi, b.lo),
        _mul_bound(a.hi, b.hi),
    ]
    return Interval(min(products), max(products))


def interval_div(a: Interval, b: Interval) -> Interval:
    if b.contains_zero():
        return TOP
    quotients = []
    for x in (a.lo, a.hi):
        for y in (b.lo, b.hi):
            if math.isinf(y):
                quotients.append(0.0)
            else:
                quotients.append(x / y)
    return Interval(min(quotients), max(quotients))


def interval_neg(a: Interval) -> Interval:
    return Interval(-a.hi, -a.lo)


def interval_abs(a: Interval) -> Interval:
    if a.contains_zero():
        return Interval(0.0, a.mag)
    return Interval(a.min_mag, a.mag)


def _monotone(f: Callable[[float], float]) -> Callable[[Interval], Interval]:
    def apply(a: Interval) -> Interval:
        return Interval(_safe(f, a.lo), _safe(f, a.hi))

    return apply


def _safe(f: Callable[[float], float], x: float) -> float:
    try:
        return f(x)
    except (OverflowError, ValueError):
        if x > 0:
            return _INF
        return -_INF



_UNARY_RANGES: Dict[str, Callable[[Interval], Interval]] = {
    "sin": lambda a: Interval(-1.0, 1.0),
    "cos": lambda a: Interval(-1.0, 1.0),
    "tan": lambda a: TOP,
    "asin": lambda a: Interval(-math.pi / 2, math.pi / 2),
    "acos": lambda a: Interval(0.0, math.pi),
    "atan": _monotone(math.atan),
    "tanh": lambda a: Interval(-1.0, 1.0),
    "sinh": _monotone(math.sinh),
    "cosh": lambda a: Interval(1.0, _safe(math.cosh, a.mag)),
    "erf": lambda a: Interval(-1.0, 1.0),
    "erfc": lambda a: Interval(0.0, 2.0),
    "exp": _monotone(math.exp),
    "exp2": _monotone(lambda x: 2.0**x),
    "floor": _monotone(math.floor),
    "ceil": _monotone(math.ceil),
}


class RangeAnalysis:
    """The tree-walking abstract interpreter."""

    def __init__(
        self,
        fn: N.Function,
        domains: Mapping[str, Interval],
        stmts: Optional[List[N.Stmt]] = None,
    ) -> None:
        from repro.analyze.dataflow import index_statements

        self.fn = fn
        self.stmts = stmts if stmts is not None else index_statements(fn)
        self.index = {id(s): i for i, s in enumerate(self.stmts)}
        self.env: Dict[str, Interval] = {}
        self.summary: Dict[str, Interval] = {}
        self.events: List[RangeEvent] = []
        self._event_keys: set = set()
        self.trips: Dict[int, float] = {}
        self.steps = 0
        self.widened = False
        self._stmt_idx = -1
        self._target: Optional[str] = None
        for p in fn.params:
            iv = Interval(*_domain_of(domains, p.name))
            self.env[p.name] = iv
            self._note(p.name, iv)

    # -- driver --------------------------------------------------------------
    def run(self) -> RangeResult:
        self._body(self.fn.body)
        exec_counts = self._exec_counts()
        return RangeResult(
            fn=self.fn,
            ranges=dict(self.summary),
            events=self.events,
            trips=dict(self.trips),
            exec_counts=exec_counts,
            widened=self.widened,
        )

    def _note(self, var: str, iv: Interval) -> None:
        self.summary[var] = (
            self.summary[var].join(iv) if var in self.summary else iv
        )

    def _event(
        self, kind: str, var: Optional[str], **detail: object
    ) -> None:
        s = self.stmts[self._stmt_idx] if self._stmt_idx >= 0 else None
        key = (kind, self._stmt_idx, var)
        if key in self._event_keys:
            return
        self._event_keys.add(key)
        self.events.append(
            RangeEvent(
                kind=kind,
                stmt=self._stmt_idx,
                loc=getattr(s, "loc", None),
                var=var,
                detail=dict(detail),
            )
        )

    # -- statements ----------------------------------------------------------
    def _body(self, body: List[N.Stmt]) -> None:
        for s in body:
            self._stmt(s)

    def _stmt(self, s: N.Stmt) -> None:
        self.steps += 1
        if self.steps > R.STEP_BUDGET:
            self.widened = True
        self._stmt_idx = self.index[id(s)]
        if isinstance(s, N.VarDecl):
            iv = TOP
            if s.init is not None:
                self._target = s.name
                iv = self._eval(s.init)
                self._target = None
            self.env[s.name] = iv
            self._note(s.name, iv)
        elif isinstance(s, N.Assign):
            if isinstance(s.target, N.Name):
                self._target = s.target.id
                iv = self._eval(s.value)
                self._target = None
                self.env[s.target.id] = iv
                self._note(s.target.id, iv)
            else:
                self._eval(s.target.index)
                self._target = s.target.base
                iv = self._eval(s.value)
                self._target = None
                base = s.target.base
                self.env[base] = self.env.get(base, iv).join(iv)
                self._note(base, self.env[base])
        elif isinstance(s, N.For):
            self._for(s)
        elif isinstance(s, N.While):
            self._while(s)
        elif isinstance(s, N.If):
            self._eval(s.cond)
            before = dict(self.env)
            self._body(s.then)
            then_env = self.env
            self.env = before
            self._body(s.orelse)
            self.env = _join_envs(then_env, self.env)
        elif isinstance(s, (N.Return, N.ReturnTuple, N.ExprStmt)):
            for e in _stmt_exprs(s):
                self._eval(e)
        elif isinstance(s, (N.Push, N.TraceAppend)):
            self._eval(s.value)
        elif isinstance(s, N.Pop):
            # tape pops are adjoint-only; the popped value came from a
            # push whose range we did not track — stay conservative
            if isinstance(s.target, N.Name):
                self.env[s.target.id] = TOP
                self._note(s.target.id, TOP)
            else:
                self.env[s.target.base] = TOP
                self._note(s.target.base, TOP)

    def _for(self, s: N.For) -> None:
        idx = self.index[id(s)]
        lo = self._eval(s.lo)
        hi = self._eval(s.hi)
        step = self._eval(s.step)
        step_lo = max(1.0, step.lo)
        if math.isfinite(hi.hi) and math.isfinite(lo.lo):
            trips = max(0.0, math.ceil((hi.hi - lo.lo) / step_lo))
        else:
            trips = _INF
        self.trips[idx] = trips
        var_iv = Interval(lo.lo, max(lo.lo, hi.hi))
        self.env[s.var] = var_iv
        self._note(s.var, var_iv)
        self._iterate(
            s.body,
            n=int(min(trips, R.TRIP_ITER_CAP)),
            bounded=trips <= R.TRIP_ITER_CAP and not self.widened,
        )

    def _while(self, s: N.While) -> None:
        idx = self.index[id(s)]
        self.trips[idx] = _INF
        self._eval(s.cond)
        self._iterate(s.body, n=R.WHILE_ITER_CAP, bounded=False)
        self._eval(s.cond)

    def _iterate(self, body: List[N.Stmt], n: int, bounded: bool) -> None:
        """Abstractly run a loop body ``n`` times, join-accumulating.

        ``bounded`` means ``n`` covers every concrete trip, so the
        accumulated state is already sound; otherwise the variables
        still changing at the cut-off widen to infinity in the
        direction of change and the body runs once more to propagate.
        """
        acc = dict(self.env)
        for _ in range(max(0, n)):
            self._body(body)
            joined = _join_envs(acc, self.env)
            if joined == acc:
                self.env = dict(acc)
                return
            acc = joined
            self.env = dict(joined)
            if self.steps > R.STEP_BUDGET:
                self.widened = True
                bounded = False
                break
        if not bounded:
            before = dict(acc)
            self._body(body)
            for var, iv in self.env.items():
                old = before.get(var, iv)
                lo = -_INF if iv.lo < old.lo else old.lo
                hi = _INF if iv.hi > old.hi else old.hi
                acc[var] = Interval(lo, hi)
                if lo == -_INF or hi == _INF:
                    self._note(var, acc[var])
            self.env = dict(acc)
            self._body(body)
            self.env = _join_envs(acc, self.env)

    def _exec_counts(self) -> Dict[int, float]:
        """Per-statement execution count estimates from loop trips."""
        counts: Dict[int, float] = {}

        def visit(body: List[N.Stmt], mult: float) -> None:
            for s in body:
                i = self.index[id(s)]
                counts[i] = counts.get(i, 0.0) + mult
                if isinstance(s, (N.For, N.While)):
                    trips = self.trips.get(i, _INF)
                    inner = min(mult * max(trips, 0.0), 1e12)
                    visit(s.body, inner)
                elif isinstance(s, N.If):
                    visit(s.then, mult)
                    visit(s.orelse, mult)

        visit(self.fn.body, 1.0)
        return counts

    # -- expressions ---------------------------------------------------------
    def _eval(self, e: N.Expr) -> Interval:
        if isinstance(e, N.Const):
            v = float(e.value)
            return Interval(v, v)
        if isinstance(e, N.Name):
            return self.env.get(e.id, TOP)
        if isinstance(e, N.Index):
            self._eval(e.index)
            return self.env.get(e.base, TOP)
        if isinstance(e, N.Cast):
            return self._eval(e.operand)
        if isinstance(e, N.UnaryOp):
            iv = self._eval(e.operand)
            if e.op == "-":
                return interval_neg(iv)
            return Interval(0.0, 1.0)  # not
        if isinstance(e, N.BinOp):
            return self._binop(e)
        if isinstance(e, N.Call):
            return self._call(e)
        return TOP

    def _binop(self, e: N.BinOp) -> Interval:
        a = self._eval(e.left)
        b = self._eval(e.right)
        if e.op in N.CMPOPS or e.op in N.BOOLOPS:
            return Interval(0.0, 1.0)
        if e.op == "+":
            return interval_add(a, b)
        if e.op == "-":
            self._check_cancellation(e, a, b)
            return interval_sub(a, b)
        if e.op == "*":
            return interval_mul(a, b)
        if e.op == "/":
            self._check_division(e, a, b)
            return interval_div(a, b)
        if e.op == "//":
            q = interval_div(a, b) if not b.contains_zero() else TOP
            return Interval(_safe(math.floor, q.lo), _safe(math.floor, q.hi))
        if e.op == "%":
            if b.lo > 0:
                return Interval(0.0, b.hi)
            if b.hi < 0:
                return Interval(b.lo, 0.0)
            return Interval(-b.mag, b.mag)
        return TOP

    def _check_division(
        self, e: N.BinOp, num: Interval, den: Interval
    ) -> None:
        if den.contains_zero():
            self._event(
                "div_blowup",
                self._target,
                divisor=den.to_dict(),
                numerator=num.to_dict(),
                contains_zero=True,
            )
        elif den.min_mag < 1e-8 * max(num.mag, 1.0):
            self._event(
                "div_blowup",
                self._target,
                divisor=den.to_dict(),
                numerator=num.to_dict(),
                contains_zero=False,
            )

    def _check_cancellation(
        self, e: N.BinOp, a: Interval, b: Interval
    ) -> None:
        dtype = getattr(e, "dtype", None)
        if dtype is not None and not dtype.is_float:
            return
        if isinstance(e.left, N.Const) or isinstance(e.right, N.Const):
            # subtracting a literal shifts, it does not cancel inputs
            return
        if not a.overlaps(b):
            return
        same_pos = a.hi > 0 and b.hi > 0
        same_neg = a.lo < 0 and b.lo < 0
        if not (same_pos or same_neg):
            return
        overlap_mag = min(a.hi, b.hi) - max(a.lo, b.lo)
        if overlap_mag <= 0 or max(a.mag, b.mag) == 0:
            return
        self._event(
            "cancellation",
            self._target,
            left=a.to_dict(),
            right=b.to_dict(),
            magnitude=_json_float(max(a.mag, b.mag)),
        )

    def _call(self, e: N.Call) -> Interval:
        args = [self._eval(a) for a in e.args]
        name = e.fn
        if name.startswith("fast_"):
            name = name[len("fast_"):]
        if name in _UNARY_RANGES and len(args) == 1:
            return _UNARY_RANGES[name](args[0])
        if name in ("log", "log2") and len(args) == 1:
            a = args[0]
            if a.lo <= 0.0:
                self._event("domain", self._target, fn=e.fn,
                            arg=a.to_dict())
            f = math.log if name == "log" else math.log2
            lo = -_INF if a.lo <= 0.0 else _safe(f, a.lo)
            hi = -_INF if a.hi <= 0.0 else _safe(f, a.hi)
            return Interval(lo, hi)
        if name == "sqrt" and len(args) == 1:
            a = args[0]
            if a.lo < 0.0:
                self._event("domain", self._target, fn=e.fn,
                            arg=a.to_dict())
            if a.hi < 0.0:
                return Interval(0.0, 0.0)
            return Interval(
                math.sqrt(max(a.lo, 0.0)), _safe(math.sqrt, a.hi)
            )
        if name == "fabs" and len(args) == 1:
            return interval_abs(args[0])
        if name == "fmax" and len(args) == 2:
            return Interval(
                max(args[0].lo, args[1].lo), max(args[0].hi, args[1].hi)
            )
        if name == "fmin" and len(args) == 2:
            return Interval(
                min(args[0].lo, args[1].lo), min(args[0].hi, args[1].hi)
            )
        if name == "pow" and len(args) == 2:
            return self._pow(args[0], args[1])
        if name == "copysign" and len(args) == 2:
            return Interval(-args[0].mag, args[0].mag)
        if name == "step_ge" and len(args) == 2:
            return Interval(0.0, 1.0)
        if name == "user_err" and args:
            return args[0]
        return TOP

    def _pow(self, base: Interval, exp: Interval) -> Interval:
        if not (base.is_finite and exp.is_finite):
            return TOP
        if base.lo <= 0.0:
            # negative bases with non-integer exponents are domain
            # errors at runtime; stay conservative on magnitude only
            m = _safe(lambda _: max(
                _safe(lambda __: abs(base.lo) ** exp.mag, 0.0),
                _safe(lambda __: abs(base.hi) ** exp.mag, 0.0),
                1.0,
            ), 0.0)
            return Interval(-m, m)
        corners = []
        for b in (base.lo, base.hi):
            for x in (exp.lo, exp.hi):
                corners.append(_safe(lambda _: b**x, 0.0))
        return Interval(min(corners), max(corners))


def _domain_of(
    domains: Mapping[str, Interval], name: str
) -> Tuple[float, float]:
    iv = domains.get(name, TOP)
    return iv.lo, iv.hi


def _join_envs(
    a: Dict[str, Interval], b: Dict[str, Interval]
) -> Dict[str, Interval]:
    out: Dict[str, Interval] = {}
    for var in set(a) | set(b):
        ia, ib = a.get(var), b.get(var)
        if ia is None:
            out[var] = ib  # type: ignore[assignment]
        elif ib is None:
            out[var] = ia
        else:
            out[var] = ia.join(ib)
    return out


def _stmt_exprs(s: N.Stmt) -> List[N.Expr]:
    from repro.ir.visitor import iter_stmt_exprs

    return list(iter_stmt_exprs(s))


def oracle_ranges(
    fn: N.Function,
    domains: Mapping[str, Interval],
    stmts: Optional[List[N.Stmt]] = None,
) -> RangeResult:
    """The reference analysis of ``fn`` under ``domains``."""
    return RangeAnalysis(fn, domains, stmts=stmts).run()


def oracle_expr_range(
    e: N.Expr, ranges: Mapping[str, Interval]
) -> Interval:
    """The reference range of one expression under summary ranges."""
    ra = RangeAnalysis(
        N.Function(name="_expr", params=[], body=[], ret_dtype=None), {}
    )
    ra.env = dict(ranges)
    return ra._eval(e)
