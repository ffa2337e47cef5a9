"""Interval/range analysis over the IR.

Propagates declared or sampler-derived input domains through every
operation to a per-variable value range (an over-approximating
interval), the substrate for the static precision checks:

* **exponent-range feasibility** — a variable whose value range exceeds
  the finite range of f16/f32 cannot be demoted there without overflow
  (and an all-subnormal range flushes toward zero);
* **division blowup** — a divisor interval containing (or hugging)
  zero makes the quotient unboundedly amplified;
* **catastrophic cancellation** — subtraction of overlapping,
  same-signed ranges can cancel all significant digits.

Loops are handled by abstract iteration: counted ``for`` loops with a
statically bounded trip count are iterated trip-by-trip (joined with
every intermediate state, so ``break`` exits stay covered); unbounded
loops iterate to a fixpoint with widening.  Everything terminates under
hard iteration caps; capped-out bounds widen to infinity, staying
conservative.

Evaluation is compiled: each :func:`analyze_ranges` call lowers every
statement and expression once into a Python closure over ``(lo, hi)``
float pairs, so an abstract loop trip runs closures instead of
re-dispatching on IR node types, and :class:`Interval` objects are
built only for the :class:`RangeResult`.  A loop trip joins the
variables its body writes into the accumulated state in place, and the
loop stops on the first trip that changes nothing.  The rules the
results depend on are kept exactly:

* statements and operands evaluate in program order; every statement
  entered counts one step toward :data:`STEP_BUDGET` and becomes the
  site that events are attributed to (a ``while`` loop's trailing
  condition check sees the body's last statement), and an event is
  recorded once per ``(kind, statement, variable)``;
* a bound that comes out NaN widens the interval to ``[-inf, inf]``;
* ``min``/``max`` keep their first operand on ties, and int-valued
  bounds (``floor``, ``ceil``, ``//``) stay ints;
* a subexpression whose value is discarded (an index, a comparison
  operand, a pushed tape value) is evaluated only when it can record
  an event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.ir import nodes as N
from repro.ir.types import DType
from repro.ir.visitor import iter_stmt_bodies, iter_stmt_exprs

#: iterate a counted loop abstractly at most this many times
TRIP_ITER_CAP = 600
#: fixpoint iterations for unbounded (while) loops before widening
WHILE_ITER_CAP = 32
#: total abstract statement evaluations before everything widens
STEP_BUDGET = 400_000
#: largest finite value representable per float dtype
FINITE_MAX: Dict[DType, float] = {
    DType.F16: 65504.0,
    DType.F32: 3.4028234663852886e38,
    DType.F64: 1.7976931348623157e308,
}
#: smallest positive *normal* value per float dtype
SMALLEST_NORMAL: Dict[DType, float] = {
    DType.F16: 6.103515625e-05,
    DType.F32: 1.1754943508222875e-38,
    DType.F64: 2.2250738585072014e-308,
}

_INF = math.inf


@dataclass(frozen=True)
class Interval:
    """A closed interval ``[lo, hi]`` over the extended reals."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            object.__setattr__(self, "lo", -_INF)
            object.__setattr__(self, "hi", _INF)

    @property
    def mag(self) -> float:
        """Largest absolute value in the interval."""
        return max(abs(self.lo), abs(self.hi))

    @property
    def min_mag(self) -> float:
        """Smallest absolute value in the interval."""
        if self.lo <= 0.0 <= self.hi:
            return 0.0
        return min(abs(self.lo), abs(self.hi))

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    def join(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def contains_zero(self) -> bool:
        return self.lo <= 0.0 <= self.hi

    def overlaps(self, other: "Interval") -> bool:
        return max(self.lo, other.lo) <= min(self.hi, other.hi)

    def to_dict(self) -> Dict[str, object]:
        return {"lo": _json_float(self.lo), "hi": _json_float(self.hi)}


TOP = Interval(-_INF, _INF)


def _json_float(x: float) -> object:
    """JSON-expressible bound (strict JSON has no ``Infinity``)."""
    if x == _INF:
        return "inf"
    if x == -_INF:
        return "-inf"
    return float(x)


def interval_of(value: object) -> Interval:
    """The interval of one concrete scalar or array value."""
    try:
        import numpy as np

        if isinstance(value, np.ndarray):
            if value.size == 0:
                return Interval(0.0, 0.0)
            return Interval(float(value.min()), float(value.max()))
    except ImportError:  # pragma: no cover - numpy is a hard dep
        pass
    if isinstance(value, bool):
        return Interval(0.0, 1.0)
    return Interval(float(value), float(value))  # type: ignore[arg-type]


@dataclass
class RangeEvent:
    """A site-level numerical hazard observed during propagation."""

    #: ``"div_blowup" | "cancellation" | "domain"``
    kind: str
    #: statement index of the enclosing statement
    stmt: int
    loc: Optional[int]
    #: variable being defined at the site (``None`` outside defs)
    var: Optional[str]
    detail: Dict[str, object] = field(default_factory=dict)


@dataclass
class RangeResult:
    """Everything the range analysis learned about one function."""

    fn: N.Function
    #: per-variable value range, joined over every definition
    ranges: Dict[str, Interval]
    #: site-level hazard events (division blowup, cancellation, ...)
    events: List[RangeEvent]
    #: per-loop (statement index) estimated maximum trip count
    trips: Dict[int, float]
    #: per-statement estimated execution count (trip products, capped)
    exec_counts: Dict[int, float]
    #: whether the step budget forced widening (ranges are still sound,
    #: just maximally coarse past the cut-off)
    widened: bool = False


def derive_domains(
    fn: N.Function,
    points: Optional[Sequence[Sequence[object]]] = None,
    samples: Optional[Mapping[str, Sequence[object]]] = None,
    fixed: Optional[Mapping[str, object]] = None,
    domains: Optional[Mapping[str, Tuple[float, float]]] = None,
) -> Dict[str, Interval]:
    """Input domains for the parameters of ``fn``.

    Joins, per parameter: the values it takes across the validation
    ``points``, the min/max of any swept ``samples``, any ``fixed``
    values, and — winning over all of those — explicitly declared
    ``domains`` (``{name: (lo, hi)}``).  Parameters covered by none of
    the sources stay unconstrained (``[-inf, inf]``).
    """
    out: Dict[str, Interval] = {}

    def feed(name: str, iv: Interval) -> None:
        out[name] = out[name].join(iv) if name in out else iv

    names = [p.name for p in fn.params]
    for point in points or ():
        for name, value in zip(names, point):
            feed(name, interval_of(value))
    for name, values in (samples or {}).items():
        feed(name, interval_of(_as_array(values)))
    for name, value in (fixed or {}).items():
        feed(name, interval_of(value))
    for name, (lo, hi) in (domains or {}).items():
        out[name] = Interval(float(lo), float(hi))
    return out


def _as_array(values: Sequence[object]) -> object:
    import numpy as np

    return np.asarray(values)


# -- the compiled engine ----------------------------------------------------
#
# Values are ``(lo, hi)`` pairs; every pair the transfer functions build
# passes through the same NaN -> TOP rule as ``Interval``.  Each
# ``min``/``max`` keeps its operands in the order the interval algebra
# defines them, so ties keep the first operand (``0.0`` vs ``-0.0``,
# ``3`` vs ``3.0``) and int-valued bounds (``floor``, ``ceil``, ``//``)
# stay ints.

Pair = Tuple[float, float]
Env = Dict[str, Pair]
ExprFn = Callable[[Env], Pair]
StmtFn = Callable[[Env], Env]

_TOP: Pair = (-_INF, _INF)
_BOOL: Pair = (0.0, 1.0)


def _pair(lo: float, hi: float) -> Pair:
    if lo != lo or hi != hi:
        return _TOP
    return (lo, hi)


def _pair_dict(p: Pair) -> Dict[str, object]:
    return {"lo": _json_float(p[0]), "hi": _json_float(p[1])}


def _mag(p: Pair) -> float:
    return max(abs(p[0]), abs(p[1]))


def _safe(f: Callable[[float], float], x: float) -> float:
    try:
        return f(x)
    except (OverflowError, ValueError):
        if x > 0:
            return _INF
        return -_INF


def _mul(a: Pair, b: Pair) -> Pair:
    # endpoint products: 0 * inf contributes 0 (the other endpoint
    # combinations supply the infinite magnitudes)
    alo, ahi = a
    blo, bhi = b
    p1 = 0.0 if alo == 0.0 or blo == 0.0 else alo * blo
    p2 = 0.0 if alo == 0.0 or bhi == 0.0 else alo * bhi
    p3 = 0.0 if ahi == 0.0 or blo == 0.0 else ahi * blo
    p4 = 0.0 if ahi == 0.0 or bhi == 0.0 else ahi * bhi
    return _pair(min(p1, p2, p3, p4), max(p1, p2, p3, p4))


def _div(a: Pair, b: Pair) -> Pair:
    """Quotient by a divisor interval that excludes zero."""
    alo, ahi = a
    blo, bhi = b
    lo_inf = math.isinf(blo)
    hi_inf = math.isinf(bhi)
    q1 = 0.0 if lo_inf else alo / blo
    q2 = 0.0 if hi_inf else alo / bhi
    q3 = 0.0 if lo_inf else ahi / blo
    q4 = 0.0 if hi_inf else ahi / bhi
    return _pair(min(q1, q2, q3, q4), max(q1, q2, q3, q4))


def _cancels(a: Pair, b: Pair) -> bool:
    """Subtracting ``b`` from ``a`` may cancel significant digits:
    overlapping, same-signed, non-degenerate ranges."""
    alo, ahi = a
    blo, bhi = b
    if not max(alo, blo) <= min(ahi, bhi):
        return False
    if not ((ahi > 0 and bhi > 0) or (alo < 0 and blo < 0)):
        return False
    overlap_mag = min(ahi, bhi) - max(alo, blo)
    return not (overlap_mag <= 0 or max(_mag(a), _mag(b)) == 0)


def _pow(base: Pair, exp: Pair) -> Pair:
    blo, bhi = base
    elo, ehi = exp
    if not (
        math.isfinite(blo) and math.isfinite(bhi)
        and math.isfinite(elo) and math.isfinite(ehi)
    ):
        return _TOP
    if blo <= 0.0:
        # negative bases with non-integer exponents are domain
        # errors at runtime; stay conservative on magnitude only
        emag = _mag(exp)
        m = max(_try_pow(abs(blo), emag), _try_pow(abs(bhi), emag), 1.0)
        return _pair(-m, m)
    c1 = _try_pow(blo, elo)
    c2 = _try_pow(blo, ehi)
    c3 = _try_pow(bhi, elo)
    c4 = _try_pow(bhi, ehi)
    return _pair(min(c1, c2, c3, c4), max(c1, c2, c3, c4))


def _try_pow(b: float, x: float) -> float:
    try:
        return b**x
    except (OverflowError, ValueError):
        return -_INF


#: intrinsics whose range ignores the argument's
_CONST_UNARY: Dict[str, Pair] = {
    "sin": (-1.0, 1.0),
    "cos": (-1.0, 1.0),
    "tan": _TOP,
    "asin": (-math.pi / 2, math.pi / 2),
    "acos": (0.0, math.pi),
    "tanh": (-1.0, 1.0),
    "erf": (-1.0, 1.0),
    "erfc": (0.0, 2.0),
}
#: monotone non-decreasing intrinsics: map both bounds
_MONOTONE: Dict[str, Callable[[float], float]] = {
    "atan": math.atan,
    "sinh": math.sinh,
    "exp": math.exp,
    "exp2": lambda x: 2.0**x,
    "floor": math.floor,
    "ceil": math.ceil,
}
#: intrinsics whose argument range can leave the function's domain
_DOMAIN_CHECKED = ("log", "log2", "sqrt")


def _intrinsic(e: N.Call) -> str:
    return e.fn[len("fast_"):] if e.fn.startswith("fast_") else e.fn


def _join(a: Pair, b: Pair) -> Pair:
    """The hull of ``a`` and ``b``: ``a`` itself unless ``b`` reaches
    past it, and ``a``'s bound wherever the two tie."""
    lo, hi = b
    alo, ahi = a
    if lo < alo or hi > ahi:
        return (lo if lo < alo else alo, hi if hi > ahi else ahi)
    return a


def _join_envs(a: Env, b: Env, written: Sequence[str]) -> Env:
    """Per-variable join of two environments that differ at most in
    the ``written`` variables."""
    out = dict(a)
    for var in written:
        ib = b.get(var)
        if ib is not None:
            ia = out.get(var)
            out[var] = ib if ia is None else _join(ia, ib)
    return out


def _written(body: List[N.Stmt]) -> Tuple[str, ...]:
    """Every variable a statement list (nested bodies included) may
    assign: the only ones a run of it can change."""
    out: Dict[str, None] = {}

    def visit(stmts: List[N.Stmt]) -> None:
        for s in stmts:
            if isinstance(s, N.VarDecl):
                out[s.name] = None
            elif isinstance(s, (N.Assign, N.Pop)):
                t = s.target
                out[t.id if isinstance(t, N.Name) else t.base] = None
            elif isinstance(s, N.For):
                out[s.var] = None
            for inner in iter_stmt_bodies(s):
                visit(inner)

    visit(body)
    return tuple(out)


class _Engine:
    """One analysis run: lowers the IR to closures, then runs them.

    The closures read the environment they are passed and report into
    this object: the per-variable summary, events, trip counts and the
    step counter.  ``idx`` is the index of the statement last entered,
    the site that events are attributed to.
    """

    __slots__ = (
        "index", "locs", "summary", "events", "event_keys", "trips",
        "steps", "widened", "idx", "budget", "trip_cap", "while_cap",
    )

    def __init__(self, stmts: List[N.Stmt]) -> None:
        self.index = {id(s): i for i, s in enumerate(stmts)}
        self.locs = [getattr(s, "loc", None) for s in stmts]
        self.summary: Env = {}
        self.events: List[RangeEvent] = []
        self.event_keys: set = set()
        self.trips: Dict[int, float] = {}
        self.steps = 0
        self.widened = False
        self.idx = -1
        self.budget = STEP_BUDGET
        self.trip_cap = TRIP_ITER_CAP
        self.while_cap = WHILE_ITER_CAP

    # -- bookkeeping ---------------------------------------------------------
    def note(self, var: str, iv: Pair) -> None:
        old = self.summary.get(var)
        self.summary[var] = iv if old is None else _join(old, iv)

    def fresh(self, kind: str, var: Optional[str]) -> bool:
        """Whether ``(kind, current statement, var)`` has no event yet."""
        key = (kind, self.idx, var)
        if key in self.event_keys:
            return False
        self.event_keys.add(key)
        return True

    def emit(
        self, kind: str, var: Optional[str], detail: Dict[str, object]
    ) -> None:
        idx = self.idx
        self.events.append(
            RangeEvent(
                kind=kind,
                stmt=idx,
                loc=self.locs[idx] if idx >= 0 else None,
                var=var,
                detail=detail,
            )
        )

    def enter(self, i: int) -> None:
        self.steps += 1
        if self.steps > self.budget:
            self.widened = True
        self.idx = i

    # -- loops ---------------------------------------------------------------
    def iterate(
        self,
        body: StmtFn,
        written: Tuple[str, ...],
        env: Env,
        n: int,
        bounded: bool,
    ) -> Env:
        """Abstractly run a loop body ``n`` times, join-accumulating.

        ``bounded`` means ``n`` covers every concrete trip, so the
        accumulated state is already sound; otherwise the variables
        still changing at the cut-off widen to infinity in the
        direction of change and the body runs once more to propagate.
        """
        acc = dict(env)
        for _ in range(max(0, n)):
            env = body(env)
            changed = False
            for var in written:
                iv = env.get(var)
                old = acc.get(var)
                if iv is None or iv is old:
                    continue
                new = iv if old is None else _join(old, iv)
                if new is not old:
                    acc[var] = new
                    changed = True
            if not changed:
                return acc
            env = dict(acc)
            if self.steps > self.budget:
                self.widened = True
                bounded = False
                break
        if not bounded:
            before = dict(acc)
            env = body(env)
            for var, iv in env.items():
                old = before.get(var, iv)
                lo = -_INF if iv[0] < old[0] else old[0]
                hi = _INF if iv[1] > old[1] else old[1]
                acc[var] = (lo, hi)
                if lo == -_INF or hi == _INF:
                    self.note(var, (lo, hi))
            env = body(dict(acc))
            env = _join_envs(acc, env, written)
        return env

    def exec_counts(self, body: List[N.Stmt]) -> Dict[int, float]:
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

        visit(body, 1.0)
        return counts

    # -- statements ----------------------------------------------------------
    def body(self, stmts: List[N.Stmt]) -> StmtFn:
        fns = [self.stmt(s) for s in stmts]
        if len(fns) == 1:
            return fns[0]

        def run(env: Env) -> Env:
            for f in fns:
                env = f(env)
            return env

        return run

    def stmt(self, s: N.Stmt) -> StmtFn:
        i = self.index[id(s)]
        enter = self.enter
        note = self.note
        if isinstance(s, N.VarDecl):
            return self._define(i, s.name, s.init)
        if isinstance(s, N.Assign):
            if isinstance(s.target, N.Name):
                return self._define(i, s.target.id, s.value)
            return self._store(i, s.target, s.value)
        if isinstance(s, N.For):
            return self._for(s, i)
        if isinstance(s, N.While):
            return self._while(s, i)
        if isinstance(s, N.If):
            cond = self.effects(s.cond, None)
            then = self.body(s.then)
            orelse = self.body(s.orelse)
            written = _written([s])

            def branch(env: Env) -> Env:
                enter(i)
                if cond is not None:
                    cond(env)
                before = dict(env)
                return _join_envs(then(env), orelse(before), written)

            return branch
        if isinstance(s, N.Pop):
            # tape pops are adjoint-only; the popped value came from a
            # push whose range we did not track -- stay conservative
            t = s.target
            var = t.id if isinstance(t, N.Name) else t.base

            def pop(env: Env) -> Env:
                enter(i)
                env[var] = _TOP
                note(var, _TOP)
                return env

            return pop
        if isinstance(s, (N.Return, N.ReturnTuple, N.ExprStmt)):
            exprs = list(iter_stmt_exprs(s))
        elif isinstance(s, (N.Push, N.TraceAppend)):
            exprs = [s.value]
        else:
            exprs = []
        effects = [
            f for f in (self.effects(e, None) for e in exprs) if f is not None
        ]

        def evaluate(env: Env) -> Env:
            enter(i)
            for f in effects:
                f(env)
            return env

        return evaluate

    # the two hottest statements inline ``enter`` and ``note``
    def _define(self, i: int, name: str, init: Optional[N.Expr]) -> StmtFn:
        value = self.expr(init, name) if init is not None else _const(_TOP)
        eng = self
        budget = self.budget
        summary = self.summary

        def define(env: Env) -> Env:
            steps = eng.steps + 1
            eng.steps = steps
            if steps > budget:
                eng.widened = True
            eng.idx = i
            iv = value(env)
            env[name] = iv
            old = summary.get(name)
            if old is None:
                summary[name] = iv
            elif old is not iv:
                summary[name] = _join(old, iv)
            return env

        return define

    def _store(self, i: int, target: N.Index, value: N.Expr) -> StmtFn:
        # an element store joins into the whole array's range
        base = target.base
        index = self.effects(target.index, None)
        elem = self.expr(value, base)
        eng = self
        budget = self.budget
        summary = self.summary

        def store(env: Env) -> Env:
            steps = eng.steps + 1
            eng.steps = steps
            if steps > budget:
                eng.widened = True
            eng.idx = i
            if index is not None:
                index(env)
            iv = elem(env)
            old = env.get(base)
            arr = iv if old is None else _join(old, iv)
            env[base] = arr
            prev = summary.get(base)
            summary[base] = arr if prev is None else _join(prev, arr)
            return env

        return store

    def _for(self, s: N.For, i: int) -> StmtFn:
        lo_f = self.expr(s.lo, None)
        hi_f = self.expr(s.hi, None)
        step_f = self.expr(s.step, None)
        body = self.body(s.body)
        written = _written(s.body)
        var = s.var
        cap = self.trip_cap

        def loop(env: Env) -> Env:
            self.enter(i)
            lo = lo_f(env)
            hi = hi_f(env)
            step = step_f(env)
            step_lo = max(1.0, step[0])
            trips: float
            if math.isfinite(hi[1]) and math.isfinite(lo[0]):
                trips = max(0.0, math.ceil((hi[1] - lo[0]) / step_lo))
            else:
                trips = _INF
            self.trips[i] = trips
            var_iv = _pair(lo[0], max(lo[0], hi[1]))
            env[var] = var_iv
            self.note(var, var_iv)
            return self.iterate(
                body,
                written,
                env,
                n=int(min(trips, cap)),
                bounded=trips <= cap and not self.widened,
            )

        return loop

    def _while(self, s: N.While, i: int) -> StmtFn:
        # the trailing condition evaluation runs after the body, so its
        # events go to whichever statement the body entered last
        cond = self.effects(s.cond, None)
        body = self.body(s.body)
        written = _written(s.body)
        cap = self.while_cap

        def loop(env: Env) -> Env:
            self.enter(i)
            self.trips[i] = _INF
            if cond is not None:
                cond(env)
            env = self.iterate(body, written, env, n=cap, bounded=False)
            if cond is not None:
                cond(env)
            return env

        return loop

    # -- expressions ---------------------------------------------------------
    def effects(self, e: N.Expr, target: Optional[str]) -> Optional[ExprFn]:
        """``e`` evaluated for its events only: ``None`` when it has
        none to raise, so a discarded value costs nothing."""
        return self.expr(e, target) if _may_raise_event(e) else None

    def expr(self, e: N.Expr, target: Optional[str]) -> ExprFn:
        if isinstance(e, N.Const):
            return _const(_pair(float(e.value), float(e.value)))
        if isinstance(e, N.Name):
            name = e.id

            def read(env: Env) -> Pair:
                return env.get(name, _TOP)

            return read
        if isinstance(e, N.Index):
            return self._index(e, target)
        if isinstance(e, N.Cast):
            return self.expr(e.operand, target)
        if isinstance(e, N.UnaryOp):
            if e.op != "-":  # not
                return self._discard([e.operand], target, _BOOL)
            operand = self.expr(e.operand, target)

            def neg(env: Env) -> Pair:
                lo, hi = operand(env)
                return (-hi, -lo)

            return neg
        if isinstance(e, N.BinOp):
            return self._binop(e, target)
        if isinstance(e, N.Call):
            return self._call(e, target)
        return _const(_TOP)

    def _discard(
        self, args: Sequence[N.Expr], target: Optional[str], result: Pair
    ) -> ExprFn:
        """Evaluate ``args`` for their events; the value is ``result``."""
        fns = [
            f for f in (self.effects(a, target) for a in args) if f is not None
        ]
        if not fns:
            return _const(result)

        def run(env: Env) -> Pair:
            for f in fns:
                f(env)
            return result

        return run

    def _index(self, e: N.Index, target: Optional[str]) -> ExprFn:
        base = e.base
        index = self.effects(e.index, target)
        if index is None:

            def load(env: Env) -> Pair:
                return env.get(base, _TOP)

            return load

        check: ExprFn = index

        def load_checked(env: Env) -> Pair:
            check(env)
            return env.get(base, _TOP)

        return load_checked

    def _binop(self, e: N.BinOp, target: Optional[str]) -> ExprFn:
        op = e.op
        if op in N.CMPOPS or op in N.BOOLOPS:
            return self._discard([e.left, e.right], target, _BOOL)
        if op not in N.BINOPS:
            return self._discard([e.left, e.right], target, _TOP)
        if op == "%":
            return self._mod(e, target)
        left = self.expr(e.left, target)
        right = self.expr(e.right, target)
        if op == "+":

            def add(env: Env) -> Pair:
                alo, ahi = left(env)
                blo, bhi = right(env)
                lo = alo + blo
                hi = ahi + bhi
                if lo != lo or hi != hi:
                    return _TOP
                return (lo, hi)

            return add
        if op == "-":
            return self._sub(e, left, right, target)
        if op == "*":

            def mul(env: Env) -> Pair:
                a = left(env)
                return _mul(a, right(env))

            return mul
        if op == "/":
            return self._div(left, right, target)

        def floordiv(env: Env) -> Pair:
            a = left(env)
            b = right(env)
            q = _TOP if b[0] <= 0.0 <= b[1] else _div(a, b)
            return _pair(_safe(math.floor, q[0]), _safe(math.floor, q[1]))

        return floordiv

    def _sub(
        self, e: N.BinOp, left: ExprFn, right: ExprFn, target: Optional[str]
    ) -> ExprFn:
        check = _checks_cancellation(e)
        fresh = self.fresh
        emit = self.emit

        def sub(env: Env) -> Pair:
            a = left(env)
            b = right(env)
            if check and _cancels(a, b) and fresh("cancellation", target):
                emit("cancellation", target, {
                    "left": _pair_dict(a),
                    "right": _pair_dict(b),
                    "magnitude": _json_float(max(_mag(a), _mag(b))),
                })
            lo = a[0] - b[1]
            hi = a[1] - b[0]
            if lo != lo or hi != hi:
                return _TOP
            return (lo, hi)

        return sub

    def _div(
        self, left: ExprFn, right: ExprFn, target: Optional[str]
    ) -> ExprFn:
        fresh = self.fresh
        emit = self.emit

        def div(env: Env) -> Pair:
            num = left(env)
            den = right(env)
            dlo, dhi = den
            zero = dlo <= 0.0 <= dhi
            # a divisor containing or hugging zero blows the quotient up
            if (
                zero or min(abs(dlo), abs(dhi)) < 1e-8 * max(_mag(num), 1.0)
            ) and fresh("div_blowup", target):
                emit("div_blowup", target, {
                    "divisor": _pair_dict(den),
                    "numerator": _pair_dict(num),
                    "contains_zero": zero,
                })
            return _TOP if zero else _div(num, den)

        return div

    def _mod(self, e: N.BinOp, target: Optional[str]) -> ExprFn:
        left = self.effects(e.left, target)
        right = self.expr(e.right, target)

        def mod(env: Env) -> Pair:
            if left is not None:
                left(env)
            b = right(env)
            if b[0] > 0:
                return _pair(0.0, b[1])
            if b[1] < 0:
                return _pair(b[0], 0.0)
            m = _mag(b)
            return _pair(-m, m)

        return mod

    def _call(self, e: N.Call, target: Optional[str]) -> ExprFn:
        name = _intrinsic(e)
        n = len(e.args)
        if n == 1 and name in _CONST_UNARY:
            return self._discard(e.args, target, _CONST_UNARY[name])
        if n == 2 and name == "step_ge":
            return self._discard(e.args, target, _BOOL)
        if name == "user_err" and n:
            first = self.expr(e.args[0], target)
            rest = self._discard(e.args[1:], target, _TOP)

            def user_err(env: Env) -> Pair:
                iv = first(env)
                rest(env)
                return iv

            return user_err
        if n == 1 and name in _DOMAIN_CHECKED:
            a = self.expr(e.args[0], target)
            return self._domain_call(e.fn, name, a, target)
        if n == 1 and (name in _MONOTONE or name in ("cosh", "fabs")):
            return _unary_call(name, self.expr(e.args[0], target))
        if n == 2 and name in ("fmax", "fmin", "pow", "copysign"):
            a = self.expr(e.args[0], target)
            return _binary_call(name, a, self.expr(e.args[1], target))
        return self._discard(e.args, target, _TOP)

    def _domain_call(
        self, fn: str, name: str, a: ExprFn, target: Optional[str]
    ) -> ExprFn:
        fresh = self.fresh
        emit = self.emit
        if name == "sqrt":

            def sqrt(env: Env) -> Pair:
                lo, hi = a(env)
                if lo < 0.0 and fresh("domain", target):
                    emit("domain", target, {
                        "fn": fn, "arg": _pair_dict((lo, hi)),
                    })
                if hi < 0.0:
                    return (0.0, 0.0)
                return _pair(math.sqrt(max(lo, 0.0)), _safe(math.sqrt, hi))

            return sqrt
        f: Callable[[float], float] = math.log if name == "log" else math.log2

        def log(env: Env) -> Pair:
            lo, hi = a(env)
            if lo <= 0.0 and fresh("domain", target):
                emit("domain", target, {
                    "fn": fn, "arg": _pair_dict((lo, hi)),
                })
            return _pair(
                -_INF if lo <= 0.0 else _safe(f, lo),
                -_INF if hi <= 0.0 else _safe(f, hi),
            )

        return log


def _const(p: Pair) -> ExprFn:
    def const(env: Env) -> Pair:
        return p

    return const


def _unary_call(name: str, a: ExprFn) -> ExprFn:
    if name == "cosh":

        def cosh(env: Env) -> Pair:
            return _pair(1.0, _safe(math.cosh, _mag(a(env))))

        return cosh
    if name == "fabs":

        def fabs(env: Env) -> Pair:
            lo, hi = a(env)
            m = max(abs(lo), abs(hi))
            if lo <= 0.0 <= hi:
                return _pair(0.0, m)
            return _pair(min(abs(lo), abs(hi)), m)

        return fabs
    f = _MONOTONE[name]

    def monotone(env: Env) -> Pair:
        lo, hi = a(env)
        return _pair(_safe(f, lo), _safe(f, hi))

    return monotone


def _binary_call(name: str, a: ExprFn, b: ExprFn) -> ExprFn:
    if name == "pow":

        def pow_(env: Env) -> Pair:
            x = a(env)
            return _pow(x, b(env))

        return pow_
    if name == "copysign":

        def copysign(env: Env) -> Pair:
            m = _mag(a(env))
            b(env)
            return _pair(-m, m)

        return copysign
    if name == "fmax":

        def fmax(env: Env) -> Pair:
            x = a(env)
            y = b(env)
            return _pair(max(x[0], y[0]), max(x[1], y[1]))

        return fmax

    def fmin(env: Env) -> Pair:
        x = a(env)
        y = b(env)
        return _pair(min(x[0], y[0]), min(x[1], y[1]))

    return fmin


def _checks_cancellation(e: N.BinOp) -> bool:
    """Whether a subtraction is a cancellation site at all: a float
    operation between two non-literal operands (subtracting a literal
    shifts, it does not cancel inputs)."""
    dtype = getattr(e, "dtype", None)
    if dtype is not None and not dtype.is_float:
        return False
    return not (isinstance(e.left, N.Const) or isinstance(e.right, N.Const))


def _may_raise_event(e: N.Expr) -> bool:
    """Whether evaluating ``e`` can record a hazard event."""
    if isinstance(e, N.BinOp):
        if e.op == "/" or (e.op == "-" and _checks_cancellation(e)):
            return True
        return _may_raise_event(e.left) or _may_raise_event(e.right)
    if isinstance(e, N.Call):
        if len(e.args) == 1 and _intrinsic(e) in _DOMAIN_CHECKED:
            return True
        return any(_may_raise_event(a) for a in e.args)
    if isinstance(e, N.Index):
        return _may_raise_event(e.index)
    if isinstance(e, (N.Cast, N.UnaryOp)):
        return _may_raise_event(e.operand)
    return False


def analyze_ranges(
    fn: N.Function,
    domains: Mapping[str, Interval],
    stmts: Optional[List[N.Stmt]] = None,
) -> RangeResult:
    """Run the interval analysis over ``fn`` with the given domains."""
    from repro.analyze.dataflow import index_statements

    eng = _Engine(stmts if stmts is not None else index_statements(fn))
    env: Env = {}
    for p in fn.params:
        iv = domains.get(p.name, TOP)
        env[p.name] = _pair(iv.lo, iv.hi)
        eng.note(p.name, env[p.name])
    eng.body(fn.body)(env)
    return RangeResult(
        fn=fn,
        ranges={v: Interval(lo, hi) for v, (lo, hi) in eng.summary.items()},
        events=eng.events,
        trips=dict(eng.trips),
        exec_counts=eng.exec_counts(fn.body),
        widened=eng.widened,
    )


def eval_expr_range(
    e: N.Expr, ranges: Mapping[str, Interval]
) -> Interval:
    """Range of a single expression under per-variable summary ranges.

    A statement-free entry into the engine's expression evaluation --
    used by the sensitivity analysis to bound subexpression
    magnitudes.  Hazard events are evaluated but discarded.
    """
    env = {v: (iv.lo, iv.hi) for v, iv in ranges.items()}
    lo, hi = _Engine([]).expr(e, None)(env)
    return Interval(lo, hi)
