"""Compile generated Python source and wrap it for callers.

The wrapper layer handles the numpy boundary: array parameters arrive as
``np.ndarray`` (or any sequence), are converted to plain Python lists for
fast element access in the generated code (per the HPC-Python guidance:
avoid numpy scalar indexing in hot scalar loops), and are written back on
exit to preserve the IR's by-reference array semantics.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.codegen import native, runtime
from repro.codegen.native import NativeKernel
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.codegen.npgen import (
    _FLOAT_DTYPES,
    ConfigLaneProgram,
    generate_config_lane_source,
)
from repro.codegen.pygen import generate_source
from repro.interp.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.ir import nodes as N
from repro.ir.fingerprint import ir_fingerprint
from repro.ir.typecheck import collect_var_dtypes
from repro.ir.types import PROMOTION_RANK, ArrayType, DType, machine_eps
from repro.ir.visitor import iter_stmt_exprs, walk_expr, walk_stmts
from repro.util.errors import ExecutionError, ReproError


class CallingConvention:
    """How a compiled function of ``fn`` is called, read off the IR.

    Everything a caller needs before the generated code exists: the
    argument check and rounding (:meth:`prepare`), the array parameters
    and the sensitivity traces the function returns.
    """

    def __init__(self, fn: N.Function) -> None:
        self.fn = fn
        self.traces: List[str] = []
        for s in walk_stmts(fn.body):
            if isinstance(s, N.TraceAppend) and s.trace not in self.traces:
                self.traces.append(s.trace)
        self._array_params = [
            i
            for i, p in enumerate(fn.params)
            if isinstance(p.type, ArrayType)
        ]
        # parameters stored at reduced precision: incoming values are
        # rounded on entry (demoting an input's storage rounds the data)
        self._rounded_params = [
            (i, p.type.dtype)
            for i, p in enumerate(fn.params)
            if p.type.dtype in (DType.F32, DType.F16)
        ]

    def prepare(self, args: Sequence[object]) -> List[object]:
        """The arguments as the function body sees them, before arrays
        become lists: parameters stored at reduced precision rounded
        (an ndarray into a new array)."""
        if len(args) != len(self.fn.params):
            raise ExecutionError(
                f"{self.fn.name}: expected {len(self.fn.params)} arguments,"
                f" got {len(args)}"
            )
        call_args = list(args)
        if self._rounded_params:
            from repro.fp.precision import round_to

            for i, dt in self._rounded_params:
                a = call_args[i]
                if isinstance(a, np.ndarray):
                    call_args[i] = np.asarray(round_to(a, dt))
                elif isinstance(a, (int, float)):
                    call_args[i] = round_to(float(a), dt)
        return call_args


class CompiledFunction(CallingConvention):
    """A compiled IR function plus its calling convention metadata."""

    def __init__(
        self, fn: N.Function, raw: Callable, source: str, counting: bool
    ) -> None:
        super().__init__(fn)
        self.counting = counting
        self.raw = raw
        self.source = source

    def __call__(self, *args: object) -> object:
        """Call with user-facing conventions (numpy arrays in/out).

        Returns the primal return value.  If the function was compiled
        with ``counting`` or has sensitivity traces, returns a tuple
        ``(value, extras_dict)`` instead, where ``extras_dict`` may hold
        ``"cost"`` and per-trace lists.
        """
        call_args = self.prepare(args)
        writebacks: List[Tuple[np.ndarray, list]] = []
        for i in self._array_params:
            a = call_args[i]
            if isinstance(a, np.ndarray):
                lst = a.tolist()
                call_args[i] = lst
                writebacks.append((a, lst))
            elif isinstance(a, list):
                pass  # trusted fast path (ADAPT passes AdFloat lists)
            else:
                call_args[i] = list(a)  # type: ignore[arg-type]
        result = self.raw(*call_args)
        for orig, lst in writebacks:
            orig[:] = lst
        if not self.traces and not self.counting:
            return result
        # unpack extra return slots
        values = result if isinstance(result, tuple) else (result,)
        n_extra = len(self.traces) + (1 if self.counting else 0)
        base = values[: len(values) - n_extra]
        extras_vals = values[len(values) - n_extra:]
        extras: Dict[str, object] = {}
        for name, val in zip(self.traces, extras_vals):
            extras[name] = val
        if self.counting:
            extras["cost"] = extras_vals[-1]
        primal = base[0] if len(base) == 1 else base
        return primal, extras


def compile_raw(
    fn: N.Function,
    dispatch: bool = False,
    counting: bool = False,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    approx: Optional[Set[str]] = None,
    extra_bindings: Optional[Dict[str, object]] = None,
) -> CompiledFunction:
    """Generate, compile, and wrap ``fn``.

    :param dispatch: bind value-type-generic intrinsic shims so the ADAPT
        baseline's ``AdFloat`` can flow through the code.
    :param counting: bake simulated-cycle accumulation into the code.
    :param approx: intrinsics to execute (and cost) as FastApprox.
    :param extra_bindings: extra globals for the generated module (used
        by external error models to bind their ``user_err`` callable).
    """
    src = generate_source(
        fn, counting=counting, cost_model=cost_model, approx=approx
    )
    if dispatch:
        g = runtime.dispatch_bindings()
    else:
        g = runtime.direct_bindings(approx=approx)
    if extra_bindings:
        g.update(extra_bindings)
    code = compile(src, filename=f"<repro:{fn.name}>", mode="exec")
    ns: Dict[str, object] = {}
    exec(code, g, ns)  # noqa: S102 - compiling our own generated source
    return CompiledFunction(fn, ns[fn.name], src, counting)


def compile_primal(fn: N.Function, approx: Optional[Set[str]] = None) -> CompiledFunction:
    """Compile the plain primal (direct bindings, no counting)."""
    return compile_raw(fn, dispatch=False, counting=False, approx=approx)


# --------------------------------------------------------------------------
# Config-batched kernels: compile once per fingerprint, lower per pool
# --------------------------------------------------------------------------
#
# The precision-search hot path scores K configurations of one kernel.
# A :class:`ConfigLaneKernel` is that kernel rendered ONCE in the
# precision-parameterized form of :mod:`repro.codegen.npgen`
# (``generate_config_lane_source``) and lowered for the native lane
# interpreter; its numpy source is compiled only when a call first takes
# the numpy path.  :func:`lower_config_pool` then derives, per proposal
# pool, the lane parameters (rounding selectors, cycle-charge vectors,
# constant values) that specialize the kernel to each configuration at
# *runtime*.  Lowering runs the exact dtype re-inference
# ``apply_precision`` performs — so each lane's rounding points and
# cycle charges match the per-config scalar path bit for bit — but
# compiles nothing.  :func:`lower_adjoint_pool` does the same for an
# error-estimating adjoint: one adjoint build serves every configuration
# of its primal.


class ConfigLoweringError(ReproError):
    """A configuration pool cannot be lowered onto the compiled lanes.

    Signals a limitation of the lane form: a config targeting a
    non-float variable, an error model that has not declared its
    dtype-dependent constants, or a marked constant the optimiser
    folded.  Callers fall back to the per-config scalar path — results
    are identical either way, only slower.
    """


@dataclass
class LoweredConfigPool:
    """Lane parameters specializing a compiled kernel to K configs."""

    k: int
    #: per round site: ``None`` or a :class:`runtime.LaneSelector`
    selectors: List[object]
    #: per charge site: float (lane-uniform) or ``(K, 1)`` array
    charges: List[object]
    #: per float-constant site: float (lane-uniform) or ``(K, 1)`` array
    consts: List[object]
    #: the parameters above packed for the native lane interpreter,
    #: filled on the pool's first native call
    packed: Optional[object] = field(default=None, repr=False, compare=False)


def _pack_row(row: np.ndarray, k: int) -> object:
    """Collapse a lane-uniform row to a scalar, else a (K, 1) column."""
    if np.all(row == row[0]):
        return float(row[0])
    return row.reshape(k, 1).copy()


# -- vectorized lowering -----------------------------------------------------
#
# Re-typing the whole IR once per config (the test suite's reference
# lowering) is O(K × IR) Python work that would dominate pool
# evaluation once execution itself is vectorized.  The lowering below
# computes the same lane parameters in ONE memoized expression-evaluation
# pass: every
# variable's dtype becomes a (K,) *code vector* and the typing lattice
# (``repro.ir.types.promote`` is a rank max) plus the cost-model
# arithmetic evaluate vectorized over all K configs at once.

#: dtype codes = the shared promotion ranks (repro.ir.types), so
#: ``promote`` is ``max``: the B1-vs-B1 case, where promote returns B1,
#: is preserved because max(0, 0) = 0, and any mix involving a numeric
#: ranks above B1, matching promote's boolean-to-integer rule
_RANK_CODE = PROMOTION_RANK
_CODE_ORDER = tuple(
    sorted(_RANK_CODE, key=_RANK_CODE.__getitem__)
)
#: rank code -> rounding-selector code (0 keep, 1 f32, 2 f16)
_SEL_MAP = np.array(
    [
        {DType.F32: 1, DType.F16: 2}.get(dt, 0)
        for dt in _CODE_ORDER
    ],
    dtype=np.int8,
)
#: rank code -> machine epsilon (NaN for non-float codes)
_EPS_MAP = np.array(
    [
        machine_eps(dt) if dt in _FLOAT_DTYPES else np.nan
        for dt in _CODE_ORDER
    ],
    dtype=np.float64,
)
_F64_CODE = _RANK_CODE[DType.F64]
#: floats occupy the top of the promotion order; ``code >= _FLOAT_MIN``
#: is the vectorized ``is_float`` test (checked here so a lattice
#: change in repro.ir.types cannot silently break the lowering)
_FLOAT_MIN = min(_RANK_CODE[dt] for dt in _FLOAT_DTYPES)
assert all(
    (_RANK_CODE[dt] >= _FLOAT_MIN) == (dt in _FLOAT_DTYPES)
    for dt in _RANK_CODE
)


class LoweringPlan:
    """Per-function precomputation shared by every pool lowering: the
    baseline dtype code of each variable, the names a configuration
    can resolve to, and the optimiser's temporaries."""

    def __init__(self, fn: N.Function) -> None:
        from repro.opt.cse import TEMP_PREFIX

        self.fn_name = fn.name
        self.base_codes: Dict[str, int] = {
            name: _RANK_CODE[dt]
            for name, dt in collect_var_dtypes(fn).items()
        }
        decls = [
            s for s in walk_stmts(fn.body) if isinstance(s, N.VarDecl)
        ]
        #: CSE temporaries in program order (each typed by its
        #: initialiser, which may read earlier ones)
        self.temps = [
            s for s in decls if s.name.startswith(TEMP_PREFIX)
        ]
        #: resolvable names in the order resolve_targets scans them,
        #: each with its set of inlined-prefix keys that can match it
        names = [p.name for p in fn.params] + [s.name for s in decls]
        self.name_match: List[Tuple[str, frozenset]] = []
        seen = set()
        for name in names:
            if name in seen:
                continue
            seen.add(name)
            prefixes = frozenset(
                name[:i]
                for i in range(1, len(name))
                if name[i:].startswith("_in")
            )
            self.name_match.append((name, prefixes))


def _plan_for(program: ConfigLaneProgram) -> LoweringPlan:
    plan = getattr(program, "_plan", None)
    if plan is None:
        plan = LoweringPlan(program.fn)
        program._plan = plan  # type: ignore[attr-defined]
    return plan


def _fast_targets(plan: LoweringPlan, config) -> Dict[str, DType]:
    """Vector-lowering twin of ``tuning.config.resolve_targets``.

    Same semantics (exact keys win over inlined-prefix matches, first
    config key in insertion order wins among prefixes, unmatched keys
    raise), evaluated against the plan's precomputed prefix sets.
    """
    demotions = config.demotions
    matched = set()
    out: Dict[str, DType] = {}
    for name, prefixes in plan.name_match:
        dt = demotions.get(name)
        if dt is not None:
            matched.add(name)
            out[name] = dt
            continue
        if prefixes:
            for key, kdt in demotions.items():
                if key in prefixes:
                    matched.add(key)
                    out[name] = kdt
                    break
    missing = set(demotions) - matched
    if missing:
        raise KeyError(
            f"{plan.fn_name}: unknown variables in precision config: "
            f"{sorted(missing)}"
        )
    return out


def _demote(
    env: Dict[str, object], plan: LoweringPlan, configs: Sequence[object]
) -> None:
    """Give each configuration's lane of ``env`` its demoted codes.

    Names resolve against ``plan``'s function; a resolved name that
    ``env`` does not hold (no storage in the lowered program) is
    skipped.
    """
    k = len(configs)
    for j, config in enumerate(configs):
        targets = _fast_targets(plan, config)
        for name, dt in targets.items():
            if plan.base_codes[name] < _FLOAT_MIN:
                raise ConfigLoweringError(
                    f"{plan.fn_name}: config targets non-float "
                    f"variable {name!r}"
                )
            cur = env.get(name)
            if cur is None:
                continue
            if isinstance(cur, int):
                cur = np.full(k, cur, dtype=np.int64)
                env[name] = cur
            cur[j] = _RANK_CODE[dt]


class _PoolEval:
    """Memoized vectorized evaluation of expression dtypes and costs.

    ``codes`` are promotion-rank code scalars (config-uniform) or
    ``(K,)`` vectors; ``cost`` mirrors ``interp.cost_model.expr_cost``
    exactly, evaluated per lane.
    """

    def __init__(
        self,
        env: Dict[str, object],
        cost_model: CostModel,
        approx: Optional[Set[str]],
    ) -> None:
        self.env = env
        self.cm = cost_model
        self.approx = approx
        self._memo: Dict[int, Tuple[object, object]] = {}
        per = lambda table: np.array(  # noqa: E731
            [table[dt] for dt in _CODE_ORDER], dtype=np.float64
        )
        self.add = per(cost_model.add)
        self.mul = per(cost_model.mul)
        self.div = per(cost_model.div)
        self.array_access = per(cost_model.array_access)
        self.scalar_store = per(cost_model.scalar_store)
        self._call_tables: Dict[str, np.ndarray] = {}

    def _call_table(self, fname: str) -> np.ndarray:
        tab = self._call_tables.get(fname)
        if tab is None:
            tab = np.array(
                [
                    self.cm.call_cost(fname, dt, self.approx)
                    for dt in _CODE_ORDER
                ],
                dtype=np.float64,
            )
            self._call_tables[fname] = tab
        return tab

    @staticmethod
    def _max(a: object, b: object) -> object:
        if isinstance(a, int) and isinstance(b, int):
            return max(a, b)
        return np.maximum(a, b)

    @staticmethod
    def _cast_term(src: object, dst: object, cast_cost: float) -> object:
        """Cost of an implicit float-to-float conversion, per lane."""
        if isinstance(src, int) and isinstance(dst, int):
            return (
                cast_cost
                if (
                    src >= _FLOAT_MIN
                    and dst >= _FLOAT_MIN
                    and src != dst
                )
                else 0.0
            )
        need = (
            np.greater_equal(src, _FLOAT_MIN)
            & np.greater_equal(dst, _FLOAT_MIN)
            & np.not_equal(src, dst)
        )
        return np.where(need, cast_cost, 0.0)

    def expr(self, e: N.Expr) -> Tuple[object, object]:
        """Return ``(codes, cost)`` of evaluating ``e`` once."""
        hit = self._memo.get(id(e))
        if hit is not None:
            return hit
        out = self._expr(e)
        self._memo[id(e)] = out
        return out

    def _expr(self, e: N.Expr) -> Tuple[object, object]:
        cm = self.cm
        if isinstance(e, N.Const):
            # constants keep the dtype they were built with (type
            # inference never re-types them)
            return _RANK_CODE[e.dtype], 0.0
        if isinstance(e, N.Name):
            return self.env[e.id], 0.0
        if isinstance(e, N.Index):
            _, ci = self.expr(e.index)
            codes = self.env[e.base]
            return codes, ci + self.array_access[codes]
        if isinstance(e, N.BinOp):
            lc, lcost = self.expr(e.left)
            rc, rcost = self.expr(e.right)
            cost = lcost + rcost
            if e.op in N.CMPOPS:
                return 0, cost + cm.compare
            if e.op in N.BOOLOPS:
                return 0, cost + cm.boolean
            codes = self._max(lc, rc)
            if e.op == "/":
                codes = self._max(codes, _F64_CODE)
            if e.op in ("+", "-"):
                cost = cost + self.add[codes]
            elif e.op == "*":
                cost = cost + self.mul[codes]
            else:  # "/", "//", "%"
                cost = cost + self.div[codes]
            cost = cost + self._cast_term(lc, codes, cm.cast)
            cost = cost + self._cast_term(rc, codes, cm.cast)
            return codes, cost
        if isinstance(e, N.UnaryOp):
            oc, ocost = self.expr(e.operand)
            codes = 0 if e.op == "not" else oc
            return codes, ocost + cm.negate
        if isinstance(e, N.Call):
            # intrinsic args promote from I64 up
            codes: object = _RANK_CODE[DType.I64]
            cost: object = 0.0
            for a in e.args:
                ac, acost = self.expr(a)
                codes = self._max(codes, ac)
                cost = cost + acost
            if isinstance(codes, int):
                if codes < _FLOAT_MIN:
                    codes = _F64_CODE
            else:
                codes = np.where(codes < _FLOAT_MIN, _F64_CODE, codes)
            return codes, cost + self._call_table(e.fn)[codes]
        if isinstance(e, N.Cast):
            oc, ocost = self.expr(e.operand)
            codes = _RANK_CODE[e.to]
            return codes, ocost + self._cast_term(oc, codes, cm.cast)
        raise TypeError(type(e).__name__)

    def store_cost(self, target, value_codes: object) -> object:
        """Mirror of ``interp.cost_model.store_cost``, per lane."""
        if isinstance(target, N.Index):
            tdt = self.env[target.base]
            c = self.array_access[tdt]
        else:
            tdt = self.env[target.id]
            c = self.scalar_store[tdt]
        return c + self._cast_term(value_codes, tdt, self.cm.cast)


def _selectors(
    program: ConfigLaneProgram,
    env: Dict[str, object],
    ev: _PoolEval,
    k: int,
) -> List[object]:
    """Per round site: ``None`` (no lane rounds) or its lane selector."""
    selectors: List[object] = []
    for site in program.round_sites:
        if site.kind in ("expr", "index"):
            codes, _ = ev.expr(site.node)  # type: ignore[arg-type]
        elif site.kind == "store":
            node = site.node
            name = node.base if isinstance(node, N.Index) else node.id  # type: ignore[union-attr]
            codes = env[name]
        else:  # "decl", "param"
            codes = env[site.node.name]  # type: ignore[attr-defined]
        if isinstance(codes, int):
            if _SEL_MAP[codes] == 0:
                selectors.append(None)
                continue
            codes = np.full(k, codes)
        selectors.append(runtime.LaneSelector.from_codes(_SEL_MAP[codes]))
    return selectors


def lower_config_pool(
    program: ConfigLaneProgram,
    configs: Sequence[object],
    cost_model: CostModel = DEFAULT_COST_MODEL,
    approx: Optional[Set[str]] = None,
) -> LoweredConfigPool:
    """Derive lane parameters for a pool of precision configurations.

    Vectorized over the config axis: one memoized expression-evaluation
    pass computes every site's per-lane dtype selector and cycle charge
    for all K configurations at once.  Produces exactly the parameters
    one type-inference pass per config (the scalar path's own
    machinery) would: ``lower_config_pool_reference`` in
    ``tests/test_config_batch.py`` is that oracle, held to bitwise
    agreement with this function.

    :raises KeyError: if a configuration names unknown variables (the
        same error the scalar path raises).
    :raises ConfigLoweringError: if a configuration targets a variable
        whose baseline storage is not a float.
    """
    k = len(configs)
    if k == 0:
        raise ValueError("empty configuration pool")
    plan = _plan_for(program)
    env: Dict[str, object] = dict(plan.base_codes)
    _demote(env, plan, configs)
    ev = _PoolEval(env, cost_model, approx)
    charges: List[object] = []
    for site in program.charge_sites:
        s = site.node
        if site.kind == "decl":
            vc, vcost = ev.expr(s.init)  # type: ignore[attr-defined]
            tdt = env[s.name]  # type: ignore[attr-defined]
            cost = (
                vcost
                + ev.scalar_store[tdt]
                + ev._cast_term(vc, tdt, cost_model.cast)
            )
        elif site.kind == "store":
            vc, vcost = ev.expr(s.value)  # type: ignore[attr-defined]
            cost = vcost + ev.store_cost(s.target, vc)  # type: ignore[attr-defined]
        elif site.kind == "if":
            _, cost = ev.expr(s.cond)  # type: ignore[attr-defined]
        else:  # "while"
            _, cost = ev.expr(s.cond)  # type: ignore[attr-defined]
            cost = cost + 1.0
        if isinstance(cost, float):
            charges.append(float(cost))
        else:
            charges.append(
                _pack_row(np.asarray(cost, dtype=np.float64), k)
            )
    consts: List[object] = [
        float(c.value) for c in program.const_sites  # type: ignore[union-attr]
    ]
    return LoweredConfigPool(
        k=k,
        selectors=_selectors(program, env, ev, k),
        charges=charges,
        consts=consts,
    )


def lower_adjoint_pool(
    program: ConfigLaneProgram,
    primal: LoweringPlan,
    configs: Sequence[object],
) -> LoweredConfigPool:
    """Lane parameters of an error-estimating adjoint for K configs.

    ``program`` renders the adjoint of ``primal``'s function; each lane
    gets the parameters ``build_adjoint(apply_precision(primal,
    config))`` would bake in, derived without building anything:

    * a config's names resolve against the *primal* (the
      ``resolve_targets`` rule and ``KeyError``) and set the lane dtype
      of the adjoint's copies of those variables; the adjoint's own
      variables are precision-independent, except the optimiser's CSE
      temporaries, typed by their initialisers in program order;
    * both build steps re-run type inference, so every expression
      dtype — and hence every rounding selector — follows from the
      variable dtypes through the lattice :func:`lower_config_pool`
      evaluates;
    * constants an error model marks (``Const.eps_of``) are the machine
      epsilon of their variable's lane dtype; every other constant is
      the same in every configuration.

    ``lower_adjoint_pool_reference`` in ``tests/test_config_batch.py``
    (per-config rebuilt adjoints, paired node by node) is the oracle.

    :raises KeyError: if a configuration names unknown variables.
    :raises ConfigLoweringError: for a non-float target, a counting
        program, or a marked constant that is not the machine epsilon
        of a variable of the adjoint (e.g. one the optimiser folded).
    """
    k = len(configs)
    if k == 0:
        raise ValueError("empty configuration pool")
    if program.charge_sites:
        raise ConfigLoweringError(
            f"{program.fn.name}: counting adjoints are not lowered"
        )
    plan = _plan_for(program)
    env: Dict[str, object] = dict(plan.base_codes)
    _demote(env, primal, configs)
    ev = _PoolEval(env, DEFAULT_COST_MODEL, None)
    for decl in plan.temps:
        env[decl.name] = ev.expr(decl.init)[0]  # type: ignore[arg-type]
    consts: List[object] = []
    for c in program.const_sites:
        var = c.eps_of
        if var is None:
            consts.append(float(c.value))
            continue
        base = plan.base_codes.get(var)
        if base is None or c.value != _EPS_MAP[base]:
            raise ConfigLoweringError(
                f"{program.fn.name}: constant {c.value!r} marked "
                f"{var!r} is not that variable's machine epsilon"
            )
        codes = env[var]
        consts.append(
            float(_EPS_MAP[codes])
            if isinstance(codes, int)
            else _pack_row(_EPS_MAP[codes], k)
        )
    return LoweredConfigPool(
        k=k,
        selectors=_selectors(program, env, ev, k),
        charges=[],
        consts=consts,
    )


class ConfigLaneKernel:
    """A precision-parameterized kernel, rendered once.

    Built once per IR fingerprint; specialized to each proposal pool by
    :meth:`lower` (cheap — typing passes only) and executed on all lanes
    at once, with the pool's lane parameters appended to the arguments.
    Kernels on the native engine run on the lane interpreter; the
    rendered numpy program is compiled into :attr:`raw` on the first
    call that takes the numpy path (every call of a kernel off the
    native engine, replays of the others).
    """

    def __init__(
        self,
        program: ConfigLaneProgram,
        bindings: Callable[[], Dict[str, object]],
    ) -> None:
        self.program = program
        #: the generated module's globals, made when :attr:`raw` compiles
        self._bindings = bindings
        self._raw: Optional[Callable] = None
        #: whether calls go to the C lane interpreter at all: only
        #: kernels with a loop repay their lowering (see
        #: :func:`repro.codegen.native.worth_lowering`)
        self.native_engine = native.worth_lowering(program.fn)
        #: the kernel lowered for the interpreter; ``None`` sends the
        #: calls of a native-engine kernel to the numpy path (``raw``)
        #: as counted fallbacks
        self.native: Optional[NativeKernel] = None

    @property
    def raw(self) -> Callable:
        """The compiled numpy program (compiled on first access).

        Threads racing here compile twice and keep either, equal,
        function."""
        raw = self._raw
        if raw is None:
            fn = self.program.fn
            with obs_trace.span("codegen.compile", kernel=fn.name):
                code = compile(
                    self.program.source,
                    filename=f"<repro-config:{fn.name}>",
                    mode="exec",
                )
                ns: Dict[str, object] = {}
                exec(code, self._bindings(), ns)  # noqa: S102 - compiling our own generated source
            raw = self._raw = ns[fn.name]  # type: ignore[assignment]
        return raw  # type: ignore[return-value]

    @property
    def source(self) -> str:
        return self.program.source

    def lower(
        self,
        configs: Sequence[object],
        cost_model: CostModel = DEFAULT_COST_MODEL,
        approx: Optional[Set[str]] = None,
    ) -> LoweredConfigPool:
        return lower_config_pool(
            self.program, configs, cost_model=cost_model, approx=approx
        )

    def __call__(self, pool: LoweredConfigPool, *args: object) -> object:
        """Run every lane of ``pool`` on ``args``.

        Kernels on the native engine run on the interpreter; the numpy
        path serves the rest, including native calls that must be
        replayed there (see :mod:`repro.codegen.native`).
        """
        if self.native_engine:
            done, result = native.run(self.native, pool, args)
            if done:
                return result
        with np.errstate(all="ignore"):
            return self.raw(
                *args, pool.selectors, pool.charges, pool.consts
            )


#: fingerprint-keyed memo of compiled config-lane kernels.  A precision
#: *configuration* is not part of the key — configurations are runtime
#: lane parameters — but anything that changes the generated code is:
#: the IR content, the batched-input set, counting, the execution mode,
#: and the approx-intrinsic set (baked into the runtime bindings).  So
#: are the constant markers (:func:`_eps_marks`), which the fingerprint
#: leaves out but adjoint lowering reads off the kernel's program.
_CONFIG_KERNEL_MEMO: "OrderedDict[tuple, ConfigLaneKernel]" = OrderedDict()
_CONFIG_KERNEL_MEMO_MAX = 32
# hit/miss/unvectorizable counts live in the process-wide metrics
# registry; Session.stats() is a view
_CK_HITS = obs_metrics.REGISTRY.counter(
    "repro_config_kernel_hits_total", "config-lane kernel cache hits"
)
_CK_MISSES = obs_metrics.REGISTRY.counter(
    "repro_config_kernel_misses_total",
    "config-lane kernel cache misses (compiles)",
)
_CK_UNVEC = obs_metrics.REGISTRY.counter(
    "repro_config_kernel_unvectorizable_total",
    "kernels that could not be rendered in config-batched form",
)
_CK_ENTRIES = obs_metrics.REGISTRY.gauge(
    "repro_config_kernel_entries", "config-lane kernel cache occupancy"
)
_CK_CAPACITY = obs_metrics.REGISTRY.gauge(
    "repro_config_kernel_capacity", "config-lane kernel cache capacity"
)
_CK_CAPACITY.set(_CONFIG_KERNEL_MEMO_MAX)
_CK_COMPILE_SECONDS = obs_metrics.REGISTRY.histogram(
    "repro_kernel_compile_seconds",
    "config-lane kernel codegen+lowering latency (the numpy compile is "
    "deferred to first use)",
)
#: guards the memo and its counters against concurrent server worker
#: threads (repro.serve); held across a miss's codegen and native
#: lowering so one kernel is built per content key, never one per
#: racing thread
_CONFIG_KERNEL_LOCK = threading.RLock()


def _reinit_config_kernel_lock() -> None:
    # a fork mid-build must not hand the child a lock held by a thread
    # that does not exist in it
    global _CONFIG_KERNEL_LOCK
    _CONFIG_KERNEL_LOCK = threading.RLock()


os.register_at_fork(after_in_child=_reinit_config_kernel_lock)


def _eps_marks(fn: N.Function) -> tuple:
    """``Const.eps_of`` of every float constant of ``fn``, in order."""
    return tuple(
        n.eps_of
        for s in walk_stmts(fn.body)
        for e in iter_stmt_exprs(s)
        for n in walk_expr(e)
        if isinstance(n, N.Const) and isinstance(n.value, float)
    )


def config_lane_kernel(
    fn: N.Function,
    batched: Set[str] = frozenset(),
    counting: bool = False,
    allow_arrays: bool = False,
    approx: Optional[Set[str]] = None,
    extra_bindings: Optional[Dict[str, object]] = None,
    use_cache: bool = True,
) -> ConfigLaneKernel:
    """Get (or build) the config-lane kernel for ``fn``.

    A build renders the program and lowers it for the native engine
    when that runs the kernel; the numpy program compiles on first use
    (:attr:`ConfigLaneKernel.raw`).  Keyed by content fingerprint:
    re-registered kernels with identical IR share one kernel, while
    *any* semantic change to the IR misses the cache — a pool of
    configurations can never reuse a stale kernel because
    configurations enter at lowering time, not build time.

    :raises UnvectorizableError: when ``fn`` cannot be rendered in
        config-batched form (callers fall back to the scalar path).
    """
    from repro.codegen.npgen import UnvectorizableError

    with _CONFIG_KERNEL_LOCK:
        key = None
        if use_cache and extra_bindings is None:
            key = (
                ir_fingerprint(fn),
                _eps_marks(fn),
                frozenset(batched),
                counting,
                allow_arrays,
                frozenset(approx or ()),
            )
            hit = _CONFIG_KERNEL_MEMO.get(key)
            if hit is not None:
                _CK_HITS.inc()
                _CONFIG_KERNEL_MEMO.move_to_end(key)
                return hit
        _CK_MISSES.inc()
        t0 = time.perf_counter()
        with obs_trace.span(
            "codegen.compile", kernel=fn.name, cached=key is not None
        ):
            try:
                program = generate_config_lane_source(
                    fn,
                    batched=set(batched),
                    counting=counting,
                    allow_arrays=allow_arrays,
                )
            except UnvectorizableError:
                _CK_UNVEC.inc()
                raise

            def bindings() -> Dict[str, object]:
                g = runtime.config_lane_bindings(approx=approx)
                if extra_bindings:
                    g.update(extra_bindings)
                return g

            kernel = ConfigLaneKernel(program, bindings)
            if kernel.native_engine and not extra_bindings:
                kernel.native = native.lower(program, approx)
        _CK_COMPILE_SECONDS.observe(time.perf_counter() - t0)
        if key is not None:
            _CONFIG_KERNEL_MEMO[key] = kernel
            while len(_CONFIG_KERNEL_MEMO) > _CONFIG_KERNEL_MEMO_MAX:
                _CONFIG_KERNEL_MEMO.popitem(last=False)
            _CK_ENTRIES.set(len(_CONFIG_KERNEL_MEMO))
        return kernel


def _cache_stats() -> Dict[str, int]:
    """Registry view of the config-kernel memo (behind
    ``Session.stats()["config_kernel_cache"]``)."""
    with _CONFIG_KERNEL_LOCK:
        return {
            "entries": len(_CONFIG_KERNEL_MEMO),
            "capacity": _CONFIG_KERNEL_MEMO_MAX,
            "hits": _CK_HITS.value,
            "misses": _CK_MISSES.value,
            "unvectorizable": _CK_UNVEC.value,
        }


def clear_config_kernel_cache() -> None:
    """Drop all memoized config-lane kernels (test isolation helper).

    The ``repro_config_kernel_*`` registry counters reset too."""
    with _CONFIG_KERNEL_LOCK:
        _CONFIG_KERNEL_MEMO.clear()
        obs_metrics.REGISTRY.reset(prefix="repro_config_kernel_")
        _CK_CAPACITY.set(_CONFIG_KERNEL_MEMO_MAX)
