"""IR → NumPy-vectorized (batch) Python source rendering.

``generate_batch_source`` turns an IR function — in practice the
error-estimating adjoint — into a Python function that evaluates **N
input points at once**: designated scalar parameters arrive as length-N
``numpy`` arrays and every operation becomes an array-at-a-time
elementwise operation.  This is the execution backend of the input-sweep
engine (``repro.sweep``): one pass through the generated code replaces N
calls of the scalar adjoint.

Semantics: per lane, the vectorized function performs exactly the
operations the scalar function would — data-dependent branches are
*if-converted*: both branch bodies execute on the full batch and every
store inside a branch becomes a masked blend ``t = where(m, value, t)``.
Inactive lanes therefore compute (and discard) garbage; the caller runs
the code under ``numpy.errstate(ignore)`` for that reason.

Tape discipline: the reverse-mode adjoint pairs every ``Push`` with a
``Pop`` in exact reverse order along any *scalar* execution path.  Under
if-conversion both branches run, so the pairing is preserved by two
rules:

* pushes and pops execute *unconditionally* (only the popped value's
  store is masked), keeping the stack depth lane-independent;
* an ``if``/``else`` in the *backward* sweep (identified by containing
  ``Pop`` nodes) renders its **else body first** — the forward sweep
  pushed then-branch values before else-branch values, so the LIFO
  order of the merged stream pops else before then.

What cannot be vectorized raises :class:`UnvectorizableError` and the
sweep engine falls back to a scalar loop: array parameters, loops whose
trip counts depend on batched data (data-dependent ``while``/``break``),
sensitivity traces under a mask, and user-bound scalar callables
(external error models).

A second generator builds on the same machinery for the **config
axis**: :func:`generate_config_lane_source` renders a kernel once with
every potential demotion point as a runtime rounding site and every
dtype-dependent cycle charge as a runtime lane vector, so K precision
configurations evaluate in one execution — see the section comment
below and :mod:`repro.codegen.compile` for pool lowering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.ir import nodes as N
from repro.ir.types import ArrayType, DType
from repro.ir.visitor import walk_expr, walk_stmts
from repro.util.errors import ReproError


class UnvectorizableError(ReproError):
    """The function cannot be compiled to batch (array-at-a-time) form.

    Callers are expected to catch this and fall back to a scalar loop —
    it signals a structural limitation, not a bug.
    """


# --------------------------------------------------------------------------
# Taint analysis: which names may hold per-lane (batched) values?
# --------------------------------------------------------------------------


def _reads(e: N.Expr) -> Iterable[str]:
    for node in walk_expr(e):
        if isinstance(node, N.Name):
            yield node.id
        elif isinstance(node, N.Index):
            yield node.base


def _taint_analysis(
    fn: N.Function, batched: Set[str]
) -> Tuple[Set[str], Set[str]]:
    """Fixpoint taint propagation from batched parameters.

    Returns ``(tainted_names, tainted_stacks)``.  A name is tainted when
    its value may differ across lanes; a stack is tainted when any value
    pushed onto it may.  Assignments under a tainted branch condition
    taint their targets too (the blend mixes lanes), as do pops from a
    tainted stack.
    """
    tainted: Set[str] = set(batched)
    stacks: Set[str] = set()
    changed = True

    def expr_tainted(e: N.Expr) -> bool:
        return any(r in tainted for r in _reads(e))

    def taint(name: str) -> None:
        nonlocal changed
        if name not in tainted:
            tainted.add(name)
            changed = True

    def visit(stmts: Sequence[N.Stmt], masked: bool) -> None:
        nonlocal changed
        for s in stmts:
            if isinstance(s, N.Assign):
                if isinstance(s.target, N.Name) and (
                    masked or expr_tainted(s.value)
                ):
                    taint(s.target.id)
                elif isinstance(s.target, N.Index) and (
                    masked
                    or expr_tainted(s.value)
                    or expr_tainted(s.target.index)
                ):
                    # a lane-variable store into an array element makes
                    # every later read of that array lane-variable too
                    taint(s.target.base)
            elif isinstance(s, N.VarDecl):
                if s.init is not None and (masked or expr_tainted(s.init)):
                    taint(s.name)
            elif isinstance(s, N.Pop):
                if isinstance(s.target, N.Name) and (
                    masked or s.stack in stacks
                ):
                    taint(s.target.id)
            elif isinstance(s, N.Push):
                if (masked or expr_tainted(s.value)) and s.stack not in stacks:
                    stacks.add(s.stack)
                    changed = True
            elif isinstance(s, N.If):
                inner = masked or expr_tainted(s.cond)
                visit(s.then, inner)
                visit(s.orelse, inner)
            elif isinstance(s, N.For):
                visit(s.body, masked)
            elif isinstance(s, N.While):
                visit(s.body, masked)

    while changed:
        changed = False
        visit(fn.body, False)
    return tainted, stacks


def _subtree_has(stmts: Sequence[N.Stmt], kinds: tuple) -> bool:
    return any(isinstance(s, kinds) for s in walk_stmts(stmts))


# --------------------------------------------------------------------------
# Generation
# --------------------------------------------------------------------------


class _BatchGen:
    def __init__(
        self,
        fn: N.Function,
        batched: Set[str],
        extra_taint: Set[str] = frozenset(),
        allow_arrays: bool = False,
        taint: Optional[Tuple[Set[str], Set[str]]] = None,
    ) -> None:
        if not allow_arrays:
            for p in fn.params:
                if isinstance(p.type, ArrayType):
                    raise UnvectorizableError(
                        f"{fn.name}: array parameter {p.name!r} is not "
                        "supported by the batch backend"
                    )
        unknown = batched - {p.name for p in fn.params}
        if unknown:
            raise UnvectorizableError(
                f"{fn.name}: batched names are not parameters: "
                f"{sorted(unknown)}"
            )
        self.fn = fn
        self.allow_arrays = allow_arrays
        #: ``taint`` reuses an earlier analysis of the same function
        #: and batched set (see ConfigLaneProgram.taint)
        self.tainted, self.tainted_stacks = taint or _taint_analysis(
            fn, set(batched) | set(extra_taint)
        )
        self.lines: List[str] = []
        self.indent = 1
        self.stacks: List[str] = []
        self.traces: List[str] = []
        #: name of the active lane-mask variable (None = all lanes)
        self.mask: Optional[str] = None
        self._fresh_counter = 0

    # -- helpers ------------------------------------------------------------
    def emit(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def fresh(self, prefix: str) -> str:
        self._fresh_counter += 1
        return f"{prefix}{self._fresh_counter}"

    def expr_tainted(self, e: N.Expr) -> bool:
        return any(r in self.tainted for r in _reads(e))

    # -- static rounding (shared with the native batch lowering) ----------
    @staticmethod
    def result_cast(e: N.Expr) -> Optional[DType]:
        """The precision ``e``'s result is rounded to: arithmetic and
        calls typed binary32/binary16, else ``None``."""
        if (
            isinstance(e, (N.BinOp, N.Call))
            and e.dtype in (DType.F32, DType.F16)
            and not (
                isinstance(e, N.BinOp)
                and (e.op in N.CMPOPS or e.op in N.BOOLOPS)
            )
        ):
            return e.dtype
        return None

    @staticmethod
    def store_cast(target: N.Name, value: N.Expr) -> Optional[DType]:
        """The precision a store of ``value`` into ``target`` rounds to:
        a binary32/binary16 target of a differently typed value."""
        tdt = target.dtype or DType.F64
        vdt = value.dtype or DType.F64
        if tdt in (DType.F32, DType.F16) and vdt is not tdt:
            return tdt
        return None

    # -- expressions --------------------------------------------------------
    def expr(self, e: N.Expr) -> str:
        text = self._expr_raw(e)
        dt = self.result_cast(e)
        if dt is not None:
            fn = "_c32" if dt is DType.F32 else "_c16"
            return f"{fn}({text})"
        return text

    def _expr_raw(self, e: N.Expr) -> str:
        if isinstance(e, N.Const):
            if isinstance(e.value, bool):
                return "True" if e.value else "False"
            return repr(e.value)
        if isinstance(e, N.Name):
            return e.id
        if isinstance(e, N.Index):
            raise UnvectorizableError(
                f"{self.fn.name}: array indexing is not supported by the "
                "batch backend"
            )
        if isinstance(e, N.BinOp):
            if e.op in N.BOOLOPS:
                fn = "_land" if e.op == "and" else "_lor"
                return f"{fn}({self.expr(e.left)}, {self.expr(e.right)})"
            return f"({self.expr(e.left)} {e.op} {self.expr(e.right)})"
        if isinstance(e, N.UnaryOp):
            if e.op == "-":
                return f"(-{self.expr(e.operand)})"
            return f"_lnot({self.expr(e.operand)})"
        if isinstance(e, N.Call):
            args = ", ".join(self.expr(a) for a in e.args)
            return f"_i_{e.fn}({args})"
        if isinstance(e, N.Cast):
            inner = self.expr(e.operand)
            if e.to is DType.F32:
                return f"_c32({inner})"
            if e.to is DType.F16:
                return f"_c16({inner})"
            if e.to is DType.I64:
                return f"_ci64({inner})"
            return inner  # F64/B1: values are already held wide
        raise TypeError(type(e).__name__)

    # -- stores -------------------------------------------------------------
    def _store(self, target: N.LValue, value: N.Expr) -> None:
        if not isinstance(target, N.Name):
            raise UnvectorizableError(
                f"{self.fn.name}: array-element store is not supported by "
                "the batch backend"
            )
        text = self.expr(value)
        tdt = self.store_cast(target, value)
        if tdt is not None:
            text = f"_c32({text})" if tdt is DType.F32 else f"_c16({text})"
        if self.mask is None:
            self.emit(f"{target.id} = {text}")
        else:
            self.emit(
                f"{target.id} = _where({self.mask}, {text}, {target.id})"
            )

    # -- statements ---------------------------------------------------------
    def body(self, stmts: Sequence[N.Stmt]) -> None:
        if not stmts:
            self.emit("pass")
            return
        for s in stmts:
            self.stmt(s)

    def masked_body(self, stmts: Sequence[N.Stmt]) -> None:
        """Like :meth:`body` but emits nothing for an empty block (masked
        regions are flat — no Python suite needs a ``pass``)."""
        for s in stmts:
            self.stmt(s)

    def stmt(self, s: N.Stmt) -> None:
        if isinstance(s, N.VarDecl):
            if s.init is None:
                self.emit(f"{s.name} = 0.0")
                return
            tgt = N.Name(s.name)
            tgt.dtype = s.dtype
            # a declaration has no prior value to preserve, so it is
            # never blended — even under a mask (CSE may declare temps
            # inside branches); inactive lanes' values are only ever
            # read by masked consumers
            saved, self.mask = self.mask, None
            self._store(tgt, s.init)
            self.mask = saved
        elif isinstance(s, N.Assign):
            self._store(s.target, s.value)
        elif isinstance(s, N.If):
            self._if(s)
        elif isinstance(s, N.For):
            self._for(s)
        elif isinstance(s, N.While):
            self._while(s)
        elif isinstance(s, N.Break):
            if self.mask is not None:
                raise UnvectorizableError(
                    f"{self.fn.name}: 'break' under a data-dependent "
                    "branch cannot be vectorized"
                )
            self.emit("break")
        elif isinstance(s, N.Return):
            self._emit_return([self.expr(s.value)])
        elif isinstance(s, N.ReturnTuple):
            self._emit_return([self.expr(v) for v in s.values])
        elif isinstance(s, N.ExprStmt):
            self.emit(self.expr(s.value))
        elif isinstance(s, N.Push):
            # unconditional even under a mask: stack depth must be
            # lane-independent; inactive lanes' values are discarded by
            # the matching masked pop
            self.emit(f"_stk_{s.stack}.append({self.expr(s.value)})")
        elif isinstance(s, N.Pop):
            if not isinstance(s.target, N.Name):
                raise UnvectorizableError(
                    f"{self.fn.name}: pop into array element is not "
                    "supported by the batch backend"
                )
            if self.mask is None:
                self.emit(f"{s.target.id} = _stk_{s.stack}.pop()")
            else:
                self.emit(
                    f"{s.target.id} = _where({self.mask}, "
                    f"_stk_{s.stack}.pop(), {s.target.id})"
                )
        elif isinstance(s, N.PopDiscard):
            self.emit(f"_stk_{s.stack}.pop()")
        elif isinstance(s, N.TraceAppend):
            if self.mask is not None:
                raise UnvectorizableError(
                    f"{self.fn.name}: sensitivity trace under a "
                    "data-dependent branch cannot be vectorized"
                )
            self.emit(f"_tr_{s.trace}.append({self.expr(s.value)})")
        else:
            raise TypeError(type(s).__name__)

    # -- control flow -------------------------------------------------------
    def _if(self, s: N.If) -> None:
        if not self.expr_tainted(s.cond):
            # lane-uniform condition: a real Python branch — all lanes
            # agree, so scalar push/pop pairing applies unchanged
            self.emit(f"if {self.expr(s.cond)}:")
            self.indent += 1
            self.body(s.then)
            self.indent -= 1
            if s.orelse:
                self.emit("else:")
                self.indent += 1
                self.body(s.orelse)
                self.indent -= 1
            return

        has_pop = _subtree_has([s], (N.Pop, N.PopDiscard))
        has_push = _subtree_has([s], (N.Push,))
        if has_pop and has_push:
            raise UnvectorizableError(
                f"{self.fn.name}: branch mixes tape pushes and pops"
            )
        cond = self.fresh("_bc")
        self.emit(f"{cond} = {self.expr(s.cond)}")
        parent = self.mask
        if parent is None:
            then_mask = cond
        else:
            then_mask = self.fresh("_bm")
            self.emit(f"{then_mask} = _land({parent}, {cond})")
        blocks: List[Tuple[str, Sequence[N.Stmt]]] = [(then_mask, s.then)]
        if s.orelse:
            else_mask = self.fresh("_bm")
            if parent is None:
                self.emit(f"{else_mask} = _lnot({cond})")
            else:
                self.emit(f"{else_mask} = _land({parent}, _lnot({cond}))")
            blocks.append((else_mask, s.orelse))
        if has_pop:
            # backward-sweep branch: the forward sweep pushed then-values
            # before else-values, so LIFO pops the else body first
            blocks.reverse()
        for mask, block in blocks:
            self.mask = mask
            self.masked_body(block)
        self.mask = parent

    def _for(self, s: N.For) -> None:
        if self.mask is not None:
            raise UnvectorizableError(
                f"{self.fn.name}: loop under a data-dependent branch "
                "cannot be vectorized"
            )
        for e in (s.lo, s.hi, s.step):
            if self.expr_tainted(e):
                raise UnvectorizableError(
                    f"{self.fn.name}: loop bound depends on batched data"
                )
        lo, hi, step = self.expr(s.lo), self.expr(s.hi), self.expr(s.step)
        self.emit(f"for {s.var} in range({lo}, {hi}, {step}):")
        self.indent += 1
        self.body(s.body)
        self.indent -= 1

    def _while(self, s: N.While) -> None:
        if self.mask is not None or self.expr_tainted(s.cond):
            raise UnvectorizableError(
                f"{self.fn.name}: while-loop condition depends on "
                "batched data"
            )
        self.emit(f"while {self.expr(s.cond)}:")
        self.indent += 1
        self.body(s.body)
        self.indent -= 1

    # -- function -----------------------------------------------------------
    def _emit_return(self, values: List[str]) -> None:
        if self.mask is not None:
            raise UnvectorizableError(
                f"{self.fn.name}: return under a data-dependent branch"
            )
        parts = values + [f"_tr_{t}" for t in self.traces]
        if len(parts) == 1:
            self.emit(f"return {parts[0]}")
        else:
            self.emit(f"return ({', '.join(parts)})")

    def generate(self) -> str:
        fn = self.fn
        for s in walk_stmts(fn.body):
            if isinstance(s, N.Push) and s.stack not in self.stacks:
                self.stacks.append(s.stack)
            if (
                isinstance(s, (N.Pop, N.PopDiscard))
                and s.stack not in self.stacks
            ):
                self.stacks.append(s.stack)
            if isinstance(s, N.TraceAppend) and s.trace not in self.traces:
                self.traces.append(s.trace)
        params = ", ".join(p.name for p in fn.params)
        header = f"def {fn.name}({params}):"
        for stack in self.stacks:
            self.emit(f"_stk_{stack} = []")
        for trace in self.traces:
            self.emit(f"_tr_{trace} = []")
        self.body(fn.body)
        if not fn.body or not isinstance(
            fn.body[-1], (N.Return, N.ReturnTuple)
        ):
            self._emit_return(["None"])
        return header + "\n" + "\n".join(self.lines)


# --------------------------------------------------------------------------
# Config-batched (precision-parameterized) generation
# --------------------------------------------------------------------------
#
# The search hot path evaluates K precision configurations of one kernel.
# Instead of rewriting the IR and recompiling per configuration, the
# config-lane generator renders the kernel ONCE with every potential
# demotion point turned into a *runtime rounding site*:
#
#     xd1 = _rnd(_rs[7], ((rate + xpowerterm) * otime + xlogterm) / xden)
#
# ``_rs[7]`` is a per-lane selector (None, or (K, 1) masks choosing
# f32/f16 rounding per config lane), so one execution of the generated
# code evaluates all K configurations at once — each lane performing,
# bit for bit, the operations the per-config scalar code would.  Cycle
# accounting becomes runtime too: every statement pygen would charge a
# (dtype-dependent) constant for charges a per-lane vector ``_ch[i]``
# instead, and float constants are passed through ``_cs`` so constants
# that depend on storage precision (the machine-epsilon factors error
# models mark with ``Const.eps_of``) take each lane's value at runtime.
#
# The selector/charge/constant vectors for a concrete pool of configs
# are derived by :func:`repro.codegen.compile.lower_config_pool`, which
# runs the *same* dtype re-inference the scalar path's
# ``apply_precision`` uses — that, plus the shared numpy runtime of the
# input-sweep engine, is what makes the lanes bit-identical.  For an
# error-estimating adjoint, ``lower_adjoint_pool`` (same module) derives
# them from the *primal* configuration's dtypes, so one adjoint build
# serves every configuration.


@dataclass
class RoundSite:
    """One potential rounding point in the generated code.

    ``kind`` is one of ``"expr"`` (operation result), ``"index"``
    (array-element read), ``"store"`` (assignment target), ``"decl"``
    (declaration initializer), or ``"param"`` (entry rounding of an
    incoming argument); ``node`` is the IR node whose lowered dtype
    decides the per-lane selector.
    """

    kind: str
    node: object


@dataclass
class ChargeSite:
    """One cycle-accounting point whose cost depends on lane dtypes.

    ``kind``: ``"store"`` (Assign), ``"decl"`` (VarDecl with init),
    ``"if"`` (branch condition), ``"while"`` (per-iteration condition
    plus bookkeeping).  Mirrors exactly where pygen's counting mode
    emits ``_cost +=`` statements.
    """

    kind: str
    node: object


@dataclass
class ConfigLaneProgram:
    """A config-batched rendering of one IR function plus its site maps.

    The generated function's signature is the IR function's parameters
    followed by ``_rs`` (rounding selectors), ``_ch`` (charge vectors)
    and ``_cs`` (float-constant values) — the per-pool lane parameters
    produced by lowering.
    """

    fn: N.Function
    source: str
    counting: bool
    allow_arrays: bool
    batched: frozenset
    round_sites: List[RoundSite]
    charge_sites: List[ChargeSite]
    const_sites: List[N.Const]
    #: baseline storage dtype of every variable (pre-demotion)
    var_baseline: dict
    #: the taint analysis the rendering used: (lane-varying names,
    #: lane-varying stacks)
    taint: Tuple[Set[str], Set[str]]


_FLOAT_DTYPES = (DType.F64, DType.F32, DType.F16)


class _ConfigLaneGen(_BatchGen):
    """Config-lane variant of the batch generator.

    Inherits the if-conversion / masking / tape machinery of
    :class:`_BatchGen` and replaces every *static* precision decision
    (rounding wrappers chosen by inferred dtypes, cycle constants baked
    by the cost model) with indexed runtime sites.
    """

    def __init__(
        self,
        fn: N.Function,
        batched: Set[str],
        counting: bool,
        allow_arrays: bool,
        taint: Optional[Tuple[Set[str], Set[str]]] = None,
    ) -> None:
        from repro.ir.typecheck import collect_var_dtypes

        self.var_baseline = collect_var_dtypes(fn)
        config_taint = {
            name
            for name, dt in self.var_baseline.items()
            if dt in _FLOAT_DTYPES
        }
        super().__init__(
            fn,
            set(batched),
            extra_taint=config_taint,
            allow_arrays=allow_arrays,
            taint=taint,
        )
        self.counting = counting
        self.round_sites: List[RoundSite] = []
        self.charge_sites: List[ChargeSite] = []
        self.const_sites: List[N.Const] = []

    # -- site registration ---------------------------------------------------
    def _round_site(self, kind: str, node: object) -> int:
        self.round_sites.append(RoundSite(kind, node))
        return len(self.round_sites) - 1

    def _emit_charge(self, kind: str, node: object) -> None:
        if not self.counting:
            return
        self.charge_sites.append(ChargeSite(kind, node))
        i = len(self.charge_sites) - 1
        if self.mask is None:
            self.emit(f"_cost = _cost + _ch[{i}]")
        else:
            self.emit(
                f"_cost = _cost + _where({self.mask}, _ch[{i}], 0.0)"
            )

    # -- expressions ---------------------------------------------------------
    def expr(self, e: N.Expr) -> str:
        text = self._expr_raw(e)
        dt = e.dtype or DType.F64
        if dt not in _FLOAT_DTYPES:
            return text
        if isinstance(e, N.BinOp) and (
            e.op in N.CMPOPS or e.op in N.BOOLOPS
        ):
            return text
        if isinstance(e, (N.BinOp, N.Call)):
            return f"_rnd(_rs[{self._round_site('expr', e)}], {text})"
        if isinstance(e, N.Index):
            # arrays are passed unrounded and lane-uniform; demoted
            # storage rounds at every element read (idempotent, so it
            # matches the scalar path's round-once-on-entry exactly)
            return f"_rnd(_rs[{self._round_site('index', e)}], {text})"
        return text

    def _expr_raw(self, e: N.Expr) -> str:
        if isinstance(e, N.Const):
            if isinstance(e.value, bool):
                return "True" if e.value else "False"
            if isinstance(e.value, float):
                self.const_sites.append(e)
                return f"_cs[{len(self.const_sites) - 1}]"
            return repr(e.value)
        if isinstance(e, N.Index):
            if not self.allow_arrays:
                raise UnvectorizableError(
                    f"{self.fn.name}: array indexing is not supported "
                    "by the grid backend"
                )
            if self.expr_tainted(e.index):
                raise UnvectorizableError(
                    f"{self.fn.name}: array index depends on lane data"
                )
            return f"{e.base}[{self.expr(e.index)}]"
        return super()._expr_raw(e)

    # -- stores --------------------------------------------------------------
    def _store(self, target: N.LValue, value: N.Expr) -> None:
        text = self.expr(value)
        if isinstance(target, N.Index):
            if not self.allow_arrays:
                raise UnvectorizableError(
                    f"{self.fn.name}: array-element store is not "
                    "supported by the grid backend"
                )
            if self.mask is not None:
                raise UnvectorizableError(
                    f"{self.fn.name}: array-element store under a "
                    "data-dependent branch cannot be config-batched"
                )
            if self.expr_tainted(target.index):
                raise UnvectorizableError(
                    f"{self.fn.name}: array store index depends on "
                    "lane data"
                )
            site = self._round_site("store", target)
            self.emit(
                f"{target.base}[{self.expr(target.index)}] = "
                f"_rnd(_rs[{site}], {text})"
            )
            return
        base_dt = self.var_baseline.get(target.id, DType.F64)
        if base_dt in _FLOAT_DTYPES:
            text = f"_rnd(_rs[{self._round_site('store', target)}], {text})"
        if self.mask is None:
            self.emit(f"{target.id} = {text}")
        else:
            self.emit(
                f"{target.id} = _where({self.mask}, {text}, {target.id})"
            )

    # -- statements ----------------------------------------------------------
    def stmt(self, s: N.Stmt) -> None:
        if isinstance(s, N.VarDecl):
            if s.init is None:
                self.emit(f"{s.name} = 0.0")
                return
            text = self.expr(s.init)
            if s.dtype in _FLOAT_DTYPES:
                text = f"_rnd(_rs[{self._round_site('decl', s)}], {text})"
            # declarations are never blended, even under a mask (see
            # _BatchGen.stmt)
            self.emit(f"{s.name} = {text}")
            self._emit_charge("decl", s)
            return
        if isinstance(s, N.Assign):
            self._store(s.target, s.value)
            self._emit_charge("store", s)
            return
        super().stmt(s)

    # -- control flow ---------------------------------------------------------
    def _if(self, s: N.If) -> None:
        # pygen charges the condition before entering either arm
        self._emit_charge("if", s)
        super()._if(s)

    def _for(self, s: N.For) -> None:
        if self.mask is not None:
            raise UnvectorizableError(
                f"{self.fn.name}: loop under a data-dependent branch "
                "cannot be vectorized"
            )
        for e in (s.lo, s.hi, s.step):
            if self.expr_tainted(e):
                raise UnvectorizableError(
                    f"{self.fn.name}: loop bound depends on batched data"
                )
        lo, hi, step = self.expr(s.lo), self.expr(s.hi), self.expr(s.step)
        self.emit(f"for {s.var} in range({lo}, {hi}, {step}):")
        self.indent += 1
        if self.counting:
            self.emit("_cost = _cost + 1.0")  # loop bookkeeping
        self.body(s.body)
        self.indent -= 1

    def _while(self, s: N.While) -> None:
        if self.mask is not None or self.expr_tainted(s.cond):
            raise UnvectorizableError(
                f"{self.fn.name}: while-loop condition depends on "
                "batched data"
            )
        self.emit(f"while {self.expr(s.cond)}:")
        self.indent += 1
        self._emit_charge("while", s)
        self.body(s.body)
        self.indent -= 1

    # -- function ------------------------------------------------------------
    def _emit_return(self, values: List[str]) -> None:
        if self.mask is not None:
            raise UnvectorizableError(
                f"{self.fn.name}: return under a data-dependent branch"
            )
        parts = values + [f"_tr_{t}" for t in self.traces]
        if self.counting:
            parts.append("_cost")
        if len(parts) == 1:
            self.emit(f"return {parts[0]}")
        else:
            self.emit(f"return ({', '.join(parts)})")

    def generate(self) -> str:
        fn = self.fn
        for s in walk_stmts(fn.body):
            if isinstance(s, N.Push) and s.stack not in self.stacks:
                self.stacks.append(s.stack)
            if (
                isinstance(s, (N.Pop, N.PopDiscard))
                and s.stack not in self.stacks
            ):
                self.stacks.append(s.stack)
            if isinstance(s, N.TraceAppend) and s.trace not in self.traces:
                self.traces.append(s.trace)
        params = [p.name for p in fn.params] + ["_rs", "_ch", "_cs"]
        header = f"def {fn.name}({', '.join(params)}):"
        for stack in self.stacks:
            self.emit(f"_stk_{stack} = []")
        for trace in self.traces:
            self.emit(f"_tr_{trace} = []")
        if self.counting:
            self.emit("_cost = 0.0")
        for p in fn.params:
            # demoted parameter storage rounds the incoming value, per
            # lane (the scalar path rounds in CompiledFunction.__call__)
            if isinstance(p.type, ArrayType):
                continue
            if p.type.dtype in _FLOAT_DTYPES:
                i = self._round_site("param", p)
                self.emit(f"{p.name} = _rnd(_rs[{i}], {p.name})")
        self.body(fn.body)
        if not fn.body or not isinstance(
            fn.body[-1], (N.Return, N.ReturnTuple)
        ):
            self._emit_return(["None"])
        return header + "\n" + "\n".join(self.lines)


def generate_config_lane_source(
    fn: N.Function,
    batched: Set[str] = frozenset(),
    counting: bool = False,
    allow_arrays: bool = False,
) -> ConfigLaneProgram:
    """Render ``fn`` as config-batched (precision-parameterized) source.

    :param batched: scalar parameters additionally batched along the
        *input* axis (length-N arrays); the config axis is always
        present.  An empty set gives the per-point form used when
        inputs (or array arguments) must stay lane-uniform.
    :param counting: bake per-lane simulated-cycle accumulation in.
    :param allow_arrays: permit (lane-uniform) array parameters with
        lane-invariant indices — the per-point execution mode.
    :raises UnvectorizableError: when the structure cannot execute
        array-at-a-time; callers fall back to the per-config scalar
        path.
    """
    gen = _ConfigLaneGen(
        fn, set(batched), counting=counting, allow_arrays=allow_arrays
    )
    source = gen.generate()
    return ConfigLaneProgram(
        fn=fn,
        source=source,
        counting=counting,
        allow_arrays=allow_arrays,
        batched=frozenset(batched),
        round_sites=gen.round_sites,
        charge_sites=gen.charge_sites,
        const_sites=gen.const_sites,
        var_baseline=gen.var_baseline,
        taint=(gen.tainted, gen.tainted_stacks),
    )


def generate_batch_source(fn: N.Function, batched: Set[str]) -> str:
    """Render ``fn`` as NumPy-vectorized batch Python source.

    :param batched: names of scalar parameters that arrive as length-N
        arrays; all other parameters are lane-uniform scalars.
    :raises UnvectorizableError: if the function's structure cannot be
        executed array-at-a-time (see module docstring) — callers fall
        back to a scalar loop.
    """
    return _BatchGen(fn, set(batched)).generate()
