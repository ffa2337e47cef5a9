"""Native execution of config-lane, batch and scalar kernels.

:mod:`repro.codegen.npgen` renders a config-lane kernel as numpy source,
where every IR operation is one numpy dispatch.  This module lowers the
same kernel into bytecode for ``lanevm.c``, a fixed C interpreter that
runs each operation over all K x N lanes in one C loop, so a kernel
call is one foreign call.

* **The library** is built once per machine, on the first lane-kernel
  compile (never at import), with ``gcc -O2 -fno-fast-math
  -ffp-contract=off``.  It is content-addressed by the sha256 of the
  source, the compiler version and the flags, cached under
  ``$XDG_CACHE_HOME/repro`` (else ``~/.cache/repro``), published
  through :func:`repro.util.atomio.atomic_build` and loaded with
  ctypes.
* **Lowering** walks the IR exactly like ``_ConfigLaneGen`` (it is a
  subclass), registering the same rounding, constant and charge sites
  in the same order — :func:`lower` asserts that by node identity — so
  the lane parameters of ``lower_config_pool``/``lower_adjoint_pool``
  feed either engine unchanged.
* **Exactness** holds by construction: the interpreter performs the
  IEEE operations numpy performs, rounds by ``(float)``/``(_Float16)``
  casts, calls the libm functions CPython's ``math`` wraps, and keeps
  per-lane accumulation sequential.  Where Python could raise instead
  of returning a value (see ``lanevm.c``), the call is replayed on the
  numpy path, which then raises or returns exactly as before.

The input-sweep engine's batch kernels (``generate_batch_source``: one
lane per input point, static rounding) are lowered the same way, from
``_BatchGen``'s traversal and cast rules, and run on the same
interpreter.

The scalar functions ``pygen`` renders — the adjoint behind
``ErrorEstimator.execute`` — are lowered by :func:`lower_scalar`: the
batch traversal with nothing swept (every branch a real jump), plus
parameter-array element reads, writes and pops.  They run on the
library's one-lane loop (``lanevm_run1``), whose registers are doubles
tagged with a Python type and whose semantics are CPython's scalar
ones: it replays in Python wherever Python would raise or hold a value
a double cannot.  :class:`ScalarKernel` marshals ndarray parameters by
dtype into private copies and writes float arrays back only on
success; ``core.api._AdjointRunner`` decides when to use it (from an
adjoint's second call).

Only kernels with a loop take the native engine (:func:`worth_lowering`);
straight-line ones stay on the numpy or Python path.  Of the kernels
with a loop, those the interpreter does not cover (external error
models, FastApprox intrinsics, sensitivity traces), calls with
arguments it does not marshal, replays, and all of them on machines
without a compiler or a writable cache run the numpy or Python path;
every such call counts in ``repro_native_fallbacks_total``, every
native one in ``repro_native_lane_runs_total``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import threading
import weakref
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.codegen.npgen import (
    _FLOAT_DTYPES,
    ChargeSite,
    ConfigLaneProgram,
    UnvectorizableError,
    _BatchGen,
    _ConfigLaneGen,
    _subtree_has,
)
from repro.frontend.intrinsics import INTRINSICS
from repro.ir import nodes as N
from repro.ir.types import ArrayType, DType
from repro.ir.visitor import walk_stmts
from repro.obs import metrics as obs_metrics
from repro.util import atomio

SOURCE = Path(__file__).with_name("lanevm.c")
FLAGS = ("-O2", "-fno-fast-math", "-ffp-contract=off", "-shared", "-fPIC")

NATIVE_RUNS = obs_metrics.REGISTRY.counter(
    "repro_native_lane_runs_total",
    "config-lane, batch and scalar-adjoint kernel calls run by the "
    "native interpreter",
)
NATIVE_FALLBACKS = obs_metrics.REGISTRY.counter(
    "repro_native_fallbacks_total",
    "calls of kernels with loops that ran on the numpy or Python path "
    "instead (scalar adjoints from their second call)",
)

# -- opcodes, value kinds and intrinsic ids (mirror lanevm.c) -----------

(
    OP_LDI, OP_LDCS, OP_LDCH, OP_MOV, OP_TAKE, OP_ADD, OP_SUB, OP_MUL,
    OP_DIV, OP_FLOORDIV, OP_MOD, OP_EQ, OP_NE, OP_LT, OP_LE, OP_GT, OP_GE,
    OP_AND, OP_OR, OP_NEG, OP_NOT, OP_RND, OP_C32, OP_C16, OP_CI64,
    OP_WHERE, OP_CALL, OP_PUSH, OP_POP, OP_JMP, OP_JF, OP_FORPREP,
    OP_FORNEXT, OP_LDX, OP_STX, OP_RET, OP_DROP, OP_DROPL,
) = range(1, 39)

KF, KI, KB, KN = 0, 1, 2, 3

#: Cast targets with an interpreter op; F64/B1 casts keep the value
_CASTS = {DType.F32: OP_C32, DType.F16: OP_C16, DType.I64: OP_CI64}

_BINOPS = {
    "+": OP_ADD, "-": OP_SUB, "*": OP_MUL, "/": OP_DIV,
    "//": OP_FLOORDIV, "%": OP_MOD, "==": OP_EQ, "!=": OP_NE,
    "<": OP_LT, "<=": OP_LE, ">": OP_GT, ">=": OP_GE,
    "and": OP_AND, "or": OP_OR,
}
_FUNCS = {
    name: i
    for i, name in enumerate(
        (
            "sin", "cos", "tan", "asin", "acos", "atan", "tanh", "sinh",
            "cosh", "erf", "erfc", "exp", "log", "log2", "exp2", "pow",
            "sqrt", "fabs", "floor", "ceil", "copysign", "fmax", "fmin",
            "step_ge",
        )
    )
}
#: ints and bools travel as doubles; past this they would not be exact
_INT_LIMIT = float(1 << 53)

# -- the library ----------------------------------------------------------

_LIB: Optional[ctypes.CDLL] = None
_LIB_FAILED = False
_BUILD_LOCK = threading.Lock()


def _reinit_build_lock() -> None:
    # a fork while another thread builds must not leave the child
    # waiting on a lock nobody in it will release
    global _BUILD_LOCK
    _BUILD_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_reinit_build_lock)


def _compiler() -> Optional[str]:
    return shutil.which("gcc")


def cache_dir() -> Path:
    """Where the built library lives: ``$XDG_CACHE_HOME/repro``, else
    ``~/.cache/repro``."""
    base = os.environ.get("XDG_CACHE_HOME") or str(Path.home() / ".cache")
    return Path(base) / "repro"


def _build(cc: str) -> Path:
    import subprocess  # only on the first lane-kernel compile

    version = subprocess.run(
        [cc, "-dumpfullversion"],
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout.strip()
    h = hashlib.sha256(SOURCE.read_bytes())
    h.update(version.encode())
    h.update(" ".join(FLAGS).encode())
    path = cache_dir() / f"lanevm-{h.hexdigest()[:16]}.so"
    if not path.exists():
        path.parent.mkdir(parents=True, exist_ok=True)

        def compile_to(tmp: Path) -> None:
            subprocess.run(
                [cc, *FLAGS, "-o", str(tmp), str(SOURCE), "-lm"],
                capture_output=True, check=True, timeout=300,
            )

        atomio.atomic_build(path, compile_to)
    return path


def library() -> Optional[ctypes.CDLL]:
    """The loaded interpreter, building it on first use; ``None`` when
    this machine cannot build or load it (no compiler, no writable
    cache) — callers then run the numpy path."""
    global _LIB, _LIB_FAILED
    if _LIB is not None or _LIB_FAILED:
        return _LIB
    with _BUILD_LOCK:
        if _LIB is not None or _LIB_FAILED:
            return _LIB
        import subprocess

        cc = _compiler()
        try:
            if cc is None:
                raise OSError("no C compiler")
            lib = ctypes.CDLL(str(_build(cc)))
        except (OSError, subprocess.SubprocessError):
            _LIB_FAILED = True
            return None
        fn = lib.lanevm_run
        fn.argtypes = [ctypes.c_void_p] * 15
        fn.restype = ctypes.c_int
        one = lib.lanevm_run1
        one.argtypes = [ctypes.c_void_p] * 12
        one.restype = ctypes.c_int
        lib.lanevm_free.argtypes = [ctypes.c_void_p]
        lib.lanevm_free.restype = None
        _LIB = lib
        return lib


# -- lowering ---------------------------------------------------------------


class NativeUnsupported(Exception):
    """The kernel uses a construct the interpreter does not cover."""


class _LaneLowering(_ConfigLaneGen):
    """Bytecode twin of ``_ConfigLaneGen``.

    Overrides every emitting method to produce interpreter code instead
    of numpy source, visiting the IR in the same order so that rounding,
    constant and charge sites get the same indices.  Expressions return
    the register holding their value; a ``dst`` register asks the
    outermost operation to write its result there.
    """

    def __init__(
        self, program: ConfigLaneProgram, approx: Optional[Set[str]]
    ) -> None:
        super().__init__(
            program.fn,
            set(program.batched),
            program.counting,
            program.allow_arrays,
            taint=program.taint,
        )
        self._init_code(program.fn, approx)

    def _init_code(
        self, fn: N.Function, approx: Optional[Set[str]]
    ) -> None:
        self.approx = frozenset(approx or ())
        self.code: List[int] = []
        self.imm: List[float] = []
        self.imm_kind: List[int] = []
        self._imm_index: Dict[Tuple[int, str], int] = {}
        self.nregs = 0
        #: names the statement being lowered mentions (see _top_level)
        self._uses: Set[str] = set()
        self.names: Dict[str, int] = {}
        for p in fn.params:
            self.names[p.name] = self._new_reg()
        self.arrays = {
            p.name: i
            for i, p in enumerate(fn.params)
            if isinstance(p.type, ArrayType)
        }
        self._free: List[int] = []
        self._temps: Set[int] = set()
        self._live: List[int] = []
        self._loops: List[List[int]] = []
        self.stack_ids: Dict[str, int] = {}
        self.max_ret = 1

    # -- registers and code ---------------------------------------------------
    def _new_reg(self) -> int:
        self.nregs += 1
        return self.nregs - 1

    def _var(self, name: str) -> int:
        self._uses.add(name)
        r = self.names.get(name)
        if r is None:
            r = self.names[name] = self._new_reg()
        return r

    def _temp(self) -> int:
        r = self._free.pop() if self._free else self._new_reg()
        self._temps.add(r)
        self._live.append(r)
        return r

    def _out(self, dst: Optional[int]) -> int:
        return self._temp() if dst is None else dst

    def _op(self, *words: int) -> int:
        self.code.extend(words)
        return len(self.code) - len(words)

    def _const(self, value: object, kind: int) -> int:
        key = (kind, repr(value))
        i = self._imm_index.get(key)
        if i is None:
            i = self._imm_index[key] = len(self.imm)
            self.imm.append(0.0 if value is None else float(value))
            self.imm_kind.append(kind)
        return i

    def _load(self, value: object, kind: int, dst: Optional[int]) -> int:
        d = self._out(dst)
        self._op(OP_LDI, d, self._const(value, kind))
        return d

    def _move(self, src: int, dst: Optional[int]) -> int:
        if dst is None or dst == src:
            return src
        self._op(OP_TAKE if src in self._temps else OP_MOV, dst, src)
        return dst

    def _blend(self, var: int, value: int) -> None:
        """``var = where(mask, value, var)``: a store under the mask."""
        self._op(OP_WHERE, var, self.mask, value, var)

    def _round(self, site: int, src: int, dst: Optional[int]) -> int:
        d = self._out(dst)
        self._op(OP_RND, d, site, src, int(src in self._temps))
        return d

    # -- expressions ----------------------------------------------------------
    def expr(  # type: ignore[override]
        self, e: N.Expr, dst: Optional[int] = None
    ) -> int:
        dt = e.dtype or DType.F64
        rounds = (
            dt in _FLOAT_DTYPES
            and isinstance(e, (N.BinOp, N.Call, N.Index))
            and not (
                isinstance(e, N.BinOp)
                and (e.op in N.CMPOPS or e.op in N.BOOLOPS)
            )
        )
        if not rounds:
            return self._expr_raw(e, dst)
        raw = self._expr_raw(e)
        kind = "index" if isinstance(e, N.Index) else "expr"
        return self._round(self._round_site(kind, e), raw, dst)

    def _expr_raw(  # type: ignore[override]
        self, e: N.Expr, dst: Optional[int] = None
    ) -> int:
        if isinstance(e, N.Const):
            v = e.value
            if isinstance(v, bool):
                return self._load(v, KB, dst)
            if isinstance(v, float):
                self.const_sites.append(e)
                d = self._out(dst)
                self._op(OP_LDCS, d, len(self.const_sites) - 1)
                return d
            if isinstance(v, int) and abs(v) < _INT_LIMIT:
                return self._load(v, KI, dst)
            raise NativeUnsupported(f"constant {v!r}")
        if isinstance(e, N.Name):
            return self._move(self._var(e.id), dst)
        if isinstance(e, N.Index):
            if not self.allow_arrays or self.expr_tainted(e.index):
                raise UnvectorizableError(
                    f"{self.fn.name}: lane-dependent array read"
                )
            if e.base not in self.arrays:
                raise NativeUnsupported(f"local array {e.base!r}")
            idx = self.expr(e.index)
            d = self._out(dst)
            self._op(OP_LDX, d, self.arrays[e.base], idx)
            return d
        if isinstance(e, N.BinOp):
            op = _BINOPS.get(e.op)
            if op is None:
                raise NativeUnsupported(f"operator {e.op!r}")
            left = self.expr(e.left)
            right = self.expr(e.right)
            d = self._out(dst)
            self._op(op, d, left, right)
            return d
        if isinstance(e, N.UnaryOp):
            a = self.expr(e.operand)
            d = self._out(dst)
            self._op(OP_NEG if e.op == "-" else OP_NOT, d, a)
            return d
        if isinstance(e, N.Call):
            fid = _FUNCS.get(e.fn)
            info = INTRINSICS.get(e.fn)
            if (
                fid is None
                or info is None
                or (e.fn in self.approx and info.approx_impl is not None)
                or len(e.args) not in (1, 2)
            ):
                raise NativeUnsupported(f"intrinsic {e.fn!r}")
            args = [self.expr(a) for a in e.args]
            d = self._out(dst)
            second = args[1] if len(args) > 1 else -1
            self._op(OP_CALL, d, fid, args[0], second)
            return d
        if isinstance(e, N.Cast):
            inner = self.expr(e.operand)
            op = _CASTS.get(e.to)
            if op is None:
                return self._move(inner, dst)  # F64/B1: held wide already
            d = self._out(dst)
            self._op(op, d, inner)
            return d
        raise NativeUnsupported(type(e).__name__)

    # -- stores ---------------------------------------------------------------
    def _store(  # type: ignore[override]
        self, target: N.LValue, value: N.Expr
    ) -> None:
        if isinstance(target, N.Index):
            v = self.expr(value)
            if (
                not self.allow_arrays
                or self.mask is not None
                or self.expr_tainted(target.index)
            ):
                raise UnvectorizableError(
                    f"{self.fn.name}: lane-dependent array store"
                )
            if target.base not in self.arrays:
                raise NativeUnsupported(f"local array {target.base!r}")
            r = self._round(self._round_site("store", target), v, None)
            idx = self.expr(target.index)
            self._op(OP_STX, self.arrays[target.base], idx, r)
            return
        var = self._var(target.id)
        rounds = self.var_baseline.get(target.id, DType.F64) in _FLOAT_DTYPES
        if self.mask is None and not rounds:
            self.expr(value, dst=var)
            return
        v = self.expr(value)
        if rounds:
            site = self._round_site("store", target)
            v = self._round(site, v, var if self.mask is None else None)
        if self.mask is not None:
            self._blend(var, v)

    def _emit_charge(self, kind: str, node: object) -> None:
        if not self.counting:
            return
        self.charge_sites.append(ChargeSite(kind, node))
        t = self._temp()
        self._op(OP_LDCH, t, len(self.charge_sites) - 1)
        if self.mask is not None:
            zero = self._load(0.0, KF, None)
            self._op(OP_WHERE, t, self.mask, t, zero)
        cost = self._var("_cost")
        self._op(OP_ADD, cost, cost, t)

    # -- statements ---------------------------------------------------------
    def body(self, stmts: Sequence[N.Stmt]) -> None:
        for s in stmts:
            self.stmt(s)

    masked_body = body

    def _drop(self, regs: Sequence[int]) -> None:
        """Dead registers hand their buffers to later vectors, as freed
        numpy arrays would (the interpreter marks them unbound)."""
        if regs:
            self._op(OP_DROP, len(regs), *regs)

    def stmt(self, s: N.Stmt) -> None:
        mark = len(self._live)
        self._stmt(s)
        dead = self._live[mark:]
        self._drop(dead)
        for r in dead:
            self._temps.discard(r)
            self._free.append(r)
        del self._live[mark:]

    def _top_level(self, body: Sequence[N.Stmt]) -> None:
        """Lower the function body, dropping each variable after the
        last top-level statement that mentions it.  Nothing loops back
        over top-level statements, so no later code can read it.  The
        drop lists are known only at the end: each statement gets an
        ``OP_DROPL`` whose list is appended after the code."""
        uses: List[Set[str]] = []
        slots: List[int] = []

        def track(lower) -> None:
            self._uses = set()
            lower()
            uses.append(self._uses)
            slots.append(self._op(OP_DROPL, -1) + 1)

        for s in body:
            track(lambda s=s: self.stmt(s))
        if not body or not isinstance(body[-1], (N.Return, N.ReturnTuple)):
            track(lambda: self._emit_return([self._load(None, KN, None)]))
        last = {name: i for i, names in enumerate(uses) for name in names}
        for i, slot in enumerate(slots):
            regs = sorted(self.names[n] for n in uses[i] if last[n] == i)
            self.code[slot] = len(self.code)
            self.code.extend([len(regs), *regs])

    def _stmt(self, s: N.Stmt) -> None:
        if isinstance(s, N.VarDecl):
            var = self._var(s.name)
            if s.init is None:
                self._load(0.0, KF, var)
                return
            if s.dtype in _FLOAT_DTYPES:
                v = self.expr(s.init)
                self._round(self._round_site("decl", s), v, var)
            else:
                self.expr(s.init, dst=var)
            self._emit_charge("decl", s)
        elif isinstance(s, N.Assign):
            self._store(s.target, s.value)
            self._emit_charge("store", s)
        elif isinstance(s, N.If):
            self._emit_charge("if", s)
            self._if(s)
        elif isinstance(s, N.For):
            self._for(s)
        elif isinstance(s, N.While):
            self._while(s)
        elif isinstance(s, N.Break):
            if self.mask is not None or not self._loops:
                raise UnvectorizableError(f"{self.fn.name}: masked break")
            self._loops[-1].append(self._op(OP_JMP, -1) + 1)
        elif isinstance(s, N.Return):
            self._emit_return([self.expr(s.value)])
        elif isinstance(s, N.ReturnTuple):
            self._emit_return([self.expr(v) for v in s.values])
        elif isinstance(s, N.ExprStmt):
            self.expr(s.value)
        elif isinstance(s, N.Push):
            self._op(OP_PUSH, self._stack(s.stack), self.expr(s.value))
        elif isinstance(s, N.Pop):
            if not isinstance(s.target, N.Name):
                raise UnvectorizableError(f"{self.fn.name}: pop into array")
            var = self._var(s.target.id)
            if self.mask is None:
                self._op(OP_POP, var, self._stack(s.stack))
            else:
                t = self._temp()
                self._op(OP_POP, t, self._stack(s.stack))
                self._blend(var, t)
        elif isinstance(s, N.PopDiscard):
            self._op(OP_POP, -1, self._stack(s.stack))
        else:
            raise NativeUnsupported(type(s).__name__)

    def _stack(self, name: str) -> int:
        return self.stack_ids.setdefault(name, len(self.stack_ids))

    def _patch(self, slot: int, target: Optional[int] = None) -> None:
        self.code[slot] = len(self.code) if target is None else target

    # -- control flow -------------------------------------------------------
    def _if(self, s: N.If) -> None:
        if not self.expr_tainted(s.cond):
            # lane-uniform condition: a real branch
            jf = self._op(OP_JF, self.expr(s.cond), -1)
            self.body(s.then)
            if s.orelse:
                jmp = self._op(OP_JMP, -1)
                self._patch(jf + 2)
                self.body(s.orelse)
                self._patch(jmp + 1)
            else:
                self._patch(jf + 2)
            return
        has_pop = _subtree_has([s], (N.Pop, N.PopDiscard))
        if has_pop and _subtree_has([s], (N.Push,)):
            raise UnvectorizableError(
                f"{self.fn.name}: branch mixes tape pushes and pops"
            )
        # masks live across the branch bodies: dedicated registers
        cond = self._new_reg()
        self.expr(s.cond, dst=cond)
        parent = self.mask
        then_mask = cond
        if parent is not None:
            then_mask = self._new_reg()
            self._op(OP_AND, then_mask, parent, cond)
        blocks: List[Tuple[int, Sequence[N.Stmt]]] = [(then_mask, s.then)]
        if s.orelse:
            else_mask = self._new_reg()
            self._op(OP_NOT, else_mask, cond)
            if parent is not None:
                self._op(OP_AND, else_mask, parent, else_mask)
            blocks.append((else_mask, s.orelse))
        if has_pop:
            blocks.reverse()  # the forward sweep pushed then-values first
        for mask, block in blocks:
            self.mask = mask  # type: ignore[assignment]
            self.masked_body(block)
        self.mask = parent
        self._drop(sorted({cond, *(m for m, _ in blocks)}))

    def _for(self, s: N.For) -> None:
        if self.mask is not None or any(
            self.expr_tainted(e) for e in (s.lo, s.hi, s.step)
        ):
            raise UnvectorizableError(
                f"{self.fn.name}: lane-dependent loop"
            )
        lo, hi, step = self.expr(s.lo), self.expr(s.hi), self.expr(s.step)
        h = self.nregs
        self.nregs += 3  # cursor, bound, step
        self._op(OP_FORPREP, h, lo, hi, step)
        top = self._op(OP_FORNEXT, self._var(s.var), h, -1)
        self._loops.append([top + 3])
        if self.counting:
            one = self._load(1.0, KF, None)
            cost = self._var("_cost")
            self._op(OP_ADD, cost, cost, one)
        self.body(s.body)
        self._op(OP_JMP, top)
        for slot in self._loops.pop():
            self._patch(slot)

    def _while(self, s: N.While) -> None:
        if self.mask is not None or self.expr_tainted(s.cond):
            raise UnvectorizableError(
                f"{self.fn.name}: lane-dependent while condition"
            )
        top = len(self.code)
        jf = self._op(OP_JF, self.expr(s.cond), -1)
        self._loops.append([jf + 2])
        self._emit_charge("while", s)
        self.body(s.body)
        self._op(OP_JMP, top)
        for slot in self._loops.pop():
            self._patch(slot)

    # -- function -------------------------------------------------------------
    def _emit_return(  # type: ignore[override]
        self, values: List[int]
    ) -> None:
        if self.mask is not None:
            raise UnvectorizableError(
                f"{self.fn.name}: return under a data-dependent branch"
            )
        regs = list(values)
        if self.counting:
            regs.append(self._var("_cost"))
        self.max_ret = max(self.max_ret, len(regs))
        self._op(OP_RET, len(regs), *regs)

    def emit(self) -> None:
        """Lower the whole function into :attr:`code`."""
        body = self.fn.body
        if any(isinstance(s, N.TraceAppend) for s in walk_stmts(body)):
            raise NativeUnsupported("sensitivity traces")
        self._prologue()
        self._top_level(body)

    def _prologue(self) -> None:
        if self.counting:
            self._load(0.0, KF, self._var("_cost"))
        for p in self.fn.params:
            if isinstance(p.type, ArrayType):
                continue
            if p.type.dtype in _FLOAT_DTYPES:
                reg = self.names[p.name]
                self._round(self._round_site("param", p), reg, reg)


def worth_lowering(fn: N.Function) -> bool:
    """Whether ``fn`` runs on the native engine at all.

    Lowering costs Python work per IR operation, once per compiled
    kernel; a native call saves the numpy path's dispatch once per
    *executed* operation.  Only a loop executes operations more than
    once per call, so only kernels with one repay their lowering within
    a search.  Straight-line kernels stay on the numpy path by choice:
    their calls are not fallbacks.
    """
    return _subtree_has(fn.body, (N.For, N.While))


def _same_sites(mine: Sequence[object], theirs: Sequence[object]) -> bool:
    """Same site kinds on the very same IR nodes, in the same order."""
    return len(mine) == len(theirs) and all(
        a.kind == b.kind and a.node is b.node  # type: ignore[attr-defined]
        for a, b in zip(mine, theirs)
    )


def lower(
    program: ConfigLaneProgram, approx: Optional[Set[str]] = None
) -> Optional["NativeKernel"]:
    """Lower a rendered config-lane program for the interpreter.

    Returns ``None`` when the kernel must stay on the numpy path: the
    library is unavailable on this machine, or the kernel uses a
    construct the interpreter does not cover.
    """
    if library() is None:
        return None
    gen = _LaneLowering(program, approx)
    try:
        gen.emit()
    except NativeUnsupported:
        return None
    # same traversal, same sites: pools lowered for the numpy program
    # specialise the bytecode unchanged
    assert _same_sites(gen.round_sites, program.round_sites)
    assert _same_sites(gen.charge_sites, program.charge_sites)
    assert len(gen.const_sites) == len(program.const_sites) and all(
        a is b for a, b in zip(gen.const_sites, program.const_sites)
    )
    return NativeKernel(gen)


class _BatchLowering(_LaneLowering):
    """Bytecode twin of ``_BatchGen``: an input-sweep batch kernel.

    One lane per input point and no lane parameters: rounding is static
    and placed by ``_BatchGen``'s own ``result_cast``/``store_cast``
    rules, float constants are immediates, and only the swept
    parameters taint branches.
    """

    def __init__(
        self,
        fn: N.Function,
        batched: Set[str],
        allow_arrays: bool = False,
        taint: Optional[Tuple[Set[str], Set[str]]] = None,
    ) -> None:
        _BatchGen.__init__(
            self, fn, set(batched), allow_arrays=allow_arrays, taint=taint
        )
        self.counting = False
        self.var_baseline = {}
        self.round_sites, self.charge_sites, self.const_sites = [], [], []
        self._init_code(fn, None)

    def expr(  # type: ignore[override]
        self, e: N.Expr, dst: Optional[int] = None
    ) -> int:
        dt = self.result_cast(e)
        if dt is None:
            return self._expr_raw(e, dst)
        raw = self._expr_raw(e)
        d = self._out(dst)
        self._op(_CASTS[dt], d, raw)
        return d

    def _expr_raw(  # type: ignore[override]
        self, e: N.Expr, dst: Optional[int] = None
    ) -> int:
        if isinstance(e, N.Const) and isinstance(e.value, float):
            return self._load(e.value, KF, dst)
        if isinstance(e, N.Index):
            raise UnvectorizableError(f"{self.fn.name}: array indexing")
        return super()._expr_raw(e, dst)

    def _store(  # type: ignore[override]
        self, target: N.LValue, value: N.Expr
    ) -> None:
        if not isinstance(target, N.Name):
            raise UnvectorizableError(f"{self.fn.name}: array store")
        tdt = self.store_cast(target, value)
        var = self._var(target.id)
        if self.mask is None and tdt is None:
            self.expr(value, dst=var)
            return
        v = self.expr(value)
        if tdt is not None:
            c = var if self.mask is None else self._temp()
            self._op(_CASTS[tdt], c, v)
            v = c
        if self.mask is not None:
            self._blend(var, v)

    def _stmt(self, s: N.Stmt) -> None:
        if isinstance(s, N.VarDecl) and s.init is not None:
            # declarations are never blended (see _BatchGen.stmt)
            target = N.Name(s.name)
            target.dtype = s.dtype
            saved, self.mask = self.mask, None
            self._store(target, s.init)
            self.mask = saved
            return
        super()._stmt(s)

    def _prologue(self) -> None:
        pass  # the caller rounds parameters; nothing is counted


def lower_batch(
    fn: N.Function, batched: Set[str]
) -> Optional["NativeKernel"]:
    """Lower the input-sweep batch kernel ``generate_batch_source(fn,
    batched)`` renders, or ``None`` (see :func:`lower`)."""
    if library() is None:
        return None
    gen = _BatchLowering(fn, batched)
    try:
        gen.emit()
    except NativeUnsupported:
        return None
    return NativeKernel(gen)


class _ScalarLowering(_BatchLowering):
    """Bytecode twin of ``pygen``'s rendering: the scalar adjoint
    behind ``ErrorEstimator.execute``, for ``lanevm_run1``.

    The batch traversal with nothing swept, so every branch is a real
    jump and rounding is ``_BatchGen``'s static casts (the ones
    ``pygen`` places), plus what only the scalar path has: reads and
    writes of parameter-array elements and pops into them.
    """

    def __init__(self, fn: N.Function) -> None:
        super().__init__(fn, set(), allow_arrays=True, taint=(set(), set()))

    def _expr_raw(  # type: ignore[override]
        self, e: N.Expr, dst: Optional[int] = None
    ) -> int:
        if isinstance(e, N.Index):
            return _LaneLowering._expr_raw(self, e, dst)
        return super()._expr_raw(e, dst)

    def _array(self, target: N.Index) -> int:
        if target.base not in self.arrays:
            raise NativeUnsupported(f"local array {target.base!r}")
        return self.arrays[target.base]

    def _store(  # type: ignore[override]
        self, target: N.LValue, value: N.Expr
    ) -> None:
        if isinstance(target, N.Name):
            super()._store(target, value)
            return
        v = self.expr(value)
        tdt = self.store_cast(target, value)  # type: ignore[arg-type]
        if tdt is not None:
            c = self._temp()
            self._op(_CASTS[tdt], c, v)
            v = c
        self._op(OP_STX, self._array(target), self.expr(target.index), v)

    def _stmt(self, s: N.Stmt) -> None:
        if isinstance(s, N.Pop) and isinstance(s.target, N.Index):
            t = self._temp()
            self._op(OP_POP, t, self._stack(s.stack))
            idx = self.expr(s.target.index)
            self._op(OP_STX, self._array(s.target), idx, t)
            return
        super()._stmt(s)

    # registers hold no buffers here: nothing to drop
    def _drop(self, regs: Sequence[int]) -> None:
        pass

    def _top_level(self, body: Sequence[N.Stmt]) -> None:
        self.body(body)
        if not body or not isinstance(body[-1], (N.Return, N.ReturnTuple)):
            self._emit_return([self._load(None, KN, None)])


def lower_scalar(fn: N.Function) -> Optional["ScalarKernel"]:
    """Lower the scalar function ``generate_source(fn)`` renders for the
    one-lane loop, or ``None`` (see :func:`lower`)."""
    if library() is None:
        return None
    gen = _ScalarLowering(fn)
    try:
        gen.emit()
    except NativeUnsupported:
        return None
    return ScalarKernel(gen)


def run(kernel: Optional[object], *call: object) -> Tuple[bool, object]:
    """Run ``kernel`` natively if it can, counting the outcome: ``(True,
    result)``, or ``(False, None)`` when the caller must take the numpy
    or Python path (no native kernel, or a call to replay there).
    ``call`` is what the kernel's ``run`` takes."""
    if kernel is not None:
        done, result = kernel.run(*call)  # type: ignore[attr-defined]
        if done:
            NATIVE_RUNS.inc()
            return True, result
    NATIVE_FALLBACKS.inc()
    return False, None


def _kind_of(v: object) -> int:
    """Value kind of one scalar argument, or -1 if not supported."""
    if isinstance(v, bool):
        return KB
    if isinstance(v, (int, np.integer)):
        return KI if abs(int(v)) < _INT_LIMIT else -1
    if isinstance(v, float):  # np.float64 included
        return KF
    return -1


_ARRAY_KINDS = {"f": KF, "i": KI, "u": KI, "b": KB}


class _PackedPool:
    """A lowered pool's lane parameters as interpreter buffers."""

    __slots__ = ("sel", "sel_on", "cs", "cs_row", "ch", "ch_row")

    def __init__(self, pool) -> None:
        k = pool.k
        self.sel = np.zeros((max(len(pool.selectors), 1), k), np.uint8)
        self.sel_on = np.zeros(max(len(pool.selectors), 1), np.uint8)
        for i, s in enumerate(pool.selectors):
            if s is not None:
                self.sel[i] = s.codes.reshape(k)
                self.sel_on[i] = 1
        self.cs, self.cs_row = self._rows(pool.consts, k)
        self.ch, self.ch_row = self._rows(pool.charges, k)

    @staticmethod
    def _rows(values: Sequence[object], k: int):
        vals = np.zeros((max(len(values), 1), k), np.float64)
        row = np.zeros(max(len(values), 1), np.uint8)
        for i, v in enumerate(values):
            if isinstance(v, np.ndarray):
                vals[i] = v.reshape(k)
                row[i] = 1
            else:
                vals[i, 0] = v
        return vals, row


class _NoLanes:
    """The lane parameters of a batch kernel: one lane, no sites."""

    k = 1
    selectors: List[object] = []
    consts: List[object] = []
    charges: List[object] = []
    packed: Optional[_PackedPool] = None


_NO_LANES = _NoLanes()


class NativeKernel:
    """Bytecode of one lane kernel plus its calling convention."""

    def __init__(self, gen: _LaneLowering) -> None:
        self.fn_name = gen.fn.name
        self.params = gen.fn.params
        self.array_params = set(gen.arrays.values())
        self.n_sites = (
            len(gen.round_sites), len(gen.const_sites), len(gen.charge_sites)
        )
        self.code = np.asarray(gen.code, dtype=np.int32)
        self.imm = np.asarray(gen.imm or [0.0], dtype=np.float64)
        self.imm_kind = np.asarray(gen.imm_kind or [0], dtype=np.int8)
        self.nregs = gen.nregs
        self.nstacks = len(gen.stack_ids)
        self.max_ret = gen.max_ret

    def _pack(self, pool) -> Optional[_PackedPool]:
        if pool is None:
            pool = _NO_LANES
        packed = pool.packed
        if packed is None:
            if (
                len(pool.selectors), len(pool.consts), len(pool.charges)
            ) != self.n_sites:
                return None
            packed = pool.packed = _PackedPool(pool)
        return packed

    def _marshal(self, args: Sequence[object]):
        """Parameter descriptors and data, the input width N, or
        ``None`` for arguments the numpy path must handle."""
        if len(args) != len(self.params):
            return None
        desc = np.zeros((max(len(args), 1), 4), np.int64)
        chunks: List[np.ndarray] = []
        kinds: List[np.ndarray] = []
        columns: List[np.ndarray] = []  # read in place: keep them alive
        off = 0
        n = None
        for i, a in enumerate(args):
            if i in self.array_params:
                if not isinstance(a, list):
                    return None
                ek = np.fromiter(
                    (_kind_of(x) for x in a), np.int8, count=len(a)
                )
                if (ek < 0).any():
                    return None
                data = np.asarray(a, dtype=np.float64).reshape(-1)
                desc[i] = (2, 0, off, len(a))
            elif isinstance(a, np.ndarray):
                kind = _ARRAY_KINDS.get(a.dtype.kind, -1)
                if (
                    a.ndim != 1
                    or kind < 0
                    or (a.dtype.kind == "f" and a.dtype != np.float64)
                    or (n is not None and len(a) != n)
                ):
                    return None
                col = np.ascontiguousarray(a, dtype=np.float64)
                if kind == KI and len(a) and np.abs(col).max() >= _INT_LIMIT:
                    return None
                n = len(a)
                columns.append(col)
                desc[i] = (1, kind, col.ctypes.data, len(a))
                continue
            else:
                kind = _kind_of(a)
                if kind < 0:
                    return None
                data = np.array([float(a)])  # type: ignore[arg-type]
                desc[i] = (0, kind, off, 1)
                ek = np.zeros(1, np.int8)
            chunks.append(data)
            kinds.append(ek)
            off += len(data)
        if n == 0:
            return None
        pdata = np.concatenate(chunks) if chunks else np.zeros(1)
        pekind = np.concatenate(kinds) if kinds else np.zeros(1, np.int8)
        return desc, pdata, pekind, columns, (1 if n is None else n)

    def run(self, pool, args: Sequence[object]) -> Tuple[bool, object]:
        """Execute on all lanes: ``(True, result)``, or ``(False,
        None)`` when the call must run on the numpy path instead.
        ``pool`` is ``None`` for a batch kernel (one lane per point)."""
        lib = library()
        packed = self._pack(pool)
        marshalled = self._marshal(args) if packed is not None else None
        if lib is None or marshalled is None:
            return False, None
        desc, pdata, pekind, columns, n = marshalled
        k = 1 if pool is None else pool.k
        hdr = np.array(
            [self.nregs, k, n, len(self.params), self.nstacks], np.int64
        )
        out = np.empty(self.max_ret, np.float64)
        meta = np.zeros(1 + 4 * self.max_ret, np.int64)
        status = lib.lanevm_run(
            self.code.ctypes.data, self.imm.ctypes.data,
            self.imm_kind.ctypes.data, hdr.ctypes.data, desc.ctypes.data,
            pdata.ctypes.data, pekind.ctypes.data, packed.sel.ctypes.data,
            packed.sel_on.ctypes.data, packed.cs.ctypes.data,
            packed.cs_row.ctypes.data, packed.ch.ctypes.data,
            packed.ch_row.ctypes.data, out.ctypes.data, meta.ctypes.data,
        )
        del columns  # read in place by the call above
        # adopt every handed-over buffer before looking at the status
        values = [
            _result(lib, out[j], meta[1 + 4 * j: 5 + 4 * j].tolist(), k, n)
            for j in range(int(meta[0]))
        ]
        if status != 0:
            return False, None
        return True, values[0] if len(values) == 1 else tuple(values)


def _result(lib, scalar: float, meta: List[int], k: int, n: int) -> object:
    """One returned value as the numpy path would hold it."""
    kind, hk, hn, ptr = meta
    if kind == KN:
        return None
    if not ptr:
        return (float, int, bool)[kind](scalar)
    shape = (k, n) if hk and hn else (k, 1) if hk else (n,)
    size = shape[0] * (shape[1] if len(shape) > 1 else 1)
    buf = (ctypes.c_double * size).from_address(ptr)
    v = np.frombuffer(buf, dtype=np.float64)
    if kind == KF:
        # the array owns the interpreter's buffer from here on
        weakref.finalize(v, lib.lanevm_free, ptr)
        return v.reshape(shape)
    out = v.astype(np.int64 if kind == KI else bool).reshape(shape)
    lib.lanevm_free(ptr)
    return out


# -- the one-lane loop ---------------------------------------------------

#: scalar argument kinds, by exact type: a float subclass such as
#: np.float64 computes with numpy's semantics in Python, so it stays there
_SCALAR_KINDS = {float: KF, int: KI, bool: KB}
#: array dtypes by kind; float widths up to double widen exactly
_ARRAY_DTYPE_KINDS = {"f": KF, "i": KI, "u": KI, "b": KB}
_PY_TYPES = (float, int, bool, lambda v: None)


def _marshal_array(a: object) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """A private copy of a 1-D ndarray parameter as (values, kinds), the
    elements its ``tolist()`` would give the Python path; ``None`` for
    anything else (lists included, and read-only arrays, which the
    Python path's write-back rejects)."""
    if not isinstance(a, np.ndarray) or a.ndim != 1 or not a.flags.writeable:
        return None
    kind = _ARRAY_DTYPE_KINDS.get(a.dtype.kind)
    if kind is None or a.dtype.itemsize > 8:
        return None
    values = a.astype(np.float64)
    if kind == KI and len(a) and np.abs(values).max() >= _INT_LIMIT:
        return None
    return values, np.full(len(a), kind, np.int8)


class ScalarKernel:
    """Bytecode of one scalar function plus its calling convention."""

    def __init__(self, gen: _ScalarLowering) -> None:
        self.n_params = len(gen.fn.params)
        self.array_params = frozenset(gen.arrays.values())
        self.code = np.asarray(gen.code, dtype=np.int32)
        self.imm = np.asarray(gen.imm or [0.0], dtype=np.float64)
        self.imm_kind = np.asarray(gen.imm_kind or [0], dtype=np.int8)
        self.hdr = np.array(
            [gen.nregs, self.n_params, len(gen.stack_ids)], np.int64
        )
        self.max_ret = gen.max_ret

    def run(self, args: Sequence[object]) -> Tuple[bool, object]:
        """Execute with entry-rounded arguments: ``(True, (result,
        tape_bytes))``, ``tape_bytes`` being the high water of the
        tapes, or ``(False, None)`` when the call must run in Python.
        Parameter arrays are written back only on success."""
        lib = library()
        if lib is None or len(args) != self.n_params:
            return False, None
        n = max(self.n_params, 1)
        pval = np.zeros(n, np.float64)
        pkind = np.zeros(n, np.int8)
        ptrs = np.zeros((3, n), np.int64)  # values, kinds, length
        arrays = []
        for i, a in enumerate(args):
            if i in self.array_params:
                copy = _marshal_array(a)
                if copy is None:
                    return False, None
                arrays.append((a, *copy))
                ptrs[:, i] = (copy[0].ctypes.data, copy[1].ctypes.data, len(a))
                continue
            kind = _SCALAR_KINDS.get(type(a))
            if kind is None or (kind == KI and abs(a) >= _INT_LIMIT):
                return False, None
            pval[i] = a
            pkind[i] = kind
        out = np.empty(self.max_ret, np.float64)
        out_kind = np.empty(self.max_ret, np.int8)
        meta = np.zeros(2, np.int64)
        status = lib.lanevm_run1(
            self.code.ctypes.data, self.imm.ctypes.data,
            self.imm_kind.ctypes.data, self.hdr.ctypes.data,
            pval.ctypes.data, pkind.ctypes.data, ptrs[0].ctypes.data,
            ptrs[1].ctypes.data, ptrs[2].ctypes.data, out.ctypes.data,
            out_kind.ctypes.data, meta.ctypes.data,
        )
        if status != 0:
            return False, None
        # Python writes its lists back with `orig[:] = lst`: a float
        # array takes the values as they are; an int or bool array the
        # kernel changed is rare and left to Python, which converts
        for orig, values, _ in arrays:
            if orig.dtype.kind != "f" and not np.array_equal(values, orig):
                return False, None
        for orig, values, _ in arrays:
            if orig.dtype.kind == "f":
                orig[:] = values
        count = int(meta[0])
        result = [
            _PY_TYPES[k](v)
            for v, k in zip(out[:count].tolist(), out_kind[:count].tolist())
        ]
        value = result[0] if count == 1 else tuple(result)
        return True, (value, int(meta[1]))
