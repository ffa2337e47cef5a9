"""Forward/backward dataflow framework over the IR.

The reusable analysis substrate of :mod:`repro.analyze`: statement
indexing, def-use/use-def chains, backward liveness, and the structural
hygiene facts (dead stores, unused parameters, loop-invariant
recomputation) that the lint engine turns into ``RA2xx`` diagnostics.

The IR is structured (no goto, ``break`` only in the guarded-break
pattern), so dataflow runs directly over the tree: straight-line code
is interpreted in order, ``If`` joins its branches, and loop bodies are
iterated to a fixpoint.  All facts are conservative over-approximations
— a *may* analysis for reaching definitions and liveness, a *must*
analysis (err on not reporting) for the hygiene findings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.ir import nodes as N
from repro.ir.types import ArrayType
from repro.ir.visitor import iter_stmt_exprs, walk_expr

#: synthetic def-site index for parameters (no statement defines them)
PARAM_SITE = -1


@dataclass(frozen=True)
class DefSite:
    """One definition of a variable: a statement index plus its kind."""

    index: int
    var: str
    #: ``"param" | "decl" | "assign" | "loop" | "store" | "pop"``
    kind: str
    loc: Optional[int] = None


@dataclass
class Dataflow:
    """Def-use facts of one function (see :func:`analyze_dataflow`)."""

    fn: N.Function
    #: pre-order statement list; indices are the site ids used below
    stmts: List[N.Stmt]
    #: every definition site, by variable
    defs: Dict[str, List[DefSite]] = field(default_factory=dict)
    #: statement indices reading each variable
    uses: Dict[str, List[int]] = field(default_factory=dict)
    #: reaching definitions at each (statement, variable) use
    use_def: Dict[Tuple[int, str], FrozenSet[int]] = field(
        default_factory=dict
    )
    #: variables read by the definitions of each variable
    deps: Dict[str, Set[str]] = field(default_factory=dict)
    #: variables with a def-use path into the return value
    flows_to_return: Set[str] = field(default_factory=set)
    #: statement indices of scalar stores whose value is never read
    dead_stores: List[int] = field(default_factory=list)
    #: parameters never referenced by the body
    unused_params: List[str] = field(default_factory=list)
    #: locals declared but never read
    unused_locals: List[str] = field(default_factory=list)
    #: (statement index, loop statement index) of loop-invariant
    #: assignments recomputed on every iteration
    loop_invariant: List[Tuple[int, int]] = field(default_factory=list)


def stmt_reads(s: N.Stmt) -> Set[str]:
    """Variable (and array-base) names read by one statement."""
    out: Set[str] = set()
    for e in iter_stmt_exprs(s):
        for node in walk_expr(e):
            if isinstance(node, N.Name):
                out.add(node.id)
            elif isinstance(node, N.Index):
                out.add(node.base)
    return out


def stmt_writes(s: N.Stmt) -> Optional[Tuple[str, str]]:
    """The ``(variable, kind)`` a statement defines, if any."""
    if isinstance(s, N.VarDecl):
        return s.name, "decl"
    if isinstance(s, N.Assign):
        if isinstance(s.target, N.Name):
            return s.target.id, "assign"
        return s.target.base, "store"
    if isinstance(s, N.For):
        return s.var, "loop"
    if isinstance(s, N.Pop):
        if isinstance(s.target, N.Name):
            return s.target.id, "pop"
        return s.target.base, "store"
    return None


def index_statements(fn: N.Function) -> List[N.Stmt]:
    """Pre-order statement list; list position is the statement id."""
    out: List[N.Stmt] = []

    def visit(body: Iterable[N.Stmt]) -> None:
        for s in body:
            out.append(s)
            if isinstance(s, (N.For, N.While)):
                visit(s.body)
            elif isinstance(s, N.If):
                visit(s.then)
                visit(s.orelse)

    visit(fn.body)
    return out


class _ReachingDefs:
    """Forward may-analysis: which def sites reach each use."""

    def __init__(self, fn: N.Function, stmts: List[N.Stmt]) -> None:
        self.fn = fn
        self.stmts = stmts
        self.index = {id(s): i for i, s in enumerate(stmts)}
        self.use_def: Dict[Tuple[int, str], Set[int]] = {}
        self.arrays = {
            p.name for p in fn.params if isinstance(p.type, ArrayType)
        }

    def run(self) -> Dict[Tuple[int, str], Set[int]]:
        state: Dict[str, FrozenSet[int]] = {
            p.name: frozenset((PARAM_SITE,)) for p in self.fn.params
        }
        self._body(self.fn.body, state)
        return self.use_def

    def _record_uses(
        self, s: N.Stmt, state: Dict[str, FrozenSet[int]]
    ) -> None:
        i = self.index[id(s)]
        for var in stmt_reads(s):
            key = (i, var)
            reaching = state.get(var, frozenset())
            self.use_def[key] = self.use_def.get(key, set()) | set(reaching)

    def _body(
        self, body: List[N.Stmt], state: Dict[str, FrozenSet[int]]
    ) -> None:
        for s in body:
            self._stmt(s, state)

    def _stmt(self, s: N.Stmt, state: Dict[str, FrozenSet[int]]) -> None:
        i = self.index[id(s)]
        self._record_uses(s, state)
        wrote = stmt_writes(s)
        if isinstance(s, N.If):
            then_state = dict(state)
            else_state = dict(state)
            self._body(s.then, then_state)
            self._body(s.orelse, else_state)
            state.clear()
            state.update(_join_states(then_state, else_state))
            return
        if isinstance(s, (N.For, N.While)):
            if isinstance(s, N.For):
                state[s.var] = frozenset((i,))
            # loop fixpoint: iterate the body, joining with the state
            # before the loop (zero-trip case), until nothing changes
            while True:
                inner = dict(state)
                self._body(s.body, inner)
                merged = _join_states(state, inner)
                if merged == state:
                    break
                state.clear()
                state.update(merged)
            return
        if wrote is not None:
            var, kind = wrote
            if kind == "store":
                # weak update: other elements' stores stay visible
                state[var] = state.get(var, frozenset()) | {i}
            else:
                state[var] = frozenset((i,))


def _join_states(
    a: Dict[str, FrozenSet[int]], b: Dict[str, FrozenSet[int]]
) -> Dict[str, FrozenSet[int]]:
    out: Dict[str, FrozenSet[int]] = {}
    for var in set(a) | set(b):
        out[var] = a.get(var, frozenset()) | b.get(var, frozenset())
    return out


class _Liveness:
    """Backward liveness with dead-store recording on the stable pass."""

    def __init__(self, fn: N.Function, stmts: List[N.Stmt]) -> None:
        self.fn = fn
        self.stmts = stmts
        self.index = {id(s): i for i, s in enumerate(stmts)}
        self.arrays = {
            p.name for p in fn.params if isinstance(p.type, ArrayType)
        }
        self.dead_stores: List[int] = []

    def run(self) -> None:
        # arrays are passed by reference: their final contents are
        # observable by the caller, so array params are live at exit
        exit_live: Set[str] = set(self.arrays)
        self._body(self.fn.body, exit_live, record=True)

    def _body(
        self, body: List[N.Stmt], live: Set[str], record: bool
    ) -> Set[str]:
        for s in reversed(body):
            live = self._stmt(s, live, record)
        return live

    def _stmt(
        self, s: N.Stmt, live: Set[str], record: bool
    ) -> Set[str]:
        reads = stmt_reads(s)
        if isinstance(s, N.If):
            out_then = self._body(s.then, set(live), record)
            out_else = self._body(s.orelse, set(live), record)
            return out_then | out_else | reads
        if isinstance(s, (N.For, N.While)):
            # fixpoint: anything live after the loop or read by a later
            # iteration is live throughout the body
            out = set(live) | reads
            while True:
                new = self._body(s.body, set(out), record=False) | out
                if new <= out:
                    break
                out |= new
            if record:
                self._body(s.body, set(out), record=True)
            if isinstance(s, N.For):
                out.discard(s.var)
            return out | reads | live
        wrote = stmt_writes(s)
        if wrote is not None:
            var, kind = wrote
            if kind in ("assign", "decl", "pop"):
                if (
                    record
                    and kind == "assign"
                    and var not in live
                    and var not in self.arrays
                ):
                    self.dead_stores.append(self.index[id(s)])
                live = set(live)
                live.discard(var)
                return live | reads
            # array store: weak update, the base stays live
            return set(live) | reads | {var}
        return set(live) | reads


def _walk(body: List[N.Stmt]) -> Iterable[N.Stmt]:
    for s in body:
        yield s
        if isinstance(s, (N.For, N.While)):
            yield from _walk(s.body)
        elif isinstance(s, N.If):
            yield from _walk(s.then)
            yield from _walk(s.orelse)


def _defined_in(body: List[N.Stmt]) -> Set[str]:
    """Variables (weakly) defined anywhere inside a statement list."""
    out: Set[str] = set()

    def visit(stmts: List[N.Stmt]) -> None:
        for s in stmts:
            wrote = stmt_writes(s)
            if wrote is not None:
                out.add(wrote[0])
            if isinstance(s, (N.For, N.While)):
                visit(s.body)
            elif isinstance(s, N.If):
                visit(s.then)
                visit(s.orelse)

    visit(body)
    return out


def _is_computation(e: N.Expr) -> bool:
    """Whether re-evaluating ``e`` each iteration costs real work."""
    return any(
        isinstance(n, (N.BinOp, N.Call)) for n in walk_expr(e)
    )


class _LoopInvariants:
    """Flag assignments recomputing a loop-invariant value."""

    def __init__(self, fn: N.Function, stmts: List[N.Stmt]) -> None:
        self.fn = fn
        self.stmts = stmts
        self.index = {id(s): i for i, s in enumerate(stmts)}
        self.found: List[Tuple[int, int]] = []

    def run(self) -> List[Tuple[int, int]]:
        self._body(self.fn.body, loops=[])
        return self.found

    def _body(
        self,
        body: List[N.Stmt],
        loops: List[Tuple[int, Set[str], List[N.Stmt]]],
    ) -> None:
        for s in body:
            if isinstance(s, (N.For, N.While)):
                defined = _defined_in(s.body)
                if isinstance(s, N.For):
                    defined.add(s.var)
                self._body(
                    s.body,
                    loops + [(self.index[id(s)], defined, s.body)],
                )
            elif isinstance(s, N.If):
                self._body(s.then, loops)
                self._body(s.orelse, loops)
            elif loops and isinstance(s, (N.Assign, N.VarDecl)):
                self._check(s, loops)

    def _check(
        self,
        s: N.Stmt,
        loops: List[Tuple[int, Set[str], List[N.Stmt]]],
    ) -> None:
        value = s.value if isinstance(s, N.Assign) else s.init
        if value is None or not _is_computation(value):
            return
        if isinstance(s, N.Assign) and not isinstance(s.target, N.Name):
            return
        reads = set()
        for node in walk_expr(value):
            if isinstance(node, N.Name):
                reads.add(node.id)
            elif isinstance(node, N.Index):
                # array contents may change between iterations even if
                # the base name has no loop-local def — be conservative
                return
        loop_idx, defined, loop_body = loops[-1]
        target = s.name if isinstance(s, N.VarDecl) else s.target.id
        if reads & defined or target in reads:
            return
        # the target must be defined exactly this once inside the loop
        # — a second def means the value genuinely changes per iteration
        n_defs = sum(
            1
            for inner in _walk(loop_body)
            for wrote in (stmt_writes(inner),)
            if wrote is not None and wrote[0] == target
        )
        if n_defs != 1:
            return
        self.found.append((self.index[id(s)], loop_idx))


def analyze_dataflow(fn: N.Function) -> Dataflow:
    """Compute the full def-use fact base for one function."""
    stmts = index_statements(fn)
    df = Dataflow(fn=fn, stmts=stmts)
    for pos, p in enumerate(fn.params):
        df.defs.setdefault(p.name, []).append(
            DefSite(index=PARAM_SITE - pos, var=p.name, kind="param")
        )
    for i, s in enumerate(stmts):
        wrote = stmt_writes(s)
        if wrote is not None:
            var, kind = wrote
            df.defs.setdefault(var, []).append(
                DefSite(index=i, var=var, kind=kind, loc=s.loc)
            )
            if kind != "loop":
                df.deps.setdefault(var, set()).update(stmt_reads(s))
        for var in stmt_reads(s):
            df.uses.setdefault(var, []).append(i)
    reaching = _ReachingDefs(fn, stmts).run()
    df.use_def = {k: frozenset(v) for k, v in reaching.items()}
    live = _Liveness(fn, stmts)
    live.run()
    df.dead_stores = sorted(live.dead_stores)
    df.loop_invariant = _LoopInvariants(fn, stmts).run()
    # transitive closure: variables feeding the return value
    ret_reads: Set[str] = set()
    for s in stmts:
        if isinstance(s, (N.Return, N.ReturnTuple)):
            ret_reads |= stmt_reads(s)
    frontier = set(ret_reads)
    flows = set(ret_reads)
    while frontier:
        nxt: Set[str] = set()
        for var in frontier:
            for dep in df.deps.get(var, ()):
                if dep not in flows:
                    flows.add(dep)
                    nxt.add(dep)
        frontier = nxt
    df.flows_to_return = flows
    referenced = set(df.uses)
    for s in stmts:
        wrote = stmt_writes(s)
        if wrote is not None and wrote[1] == "store":
            referenced.add(wrote[0])
    df.unused_params = [
        p.name for p in fn.params if p.name not in referenced
    ]
    df.unused_locals = sorted(
        var
        for var, sites in df.defs.items()
        if var not in df.uses
        and var not in {p.name for p in fn.params}
        and all(site.kind == "decl" for site in sites)
    )
    return df
