"""The :class:`AnalysisReport`: one kernel's static-analysis facts.

``analyze_kernel()`` runs the whole pipeline — dataflow, interval
ranges, sensitivity, lint — and folds the per-IR-variable facts back
onto *source-level* names (inlined callee locals like ``expin_in1``
join their source variable ``expin``; compiler registers are dropped),
so the report speaks the same vocabulary as the precision search's
candidate space.

From the folded facts the report derives the two pruning sets:

* **pinned** — variables a demotion to ``demote_to`` would statically
  break: their value range overflows the target's finite range, or the
  static demotion-error estimate exceeds the error budget by
  :data:`PIN_MARGIN`;
* **safe** — variables with *zero* amplification to any kernel output
  and no influence on control flow or addressing: demoting them cannot
  change results, so the search need not spend evaluations on them.

``prune_candidates()`` applies both sets to a search candidate list.
The contract is conservative by construction — see the README's
"Static analysis" section for when pruning can and cannot change the
Pareto front.
"""

from __future__ import annotations

import hashlib
import json
import re
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.analyze.dataflow import Dataflow, analyze_dataflow
from repro.analyze.lint import Diagnostic, build_diagnostics, render_text
from repro.analyze.ranges import (
    FINITE_MAX,
    Interval,
    RangeResult,
    _json_float,
    analyze_ranges,
    derive_domains,
)
from repro.analyze.sensitivity import (
    SensitivityResult,
    analyze_sensitivity,
)
from repro.ir import nodes as N
from repro.ir.fingerprint import ir_fingerprint
from repro.ir.typecheck import collect_var_dtypes
from repro.ir.types import DType
from repro.ir.visitor import walk_expr, walk_stmts
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

#: a variable is pinned on estimated error only when the optimistic
#: static estimate exceeds the error budget by this factor — the wide
#: margin keeps the (heuristic, first-order) estimate from pruning
#: configurations a real evaluation would have accepted
PIN_MARGIN = 10.0

#: estimate-based pinning applies only to loop accumulators — variables
#: written at least this many times per call.  For straight-line
#: variables a demotion costs a single rounding, and the worst-path
#: amplification bound is dominated by interval decorrelation (the
#: bound multiplies per-op corner cases that cannot co-occur), so a
#: static estimate there is evidence of nothing; accumulators are where
#: the sqrt-of-writes rounding model is actually calibrated
ACCUM_MIN_WRITES = 8.0

#: inlining suffixes appended to callee locals (possibly stacked) —
#: mirrors the folding in repro.search.api._derive_candidates; the two
#: must agree for pruning to address the same candidate space
_INLINE_SUFFIX = re.compile(r"(?:_in\d+)+$")


def fold_name(var: str) -> Optional[str]:
    """Source-level name of an IR variable (``None`` for registers)."""
    if var.startswith("_"):
        return None
    return _INLINE_SUFFIX.sub("", var)


def _digest(payload: Dict[str, object]) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class AnalysisReport:
    """Everything the static analysis learned about one kernel."""

    kernel: str
    ir_fingerprint: str
    demote_to: str
    threshold: Optional[float]
    #: per source-level variable: joined value range
    ranges: Dict[str, Interval]
    #: per source-level variable: worst-path output amplification
    amp: Dict[str, float]
    #: per source-level variable: estimated writes per call
    writes: Dict[str, float]
    #: per source-level variable: static demotion-error estimate per
    #: target dtype (absent when unbounded)
    err_estimate: Dict[str, Dict[str, float]]
    diagnostics: List[Diagnostic]
    #: source-level variables statically unsafe to demote
    pinned: Tuple[str, ...]
    #: source-level variables statically proven demotion-safe
    safe: Tuple[str, ...]
    #: whether the abstract interpreter hit its step budget (ranges are
    #: maximally coarse past the cut-off)
    widened: bool
    wall_time: float = 0.0
    #: session provenance, stamped by :class:`repro.session.Session`
    provenance: Optional[Dict[str, object]] = field(default=None)

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        d = self._digest_payload()
        d["digest"] = _digest(d)
        d["wall_time"] = self.wall_time
        d["provenance"] = self.provenance
        return d

    def digest(self) -> str:
        """Content digest of the analysis facts.

        Excludes wall time and provenance so the digest identifies
        *what was concluded*, not when or by which session — it is
        folded into search run keys when pruning is enabled.
        """
        return _digest(self._digest_payload())

    def _digest_payload(self) -> Dict[str, object]:
        d = {
            "kernel": self.kernel,
            "ir_fingerprint": self.ir_fingerprint,
            "demote_to": self.demote_to,
            "threshold": self.threshold,
            "ranges": {
                v: iv.to_dict() for v, iv in sorted(self.ranges.items())
            },
            "amp": {
                v: _json_float(a) for v, a in sorted(self.amp.items())
            },
            "writes": {
                v: _json_float(w)
                for v, w in sorted(self.writes.items())
            },
            "err_estimate": {
                v: dict(e)
                for v, e in sorted(self.err_estimate.items())
            },
            "diagnostics": [x.to_dict() for x in self.diagnostics],
            "pinned": list(self.pinned),
            "safe": list(self.safe),
            "widened": self.widened,
        }
        return d

    # -- presentation --------------------------------------------------------
    def render(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"analyze({self.kernel}): {len(self.diagnostics)} "
            f"finding(s), demote_to={self.demote_to}"
            + (
                f", threshold={self.threshold:g}"
                if self.threshold is not None
                else ""
            )
        ]
        if self.widened:
            lines.append(
                "  (note: abstract interpretation hit its step budget; "
                "ranges are coarse)"
            )
        for var in sorted(self.ranges):
            iv = self.ranges[var]
            bits = [f"  {var}: range [{iv.lo:.6g}, {iv.hi:.6g}]"]
            if var in self.amp:
                bits.append(f"amp {self.amp[var]:.3g}")
            if var in self.writes:
                bits.append(f"writes {self.writes[var]:.3g}")
            est = self.err_estimate.get(var, {}).get(self.demote_to)
            if est is not None:
                bits.append(f"est[{self.demote_to}] {est:.3g}")
            lines.append(", ".join(bits))
        if self.pinned:
            lines.append(f"pinned (keep f64): {', '.join(self.pinned)}")
        if self.safe:
            lines.append(
                f"demotion-safe: {', '.join(self.safe)}"
            )
        lines.append(render_text(self.diagnostics, self.kernel))
        return "\n".join(lines)


def _as_ir(k: object) -> N.Function:
    ir = getattr(k, "ir", None)
    if isinstance(ir, N.Function):
        return ir
    if isinstance(k, N.Function):
        return k
    raise TypeError(
        f"analyze_kernel() needs a Kernel or IR Function, got {type(k)!r}"
    )


def _control_vars(fn: N.Function, df: Dataflow) -> Set[str]:
    """Variables influencing control flow or addressing.

    A demotion that changes one of these can change *which* statements
    execute or *which* element a store hits — effects the first-order
    amplification model does not see — so none of them may be called
    demotion-safe.  Includes everything flowing into a branch
    condition, loop bound, or index expression, transitively."""
    roots: Set[str] = set()

    def exprs_of(e: N.Expr) -> None:
        for sub in walk_expr(e):
            if isinstance(sub, N.Name):
                roots.add(sub.id)
            elif isinstance(sub, N.Index):
                roots.add(sub.base)
                exprs_of(sub.index)

    for s in walk_stmts(fn.body):
        if isinstance(s, N.If):
            exprs_of(s.cond)
        elif isinstance(s, N.While):
            exprs_of(s.cond)
        elif isinstance(s, N.For):
            exprs_of(s.lo)
            exprs_of(s.hi)
            exprs_of(s.step)
        else:
            for e in _stmt_index_exprs(s):
                exprs_of(e)
    # transitive closure over dataflow dependencies
    frontier = list(roots)
    while frontier:
        v = frontier.pop()
        for dep in df.deps.get(v, ()):
            if dep not in roots:
                roots.add(dep)
                frontier.append(dep)
    return roots


def _stmt_index_exprs(s: N.Stmt) -> List[N.Expr]:
    from repro.ir.visitor import iter_stmt_exprs

    out: List[N.Expr] = []
    for e in iter_stmt_exprs(s):
        for sub in walk_expr(e):
            if isinstance(sub, N.Index):
                out.append(sub.index)
    if isinstance(s, N.Assign) and isinstance(s.target, N.Index):
        out.append(s.target.index)
    return out


def analyze_kernel(
    k: object,
    points: Optional[Sequence[Sequence[object]]] = None,
    samples: Optional[Mapping[str, Sequence[object]]] = None,
    fixed: Optional[Mapping[str, object]] = None,
    domains: Optional[Mapping[str, Tuple[float, float]]] = None,
    threshold: Optional[float] = None,
    demote_to: DType = DType.F32,
) -> AnalysisReport:
    """Run the full static-analysis pipeline on one kernel.

    :param k: kernel (or IR function) to analyze.
    :param points: validation input tuples — parameter domains are
        derived from the values they take (joined per parameter).
    :param samples: swept inputs; their min/max widen the domains.
    :param fixed: fixed parameter values, likewise joined.
    :param domains: explicit ``{param: (lo, hi)}`` declarations —
        these *override* the derived domain for that parameter.
    :param threshold: error budget; enables estimate-based pinning.
    :param demote_to: demotion target the feasibility checks test
        against (binary32 by default, matching the search).
    """
    fn = _as_ir(k)
    t0 = time.perf_counter()
    obs_metrics.REGISTRY.counter(
        "repro_analyze_runs_total", "static analysis runs"
    ).inc()
    with obs_trace.span("analysis.run", kernel=fn.name):
        with obs_trace.span("analysis.dataflow"):
            df = analyze_dataflow(fn)
        with obs_trace.span("analysis.ranges"):
            doms = derive_domains(
                fn,
                points=points,
                samples=samples,
                fixed=fixed,
                domains=domains,
            )
            rr = analyze_ranges(fn, doms, stmts=df.stmts)
        with obs_trace.span("analysis.sensitivity"):
            sens = analyze_sensitivity(fn, df, rr)
        with obs_trace.span("analysis.lint"):
            diagnostics = build_diagnostics(fn, df, rr, sens)
        report = _fold_report(
            fn, rr, sens, diagnostics, df,
            threshold=threshold, demote_to=demote_to,
        )
    report.wall_time = time.perf_counter() - t0
    obs_metrics.REGISTRY.counter(
        "repro_analyze_diagnostics_total", "lint findings emitted"
    ).inc(len(diagnostics))
    obs_metrics.REGISTRY.gauge(
        "repro_analyze_last_pinned", "variables pinned by last analysis"
    ).set(len(report.pinned))
    return report


def _fold_report(
    fn: N.Function,
    rr: RangeResult,
    sens: SensitivityResult,
    diagnostics: List[Diagnostic],
    df: Dataflow,
    threshold: Optional[float],
    demote_to: DType,
) -> AnalysisReport:
    dtypes = collect_var_dtypes(fn)
    control = _control_vars(fn, df)

    groups: Dict[str, List[str]] = {}
    for var, dt in dtypes.items():
        if not dt.is_float:
            continue
        name = fold_name(var)
        if name is None:
            continue
        groups.setdefault(name, []).append(var)

    ranges: Dict[str, Interval] = {}
    amp: Dict[str, float] = {}
    writes: Dict[str, float] = {}
    err: Dict[str, Dict[str, float]] = {}
    pinned: List[str] = []
    safe: List[str] = []
    for name in sorted(groups):
        group = groups[name]
        ivs = [rr.ranges[v] for v in group if v in rr.ranges]
        if ivs:
            joined = ivs[0]
            for iv in ivs[1:]:
                joined = joined.join(iv)
            ranges[name] = joined
        amps = [sens.amp.get(v, 0.0) for v in group]
        if any(a > 0.0 for a in amps):
            amp[name] = max(amps)
        w = sum(sens.writes.get(v, 0.0) for v in group)
        if w > 0.0:
            writes[name] = w
        est: Dict[str, float] = {}
        for v in group:
            for dt_name, e in sens.err_estimate.get(v, {}).items():
                est[dt_name] = est.get(dt_name, 0.0) + e
        if est:
            err[name] = est

        is_pinned = False
        for v in group:
            iv = rr.ranges.get(v)
            if (
                iv is not None
                and iv.is_finite
                and iv.mag > FINITE_MAX[demote_to]
            ):
                is_pinned = True
            if threshold is not None:
                e = sens.err_estimate.get(v, {}).get(demote_to.value)
                if (
                    e is not None
                    and e > PIN_MARGIN * threshold
                    and sens.writes.get(v, 0.0) >= ACCUM_MIN_WRITES
                ):
                    is_pinned = True
        if is_pinned:
            pinned.append(name)
            continue
        if all(
            sens.amp.get(v, 0.0) == 0.0 and v not in control
            for v in group
        ):
            safe.append(name)

    return AnalysisReport(
        kernel=fn.name,
        ir_fingerprint=ir_fingerprint(fn),
        demote_to=demote_to.value,
        threshold=None if threshold is None else float(threshold),
        ranges=ranges,
        amp=amp,
        writes=writes,
        err_estimate=err,
        diagnostics=diagnostics,
        pinned=tuple(pinned),
        safe=tuple(safe),
        widened=rr.widened,
    )


def prune_candidates(
    report: AnalysisReport, candidates: Sequence[str]
) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """Apply the report's pruning sets to a candidate list.

    Returns ``(kept, dropped)``.  A candidate is dropped when it
    matches a pinned or demotion-safe source variable (inlined-suffix
    matching, same as the search's contribution folding).  If pruning
    would empty the candidate space entirely, the original list is
    returned untouched — an empty space would degenerate the search,
    and a space that small is cheap to search anyway.
    """
    drop = set(report.pinned) | set(report.safe)
    kept = tuple(c for c in candidates if c not in drop)
    if not kept:
        return tuple(candidates), ()
    dropped = tuple(c for c in candidates if c in drop)
    return kept, dropped
