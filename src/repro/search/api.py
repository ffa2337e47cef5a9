"""The precision-search driver (:func:`run_search`) and its result type.

One call runs the whole multi-objective precision search — through the
session facade::

    import repro
    from repro.apps import blackscholes as bs

    sess = repro.Session()
    result = sess.search(
        bs.bs_price,
        points=[bs.point_args(bs.make_workload(16), i) for i in range(4)],
        threshold=1e-6,
        samples={"sptprice": spt, "volatility": vol},
        fixed={"strike": 100.0, "rate": 0.05, "otime": 0.5, "otype": 0},
        budget=48,
        workers=4,
    )
    print(result.front)          # the (error, cycles) Pareto front
    result.best_under(1e-6)      # cheapest config within threshold

The driver wires the pieces together: per-candidate contributions are
estimated once with the ADAPT demotion model (aggregated over the input
sweep when one is given, exactly like robust tuning), the chosen
strategies run in sequence over a shared budget and a shared
(optionally process-parallel) evaluator, and the Pareto front is
assembled from the full evaluation history.
"""

from __future__ import annotations

import os
import re
import signal
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.core.api import KernelLike, cached_error_estimator
from repro.core.models import AdaptModel
from repro.frontend.registry import Kernel
from repro.interp.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.ir import nodes as N
from repro.ir.types import DType
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.search.evaluate import CandidateEvaluator, EvaluatedCandidate
from repro.search.parallel import ParallelEvaluator
from repro.search.pareto import ParetoFront
from repro.search.store import (
    RunStore,
    StoreLike,
    candidate_of,
    library_version,
    record_of,
    run_id_of,
    run_key_components,
)
from repro.search.strategies import (
    DEFAULT_STRATEGIES,
    SearchProblem,
    get_strategy,
)
from repro.sweep.aggregate import AggregatorSpec, resolve_aggregator
from repro.sweep.cache import SweepCache
from repro.sweep.engine import CacheLike, resolve_cache, run_sweep
from repro.tuning.config import matches_inlined
from repro.util.errors import ConfigError, InputError

#: inlining suffixes appended to callee locals (possibly stacked)
_INLINE_SUFFIX = re.compile(r"(?:_in\d+)+$")


def _as_ir(k: KernelLike) -> N.Function:
    return k.ir if isinstance(k, Kernel) else k


@dataclass
class SearchResult:
    """Everything a precision search produced."""

    kernel: str
    front: ParetoFront
    #: every computed candidate, in deterministic evaluation order
    evaluations: List[EvaluatedCandidate]
    #: the paper-style greedy choice (when the greedy strategy ran)
    baseline: Optional[EvaluatedCandidate]
    threshold: float
    budget: int
    strategies: Tuple[str, ...]
    candidates: Tuple[str, ...]
    #: estimated demotion contributions the strategies ranked by
    contributions: Dict[str, float]
    #: whether worker processes actually evaluated candidate pools
    parallel: bool = False
    #: evaluator/cache counters (config-batching, memo, sweep cache,
    #: compiled-kernel cache) — surfaced by the CLI and benchmarks
    stats: Optional[Dict[str, object]] = None
    #: content-addressed run id when a persistent store was in use
    run_id: Optional[str] = None
    #: whether any evaluations were restored from the run store
    resumed: bool = False
    #: evaluations served from the store rather than recomputed
    n_restored: int = 0
    #: session provenance (session/config identity, method, sequence
    #: number) — stamped by :class:`repro.session.Session`
    provenance: Optional[Dict[str, object]] = None
    #: per-phase time breakdown aggregated from this run's span tree
    #: (:func:`repro.obs.profile.summarize_records` output); ``None``
    #: unless tracing was enabled during the search
    profile: Optional[Dict[str, object]] = None

    @property
    def n_evaluated(self) -> int:
        return len(self.evaluations)

    def best_under(
        self, threshold: Optional[float] = None
    ) -> Optional[EvaluatedCandidate]:
        """Cheapest front point within the (default: search) threshold."""
        return self.front.best_under(
            self.threshold if threshold is None else threshold
        )

    def to_dict(self) -> Dict[str, object]:
        best = self.best_under()
        return {
            "kernel": self.kernel,
            "threshold": self.threshold,
            "budget": self.budget,
            "strategies": list(self.strategies),
            "candidates": list(self.candidates),
            "n_evaluated": self.n_evaluated,
            "parallel": self.parallel,
            "front": self.front.to_dicts(),
            "baseline": self.baseline.to_dict() if self.baseline else None,
            "best_under_threshold": best.to_dict() if best else None,
            "stats": self.stats,
            "run_id": self.run_id,
            "resumed": self.resumed,
            "n_restored": self.n_restored,
            "provenance": self.provenance,
            "profile": self.profile,
        }

    def summary(self) -> str:
        lines = [
            f"search({self.kernel}): {self.n_evaluated} configs "
            f"evaluated, front size {len(self.front)}, "
            f"threshold {self.threshold:g}"
        ]
        lines.append(str(self.front))
        if self.baseline is not None:
            lines.append(
                f"greedy baseline: error={self.baseline.error:.4g} "
                f"cycles={self.baseline.cycles:.1f} "
                f"{self.baseline.config.describe()}"
            )
            best = self.best_under()
            if best is not None:
                lines.append(
                    f"best under threshold: error={best.error:.4g} "
                    f"cycles={best.cycles:.1f} [{best.strategy}] "
                    f"{best.config.describe()}"
                )
        return "\n".join(lines)


def _resolve_store(store: StoreLike) -> Optional[RunStore]:
    if store is None or isinstance(store, RunStore):
        return store
    return RunStore(store)


def _estimate_model_fingerprint(estimate_model) -> str:
    """Fingerprint of the (defaulted) sweep-estimate model for run keys."""
    if estimate_model is None:
        from repro.core.models import TaylorModel

        estimate_model = TaylorModel()
    if not getattr(estimate_model, "cacheable", False):
        raise ConfigError(
            "a persistent run store requires a cacheable estimate "
            "model (models closing over arbitrary callables have no "
            "stable content identity)"
        )
    return estimate_model.fingerprint()


def _crash_hook(n_computed: int) -> None:
    """Deterministic crash injection for crash-safety tests.

    With ``REPRO_SEARCH_CRASH_AFTER=N`` set, the process SIGKILLs
    itself once ``N`` candidates have been computed — after the
    checkpoint for the batch has been written, so tests exercise the
    exact state a hard kill at that instant would leave behind.
    """
    env = os.environ.get("REPRO_SEARCH_CRASH_AFTER")
    if env and n_computed >= int(env):
        os.kill(os.getpid(), signal.SIGKILL)


def _restored_result(
    store: RunStore,
    run_id: str,
    manifest: Dict[str, object],
    threshold: float,
    budget: int,
    strategies: Tuple[str, ...],
) -> Optional[SearchResult]:
    """Rebuild a completed run's :class:`SearchResult` from the store.

    The zero-work warm-resume path: nothing is compiled or executed.
    Returns ``None`` when the stored state is inconsistent (the caller
    falls back to a checkpoint replay)."""
    records = store.load_records(run_id)
    if len(records) != manifest.get("n_evaluations"):
        return None
    if manifest.get("candidates") is None:
        return None
    evaluations = [candidate_of(r) for r in records]
    baseline = None
    baseline_key = manifest.get("baseline_key")
    if baseline_key is not None:
        baseline = next(
            (c for c in evaluations if c.key == baseline_key), None
        )
        if baseline is None:
            return None
    stats: Dict[str, object] = {
        "run_store": {
            "run_id": run_id,
            "root": str(store.root),
            "restored": len(records),
            "computed": 0,
            "checkpoints": 0,
            "replayed": False,
        }
    }
    return SearchResult(
        kernel=str(manifest.get("kernel")),
        front=ParetoFront(evaluations),
        evaluations=evaluations,
        baseline=baseline,
        threshold=float(threshold),
        budget=int(budget),
        strategies=tuple(strategies),
        candidates=tuple(manifest["candidates"]),
        contributions={
            c: float(v)
            for c, v in (manifest.get("contributions") or {}).items()
        },
        parallel=False,
        stats=stats,
        run_id=run_id,
        resumed=True,
        n_restored=len(records),
    )


def _search_components(
    fn: N.Function,
    points: Sequence[Sequence[object]],
    threshold: float,
    candidates: Optional[Sequence[str]],
    samples: Optional[Mapping[str, Sequence[float]]],
    fixed: Optional[Mapping[str, object]],
    demote_to: DType,
    strategies: Sequence[str],
    budget: int,
    seed: int,
    aggregate: AggregatorSpec,
    estimate_model,
    cost_model: CostModel,
    approx: Optional[Set[str]],
    error_metric: str,
    analysis: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """Run-key components as :func:`run_search` computes them — shared
    by the driver and :func:`search_run_id` so the two can never
    disagree about a run's identity."""
    components = run_key_components(
        fn,
        points=points,
        threshold=float(threshold),
        candidates=candidates,
        samples=samples,
        fixed=fixed,
        demote_to=demote_to,
        strategies=tuple(strategies),
        budget=int(budget),
        seed=int(seed),
        aggregate=resolve_aggregator(aggregate)[0],
        error_metric=error_metric,
        model_fingerprint=_estimate_model_fingerprint(estimate_model),
        cost_model=cost_model,
        approx=approx,
    )
    if analysis is not None:
        # pruning changes which candidates the strategies see, so the
        # analysis conclusions join the run identity; with analysis
        # off (None) the key set — and every run id — is bit-identical
        # to a pre-analysis release
        components["analysis"] = {
            "digest": str(analysis["digest"]),
            "pruned": sorted(analysis.get("pruned") or ()),
        }
    return components


def search_run_id(
    k: KernelLike,
    points: Sequence[Sequence[object]],
    threshold: float,
    candidates: Optional[Sequence[str]] = None,
    samples: Optional[Mapping[str, Sequence[float]]] = None,
    fixed: Optional[Mapping[str, object]] = None,
    demote_to: DType = DType.F32,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    budget: int = 64,
    aggregate: AggregatorSpec = "max",
    estimate_model=None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    approx: Optional[Set[str]] = None,
    seed: int = 0,
    error_metric: str = "worst",
    analysis: Optional[Mapping[str, object]] = None,
) -> str:
    """The content-addressed run id :func:`run_search` would use for
    these parameters — without running anything.

    Lets callers (the job server, progress UIs) locate a run's store
    directory and poll :meth:`~repro.search.store.RunStore.run_progress`
    before/while the search executes.  Knobs that are bit-identical by
    contract (``workers``, ``config_batch``) and pure plumbing
    (``cache``, ``store``) are not part of a run's identity.
    """
    return run_id_of(
        _search_components(
            _as_ir(k), points, threshold, candidates, samples, fixed,
            demote_to, strategies, budget, seed, aggregate,
            estimate_model, cost_model, approx, error_metric,
            analysis=analysis,
        )
    )


def _register_contributions(
    fn: N.Function,
    points: Sequence[Sequence[object]],
    samples: Optional[Mapping[str, Sequence[float]]],
    fixed: Optional[Mapping[str, object]],
    demote_to: DType,
    aggregate: AggregatorSpec,
    cache: Optional[SweepCache],
) -> Dict[str, float]:
    """Per-register estimated demotion contributions (ADAPT model),
    aggregated across the input sweep when one is given."""
    model = AdaptModel(demote_to)
    if samples is not None:
        batch = run_sweep(
            fn, samples=samples, fixed=fixed, model=model, cache=cache
        )
        _, agg = resolve_aggregator(aggregate)
        return {
            v: float(agg(np.asarray(a)))
            for v, a in batch.per_variable.items()
        }
    est = cached_error_estimator(fn, model=model)
    report = est.execute(*points[0])
    return dict(report.per_variable)


def _derive_candidates(registers: Mapping[str, float]) -> Tuple[str, ...]:
    """Source-level candidate names from error-register names.

    Inlined callee locals (``expin_in1``) fold back onto their source
    name (``expin``); analysis artifacts (``_ret``, compiler temps)
    are excluded."""
    names: Set[str] = set()
    for reg in registers:
        if reg.startswith("_"):
            continue
        names.add(_INLINE_SUFFIX.sub("", reg))
    return tuple(sorted(names))


def run_search(
    k: KernelLike,
    points: Sequence[Sequence[object]],
    threshold: float,
    candidates: Optional[Sequence[str]] = None,
    samples: Optional[Mapping[str, Sequence[float]]] = None,
    fixed: Optional[Mapping[str, object]] = None,
    demote_to: DType = DType.F32,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    budget: int = 64,
    workers: int = 0,
    cache: CacheLike = None,
    aggregate: AggregatorSpec = "max",
    estimate_model=None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    approx: Optional[Set[str]] = None,
    seed: int = 0,
    error_metric: str = "worst",
    config_batch: bool = True,
    store: StoreLike = None,
    resume: bool = False,
    label: Optional[str] = None,
    checkpoint_every: int = 1,
    on_batch: Optional[Callable[[int], None]] = None,
    analysis: Optional[Mapping[str, object]] = None,
) -> SearchResult:
    """Multi-objective precision search over (error, modelled cycles).

    The search driver proper, behind
    :meth:`repro.session.Session.search`.

    :param k: kernel (or IR function) to search.
    :param points: validation input tuples; each candidate is executed
        at every point (actual error, counted cycles).
    :param threshold: error budget the feasibility-driven strategies
        (greedy baseline, delta debugging, annealing) aim for; the
        front itself spans all trade-offs regardless.
    :param candidates: demotion candidates (default: every source-level
        variable with an error register).
    :param samples: optional swept inputs — adds a distribution-robust
        estimated-error term to every candidate's score and aggregates
        the contribution ranking across the distribution.
    :param fixed: lane-uniform values for unswept parameters.
    :param demote_to: target precision (binary32 by default).
    :param strategies: registered strategy names, run in order over the
        shared budget (default ``("greedy", "delta", "anneal")``).
    :param budget: maximum number of *computed* candidate evaluations
        (memoized re-proposals are free).
    :param workers: ``>= 2`` fans candidate pools out over that many
        forked worker processes; results are bit-identical to serial.
    :param cache: optional sweep result cache (shared by the
        contribution sweep and every candidate sweep).
    :param aggregate: sweep aggregation (default worst-case ``"max"``).
    :param seed: RNG seed for the stochastic strategies.
    :param error_metric: how actual and estimated errors combine into
        the Pareto error axis (``"worst"``, ``"actual"``,
        ``"estimate"``).
    :param config_batch: score proposal pools through the compile-once
        config-batched kernel (default).  ``False`` forces the PR-2
        per-candidate compile-and-run path; results are bit-identical,
        only slower.
    :param store: optional persistent :class:`RunStore` (or directory).
        Evaluation history checkpoints to a content-addressed run
        directory after every ``checkpoint_every`` computed batches, so
        a killed run loses at most one batch of work.
    :param resume: with a store, re-seed the evaluator memo, history,
        and budget from the stored run (found by content address) —
        the resumed run replays stored evaluations as free memo hits
        and produces a bit-identical Pareto front and evaluation
        history to an uninterrupted run.  A run that already completed
        is reconstructed straight from the store (zero evaluations,
        nothing compiled).
    :param label: human-readable run label for the manifest (default:
        kernel name).
    :param checkpoint_every: checkpoint cadence, in computed batches.
    :param on_batch: optional callback invoked with the running
        computed-evaluation count after every computed batch (after the
        store checkpoint for that batch, when a store is in use).  An
        exception raised by the callback aborts the search — with a
        store, resumably: the checkpointed prefix stays valid, so a
        later ``resume=True`` run continues bit-identically.  This is
        the cancellation/deadline surface of the job server
        (:mod:`repro.serve`).
    :param analysis: static-analysis conclusions from
        :func:`repro.analyze.analyze_kernel` — a mapping with the
        report ``digest`` and the ``pruned`` source-variable names.
        Pruned names are excluded from the *derived* candidate set
        (explicit ``candidates`` are pre-pruned by the session), the
        conclusions join the run identity, and the manifest records
        them as provenance.  ``None`` (the default) is bit-identical
        to a pre-analysis release.
    """
    fn = _as_ir(k)
    if points and not isinstance(points[0], (tuple, list)):
        raise InputError(
            "points must be a sequence of argument tuples, e.g. "
            "[(n, h), ...] — got a flat sequence"
        )
    sweep_cache = resolve_cache(cache)
    names = tuple(strategies)
    run_store = _resolve_store(store)
    if resume and run_store is None:
        raise ConfigError("resume=True requires store=")
    run_id: Optional[str] = None
    manifest: Optional[Dict[str, object]] = None
    restored: List[EvaluatedCandidate] = []
    if run_store is not None:
        components = _search_components(
            fn, points, threshold, candidates, samples, fixed,
            demote_to, names, budget, seed, aggregate, estimate_model,
            cost_model, approx, error_metric, analysis=analysis,
        )
        run_id = run_id_of(components)
        if resume:
            manifest = run_store.load_manifest(run_id)
            if (
                manifest is not None
                and manifest.get("library_version") != library_version()
            ):
                # the run key hashes parameters, not library behavior:
                # records computed by a different release could mix
                # with this one's and break the bit-identical contract
                # — restart the run from scratch instead
                manifest = None
            if manifest is not None and manifest.get("completed"):
                warm = _restored_result(
                    run_store, run_id, manifest,
                    threshold=float(threshold), budget=int(budget),
                    strategies=names,
                )
                if warm is not None:
                    return warm
            if manifest is not None:
                restored = [
                    candidate_of(r)
                    for r in run_store.load_records(run_id)
                ]
        if manifest is None:
            # fresh run (or resume over a never-started id): write the
            # manifest and truncate any stale records up front
            manifest = run_store.new_manifest(
                run_id, components, kernel=fn.name,
                label=label or fn.name, analysis=analysis,
            )
            run_store.save_manifest(run_id, manifest)
            run_store.checkpoint(run_id, [])
    ev_cls = ParallelEvaluator if workers and workers >= 2 else CandidateEvaluator
    ev_kwargs = dict(
        samples=samples,
        fixed=fixed,
        estimate_model=estimate_model,
        cost_model=cost_model,
        approx=approx,
        aggregate=aggregate,
        cache=sweep_cache,
        error_metric=error_metric,
        config_batch=config_batch,
    )
    if ev_cls is ParallelEvaluator:
        ev_kwargs["workers"] = int(workers)
    from repro.codegen.compile import _cache_stats
    from repro.core.api import _work_stats

    evaluator = ev_cls(fn, points, **ev_kwargs)
    n_checkpoints = 0
    if run_store is not None or on_batch is not None:
        every = max(int(checkpoint_every), 1)
        batches = 0

        def _on_computed(ev: CandidateEvaluator) -> None:
            nonlocal batches, n_checkpoints
            batches += 1
            if run_store is not None and batches % every == 0:
                run_store.checkpoint(
                    run_id, [record_of(c) for c in ev.history]
                )
                n_checkpoints += 1
            _crash_hook(ev.n_computed)
            if on_batch is not None:
                # after the checkpoint: an abort raised here keeps the
                # just-checkpointed batch resumable on disk
                on_batch(ev.n_computed)

        evaluator.checkpoint = _on_computed
    kernel_cache_before = _cache_stats()
    work_before = _work_stats()
    obs_metrics.REGISTRY.counter(
        "repro_search_runs_total", "precision searches driven"
    ).inc()
    # with tracing enabled, this run's spans are also collected in
    # memory (forked workers' spans go to the trace file only) and
    # aggregated into SearchResult.profile; with tracing disabled the
    # collector stays empty and profile is None
    with obs_trace.collect() as trace_records, obs_trace.span(
        "search.run",
        kernel=fn.name,
        budget=int(budget),
        run_id=run_id,
        strategies=list(names),
    ) as root_span:
        try:
            with obs_trace.span("search.prepare", kernel=fn.name):
                evaluator.prepare()
            if restored:
                evaluator.restore(restored)
            if (
                manifest is not None
                and manifest.get("contributions") is not None
            ):
                # resume: the candidate set and contribution ranking were
                # derived (and persisted) by the original run — reuse them
                # instead of re-sweeping
                cand = tuple(manifest["candidates"])
                contributions = {
                    c: float(v)
                    for c, v in manifest["contributions"].items()
                }
            else:
                with obs_trace.span("search.contributions"):
                    registers = _register_contributions(
                        fn, evaluator.points, samples, fixed, demote_to,
                        aggregate, sweep_cache,
                    )
                if candidates is None:
                    cand = _derive_candidates(registers)
                    if analysis is not None:
                        pruned = set(analysis.get("pruned") or ())
                        kept = tuple(
                            c for c in cand if c not in pruned
                        )
                        # never prune to an empty candidate space — a
                        # space that small is cheap to search anyway
                        if kept:
                            cand = kept
                else:
                    cand = tuple(candidates)
                contributions = {
                    c: sum(
                        e
                        for r, e in registers.items()
                        if matches_inlined(r, c)
                    )
                    for c in cand
                }
                if run_store is not None and manifest is not None:
                    manifest["candidates"] = list(cand)
                    manifest["contributions"] = contributions
                    run_store.save_manifest(run_id, manifest)
            problem = SearchProblem(
                evaluator=evaluator,
                candidates=cand,
                threshold=float(threshold),
                contributions=contributions,
                demote_to=demote_to,
                budget=int(budget),
                seed=int(seed),
            )
            if restored:
                # stored evaluations already consumed budget in the run
                # that computed them
                problem.charge(evaluator.n_restored)
            for name in names:
                if problem.exhausted:
                    break
                with obs_trace.span("search.strategy", strategy=name):
                    get_strategy(name).run(problem)
            front = ParetoFront(evaluator.history)
            parallel = bool(getattr(evaluator, "parallel", False))
            from repro.core.api import _memo_stats

            # hit/miss and work counters are process-cumulative: report
            # this run's deltas (entries/capacity stay gauges)
            kernel_cache = dict(_cache_stats())
            for counter in ("hits", "misses", "unvectorizable"):
                kernel_cache[counter] -= kernel_cache_before[counter]
            stats: Dict[str, object] = {
                "evaluator": evaluator.eval_stats(),
                "estimator_memo": _memo_stats(),
                "config_kernel_cache": kernel_cache,
                "work": {
                    k: v - work_before[k] for k, v in _work_stats().items()
                },
            }
            if sweep_cache is not None:
                stats["sweep_cache"] = sweep_cache.cache_stats()
            if run_store is not None and manifest is not None:
                records = [record_of(c) for c in evaluator.history]
                run_store.complete_run(
                    run_id,
                    manifest,
                    records,
                    baseline_key=(
                        problem.baseline.key if problem.baseline else None
                    ),
                    front=[
                        {"key": p.key, "error": p.error, "cycles": p.cycles}
                        for p in front.points
                    ],
                )
                n_checkpoints += 1
                stats["run_store"] = {
                    "run_id": run_id,
                    "root": str(run_store.root),
                    "restored": evaluator.n_restored,
                    "computed": evaluator.n_computed,
                    "checkpoints": n_checkpoints,
                    "replayed": bool(restored),
                }
        finally:
            evaluator.close()
    profile: Optional[Dict[str, object]] = None
    if trace_records:
        from repro.obs.profile import summarize_records

        profile = summarize_records(
            trace_records, root=getattr(root_span, "span_id", None)
        )
    return SearchResult(
        kernel=fn.name,
        front=front,
        evaluations=list(evaluator.history),
        baseline=problem.baseline,
        threshold=float(threshold),
        budget=int(budget),
        strategies=names,
        candidates=cand,
        contributions=contributions,
        parallel=parallel,
        stats=stats,
        run_id=run_id,
        resumed=bool(restored),
        n_restored=evaluator.n_restored,
        profile=profile,
    )

