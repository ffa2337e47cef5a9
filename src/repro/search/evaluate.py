"""Candidate evaluation: score one :class:`PrecisionConfig` on both axes.

A candidate's fitness is two numbers:

* **error** — how much the demoted program deviates from the uniform-f64
  reference.  Measured two ways and combined conservatively: the
  *actual* error of executing the demoted program at the validation
  points (:mod:`repro.tuning.validate`), and — when an input
  distribution is supplied — the *estimated* worst-case error of the
  demoted program over the whole sweep (the PR-1 batch engine with the
  Taylor model, served through the content-addressed result cache so
  re-proposed configurations are free).
* **cycles** — modelled execution cost of the demoted program, from the
  cycle-counting code variant summed over the validation points.

:class:`CandidateEvaluator` owns the reference measurements (run once),
a result memo keyed by configuration content (strategies re-propose the
same subsets constantly), and the evaluation history in deterministic
order — the substrate the Pareto front is built from.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.codegen.compile import ConfigLoweringError
from repro.core.api import KernelLike, cached_error_estimator
from repro.frontend.registry import Kernel
from repro.interp.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.ir import nodes as N
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.sweep.aggregate import AggregatorSpec, resolve_aggregator
from repro.sweep.batch import BatchReport
from repro.sweep.cache import make_key
from repro.sweep.engine import (
    CacheLike,
    build_args,
    resolve_cache,
    run_sweep,
)
from repro.tuning.config import PrecisionConfig, apply_precision
from repro.util.errors import ConfigError, InvalidRecordError, StoreError
from repro.tuning.validate import (
    ReferencePoint,
    counting_runner,
    modelled_speedup,
    pool_counting_runner,
)

#: how the actual and estimated errors combine into the Pareto error axis
ErrorMetric = str  # "worst" | "actual" | "estimate"


@dataclass
class EvaluatedCandidate:
    """One scored precision configuration, with provenance."""

    #: canonical content key (sorted ``name:dtype`` pairs)
    key: str
    config: PrecisionConfig
    #: worst actual |reference - mixed| over the validation points
    actual_error: float
    #: per-validation-point actual errors
    point_errors: Tuple[float, ...]
    #: aggregated estimated error over the input sweep (None: no sweep)
    estimated_error: Optional[float]
    #: Pareto error objective (see ``error_metric``)
    error: float
    #: modelled mixed cycles summed over the validation points
    cycles: float
    #: modelled reference cycles summed over the validation points
    cycles_reference: float
    #: strategy that first proposed this configuration
    strategy: str = ""
    #: global evaluation index (deterministic discovery order)
    index: int = -1

    @property
    def speedup(self) -> float:
        """Modelled speedup versus the uniform-f64 reference (shares
        the zero-cost/degenerate policy of
        :func:`repro.tuning.validate.modelled_speedup`)."""
        return modelled_speedup(
            self.cycles_reference,
            self.cycles,
            what=f"configuration {self.config.describe()}",
        )

    @property
    def speedup_or_none(self) -> Optional[float]:
        """:attr:`speedup`, or ``None`` for a degenerate candidate —
        the non-raising form used by display and serialization."""
        if self.cycles == 0.0 and self.cycles_reference > 0.0:
            return None
        return self.speedup

    @property
    def demoted(self) -> List[str]:
        return self.config.demoted_names

    def to_dict(self) -> Dict[str, object]:
        return {
            "demoted": self.demoted,
            "config": self.config.describe(),
            "error": self.error,
            "actual_error": self.actual_error,
            "estimated_error": self.estimated_error,
            "cycles": self.cycles,
            "cycles_reference": self.cycles_reference,
            # degenerate configs serialize as null rather than raising
            "speedup": self.speedup_or_none,
            "strategy": self.strategy,
            "index": self.index,
        }


def config_key(config: PrecisionConfig) -> str:
    """Canonical content key of a configuration."""
    return ",".join(
        f"{n}:{dt.value}" for n, dt in sorted(config.demotions.items())
    )


class CandidateEvaluator:
    """Scores precision configurations against one search scenario.

    :param k: kernel under search.
    :param points: validation input tuples — the demoted program is
        executed (with cycle counting) at each; the actual-error axis is
        the worst deviation, the cycle axis the summed cost.
    :param samples: optional swept inputs ``{param: length-N array}``;
        when given, each candidate also gets a distribution-robust
        estimated error from the batch sweep engine.
    :param fixed: lane-uniform values for unswept parameters.
    :param aggregate: how per-sample estimates reduce (default worst
        case, matching robust tuning).
    :param cache: optional :class:`repro.sweep.SweepCache` (or directory)
        for the candidates' estimate sweeps (keyed per configuration,
        whether estimated pool-wise or one by one) — configurations
        re-proposed across strategies, runs, or processes become cache
        hits.
    :param error_metric: ``"worst"`` (default; max of actual and
        estimated), ``"actual"``, or ``"estimate"``.
    :param config_batch: score every proposal pool, a single config
        included, pool-wise: the actual-error and cycle axes through
        the build-once config-batched counting kernel (``repro.codegen``
        lane engine), and the estimated-error axis through one
        :meth:`~repro.core.api.ErrorEstimator.execute_config_batch`
        call on the kernel's own estimator, instead of one
        ``apply_precision`` + compile + scalar loop and one
        ``run_sweep`` (adjoint build + compile) per candidate.  Results
        are bit-identical either way; ``False`` forces the
        per-candidate path (the reference, and an ablation hook).
    """

    def __init__(
        self,
        k: KernelLike,
        points: Sequence[Sequence[object]],
        samples: Optional[Mapping[str, Sequence[float]]] = None,
        fixed: Optional[Mapping[str, object]] = None,
        estimate_model=None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        approx: Optional[Set[str]] = None,
        aggregate: AggregatorSpec = "max",
        cache: CacheLike = None,
        error_metric: ErrorMetric = "worst",
        config_batch: bool = True,
    ) -> None:
        if not points:
            raise ConfigError(
                "at least one validation point is required"
            )
        if error_metric not in ("worst", "actual", "estimate"):
            raise ConfigError(f"unknown error metric {error_metric!r}")
        if error_metric == "estimate" and samples is None:
            raise ConfigError(
                "error_metric='estimate' requires an input sweep"
            )
        self.fn: N.Function = k.ir if isinstance(k, Kernel) else k
        self.points = [tuple(p) for p in points]
        self.samples = dict(samples) if samples is not None else None
        self.fixed = dict(fixed) if fixed else {}
        self.cost_model = cost_model
        self.approx = approx
        self.error_metric = error_metric
        self.cache = cache
        self._agg_name, self._agg = resolve_aggregator(aggregate)
        if estimate_model is None:
            from repro.core.models import TaylorModel

            estimate_model = TaylorModel()
        self.estimate_model = estimate_model

        self._references: Optional[List[ReferencePoint]] = None
        #: content key -> evaluated candidate (dedup across strategies)
        self.memo: Dict[str, EvaluatedCandidate] = {}
        #: computed candidates in deterministic evaluation order
        self.history: List[EvaluatedCandidate] = []
        self.n_computed = 0
        self.n_memo_hits = 0
        #: results re-seeded from a persistent run store (resume path)
        self.n_restored = 0
        #: optional persistence hook: called with ``self`` after every
        #: computed batch lands in the history (run-store checkpointing)
        self.checkpoint = None
        self.config_batch = bool(config_batch)
        self._runner_built = False
        self._runner = None
        #: config-batch telemetry: lanes executed, pool runs, fallbacks
        self.n_pool_lanes = 0
        self.n_pool_runs = 0
        self.n_pool_fallbacks = 0

    # -- preparation --------------------------------------------------------
    def prepare(self) -> None:
        """Measure the reference points, and build what the pools run
        on, once.  Idempotent; called implicitly by evaluation and
        explicitly by the search driver (inside its ``search.prepare``
        span)."""
        if self._references is not None:
            return
        # one compiled counting variant serves every validation point
        run = counting_runner(self.fn, self.cost_model, self.approx)
        self._references = [
            ReferencePoint(*run(args)) for args in self.points
        ]
        if (
            self.samples is not None
            and self.config_batch
            and self.estimate_model.cacheable
        ):
            # the reference adjoint goes into the estimator memo with
            # its config-lane kernel built: pool estimates (the empty
            # configuration's included) run on it
            cached_error_estimator(
                self.fn, model=self.estimate_model
            ).config_batched.prepare(
                *build_args(self.fn, self.samples, self.fixed)
            )
        # the config-batched counting kernel lives in the
        # fingerprint-keyed memo
        self.pool_runner()

    @property
    def references(self) -> List[ReferencePoint]:
        self.prepare()
        assert self._references is not None
        return self._references

    def pool_runner(self):
        """The config-batched counting runner, or ``None`` when disabled
        or the kernel is unvectorizable (per-candidate fallback)."""
        if not self._runner_built:
            self._runner_built = True
            if self.config_batch:
                self._runner = pool_counting_runner(
                    self.fn, self.cost_model, self.approx
                )
        return self._runner

    @property
    def pool_mode(self) -> Optional[str]:
        """Lane layout in use (``"grid"``/``"perpoint"``), or ``None``."""
        runner = self.pool_runner()
        return runner.mode if runner is not None else None

    def restore(self, candidates: Sequence[EvaluatedCandidate]) -> int:
        """Seed the memo and history with previously computed results.

        The resume substrate: a run store hands back the stored
        evaluation history (a prefix of the deterministic evaluation
        order) and the strategies replay against it — every stored
        configuration becomes a memo hit (never recomputed) and fresh
        indices continue where the stored run stopped, so a resumed
        run's history is bit-identical to an uninterrupted one.

        Must be called on a fresh evaluator (before any evaluation);
        restored results count in :attr:`n_restored`, not
        :attr:`n_computed`.
        """
        if self.history:
            raise StoreError(
                "restore() requires a fresh evaluator (history is "
                "non-empty)"
            )
        for cand in sorted(candidates, key=lambda c: c.index):
            if cand.index != len(self.history):
                raise InvalidRecordError(
                    f"stored history is not a contiguous prefix: "
                    f"index {cand.index} at position {len(self.history)}"
                )
            self.memo[cand.key] = cand
            self.history.append(cand)
            self.n_restored += 1
        return self.n_restored

    def eval_stats(self) -> Dict[str, object]:
        """Evaluation counters (memoization and config-batching)."""
        return {
            "computed": self.n_computed,
            "memo_hits": self.n_memo_hits,
            "restored": self.n_restored,
            "pool_mode": self.pool_mode,
            "pool_runs": self.n_pool_runs,
            "pool_lanes": self.n_pool_lanes,
            "pool_fallbacks": self.n_pool_fallbacks,
        }

    # -- evaluation ---------------------------------------------------------
    def evaluate(
        self, config: PrecisionConfig, strategy: str = ""
    ) -> EvaluatedCandidate:
        """Score one configuration (memoized by content)."""
        return self.evaluate_many([config], strategy)[0]

    def evaluate_many(
        self, configs: Sequence[PrecisionConfig], strategy: str = ""
    ) -> List[EvaluatedCandidate]:
        """Score a pool of configurations, preserving order.

        Configurations already scored (this run) are served from the
        memo; the rest are scored together by :meth:`_compute_many`.
        Indices are assigned in submission order.
        """
        self.prepare()
        keys = [config_key(c) for c in configs]
        fresh: "Dict[str, PrecisionConfig]" = {}
        memo_hits = 0
        for c, key in zip(configs, keys):
            if key in self.memo:
                self.n_memo_hits += 1
                memo_hits += 1
            elif key not in fresh:
                fresh[key] = c
        if memo_hits:
            obs_metrics.REGISTRY.counter(
                "repro_search_memo_hits_total",
                "candidate evaluations served from the evaluator memo",
            ).inc(memo_hits)
        if fresh:
            t0 = time.perf_counter()
            with obs_trace.span(
                "search.batch",
                k=len(fresh),
                memo_hits=memo_hits,
                strategy=strategy,
            ):
                computed = self._compute_many(list(fresh.values()))
            obs_metrics.REGISTRY.histogram(
                "repro_search_batch_seconds",
                "latency of one computed candidate batch",
            ).observe(time.perf_counter() - t0)
            obs_metrics.REGISTRY.counter(
                "repro_search_evaluations_total",
                "candidate configurations computed (not memoized)",
            ).inc(len(fresh))
            for key, cand in zip(fresh, computed):
                cand.index = len(self.history)
                cand.strategy = strategy
                self.memo[key] = cand
                self.history.append(cand)
                self.n_computed += 1
            if self.checkpoint is not None:
                self.checkpoint(self)
        return [self.memo[key] for key in keys]

    # -- computation --------------------------------------------------------
    def _compute_many(
        self, configs: Sequence[PrecisionConfig]
    ) -> List[EvaluatedCandidate]:
        """Score a pool of fresh configurations, preserving order.

        The config-batched path scores the whole pool — K configs × N
        validation points — through one compiled lane kernel, and its
        estimated-error axis through one config-batched estimator call
        (:meth:`_pool_estimates`); the per-candidate path
        (``config_batch=False``, unvectorizable kernels, or pools a lane
        batch cannot express) compiles and runs each configuration
        separately.  Scores are bit-identical.
        """
        estimates = self._pool_estimates(configs)

        def compute(c: PrecisionConfig) -> EvaluatedCandidate:
            return self._compute(c, estimates.get(id(c)))

        runner = self.pool_runner()
        pool = [c for c in configs if c]
        if runner is None or not pool:
            return [compute(c) for c in configs]
        try:
            values, costs = runner(pool, self.points)
        except ConfigLoweringError:
            self.n_pool_fallbacks += 1
            return [compute(c) for c in configs]
        self.n_pool_runs += 1
        self.n_pool_lanes += len(pool)
        lanes: Dict[int, EvaluatedCandidate] = {}
        for lane, config in enumerate(pool):
            errors = [
                abs(ref.value - float(values[lane, j]))
                for j, ref in enumerate(self.references)
            ]
            cycles = 0.0
            for j in range(len(self.points)):
                cycles += float(costs[lane, j])
            lanes[id(config)] = self._finish(
                config, errors, cycles, estimated=estimates.get(id(config))
            )
        return [lanes[id(c)] if c else compute(c) for c in configs]

    def _pool_estimates(
        self, configs: Sequence[PrecisionConfig]
    ) -> Dict[int, float]:
        """Estimated-error axis of a pool, keyed by ``id(config)``.

        One :meth:`~repro.core.api.ErrorEstimator.execute_config_batch`
        call on the kernel's own (memoized) estimator covers every
        configuration, instead of one adjoint build and compile per
        demoted kernel.  With a sweep cache, each configuration's
        ``run_sweep`` key is looked up first, only the misses are
        batched, and each miss's lane report is stored under that key —
        the same entry a per-candidate ``run_sweep`` would write.
        Empty (no samples, or ``config_batch`` off) when the
        per-candidate path in :meth:`_finish` runs the sweeps instead.
        """
        if self.samples is None or not self.config_batch:
            return {}
        args = build_args(self.fn, self.samples, self.fixed)
        store = resolve_cache(self.cache)
        estimates: Dict[int, float] = {}
        misses: List[Tuple[PrecisionConfig, Optional[str]]] = []
        for c in configs:
            key: Optional[str] = None
            if store is not None:
                mixed = apply_precision(self.fn, c) if c else self.fn
                key = make_key(mixed, self.estimate_model, args)
                hit = store.get(key)
                if hit is not None:
                    estimates[id(c)] = self._aggregate(hit)
                    continue
            misses.append((c, key))
        if misses:
            est = cached_error_estimator(self.fn, model=self.estimate_model)
            rep = est.execute_config_batch([c for c, _ in misses], *args)
            for lane, (c, key) in enumerate(misses):
                batch = rep.report(lane)
                if store is not None:
                    store.put(key, batch)
                estimates[id(c)] = self._aggregate(batch)
        return estimates

    def _aggregate(self, batch: BatchReport) -> float:
        return float(
            self._agg(np.asarray(batch.total_error, dtype=np.float64))
        )

    def _compute(
        self, config: PrecisionConfig, estimated: Optional[float] = None
    ) -> EvaluatedCandidate:
        """Score one configuration from scratch (pure: no memo access,
        no index assignment)."""
        refs = self.references
        if config:
            mixed_fn = apply_precision(self.fn, config)
            run = counting_runner(mixed_fn, self.cost_model, self.approx)
            errors: List[float] = []
            cycles = 0.0
            for ref, args in zip(refs, self.points):
                value, cost = run(args)
                errors.append(abs(ref.value - value))
                cycles += cost
        else:
            mixed_fn = self.fn
            errors = [0.0 for _ in refs]
            cycles = sum(r.cost for r in refs)
        return self._finish(
            config, errors, cycles, mixed_fn=mixed_fn, estimated=estimated
        )

    def _finish(
        self,
        config: PrecisionConfig,
        errors: List[float],
        cycles: float,
        mixed_fn: Optional[N.Function] = None,
        estimated: Optional[float] = None,
    ) -> EvaluatedCandidate:
        """Shared scoring tail: sweep estimate, objective, candidate.

        Both computation paths funnel through here so the aggregation
        arithmetic (and therefore every float in the result) is the
        same code either way.  ``estimated`` comes from
        :meth:`_pool_estimates` when the pool was estimated at once;
        otherwise (the per-candidate path) the demoted kernel's sweep
        runs here.
        """
        refs = self.references
        cycles_ref = sum(r.cost for r in refs)
        if self.samples is not None and estimated is None:
            if mixed_fn is None:
                mixed_fn = (
                    apply_precision(self.fn, config) if config else self.fn
                )
            estimated = self._aggregate(
                run_sweep(
                    mixed_fn,
                    samples=self.samples,
                    fixed=self.fixed,
                    model=self.estimate_model,
                    cache=self.cache,
                )
            )

        actual = max(errors)
        if self.error_metric == "actual" or estimated is None:
            objective = actual
        elif self.error_metric == "estimate":
            objective = estimated
        else:  # "worst"
            objective = max(actual, estimated)
        return EvaluatedCandidate(
            key=config_key(config),
            config=config,
            actual_error=actual,
            point_errors=tuple(errors),
            estimated_error=estimated,
            error=objective,
            cycles=cycles,
            cycles_reference=cycles_ref,
        )
