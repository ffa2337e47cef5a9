"""The :class:`Session` facade: one object, the whole workflow.

Every entry-point family of the CHEF-FP reproduction — error
estimation, input sweeps, mixed-precision tuning, Pareto search,
multi-scenario plans, and run-store management — historically re-plumbed
the same resources (estimator memo, sweep cache, run store, worker
pool settings, default error/cost models) through per-call keyword
arguments.  A :class:`Session` owns those resources once::

    import repro

    sess = repro.Session(cache="~/.cache/repro-sweeps", store="runs/")
    est = sess.estimate(kernel)                     # shared estimator memo
    rep = sess.sweep(kernel, samples, fixed=fixed)  # shared sweep cache
    cfg = sess.tune(kernel, 1e-6, samples=samples)  # robust tuning
    res = sess.search("blackscholes", resume=True)  # durable search
    orch = sess.plan(all_apps=True); orch.run()     # multi-scenario plan
    sess.runs().prune(incomplete=True)              # run-store GC

Defaults come from a frozen, serializable :class:`SessionConfig`; every
result is stamped with session provenance (session id, config
fingerprint, method, per-session sequence number).  The operations on
a named app scenario — what the CLI and the job server expose — are
declared once in :mod:`repro.session.ops`.
"""

from __future__ import annotations

import threading
import uuid
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Mapping,
    Optional,
    Sequence,
    Set,
    Union,
)

from repro.core.api import (
    KernelLike,
    _memo_stats,
    cached_error_estimator,
    warm_start_estimator_memo,
)
from repro.core.models import ErrorModel
from repro.core.report import ErrorReport
from repro.interp.cost_model import CostModel, DEFAULT_COST_MODEL
from repro.session.config import SessionConfig
from repro.session.runs import RunsView
from repro.sweep.batch import BatchReport
from repro.sweep.cache import SweepCache
from repro.sweep.engine import run_sweep
from repro.tuning.greedy import TuningResult, run_greedy_tune
from repro.tuning.robust import run_robust_tune
from repro.util.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover
    from repro.search.store import RunStore

#: "argument not supplied — fall back to the session default"
_UNSET = object()


def _pick(value: object, default: object) -> object:
    return default if value is _UNSET else value


class Session:
    """Shared-resource facade over estimate / sweep / tune / search.

    :param config: the frozen :class:`SessionConfig` defaults
        (``None``: all defaults).
    :param cache: sweep result cache — a :class:`SweepCache`, a
        directory, or ``None`` to use ``config.cache_dir`` (no cache
        when that is ``None`` too).
    :param store: persistent run store — a
        :class:`~repro.search.store.RunStore`, a directory, or ``None``
        to use ``config.store_dir``.
    :param model: default error model for **estimates and sweeps**
        (and the search's sweep-estimate model); ``None`` keeps each
        method's historical default.  Tuning is *not* affected: its
        contribution ranking stays on the ADAPT demotion model unless
        a model is passed to :meth:`tune` explicitly.
    :param cost_model: default performance model for search.
    """

    def __init__(
        self,
        config: Optional[SessionConfig] = None,
        *,
        cache: Union[None, str, Path, SweepCache] = None,
        store: Union[None, str, Path, "RunStore"] = None,
        model: Optional[ErrorModel] = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
    ) -> None:
        from repro.search.store import RunStore

        self.config = config if config is not None else SessionConfig()
        if not isinstance(self.config, SessionConfig):
            raise ConfigError(
                f"config must be a SessionConfig, "
                f"got {type(self.config).__name__}"
            )
        if self.config.fault_plan is not None:
            # chaos mode: activate the process-wide fault registry from
            # the config's plan (inline JSON or a file path); raises
            # ConfigError on a malformed plan, before any work runs
            from repro import faults

            faults.enable(faults.FaultPlan.load(self.config.fault_plan))
        if cache is None:
            cache = self.config.cache_dir
        self._cache: Optional[SweepCache] = (
            cache
            if isinstance(cache, SweepCache) or cache is None
            else SweepCache(directory=cache, fsync=self.config.fsync)
        )
        if store is None:
            store = self.config.store_dir
        self._store: Optional[RunStore] = (
            store
            if isinstance(store, RunStore) or store is None
            else RunStore(store, fsync=self.config.fsync)
        )
        self.model = model
        self.cost_model = cost_model
        #: unique id of this session instance (provenance)
        self.id = f"sess-{uuid.uuid4().hex[:12]}"
        self._seq = 0
        # one session is shared by every worker thread of a server
        # (repro.serve); the provenance sequence must not skip or
        # duplicate numbers under concurrent method calls
        self._seq_lock = threading.Lock()

    # -- resources -----------------------------------------------------------
    @property
    def cache(self) -> Optional[SweepCache]:
        """The shared sweep result cache (``None``: uncached)."""
        return self._cache

    @property
    def store(self):
        """The shared persistent run store (``None``: not durable)."""
        return self._store

    def _provenance(self, method: str) -> Dict[str, object]:
        with self._seq_lock:
            self._seq += 1
            seq = self._seq
        return {
            "session_id": self.id,
            "config_fingerprint": self.config.fingerprint(),
            "method": method,
            "seq": seq,
        }

    def __repr__(self) -> str:
        cache = self._cache.directory if self._cache else None
        store = self._store.root if self._store else None
        return (
            f"Session(id={self.id!r}, cache={str(cache) if cache else None!r}, "
            f"store={str(store) if store else None!r})"
        )

    # -- estimate ------------------------------------------------------------
    def estimate(
        self,
        k: KernelLike,
        model: Optional[ErrorModel] = None,
        track: Sequence[str] = (),
        opt_level: object = _UNSET,
        minimal_pushes: object = _UNSET,
    ):
        """A compiled error-estimating adjoint of ``k`` (Listing 1).

        Served from the shared estimator memo whenever the kernel/model
        pair is cacheable (tracked-sensitivity estimators and models
        closing over arbitrary callables are built fresh).  Returns an
        :class:`~repro.core.api.ErrorEstimator`.
        """
        return cached_error_estimator(
            k,
            model=model if model is not None else self.model,
            track=track,
            opt_level=_pick(opt_level, self.config.opt_level),
            minimal_pushes=_pick(
                minimal_pushes, self.config.minimal_pushes
            ),
        )

    def estimate_at(
        self,
        k: KernelLike,
        args: Sequence[object],
        model: Optional[ErrorModel] = None,
        track: Sequence[str] = (),
    ) -> ErrorReport:
        """Estimate at one input point: ``estimate(k).execute(*args)``."""
        return self.estimate(k, model=model, track=track).execute(*args)

    # -- sweep ---------------------------------------------------------------
    def sweep(
        self,
        k: KernelLike,
        samples: Mapping[str, Sequence[float]],
        fixed: Optional[Mapping[str, object]] = None,
        model: Optional[ErrorModel] = None,
        opt_level: object = _UNSET,
        minimal_pushes: object = _UNSET,
    ) -> BatchReport:
        """Estimate FP error over a batch of input points.

        Repeated sweeps (same kernel content, model, inputs) are served
        from the session's sweep cache; estimators come from the shared
        memo.  Returns a :class:`~repro.sweep.batch.BatchReport` with
        session provenance attached.
        """
        report = run_sweep(
            k,
            samples=samples,
            fixed=fixed,
            model=model if model is not None else self.model,
            opt_level=_pick(opt_level, self.config.opt_level),
            minimal_pushes=_pick(
                minimal_pushes, self.config.minimal_pushes
            ),
            cache=self._cache,
        )
        report.provenance = self._provenance("sweep")
        return report

    # -- tune ----------------------------------------------------------------
    def tune(
        self,
        k: KernelLike,
        threshold: float,
        *,
        args: Optional[Sequence[object]] = None,
        samples: Optional[Mapping[str, Sequence[float]]] = None,
        fixed: Optional[Mapping[str, object]] = None,
        robust: Optional[bool] = None,
        model: Optional[ErrorModel] = None,
        candidates: Optional[Sequence[str]] = None,
        demote_to: object = _UNSET,
        aggregate: object = _UNSET,
    ) -> TuningResult:
        """Greedy mixed-precision tuning under an error threshold.

        Two modes, selected by ``robust`` (default: inferred from the
        inputs given):

        * **point** (``args=``) — the paper's single-point greedy pass;
        * **robust** (``samples=``) — distribution-robust tuning: the
          per-variable demotion contributions are aggregated across the
          whole sweep (session default: worst case) before the same
          greedy core runs.

        Sweeps go through the session cache; estimators through the
        shared memo.  With ``config.analyze`` on, the static analysis
        supplies per-variable amplification bounds that refine the
        greedy ladder order (contribution ties demote the
        most-sensitive variable last).
        """
        if robust is None:
            if args is not None and samples is not None:
                raise ConfigError(
                    "both args= and samples= given — pass robust=True "
                    "(sweep-aggregated) or robust=False (point tuning "
                    "at args) to pick the mode explicitly"
                )
            robust = samples is not None
        sensitivity: Optional[Dict[str, float]] = None
        if self.config.analyze:
            from repro.analyze import analyze_kernel

            sensitivity = dict(
                analyze_kernel(
                    k,
                    points=[args] if args is not None else None,
                    samples=samples,
                    fixed=fixed,
                    threshold=threshold,
                    demote_to=_pick(demote_to, self.config.demote_to),
                ).amp
            )
        if robust:
            if samples is None:
                raise ConfigError(
                    "robust tuning requires samples= (an input sweep)"
                )
            result = run_robust_tune(
                k,
                samples=samples,
                threshold=threshold,
                fixed=fixed,
                # per-call model only: the session default model scopes
                # to estimates/sweeps; tuning contributions must stay
                # on the ADAPT demotion model unless explicitly changed
                model=model,
                candidates=candidates,
                demote_to=_pick(demote_to, self.config.demote_to),
                aggregate=_pick(aggregate, self.config.aggregate),
                cache=self._cache,
                opt_level=self.config.opt_level,
                minimal_pushes=self.config.minimal_pushes,
                sensitivity=sensitivity,
            )
        else:
            if args is None:
                raise ConfigError(
                    "point tuning requires args= (one representative "
                    "input tuple); pass samples= for robust tuning"
                )
            if samples is None and (
                fixed is not None or aggregate is not _UNSET
            ):
                # these knobs only exist in robust mode — ignoring
                # them would silently tune something else than asked.
                # (With samples= present, an explicit robust=False
                # deliberately discards the whole robust group.)
                raise ConfigError(
                    "fixed= and aggregate= apply to robust tuning "
                    "only; point tuning takes the full input tuple "
                    "via args="
                )
            result = run_greedy_tune(
                k,
                args,
                threshold,
                model=model,
                candidates=candidates,
                demote_to=_pick(demote_to, self.config.demote_to),
                opt_level=self.config.opt_level,
                minimal_pushes=self.config.minimal_pushes,
                sensitivity=sensitivity,
            )
        result.provenance = self._provenance("tune")
        return result

    # -- analyze -------------------------------------------------------------
    def _resolve_target(
        self, k, points, threshold, candidates, samples, fixed,
        budget, label
    ):
        """Resolve an app-scenario name or
        :class:`~repro.search.scenario.SearchScenario` target into its
        kernel plus the scenario-defaulted inputs (shared by
        :meth:`analyze` and the search family)."""
        from repro.search.scenario import SearchScenario

        if isinstance(k, str):
            from repro.session.ops import scenario

            k = scenario(k)
        if isinstance(k, SearchScenario):
            scen = k
            if points is None:
                points = scen.points
            if threshold is None:
                threshold = scen.threshold
            if candidates is None:
                candidates = scen.candidates
            if samples is _UNSET:
                samples = scen.samples
            if fixed is _UNSET:
                fixed = scen.fixed
            if budget is _UNSET:
                budget = scen.budget
            if label is None:
                label = scen.name
            k = scen.kernel
        return k, points, threshold, candidates, samples, fixed, \
            budget, label

    def analyze(
        self,
        k,
        threshold: Optional[float] = None,
        *,
        points: Optional[Sequence[Sequence[object]]] = None,
        samples: object = _UNSET,
        fixed: object = _UNSET,
        domains: Optional[Mapping[str, Sequence[float]]] = None,
        demote_to: object = _UNSET,
    ):
        """Static precision analysis of a kernel (no execution).

        ``k`` is a kernel, an IR function, a
        :class:`~repro.search.scenario.SearchScenario`, or the name of
        an app scenario; scenario targets contribute their points,
        samples, fixed values, and threshold.  Returns an
        :class:`~repro.analyze.AnalysisReport` with session provenance
        — the same report :meth:`search` consults for candidate
        pruning when ``config.analyze`` is on.
        """
        from repro.analyze import analyze_kernel

        k, points, threshold, _, samples, fixed, _, _ = (
            self._resolve_target(
                k, points, threshold, None, samples, fixed, _UNSET,
                None,
            )
        )
        report = analyze_kernel(
            k,
            points=points,
            samples=None if samples is _UNSET else samples,
            fixed=None if fixed is _UNSET else fixed,
            domains=domains,
            threshold=threshold,
            demote_to=_pick(demote_to, self.config.demote_to),
        )
        report.provenance = self._provenance("analyze")
        return report

    # -- search --------------------------------------------------------------
    def _resolve_search(
        self,
        k,
        points,
        threshold,
        *,
        candidates,
        samples,
        fixed,
        demote_to,
        strategies,
        budget,
        cache,
        aggregate,
        estimate_model,
        cost_model,
        approx,
        seed,
        error_metric,
        config_batch,
        store,
        label,
        checkpoint_every,
    ) -> Dict[str, object]:
        """Resolve scenario/app-name targets and session defaults into
        the full :func:`repro.search.api.run_search` keyword set —
        shared by :meth:`search` and :meth:`search_run_id` so the run
        a search executes is exactly the run the id predicts.

        With ``config.analyze`` on, the static analysis runs here:
        pinned / demotion-safe variables are pruned from the candidate
        space and the analysis conclusions join the run identity —
        both methods therefore agree on the pruned run's id."""
        k, points, threshold, candidates, samples, fixed, budget, \
            label = self._resolve_target(
                k, points, threshold, candidates, samples, fixed,
                budget, label,
            )
        if points is None or threshold is None:
            raise ConfigError(
                "search requires points= and threshold= (or a "
                "SearchScenario / app scenario name)"
            )
        analysis: Optional[Dict[str, object]] = None
        if self.config.analyze:
            from repro.analyze import analyze_kernel, prune_candidates

            report = analyze_kernel(
                k,
                points=points,
                samples=None if samples is _UNSET else samples,
                fixed=None if fixed is _UNSET else fixed,
                threshold=threshold,
                demote_to=_pick(demote_to, self.config.demote_to),
            )
            if candidates is not None:
                candidates, _ = prune_candidates(report, candidates)
            analysis = {
                "digest": report.digest(),
                "pruned": sorted(
                    set(report.pinned) | set(report.safe)
                ),
            }
        return dict(
            analysis=analysis,
            k=k,
            points=points,
            threshold=threshold,
            candidates=candidates,
            samples=None if samples is _UNSET else samples,
            fixed=None if fixed is _UNSET else fixed,
            demote_to=_pick(demote_to, self.config.demote_to),
            strategies=_pick(strategies, self.config.strategies),
            budget=_pick(budget, self.config.budget),
            cache=_pick(cache, self._cache),
            aggregate=_pick(aggregate, self.config.aggregate),
            estimate_model=_pick(estimate_model, self.model),
            cost_model=_pick(cost_model, self.cost_model),
            approx=approx,
            seed=_pick(seed, self.config.seed),
            error_metric=_pick(error_metric, self.config.error_metric),
            config_batch=_pick(config_batch, self.config.config_batch),
            store=_pick(store, self._store),
            label=label,
            checkpoint_every=_pick(
                checkpoint_every, self.config.checkpoint_every
            ),
        )

    def search(
        self,
        k,
        points: Optional[Sequence[Sequence[object]]] = None,
        threshold: Optional[float] = None,
        *,
        candidates: Optional[Sequence[str]] = None,
        samples: object = _UNSET,
        fixed: object = _UNSET,
        demote_to: object = _UNSET,
        strategies: object = _UNSET,
        budget: object = _UNSET,
        cache: object = _UNSET,
        aggregate: object = _UNSET,
        estimate_model: object = _UNSET,
        cost_model: object = _UNSET,
        approx: Optional[Set[str]] = None,
        seed: object = _UNSET,
        error_metric: object = _UNSET,
        config_batch: object = _UNSET,
        store: object = _UNSET,
        resume: bool = False,
        label: Optional[str] = None,
        checkpoint_every: object = _UNSET,
        on_batch=None,
    ):
        """Multi-objective precision search over (error, cycles).

        ``k`` is a kernel plus explicit ``points``/``threshold``, a
        ready-made :class:`~repro.search.scenario.SearchScenario`, or
        the name of an app scenario (``"blackscholes"``); unset knobs
        fall back to the session config, and the session's sweep cache
        and run store are used unless overridden.  Returns a
        :class:`~repro.search.api.SearchResult` with session
        provenance; with the session store, runs checkpoint durably and
        ``resume=True`` restores bit-identically.  ``on_batch`` is
        called with the computed-evaluation count after every computed
        batch (the job server's cancellation/deadline hook — see
        :func:`repro.search.api.run_search`).
        """
        from repro.search.api import run_search

        kwargs = self._resolve_search(
            k, points, threshold,
            candidates=candidates, samples=samples, fixed=fixed,
            demote_to=demote_to, strategies=strategies, budget=budget,
            cache=cache, aggregate=aggregate,
            estimate_model=estimate_model, cost_model=cost_model,
            approx=approx, seed=seed, error_metric=error_metric,
            config_batch=config_batch, store=store, label=label,
            checkpoint_every=checkpoint_every,
        )
        result = run_search(resume=resume, on_batch=on_batch, **kwargs)
        result.provenance = self._provenance("search")
        return result

    def search_run_id(
        self,
        k,
        points: Optional[Sequence[Sequence[object]]] = None,
        threshold: Optional[float] = None,
        *,
        candidates: Optional[Sequence[str]] = None,
        samples: object = _UNSET,
        fixed: object = _UNSET,
        demote_to: object = _UNSET,
        strategies: object = _UNSET,
        budget: object = _UNSET,
        aggregate: object = _UNSET,
        estimate_model: object = _UNSET,
        cost_model: object = _UNSET,
        approx: Optional[Set[str]] = None,
        seed: object = _UNSET,
        error_metric: object = _UNSET,
    ) -> str:
        """The content-addressed run id :meth:`search` would use for
        these arguments — resolved through the same scenario/default
        pipeline, without running anything.  Lets callers poll
        :meth:`~repro.search.store.RunStore.run_progress` for a search
        before and while it executes."""
        from repro.search.api import search_run_id as _api_run_id

        kwargs = self._resolve_search(
            k, points, threshold,
            candidates=candidates, samples=samples, fixed=fixed,
            demote_to=demote_to, strategies=strategies, budget=budget,
            cache=_UNSET, aggregate=aggregate,
            estimate_model=estimate_model, cost_model=cost_model,
            approx=approx, seed=seed, error_metric=error_metric,
            config_batch=_UNSET, store=_UNSET, label=None,
            checkpoint_every=_UNSET,
        )
        # identity excludes bit-identical-by-contract and plumbing
        # knobs (config_batch, cache, store, label, cadence)
        for knob in ("cache", "config_batch", "store", "label",
                     "checkpoint_every"):
            kwargs.pop(knob)
        return _api_run_id(**kwargs)

    # -- plan ----------------------------------------------------------------
    def plan(
        self,
        entries: Optional[Sequence[object]] = None,
        *,
        plan_file: Union[None, str, Path] = None,
        all_apps: bool = False,
        resume: bool = True,
        defaults: Optional[Mapping[str, object]] = None,
        store: object = _UNSET,
    ):
        """A durable multi-scenario search plan over the session store.

        ``entries`` may mix scenario names and
        :class:`~repro.search.orchestrator.PlanEntry`/dict entries;
        alternatively pass ``plan_file=`` (a JSON plan) or
        ``all_apps=True``.  Session config values (seed, strategies,
        ...) seed the plan defaults; explicit ``defaults`` and per-entry
        overrides win.  Returns the (not yet run)
        :class:`~repro.search.orchestrator.SearchOrchestrator`.
        """
        from repro.search.orchestrator import SearchOrchestrator

        run_store = _pick(store, self._store)
        if run_store is None:
            raise ConfigError(
                "plan() requires a run store — construct the session "
                "with store= (or SessionConfig.store_dir)"
            )
        merged: Dict[str, object] = {
            "seed": self.config.seed,
            "strategies": tuple(self.config.strategies),
            "aggregate": self.config.aggregate,
            "error_metric": self.config.error_metric,
            "config_batch": self.config.config_batch,
            "checkpoint_every": self.config.checkpoint_every,
        }
        # the session's sweep cache is NOT injected into defaults: the
        # orchestrator carries the session itself, so entries reach the
        # live cache through session.search's fallback — and defaults
        # stay JSON-serializable for to_dict()/--json
        given = sum(
            1 for x in (entries, plan_file) if x is not None
        ) + int(all_apps)
        if given != 1:
            raise ConfigError(
                "plan() takes exactly one of entries=, plan_file=, or "
                "all_apps=True"
            )
        if plan_file is not None:
            from repro.search.orchestrator import _check_overrides

            explicit = _check_overrides(defaults or {}, "plan defaults")
            orch = SearchOrchestrator.from_plan_file(
                plan_file, store=run_store, resume=resume, session=self
            )
            # plan-file defaults win over session config; explicit
            # defaults= win over both
            for key, value in merged.items():
                orch.defaults.setdefault(key, value)
            orch.defaults.update(explicit)
            return orch
        merged.update(dict(defaults or {}))
        if all_apps:
            return SearchOrchestrator.over_all_apps(
                run_store, resume=resume, session=self, **merged
            )
        return SearchOrchestrator(
            run_store,
            entries or (),
            resume=resume,
            defaults=merged,
            session=self,
        )

    # -- distributed execution ----------------------------------------------
    def fleet(
        self,
        entries: Optional[Sequence[object]] = None,
        *,
        plan_file: Union[None, str, Path] = None,
        all_apps: bool = False,
        defaults: Optional[Mapping[str, object]] = None,
        store: object = _UNSET,
        workers: int = 2,
        shards: int = 1,
        ttl_s: Optional[float] = None,
        deadline_s: Optional[float] = None,
        worker_env: Optional[Mapping[int, Mapping[str, str]]] = None,
    ):
        """Run a search plan across a multi-process worker fleet.

        Entries/defaults/store resolve exactly like :meth:`plan` (the
        fleet over the same sharded entries is bit-identical to that
        serial orchestrator); ``workers`` processes claim entries via
        the lease protocol, ``shards`` expands each entry with
        per-shard seeds first.  Returns the
        :class:`~repro.dist.fleet.FleetResult` with the elected winner
        front.  See :mod:`repro.dist`.
        """
        orch = self.plan(
            entries,
            plan_file=plan_file,
            all_apps=all_apps,
            defaults=defaults,
            store=store,
        )
        from repro.dist.fleet import run_fleet

        return run_fleet(
            orch.entries,
            orch.store,
            workers=workers,
            shards=shards,
            defaults=orch.defaults,
            session_config=self.config,
            ttl_s=ttl_s,
            deadline_s=deadline_s,
            worker_env=worker_env,
        )

    def merge_runs(
        self,
        sources: Sequence[object],
        *,
        store: object = _UNSET,
        verify: bool = True,
    ):
        """Union-merge runs from ``sources`` into the session store.

        Facade over :func:`repro.dist.store_merge.merge_stores`;
        returns its :class:`~repro.dist.store_merge.MergeReport`.
        """
        run_store = _pick(store, self._store)
        if run_store is None:
            raise ConfigError(
                "merge_runs() requires a run store — construct the "
                "session with store= (or SessionConfig.store_dir)"
            )
        from repro.dist.store_merge import merge_stores

        return merge_stores(run_store, sources, verify=verify)

    # -- runs ----------------------------------------------------------------
    def runs(self, store: object = _UNSET) -> RunsView:
        """List / compare / prune / diff the stored runs."""
        run_store = _pick(store, self._store)
        if run_store is None:
            raise ConfigError(
                "runs() requires a run store — construct the session "
                "with store= (or SessionConfig.store_dir)"
            )
        from repro.search.store import RunStore

        if not isinstance(run_store, RunStore):
            run_store = RunStore(run_store)
        return RunsView(run_store)

    # -- shared-resource telemetry ------------------------------------------
    def warm_start(
        self,
        kernels: Sequence[KernelLike],
        models: Sequence[Optional[ErrorModel]] = (None,),
    ) -> int:
        """Pre-compile estimators into the shared memo (see
        :func:`repro.core.api.warm_start_estimator_memo`)."""
        return warm_start_estimator_memo(
            kernels,
            models=models,
            opt_level=self.config.opt_level,
            minimal_pushes=self.config.minimal_pushes,
        )

    def estimator_memo_stats(self) -> Dict[str, int]:
        """Occupancy and hit/miss counters of the shared estimator
        memo (process-wide; shared with forked worker pools).

        A view over the process-wide metrics registry
        (``repro_memo_*`` in :data:`repro.obs.metrics.REGISTRY`)."""
        return _memo_stats()

    def cache_stats(self) -> Optional[Dict[str, object]]:
        """Sweep-cache counters, or ``None`` without a cache."""
        return (
            self._cache.cache_stats() if self._cache is not None else None
        )

    def stats(self) -> Dict[str, object]:
        """All shared-resource telemetry in one mapping.

        Every sub-dict is a view over the process-wide metrics
        registry (:data:`repro.obs.metrics.REGISTRY`) — the same
        instruments ``/v1/metrics?format=prom`` exposes when serving.
        """
        from repro.codegen.compile import _cache_stats
        from repro.core.api import _work_stats

        out: Dict[str, object] = {
            "session_id": self.id,
            "config_fingerprint": self.config.fingerprint(),
            "estimator_memo": self.estimator_memo_stats(),
            "config_kernel_cache": dict(_cache_stats()),
            "work": _work_stats(),
        }
        if self._cache is not None:
            out["sweep_cache"] = self._cache.cache_stats()
        if self._store is not None:
            out["run_store"] = {
                "root": str(self._store.root),
                "runs": len(self._store.list_runs()),
            }
        return out
