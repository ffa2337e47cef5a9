"""Multi-scenario search orchestration over a persistent run store.

A production tuning job is rarely one search: it is "run the precision
search over *all* the apps, with these budgets, and compare" — a job
long enough that crashes, OOM kills, and CI timeouts are facts of life.
:class:`SearchOrchestrator` runs such a plan:

* every entry is a :class:`PlanEntry` — a named app scenario
  (:mod:`repro.apps`) plus per-entry overrides (budget, strategies,
  threshold, seed) and optional scenario-construction
  arguments;
* every search runs through the shared :class:`~repro.search.store
  .RunStore`, so evaluation history checkpoints as it is computed;
* resuming an interrupted plan is the default: completed entries are
  reconstructed straight from the store (zero evaluations), partially
  evaluated entries replay their stored history as free memo hits and
  continue where they stopped — both bit-identical to an uninterrupted
  run;
* the estimator memo is warm-started across the whole plan up front
  (:func:`repro.core.api.warm_start_estimator_memo`), so later entries
  never pay a compile the plan already did;
* :meth:`SearchOrchestrator.report` compares the finished runs —
  evaluations computed vs restored, front sizes, and the best
  threshold-feasible speedup per scenario.

CLI::

    python -m repro plan --plan plan.json --store runs/
    python -m repro plan --all --store runs/ --resume
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.search.api import SearchResult
from repro.search.store import RunStore
from repro.util.errors import ConfigError, UnknownNameError

#: plan-entry keys that are not search() overrides
_ENTRY_META_KEYS = ("scenario", "scenario_args")

#: override keys a plan (entry or defaults) may set — the
#: JSON-expressible knobs of :meth:`SearchScenario.run`.  ``store``,
#: ``resume``, and ``label`` are deliberately absent: the orchestrator
#: owns them, and letting a plan shadow them would turn into a
#: confusing runtime TypeError per entry
_ALLOWED_OVERRIDES = frozenset(
    {
        "budget",
        "strategies",
        "threshold",
        "seed",
        "cache",
        "aggregate",
        "error_metric",
        "config_batch",
        "checkpoint_every",
    }
)


def _check_overrides(
    overrides: Mapping[str, object], what: str
) -> Dict[str, object]:
    """``overrides`` with every value normalised by its knob check
    (:data:`repro.session.ops.CHECKS`); unknown keys and bad values
    raise :class:`ConfigError` at load time, not mid-plan."""
    from repro.session.ops import CHECKS, check

    bad = sorted(set(overrides) - _ALLOWED_OVERRIDES)
    if bad:
        raise ConfigError(
            f"{what}: unknown override keys {bad} "
            f"(allowed: {sorted(_ALLOWED_OVERRIDES)})"
        )
    return {
        k: check(k, v) if k in CHECKS else v for k, v in overrides.items()
    }


def app_scenarios() -> Dict[str, object]:
    """App modules that ship a ``search_scenario()`` factory."""
    from repro.apps import ALL_APPS

    return {
        name: mod
        for name, mod in ALL_APPS.items()
        if hasattr(mod, "search_scenario")
    }


@dataclass
class PlanEntry:
    """One scenario of a search plan."""

    scenario: str
    #: keyword overrides forwarded to :meth:`SearchScenario.run`
    overrides: Dict[str, object] = field(default_factory=dict)
    #: keyword arguments for the app's ``search_scenario()`` factory
    scenario_args: Dict[str, object] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, raw: Mapping[str, object]) -> "PlanEntry":
        overrides = _check_overrides(
            {k: v for k, v in raw.items() if k not in _ENTRY_META_KEYS},
            f"plan entry {raw.get('scenario')!r}",
        )
        return cls(
            scenario=str(raw["scenario"]),
            overrides=overrides,
            scenario_args=dict(raw.get("scenario_args") or {}),
        )

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"scenario": self.scenario}
        out.update(self.overrides)
        if "strategies" in out:
            out["strategies"] = list(out["strategies"])
        if self.scenario_args:
            out["scenario_args"] = dict(self.scenario_args)
        return out


def plan_entries(entries: Sequence[object]) -> List[PlanEntry]:
    """A checked plan from scenario names, plan-entry dicts and
    :class:`PlanEntry` instances.

    Fails fast on an empty plan or a typo'd scenario name, instead of
    running every valid sibling first and reporting the bad entry at
    the end.
    """
    out: List[PlanEntry] = []
    for entry in entries:
        if isinstance(entry, PlanEntry):
            out.append(entry)
        elif isinstance(entry, str):
            out.append(PlanEntry(scenario=entry))
        elif isinstance(entry, Mapping):
            out.append(PlanEntry.from_dict(entry))
        else:
            raise ConfigError(
                f"plan entries must be scenario names, dicts, or "
                f"PlanEntry — got {type(entry).__name__}"
            )
    if not out:
        raise ConfigError("plan has no entries")
    known = app_scenarios()
    unknown = [e.scenario for e in out if e.scenario not in known]
    if unknown:
        raise UnknownNameError(
            f"unknown plan scenarios {unknown} "
            f"(available: {sorted(known)})"
        )
    return out


def shard_entries(
    entries: Sequence["PlanEntry"],
    shards: int,
    *,
    default_seed: int = 0,
) -> List["PlanEntry"]:
    """Expand each entry into ``shards`` seed-varied copies.

    Shard ``s`` overrides ``seed = base_seed + s`` where ``base_seed``
    is the entry's own seed override (falling back to
    ``default_seed``).  The seed is part of the content-addressed run
    key, so shard runs get distinct run ids: a fleet can execute them
    concurrently, and their stores union-merge without collisions.
    The expansion is deterministic — a serial
    :class:`SearchOrchestrator` over the same sharded entries is the
    bit-identical reference for any fleet execution of them.
    """
    from repro.session.ops import check

    shards = check("shards", shards)
    out: List[PlanEntry] = []
    for entry in entries:
        base_seed = int(entry.overrides.get("seed", default_seed))  # type: ignore[arg-type]
        for s in range(shards):
            overrides = dict(entry.overrides)
            overrides["seed"] = base_seed + s
            out.append(
                PlanEntry(
                    scenario=entry.scenario,
                    overrides=overrides,
                    scenario_args=dict(entry.scenario_args),
                )
            )
    return out


@dataclass
class PlanRun:
    """Outcome of one plan entry."""

    entry: PlanEntry
    result: Optional[SearchResult]
    status: str  # "completed" | "failed"
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "completed" and self.result is not None


class SearchOrchestrator:
    """Runs a multi-scenario, multi-strategy search plan durably.

    :param store: the shared :class:`RunStore` (or its directory).
    :param entries: the plan: scenario names, plan-entry dicts or
        :class:`PlanEntry` instances (see :func:`plan_entries`).
    :param resume: resume entries from the store when their runs exist
        (default) — the orchestrator is safe to re-launch after a crash
        and will not redo completed work.
    :param defaults: overrides applied to every entry (entry-level
        overrides win).
    :param session: the :class:`~repro.session.Session` whose resources
        (sweep cache, estimator memo defaults) the entries share — a
        throwaway default session is created otherwise.
    """

    def __init__(
        self,
        store: Union[RunStore, str, Path],
        entries: Sequence[object],
        resume: bool = True,
        defaults: Optional[Mapping[str, object]] = None,
        session=None,
    ) -> None:
        # check the plan before the store directory is created
        self.entries = plan_entries(entries)
        self.defaults = _check_overrides(defaults or {}, "plan defaults")
        self.store = (
            store if isinstance(store, RunStore) else RunStore(store)
        )
        self.resume = bool(resume)
        self.session = session
        self.runs: List[PlanRun] = []

    def _session(self):
        if self.session is None:
            from repro.session import Session

            self.session = Session()
        return self.session

    # -- construction --------------------------------------------------------
    @classmethod
    def from_plan(
        cls,
        plan: Mapping[str, object],
        store: Union[RunStore, str, Path],
        resume: bool = True,
        session=None,
    ) -> "SearchOrchestrator":
        """Build from a plan mapping::

            {
              "defaults": {"seed": 0},
              "entries": [
                {"scenario": "blackscholes", "budget": 24},
                {"scenario": "kmeans", "budget": 16,
                 "scenario_args": {"size": 16}}
              ]
            }
        """
        return cls(
            store, plan.get("entries", []), resume=resume,
            defaults=plan.get("defaults") or {},
            session=session,
        )

    @classmethod
    def from_plan_file(
        cls,
        path: Union[str, Path],
        store: Union[RunStore, str, Path],
        resume: bool = True,
        session=None,
    ) -> "SearchOrchestrator":
        plan = json.loads(Path(path).read_text())
        return cls.from_plan(plan, store, resume=resume, session=session)

    @classmethod
    def over_all_apps(
        cls,
        store: Union[RunStore, str, Path],
        resume: bool = True,
        session=None,
        **defaults: object,
    ) -> "SearchOrchestrator":
        """A plan covering every app with a search scenario."""
        entries = [
            PlanEntry(scenario=name) for name in sorted(app_scenarios())
        ]
        return cls(
            store, entries, resume=resume, defaults=defaults,
            session=session,
        )

    # -- execution ------------------------------------------------------------
    def _scenario_for(self, entry: PlanEntry):
        mod = app_scenarios()[entry.scenario]
        return mod.search_scenario(**entry.scenario_args)

    def warm_start(self) -> int:
        """Pre-compile every scenario's estimators into the shared memo.

        Returns the number of estimators newly compiled.  Called by
        :meth:`run`; idempotent."""
        from repro.core.api import warm_start_estimator_memo
        from repro.core.models import AdaptModel, TaylorModel
        from repro.ir.types import DType

        kernels = []
        for entry in self.entries:
            try:
                kernels.append(self._scenario_for(entry).kernel)
            except Exception:
                continue  # entry will fail (and report) in run()
        # TaylorModel serves the candidate sweeps, AdaptModel the
        # contribution ranking — the two models every search builds
        return warm_start_estimator_memo(
            kernels, models=(TaylorModel(), AdaptModel(DType.F32))
        )

    def run(self) -> List[PlanRun]:
        """Execute (or resume) the whole plan; never raises per-entry —
        a failing entry is recorded as ``status="failed"`` and the plan
        continues."""
        self.warm_start()
        self.runs = []
        session = self._session()
        for entry in self.entries:
            overrides = dict(self.defaults)
            overrides.update(entry.overrides)
            try:
                scen = self._scenario_for(entry)
                result = scen.run(
                    session=session,
                    store=self.store, resume=self.resume, **overrides
                )
                self.runs.append(PlanRun(entry, result, "completed"))
            except Exception as exc:  # noqa: BLE001 - reported, not fatal
                self.runs.append(
                    PlanRun(entry, None, "failed", error=str(exc))
                )
        return self.runs

    # -- reporting ------------------------------------------------------------
    @property
    def ok(self) -> bool:
        return bool(self.runs) and all(r.ok for r in self.runs)

    def to_dict(self) -> Dict[str, object]:
        # defaults may hold live objects (a SweepCache instance passed
        # programmatically) — render those as strings so the dict
        # always survives json.dumps (the CLI's --json path)
        defaults = {
            k: (
                v
                if isinstance(
                    v, (str, int, float, bool, type(None), list, tuple)
                )
                else str(v)
            )
            for k, v in self.defaults.items()
        }
        return {
            "store": str(self.store.root),
            "resume": self.resume,
            "defaults": defaults,
            "ok": self.ok,
            "runs": [
                {
                    "entry": r.entry.to_dict(),
                    "status": r.status,
                    "error": r.error or None,
                    "result": (
                        r.result.to_dict() if r.result is not None else None
                    ),
                }
                for r in self.runs
            ],
        }

    def report(self) -> str:
        """Cross-run comparison of the finished plan."""
        lines = [
            f"search plan over {len(self.runs)} scenario(s) "
            f"[store: {self.store.root}]"
        ]
        header = (
            f"  {'scenario':14s} {'status':9s} {'evals':>5s} "
            f"{'restored':>8s} {'front':>5s} {'best@thr':>9s}  run"
        )
        lines.append(header)
        for r in self.runs:
            if r.result is None:
                lines.append(
                    f"  {r.entry.scenario:14s} {'FAILED':9s}"
                    f"{'':>5s} {'':>8s} {'':>5s} {'':>9s}  {r.error}"
                )
                continue
            res = r.result
            best = res.best_under()
            speedup = best.speedup_or_none if best is not None else None
            best_s = f"{speedup:.3f}x" if speedup is not None else "-"
            status = "restored" if res.resumed else "completed"
            lines.append(
                f"  {r.entry.scenario:14s} {status:9s} "
                f"{res.n_evaluated:5d} {res.n_restored:8d} "
                f"{len(res.front):5d} {best_s:>9s}  "
                f"{(res.run_id or '')[:12]}"
            )
        return "\n".join(lines)
