"""Single-host multi-process worker fleet over one shared run store.

``run_fleet`` turns a (possibly sharded) search plan into a pool of
worker processes that coordinate through the store alone:

* every worker independently resolves each plan entry to its
  content-addressed run id and claims entries through
  :class:`~repro.dist.lease.LeaseManager` — no queue, no coordinator;
* per-shard seeds (see
  :func:`repro.search.orchestrator.shard_entries`) fold into the run
  key, so shard runs never collide and any serial
  :class:`~repro.search.orchestrator.SearchOrchestrator` execution of
  the same sharded entries is the bit-identical reference;
* execution goes through the ordinary
  :meth:`SearchScenario.run` → :meth:`Session.search` path with
  ``resume=True``, checkpointing through the existing store contract;
  the lease heartbeat rides the search's ``on_batch`` checkpoint hook;
* a ``SIGKILL``-ed worker stops renewing, its lease expires, and any
  surviving worker steals the entry and resumes from the checkpoint
  prefix — completing to results bit-identical to the uninterrupted
  run;
* the fleet ends with a **winner-front election**: the per-shard
  Pareto fronts stored in the run manifests are unioned with dominance
  pruning (:func:`repro.search.pareto.union_fronts`), each surviving
  point tagged with the shard that produced it.

Workers are ordinary ``multiprocessing`` processes (fork-started where
available, so the parent's warm estimator memo is inherited); each
writes a JSON summary into the store's ``_dist/`` directory that the
parent folds into :class:`FleetResult.stats`.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.search.orchestrator import (
    PlanEntry,
    _check_overrides,
    app_scenarios,
    plan_entries,
    shard_entries,
)
from repro.search.pareto import ParetoFront, union_fronts
from repro.search.store import DIST_DIRNAME, RunStore, StoreLike
from repro.session.config import SessionConfig
from repro.session.ops import integer, positive
from repro.util import atomio
from repro.util.errors import ConfigError

from repro.dist.lease import LeaseLostError, LeaseManager

__all__ = ["FleetResult", "run_fleet", "elect_front"]

_WORKERS_SPAWNED = obs_metrics.REGISTRY.counter(
    "repro_dist_workers_spawned_total", "fleet worker processes started"
)
_ENTRIES_DONE = obs_metrics.REGISTRY.counter(
    "repro_dist_entries_completed_total",
    "plan entries completed by fleet workers",
)
_FLEETS = obs_metrics.REGISTRY.counter(
    "repro_dist_fleet_runs_total", "fleet executions"
)

#: override keys that participate in run identity — the subset of
#: plan overrides forwarded to :meth:`Session.search_run_id` when a
#: worker resolves an entry to the run id it must claim
_IDENTITY_OVERRIDES = (
    "budget",
    "strategies",
    "seed",
    "aggregate",
    "error_metric",
)

#: worker-summary counters aggregated into ``FleetResult.stats``
_SUMMARY_KEYS = (
    "completed",
    "abandoned",
    "failed",
    "claims",
    "claim_conflicts",
    "steals",
    "renewals",
)


@dataclass
class FleetResult:
    """Outcome of one fleet execution."""

    workers: int
    shards: int
    completed: bool
    entries: List[Dict[str, object]]
    front: List[Dict[str, object]]
    stats: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.completed

    def to_dict(self) -> Dict[str, object]:
        return {
            "workers": self.workers,
            "shards": self.shards,
            "completed": self.completed,
            "entries": list(self.entries),
            "front": list(self.front),
            "stats": dict(self.stats),
        }

    def report(self) -> str:
        """Human-readable fleet summary (the CLI's default output)."""
        done = sum(1 for e in self.entries if e.get("completed"))
        lines = [
            f"fleet: {self.workers} worker(s), {len(self.entries)} "
            f"entr{'y' if len(self.entries) == 1 else 'ies'} "
            f"({self.shards} shard(s)/entry), "
            f"{done}/{len(self.entries)} completed"
        ]
        for e in self.entries:
            state = "completed" if e.get("completed") else "INCOMPLETE"
            lines.append(
                f"  {e.get('scenario')} seed={e.get('seed')} "
                f"run={str(e.get('run_id'))[:12]} {state} "
                f"evals={e.get('n_evaluations')}"
            )
        stats = self.stats
        lines.append(
            "  claims={claims} conflicts={claim_conflicts} "
            "steals={steals} renewals={renewals} "
            "abandoned={abandoned} failed={failed}".format(
                **{k: stats.get(k, 0) for k in _SUMMARY_KEYS}
            )
        )
        lines.append(
            f"winner front: {len(self.front)} point(s)"
        )
        for p in self.front:
            prov = p.get("provenance") or {}
            lines.append(
                f"  cycles={p.get('cycles'):12.1f}  "
                f"error={p.get('error'):.4g}  {p.get('key')}  "
                f"<{str(prov.get('run_id'))[:12]} "
                f"seed={prov.get('seed')}>"
            )
        return "\n".join(lines)


def _entry_run_id(session, scen, merged: Mapping[str, object]) -> str:
    """The run id an entry resolves to (identity overrides only)."""
    kwargs = {
        k: merged[k] for k in _IDENTITY_OVERRIDES if k in merged
    }
    return session.search_run_id(
        scen, None, merged.get("threshold"), **kwargs
    )


def _resolve_plan(session, defaults, entries):
    """(entry, scenario, merged overrides, run_id) per plan entry."""
    resolved = []
    for entry in entries:
        merged = dict(defaults)
        merged.update(entry.overrides)
        scen = app_scenarios()[entry.scenario].search_scenario(
            **entry.scenario_args
        )
        resolved.append(
            (entry, scen, merged, _entry_run_id(session, scen, merged))
        )
    return resolved


def _make_heartbeat(leases: LeaseManager, lease, every_s: float):
    """An ``on_batch`` hook renewing the lease at most every
    ``every_s`` seconds; raises :class:`LeaseLostError` (aborting the
    search resumably) the moment the lease is gone."""
    last = [time.monotonic()]

    def on_batch(_n: int) -> None:
        now = time.monotonic()
        if now - last[0] >= every_s:
            leases.renew(lease)
            last[0] = now

    return on_batch


def _worker_main(
    worker_index: int,
    store_root: str,
    config_json: str,
    plan_json: str,
    ttl_s: float,
    poll_s: float,
    deadline_epoch: Optional[float],
    env: Optional[Dict[str, str]],
) -> None:
    """One fleet worker: claim, run/resume, heartbeat, repeat.

    Coordination is store-only; the worker never talks to the parent
    (its end-of-life summary lands in ``<store>/_dist/``).  ``env`` is
    the deterministic failure seam the smoke tests use (for example
    ``REPRO_SEARCH_CRASH_AFTER`` to ``SIGKILL`` this worker after N
    computed candidates land post-checkpoint).
    """
    if env:
        os.environ.update({str(k): str(v) for k, v in env.items()})
    from repro.session import Session  # after env, before faults enable

    config = SessionConfig.from_json(config_json)
    store = RunStore(store_root, fsync=config.fsync)
    session = Session(config, store=store)
    payload = json.loads(plan_json)
    defaults = payload.get("defaults") or {}
    entries = [PlanEntry.from_dict(raw) for raw in payload["entries"]]
    owner = f"worker-{worker_index}:{os.getpid()}"
    leases = LeaseManager(store.leases_dir(), owner=owner, ttl_s=ttl_s)
    resolved = _resolve_plan(session, defaults, entries)
    n = len(resolved)
    # start each worker at a different offset so an idle fleet spreads
    # over the plan instead of stampeding entry 0
    order = [(worker_index + i) % n for i in range(n)]
    pending = set(range(n))
    summary: Dict[str, object] = {
        "worker": worker_index,
        "pid": os.getpid(),
        "completed": 0,
        "abandoned": 0,
        "failed": 0,
        "errors": [],
    }
    with obs_trace.span("dist.worker", worker=worker_index, entries=n):
        while pending:
            if (
                deadline_epoch is not None
                and time.time() >= deadline_epoch
            ):
                break
            progress = False
            for i in order:
                if i not in pending:
                    continue
                entry, scen, merged, run_id = resolved[i]
                manifest = store.load_manifest(run_id)
                if manifest is not None and manifest.get("completed"):
                    pending.discard(i)
                    continue
                try:
                    lease = leases.acquire(
                        run_id,
                        meta={
                            "scenario": entry.scenario,
                            "worker": worker_index,
                        },
                    )
                except OSError:
                    continue  # injected/transient claim fault: retry later
                if lease is None:
                    continue  # live holder elsewhere: move on
                progress = True
                try:
                    scen.run(
                        session=session,
                        store=store,
                        resume=True,
                        on_batch=_make_heartbeat(
                            leases, lease, ttl_s / 3.0
                        ),
                        **merged,
                    )
                    pending.discard(i)
                    summary["completed"] = int(summary["completed"]) + 1
                    _ENTRIES_DONE.inc()
                except LeaseLostError:
                    # stolen mid-run: our checkpoints remain a valid
                    # prefix for the thief; try other entries
                    summary["abandoned"] = int(summary["abandoned"]) + 1
                except Exception as exc:  # noqa: BLE001 - recorded, not fatal
                    pending.discard(i)
                    summary["failed"] = int(summary["failed"]) + 1
                    summary["errors"].append(  # type: ignore[union-attr]
                        {
                            "scenario": entry.scenario,
                            "run_id": run_id[:12],
                            "error": str(exc),
                        }
                    )
                finally:
                    leases.release(lease)
            if pending and not progress:
                time.sleep(poll_s)
    reg = obs_metrics.REGISTRY
    summary["claims"] = reg.counter("repro_dist_claims_total").value
    summary["claim_conflicts"] = reg.counter(
        "repro_dist_claim_conflicts_total"
    ).value
    summary["steals"] = reg.counter(
        "repro_dist_lease_steals_total"
    ).value
    summary["renewals"] = reg.counter(
        "repro_dist_lease_renewals_total"
    ).value
    dist_dir = store.root / DIST_DIRNAME
    dist_dir.mkdir(parents=True, exist_ok=True)
    atomio.atomic_write(
        dist_dir / f"worker-{worker_index}.json",
        (json.dumps(summary, indent=2) + "\n").encode("utf-8"),
    )


def elect_front(
    manifests: Sequence[Optional[Mapping[str, object]]],
) -> ParetoFront:
    """Union the manifests' stored fronts into the winner front.

    Dominance pruning and deterministic tie-breaking are
    :func:`repro.search.pareto.union_fronts`'s; this wrapper builds
    the per-shard provenance tags from the manifests.
    """
    staged = []
    for m in manifests:
        if not isinstance(m, Mapping):
            continue
        key = m.get("key")
        # provenance is the run identity (id, label, seed) only — not
        # the creator's host/pid (those live in the manifest "origin")
        # — so the elected front is bit-identical across executions of
        # the same sharded plan, no matter which process ran a shard
        provenance: Dict[str, object] = {
            "run_id": m.get("run_id"),
            "label": m.get("label"),
            "seed": key.get("seed") if isinstance(key, Mapping) else None,
        }
        staged.append((m.get("front") or [], provenance))
    return union_fronts(staged)


def run_fleet(
    entries: Sequence[object],
    store: StoreLike,
    *,
    workers: int = 2,
    shards: int = 1,
    defaults: Optional[Mapping[str, object]] = None,
    session_config: Optional[SessionConfig] = None,
    ttl_s: Optional[float] = None,
    poll_s: float = 0.05,
    deadline_s: Optional[float] = None,
    worker_env: Optional[Mapping[int, Mapping[str, str]]] = None,
    warm_start: bool = True,
) -> FleetResult:
    """Execute a (sharded) plan with ``workers`` claiming processes.

    ``entries`` mixes scenario names, dicts and
    :class:`~repro.search.orchestrator.PlanEntry`; ``shards > 1``
    expands them with per-shard seeds first.  ``defaults`` must be
    JSON-expressible (they are shipped to the workers).  ``ttl_s``
    falls back to ``session_config.lease_ttl_s``.  ``worker_env`` maps
    a worker index to extra environment variables for that worker —
    the deterministic failure seam the SIGKILL smoke tests use.

    Returns a :class:`FleetResult`; ``completed`` is ``False`` when
    any entry's run never finished (all workers crashed, a scenario
    failed deterministically, or ``deadline_s`` elapsed).  Completed
    fleets end with the winner-front election over the per-shard
    stored fronts.
    """
    workers = integer("workers", workers, 1)
    config = (
        session_config if session_config is not None else SessionConfig()
    )
    run_store = (
        store if isinstance(store, RunStore)
        else RunStore(store, fsync=config.fsync)  # type: ignore[arg-type]
    )
    checked = plan_entries(entries)
    fleet_defaults = dict(defaults or {})
    _check_overrides(fleet_defaults, "fleet defaults")
    if int(shards) > 1:
        checked = shard_entries(
            checked,
            int(shards),
            default_seed=int(
                fleet_defaults.get("seed", config.seed)  # type: ignore[arg-type]
            ),
        )
    try:
        plan_json = json.dumps(
            {
                "defaults": fleet_defaults,
                "entries": [e.to_dict() for e in checked],
            }
        )
    except TypeError as exc:
        raise ConfigError(
            f"fleet defaults must be JSON-expressible "
            f"(they are shipped to worker processes): {exc}"
        ) from None
    ttl = positive("ttl_s", ttl_s if ttl_s is not None else config.lease_ttl_s)
    _FLEETS.inc()

    # the parent resolves run ids for result assembly with faults
    # disabled — injection targets the workers (which enable the plan
    # from their own config), not the election bookkeeping
    from repro.session import Session

    parent_session = Session(
        config.with_options(fault_plan=None, store_dir=None),
        store=run_store,
    )
    resolved = _resolve_plan(
        parent_session, fleet_defaults, checked
    )
    if warm_start:
        # fork-started workers inherit the compiled estimator memo,
        # so the per-worker compile cost is paid once
        from repro.core.api import warm_start_estimator_memo
        from repro.core.models import AdaptModel, TaylorModel
        from repro.ir.types import DType

        warm_start_estimator_memo(
            [scen.kernel for _, scen, _, _ in resolved],
            models=(TaylorModel(), AdaptModel(DType.F32)),
        )

    # stale summaries from a previous fleet over the same store must
    # not fold into this fleet's stats
    dist_dir = run_store.root / DIST_DIRNAME
    if dist_dir.is_dir():
        for path in dist_dir.glob("worker-*.json"):
            try:
                path.unlink()
            except OSError:
                pass

    deadline_epoch = (
        time.time() + float(deadline_s) if deadline_s is not None else None
    )
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # platform without fork: spawn still works
        ctx = multiprocessing.get_context()
    procs = []
    for w in range(int(workers)):
        env = dict((worker_env or {}).get(w) or {})
        proc = ctx.Process(
            target=_worker_main,
            args=(
                w,
                str(run_store.root),
                config.to_json(),
                plan_json,
                ttl,
                float(poll_s),
                deadline_epoch,
                env or None,
            ),
            name=f"repro-dist-worker-{w}",
        )
        proc.start()
        _WORKERS_SPAWNED.inc()
        procs.append(proc)
    for proc in procs:
        if deadline_epoch is None:
            proc.join()
        else:
            proc.join(timeout=max(0.0, deadline_epoch - time.time()) + ttl)
            if proc.is_alive():
                proc.terminate()
                proc.join()

    # -- result assembly ----------------------------------------------------
    entry_rows: List[Dict[str, object]] = []
    manifests = []
    for entry, _scen, merged, run_id in resolved:
        manifest = run_store.load_manifest(run_id)
        manifests.append(manifest)
        completed = bool(manifest and manifest.get("completed"))
        entry_rows.append(
            {
                "scenario": entry.scenario,
                "seed": merged.get("seed"),
                "run_id": run_id,
                "completed": completed,
                "n_evaluations": (
                    run_store.stored_evaluation_count(manifest)
                    if manifest is not None
                    else 0
                ),
            }
        )
    with obs_trace.span(
        "dist.merge", entries=len(resolved), workers=int(workers)
    ):
        front = elect_front(manifests)
    stats: Dict[str, object] = {k: 0 for k in _SUMMARY_KEYS}
    errors: List[object] = []
    if dist_dir.is_dir():
        for path in sorted(dist_dir.glob("worker-*.json")):
            try:
                summary = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
            if not isinstance(summary, dict):
                continue
            for k in _SUMMARY_KEYS:
                if isinstance(summary.get(k), int):
                    stats[k] = int(stats[k]) + summary[k]  # type: ignore[arg-type]
            errors.extend(summary.get("errors") or [])
    if errors:
        stats["errors"] = errors
    # worker counters increment in the forked subprocesses — fold the
    # summary totals back into this process's registry so a serving
    # parent's /v1/metrics reflects the fleet's lease traffic
    for key, counter_name in (
        ("completed", "repro_dist_entries_completed_total"),
        ("claims", "repro_dist_claims_total"),
        ("claim_conflicts", "repro_dist_claim_conflicts_total"),
        ("steals", "repro_dist_lease_steals_total"),
        ("renewals", "repro_dist_lease_renewals_total"),
    ):
        count = stats.get(key)
        if isinstance(count, int) and count > 0:
            obs_metrics.REGISTRY.counter(counter_name).inc(count)
    return FleetResult(
        workers=int(workers),
        shards=int(shards),
        completed=all(r["completed"] for r in entry_rows),
        entries=entry_rows,
        front=[p.to_dict() for p in front.points],  # type: ignore[union-attr]
        stats=stats,
    )
