"""Service telemetry: one snapshot across every shared resource.

``GET /v1/metrics`` is the observable proof of the service's central
claim — that all jobs share one session's process-wide resources.  A
repeated identical search shows up here as ``jobs.counters.deduped``
(never re-executed at all); a resubmitted-but-rerun search shows up as
``search.runs`` staying flat while ``estimator_memo.hits`` climbs; a
threshold-varied sweep of submissions shows the config-kernel cache
absorbing the compile cost.

Since the observability layer landed, the counters here are **views
over the process-wide registry** (:data:`repro.obs.metrics.REGISTRY`):
every HTTP observation folds into ``repro_http_*`` instruments, and
``GET /v1/metrics?format=prom`` renders the whole registry in the
Prometheus text exposition format.  ``ServiceMetrics`` keeps exact
per-instance counts too (one server's snapshot must not include a
previous server's traffic in the same process — tests rely on that),
guarded by the instance lock.

Thread-safety: ``observe_response`` is called from the asyncio loop
thread while job-side counters mutate under worker threads; both the
instance dict updates (``self._lock``) and the registry increments
(registry lock) are lock-guarded, so concurrent observers can never
lose increments.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

from repro.obs import metrics as obs_metrics
from repro.serve.jobs import JobRegistry

_HTTP_REQUESTS = obs_metrics.REGISTRY.counter(
    "repro_http_requests_total", "HTTP requests received"
)
_HTTP_CLASSES = {
    2: obs_metrics.REGISTRY.counter(
        "repro_http_responses_2xx_total", "HTTP 2xx responses"
    ),
    4: obs_metrics.REGISTRY.counter(
        "repro_http_responses_4xx_total", "HTTP 4xx responses"
    ),
    5: obs_metrics.REGISTRY.counter(
        "repro_http_responses_5xx_total", "HTTP 5xx responses"
    ),
}
_HTTP_SECONDS = obs_metrics.REGISTRY.histogram(
    "repro_http_request_seconds", "HTTP request handling latency"
)

#: process-wide robustness counters surfaced in ``/v1/metrics`` and
#: watched by ``health()``; get-or-create, so ordering against the
#: subsystems that own them doesn't matter
ROBUSTNESS_COUNTERS = (
    "repro_faults_injected_total",
    "repro_retries_total",
    "repro_retry_exhausted_total",
    "repro_quarantined_total",
    "repro_sweep_cache_read_failures_total",
    "repro_sweep_cache_write_failures_total",
    "repro_jobs_journal_failures_total",
    "repro_jobs_watchdog_aborts_total",
    "repro_jobs_watchdog_requeues_total",
)

#: process-wide distributed-execution counters (``repro.dist``):
#: lease claim traffic, fleet activity, and store merges.  Surfaced as
#: the ``dist`` section of ``/v1/metrics`` (and, like every registry
#: counter, in the Prometheus rendering).  Get-or-create, so a server
#: that never runs a fleet still reports zeros.
DIST_COUNTERS = (
    "repro_dist_claims_total",
    "repro_dist_claim_conflicts_total",
    "repro_dist_lease_steals_total",
    "repro_dist_lease_renewals_total",
    "repro_dist_leases_lost_total",
    "repro_dist_entries_completed_total",
    "repro_dist_workers_spawned_total",
    "repro_dist_fleet_runs_total",
    "repro_dist_merged_runs_total",
    "repro_dist_merge_skipped_total",
)

#: the subset whose growth flips health to ``degraded``: events the
#: service did NOT fully absorb.  Retries that succeeded and faults
#: that were injected-then-survived are normal operation; exhausted
#: retries, quarantined files, lost journal writes and watchdog
#: action all mean something real was lost or rebuilt.
DEGRADING_COUNTERS = (
    "repro_retry_exhausted_total",
    "repro_quarantined_total",
    "repro_sweep_cache_read_failures_total",
    "repro_sweep_cache_write_failures_total",
    "repro_jobs_journal_failures_total",
    "repro_jobs_watchdog_aborts_total",
)


class ServiceMetrics:
    """Aggregates registry, session, cache, and HTTP counters.

    Instance counters are exact for this server's lifetime; every
    observation is also mirrored into the process-wide registry
    (``repro_http_*``)."""

    def __init__(
        self, registry: JobRegistry, started: Optional[float] = None
    ) -> None:
        self.registry = registry
        self.started = time.time() if started is None else started
        self._lock = threading.Lock()
        self._http: Dict[str, int] = {
            "requests": 0,
            "responses_2xx": 0,
            "responses_4xx": 0,
            "responses_5xx": 0,
        }
        # robustness counters are process-wide and may carry increments
        # from earlier servers/sessions in this process; health is
        # judged on growth since *this* server started
        self._robustness_baseline: Dict[str, int] = {
            name: obs_metrics.REGISTRY.counter(name).value
            for name in ROBUSTNESS_COUNTERS
        }

    def robustness(self) -> Dict[str, int]:
        """Robustness counter deltas since this server started."""
        return {
            name: obs_metrics.REGISTRY.counter(name).value
            - self._robustness_baseline[name]
            for name in ROBUSTNESS_COUNTERS
        }

    def health(self) -> Dict[str, object]:
        """The liveness verdict: ``ok`` or ``degraded`` (+ evidence).

        ``degraded`` means a robustness event this server could not
        fully absorb happened on its watch — an exhausted retry, a
        quarantined file, a journal write lost, a worker pool rebuilt,
        a watchdog abort.  Absorbed retries and injected-but-survived
        faults do not degrade health: surviving those is the design.
        """
        deltas = self.robustness()
        events = {
            name: deltas[name]
            for name in DEGRADING_COUNTERS
            if deltas[name] > 0
        }
        out: Dict[str, object] = {
            "status": "degraded" if events else "ok"
        }
        if events:
            out["degraded_events"] = events
        return out

    def observe_response(
        self, status: int, duration_s: Optional[float] = None
    ) -> None:
        """Count one completed HTTP exchange (thread-safe).

        ``duration_s``, when the server measured it, feeds the
        ``repro_http_request_seconds`` histogram."""
        with self._lock:
            self._http["requests"] += 1
            bucket = f"responses_{status // 100}xx"
            if bucket in self._http:
                self._http[bucket] += 1
        _HTTP_REQUESTS.inc()
        cls = _HTTP_CLASSES.get(status // 100)
        if cls is not None:
            cls.inc()
        if duration_s is not None:
            _HTTP_SECONDS.observe(duration_s)

    def identity(self) -> Dict[str, object]:
        """The static who-am-I block shared by healthz and metrics."""
        from repro.search.store import library_version

        session = self.registry.session
        return {
            "version": library_version(),
            "session_id": session.id,
            "config_fingerprint": session.config.fingerprint(),
            "uptime_s": round(time.time() - self.started, 3),
        }

    def snapshot(self) -> Dict[str, object]:
        """The JSON ``/v1/metrics`` payload (views over the registry
        plus service identity and store occupancy)."""
        session = self.registry.session
        out: Dict[str, object] = {"service": self.identity()}
        out["jobs"] = self.registry.stats()
        with self._lock:
            out["http"] = dict(self._http)
        out["robustness"] = {
            "health": self.health()["status"],
            "counters": self.robustness(),
        }
        out["dist"] = {
            name: obs_metrics.REGISTRY.counter(name).value
            for name in DIST_COUNTERS
        }
        # session.stats() already unifies estimator memo, config
        # kernel cache, and sweep cache counters (PR 5; registry views
        # since the observability layer)
        out["session"] = session.stats()
        store = session.store
        if store is not None:
            runs = store.list_runs()
            out["store"] = {
                "root": str(store.root),
                "runs": len(runs),
                "completed": sum(
                    1 for m in runs if m.get("completed")
                ),
                "in_flight": len(store.in_flight_runs()),
            }
        return out

    def render_prom(self) -> str:
        """Prometheus text exposition of the process-wide registry
        (the ``/v1/metrics?format=prom`` payload)."""
        return obs_metrics.render_prom()
