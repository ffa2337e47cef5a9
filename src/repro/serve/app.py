"""Route table of the job service — pure request → (status, payload).

Kept free of sockets and threads so the whole API surface is testable
by calling :meth:`ServeApp.handle` with a synthetic
:class:`~repro.serve.http.HttpRequest`; the asyncio server in
:mod:`repro.serve.server` is just transport around this.

Endpoints (all JSON unless noted)::

    GET    /v1/healthz          liveness: ok|degraded (503 draining)
    GET    /v1/metrics          service + session + cache telemetry
    GET    /v1/metrics?format=prom  Prometheus text exposition
    GET    /v1/jobs             job listing (?state= filter)
    POST   /v1/jobs             submit a job spec (dedupes by content)
    GET    /v1/jobs/{id}        job state + live search progress
    GET    /v1/jobs/{id}/result result payload (202 while pending)
    DELETE /v1/jobs/{id}        cancel

Submissions carry a request id (client ``X-Request-Id`` header, or a
generated one) that is stamped on the job and echoed in the response
headers — the same id appears on the job's ``serve.job`` root span
when tracing is enabled, joining HTTP traffic to trace files.
"""

from __future__ import annotations

import uuid
from typing import Callable, Dict, Tuple

from repro.serve.http import HttpError, HttpRequest, PlainText
from repro.serve.jobs import (
    COMPLETED,
    JobRegistry,
    QueueFullError,
    RUNNING,
    QUEUED,
)
from repro.session.ops import JobSpec
from repro.util.errors import ConfigError, UnknownNameError

#: fallback retry hint when the registry can't provide a live one
RETRY_AFTER_S = 2

Response = Tuple[int, object, Dict[str, str]]


class ServeApp:
    """Dispatches parsed requests onto a :class:`JobRegistry`."""

    def __init__(
        self,
        registry: JobRegistry,
        metrics,
        is_draining: Callable[[], bool] = lambda: False,
    ) -> None:
        self.registry = registry
        self.metrics = metrics
        self.is_draining = is_draining

    # -- dispatch ------------------------------------------------------------
    def handle(self, req: HttpRequest) -> Response:
        try:
            return self._route(req)
        except HttpError as exc:
            return exc.status, {"error": exc.message}, {}
        except (ConfigError, UnknownNameError) as exc:
            status = 404 if isinstance(exc, UnknownNameError) else 400
            return status, {"error": str(exc)}, {}
        except QueueFullError as exc:
            wait = self._retry_after()
            return (
                429,
                {"error": str(exc), "retry_after_s": wait},
                {"Retry-After": str(wait)},
            )
        except Exception as exc:  # noqa: BLE001 - keep the server up
            return (
                500,
                {"error": f"{type(exc).__name__}: {exc}"},
                {},
            )

    def _route(self, req: HttpRequest) -> Response:
        path, method = req.path.rstrip("/") or "/", req.method
        if path == "/v1/healthz":
            self._require(method, "GET")
            return self._healthz()
        if path == "/v1/metrics":
            self._require(method, "GET")
            fmt = req.query.get("format", "json")
            if fmt == "prom":
                return 200, PlainText(self.metrics.render_prom()), {}
            if fmt != "json":
                raise HttpError(
                    400, f"unknown metrics format {fmt!r} (json|prom)"
                )
            return 200, self.metrics.snapshot(), {}
        if path == "/v1/jobs":
            if method == "GET":
                return self._list_jobs(req)
            self._require(method, "POST")
            return self._submit(req)
        if path.startswith("/v1/jobs/"):
            rest = path[len("/v1/jobs/"):]
            job_id, _, tail = rest.partition("/")
            if not job_id or tail not in ("", "result"):
                raise HttpError(404, f"no such endpoint {req.path!r}")
            if tail == "result":
                self._require(method, "GET")
                return self._result(job_id)
            if method == "DELETE":
                return self._cancel(job_id)
            self._require(method, "GET", "DELETE")
            return self._job(job_id)
        raise HttpError(404, f"no such endpoint {req.path!r}")

    @staticmethod
    def _require(method: str, *allowed: str) -> None:
        if method not in allowed:
            raise HttpError(
                405, f"method {method} not allowed (use {'/'.join(allowed)})"
            )

    def _retry_after(self) -> int:
        """Adaptive backoff hint (queue depth × median job latency)."""
        try:
            return self.registry.retry_after_s()
        except Exception:  # noqa: BLE001 - a hint must never 500
            return RETRY_AFTER_S

    # -- handlers ------------------------------------------------------------
    def _healthz(self) -> Response:
        if self.is_draining():
            return (
                503,
                {"status": "draining"},
                {"Retry-After": str(self._retry_after())},
            )
        # degraded is still 200: the service answers, but some
        # robustness event (exhausted retries, quarantined file,
        # journal write failure, watchdog abort) needs
        # operator attention — the events are itemized in the payload
        payload = self.metrics.health()
        payload.update(self.metrics.identity())
        return 200, payload, {}

    def _list_jobs(self, req: HttpRequest) -> Response:
        state = req.query.get("state")
        jobs = self.registry.jobs(state=state)
        jobs.sort(key=lambda j: j.submitted)
        return (
            200,
            {"jobs": [j.to_dict() for j in jobs], "count": len(jobs)},
            {},
        )

    def _submit(self, req: HttpRequest) -> Response:
        if self.is_draining():
            wait = self._retry_after()
            return (
                503,
                {
                    "error": "server is draining",
                    "retry_after_s": wait,
                },
                {"Retry-After": str(wait)},
            )
        spec = JobSpec.from_dict(req.json())
        request_id = (
            req.headers.get("x-request-id") or f"req-{uuid.uuid4().hex[:12]}"
        )
        job, created = self.registry.submit(spec, request_id=request_id)
        payload = job.to_dict()
        payload["created"] = created
        # 201 for new work, 200 when answered by the content-hash dedup
        return (
            (201 if created else 200),
            payload,
            {"X-Request-Id": request_id},
        )

    def _job(self, job_id: str) -> Response:
        job = self.registry.get(job_id)
        payload = job.to_dict()
        progress = self.registry.progress(job)
        if progress is not None:
            payload["progress"] = progress
        return 200, payload, {}

    def _result(self, job_id: str) -> Response:
        job = self.registry.get(job_id)
        if job.state == COMPLETED:
            return (
                200,
                {"id": job.id, "state": job.state, "result": job.result},
                {},
            )
        if job.state in (QUEUED, RUNNING):
            wait = self._retry_after()
            return (
                202,
                {
                    "id": job.id,
                    "state": job.state,
                    "retry_after_s": wait,
                },
                {"Retry-After": str(wait)},
            )
        return (
            409,
            {"id": job.id, "state": job.state, "error": job.error},
            {},
        )

    def _cancel(self, job_id: str) -> Response:
        job, accepted = self.registry.cancel(job_id)
        if not accepted:
            return (
                409,
                {
                    "id": job.id,
                    "state": job.state,
                    "error": f"job already {job.state}",
                },
                {},
            )
        return 200, job.to_dict(), {}
