"""Tuning-as-a-service: a long-lived job server over one Session.

``python -m repro serve --store runs/`` turns the library into a small
HTTP/JSON service: clients POST estimate/sweep/tune/analyze/search job specs
and poll for results, while every job executes on a bounded thread
pool over **one shared** :class:`repro.session.Session` — so the
estimator memo, sweep cache, config-kernel cache, and run store do for
a stream of requests exactly what they do for a single script, and
``GET /v1/metrics`` makes that sharing observable.

Stdlib only (asyncio + a tiny HTTP/1.1 layer in
:mod:`~repro.serve.http`); no web framework.

* :mod:`~repro.serve.jobs` — :class:`JobRegistry` (bounded queue,
  budgets, deadlines, cooperative cancel) and :class:`JobJournal`
  (atomic per-job records); a job is a
  :class:`~repro.session.ops.JobSpec` (frozen, validated, content-hash
  ids so identical submissions dedupe), the spec the CLI builds too;
* :mod:`~repro.serve.app` — the route table, pure and
  transport-free;
* :mod:`~repro.serve.metrics` — the ``/v1/metrics`` snapshot;
* :mod:`~repro.serve.server` — :class:`ReproServer`: graceful drain
  on SIGTERM, and after a hard kill the next start requeues unfinished
  jobs from the journal and resumes searches bit-identically from the
  run store's checkpoints.
"""

from repro.serve.app import ServeApp
from repro.serve.http import HttpError, HttpRequest, read_request, render
from repro.serve.jobs import (
    Job,
    JobCancelled,
    JobInterrupted,
    JobJournal,
    JobRegistry,
    JobTimeout,
    QueueFullError,
)
from repro.serve.metrics import ServiceMetrics
from repro.serve.server import ReproServer, run_server
from repro.session.ops import JobSpec

__all__ = [
    "HttpError",
    "HttpRequest",
    "Job",
    "JobCancelled",
    "JobInterrupted",
    "JobJournal",
    "JobRegistry",
    "JobSpec",
    "JobTimeout",
    "QueueFullError",
    "ReproServer",
    "ServeApp",
    "ServiceMetrics",
    "read_request",
    "render",
    "run_server",
]
