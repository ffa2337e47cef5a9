"""Job model of the tuning service: lifecycle, journal, registry.

A **job** is one unit of client-requested work — an estimate, sweep,
tune, static analysis, or search over a named app scenario, requested
by a :class:`~repro.session.ops.JobSpec` and executed by
:func:`repro.session.ops.execute`, the same operation layer the CLI
runs on.  The design leans on the properties the rest of the library
already guarantees:

* job ids are **content hashes** of the (validated, normalized) job
  spec, so identical submissions dedupe into one job instead of
  recomputing — the same discipline as the estimator memo, the sweep
  cache, and the run store;
* search jobs resolve their **content-addressed run id** at submission
  time (:meth:`repro.session.Session.search_run_id`), so clients can
  poll live progress from the run store's checkpointed manifests while
  the job executes, and a resubmitted search rides the store's
  bit-identical warm-resume path;
* every state transition lands in a durable :class:`JobJournal`
  (atomic JSON files), so a server killed mid-job restarts, requeues
  the unfinished jobs, and — for searches — resumes them from the run
  store's checkpoints with fronts bit-identical to an uninterrupted
  run.

Robustness knobs live in the :class:`JobRegistry`: a bounded queue
(submitting past it raises :class:`QueueFullError` → HTTP 429), a
server-wide evaluation-budget cap, and per-job wall-clock deadlines
enforced cooperatively through the search driver's ``on_batch`` hook
(an aborted search keeps its checkpointed prefix and stays resumable).
"""

from __future__ import annotations

import json
import math
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.session import ops
from repro.session.ops import JobSpec
from repro.util import atomio
from repro.util.retry import DEFAULT_IO_POLICY
from repro.util.errors import ConfigError, ReproError, UnknownNameError

_JOB_SECONDS = obs_metrics.REGISTRY.histogram(
    "repro_job_duration_seconds", "job execution latency (started→finished)"
)

#: lifecycle states
QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"
CANCELLED = "cancelled"
#: terminal states — jobs here never transition again
FINISHED = (COMPLETED, FAILED, CANCELLED)


class QueueFullError(ReproError, RuntimeError):
    """The pending-job queue is at capacity (HTTP 429 backpressure)."""


class JobInterrupted(ReproError, RuntimeError):
    """A running job was interrupted cooperatively."""


class JobCancelled(JobInterrupted):
    """The client cancelled the job."""


class JobTimeout(JobInterrupted):
    """The job exceeded its wall-clock deadline."""


@dataclass
class Job:
    """One job's live state (registry-internal; the wire view is
    :meth:`to_dict`)."""

    spec: JobSpec
    id: str
    state: str = QUEUED
    submitted: float = field(default_factory=time.time)
    started: Optional[float] = None
    finished: Optional[float] = None
    #: kind-specific result payload (set on completion)
    result: Optional[Dict[str, object]] = None
    error: Optional[str] = None
    #: content-addressed search run id (resolved at submission)
    run_id: Optional[str] = None
    #: requeued by restart-recovery rather than a client
    recovered: bool = False
    #: HTTP request id of the submitting request (trace linkage: the
    #: job's root span carries it, so a trace can be joined back to
    #: the originating client call)
    request_id: Optional[str] = None
    #: cooperative cancellation flag, checked between computed batches
    cancel_event: threading.Event = field(default_factory=threading.Event)
    future: Optional[Future] = field(default=None, repr=False)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "id": self.id,
            "kind": self.spec.kind,
            "kernel": self.spec.kernel,
            "state": self.state,
            "spec": self.spec.to_dict(),
            "submitted": self.submitted,
            "started": self.started,
            "finished": self.finished,
            "error": self.error,
            "run_id": self.run_id,
            "recovered": self.recovered,
            "request_id": self.request_id,
            "cancel_requested": self.cancel_event.is_set(),
        }
        if self.started is not None and self.finished is not None:
            out["duration_s"] = self.finished - self.started
        return out


class JobJournal:
    """Durable job records: one atomic JSON file per job id.

    The journal is what survives a hard kill: it holds each job's spec
    and last observed state (plus the result payload once finished), so
    a restarted registry can requeue unfinished work and keep answering
    for jobs that completed in a previous life.  Records are written
    through :mod:`repro.util.atomio` — atomic rename, checksummed
    frame, transient-``OSError`` retries — and corrupt records found on
    :meth:`load` are quarantined, never silently trusted or deleted.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path_of(self, job_id: str) -> Path:
        return self.directory / f"{job_id}.json"

    def record(self, job: Job) -> None:
        payload = job.to_dict()
        payload["result"] = job.result
        data = (json.dumps(payload, indent=2) + "\n").encode("utf-8")
        atomio.atomic_write(
            self.path_of(job.id),
            data,
            checksum=True,
            site="journal.append",
            retry=DEFAULT_IO_POLICY,
        )

    def load(self) -> List[Dict[str, object]]:
        """Every readable record, oldest submission first.

        Records that fail their checksum or don't parse are moved to
        ``_quarantine/`` and skipped — a journal that lost a record
        degrades to not knowing about that job, never to a server that
        refuses to start (and never to one that deletes the evidence).
        Unframed records from pre-checksum journals still load."""
        out: List[Dict[str, object]] = []
        for path in sorted(self.directory.glob("*.json")):
            try:
                blob = atomio.read_bytes(
                    path, checked=True, site="journal.read"
                )
                rec = json.loads(blob.decode("utf-8"))
            except (
                atomio.CorruptPayloadError,
                UnicodeDecodeError,
                ValueError,
            ):
                atomio.quarantine(path, "corrupt journal record")
                continue
            except OSError:
                continue  # unreadable, but not provably corrupt
            if isinstance(rec, dict) and isinstance(rec.get("spec"), dict):
                out.append(rec)
        out.sort(key=lambda r: r.get("submitted") or 0.0)
        return out

    def remove(self, job_id: str) -> None:
        try:
            self.path_of(job_id).unlink()
        except OSError:
            pass


class JobRegistry:
    """Owns job lifecycle over one shared :class:`repro.session.Session`.

    Jobs execute on a bounded thread pool; the session's process-wide
    resources (estimator memo, sweep cache, config-kernel cache, run
    store) are shared across all workers — that sharing is the whole
    service story, and it is safe because the memos/counters are
    lock-guarded process-wide.

    :param session: the shared session (must have a run store for
        search jobs to be durable/resumable).
    :param workers: concurrent job executions.
    :param max_queue: pending (queued) jobs accepted before
        :meth:`submit` raises :class:`QueueFullError`.
    :param max_budget: server-wide cap on a search job's effective
        evaluation budget (``None``: uncapped).
    :param default_timeout_s: wall-clock deadline applied to jobs that
        don't carry their own ``timeout_s`` (``None``: no deadline).
    :param journal: durable job journal (``None``: in-memory only —
        restart-recovery disabled).
    """

    def __init__(
        self,
        session,
        *,
        workers: int = 2,
        max_queue: int = 16,
        max_budget: Optional[int] = None,
        default_timeout_s: Optional[float] = None,
        journal: Optional[JobJournal] = None,
    ) -> None:
        self.session = session
        self.workers = ops.integer("workers", workers, 1)
        self.max_queue = ops.integer("max_queue", max_queue, 0)
        self.max_budget = (
            None if max_budget is None
            else ops.integer("max_budget", max_budget, 1)
        )
        self.default_timeout_s = default_timeout_s
        self.journal = journal
        self._jobs: "Dict[str, Job]" = {}
        self._deadlines: Dict[str, float] = {}
        self._lock = threading.RLock()
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="repro-serve"
        )
        self._closed = False
        #: test seam: called with the job right after it turns RUNNING
        self._pre_run_hook = None
        #: job ids the watchdog already requeued once (one second
        #: chance per id — a job that hangs twice stays FAILED)
        self._watchdog_requeued: Set[str] = set()
        self.counters: Dict[str, int] = {
            "submitted": 0,
            "deduped": 0,
            "rejected": 0,
            "recovered": 0,
            "completed": 0,
            "failed": 0,
            "cancelled": 0,
            "timeouts": 0,
            "journal_failures": 0,
            "watchdog_aborts": 0,
            "watchdog_requeues": 0,
        }

    def _count(self, key: str, n: int = 1) -> None:
        """Bump one lifecycle counter, instance + process-wide.

        The instance dict is exact for this registry (``stats()``);
        the mirrored ``repro_jobs_<key>_total`` registry counter spans
        every registry in the process.  Both are lock-guarded, so
        increments from the asyncio loop and worker threads never
        race."""
        with self._lock:
            self.counters[key] += n
        obs_metrics.REGISTRY.counter(
            f"repro_jobs_{key}_total", f"jobs {key}"
        ).inc(n)

    def _journal_record(self, job: Job) -> None:
        """Record a transition, degrading on journal failure.

        A journal write that still fails after its retries costs
        durability for that one transition (a restart may re-run the
        job — safe: job results are deterministic and stores are
        content-addressed), not availability: the job proceeds, the
        failure is counted, and ``/v1/healthz`` turns ``degraded``."""
        if self.journal is None:
            return
        try:
            self.journal.record(job)
        except OSError:
            self._count("journal_failures")

    # -- submission ----------------------------------------------------------
    def _validate(self, spec: JobSpec) -> None:
        """Submission-time validation: bad requests answer HTTP 400
        instead of becoming failed jobs.  The spec and scenario checks
        are the operations' own (:func:`repro.session.ops.validate`);
        the server adds its budget cap and the run-store requirement
        of sharded searches."""
        scen = ops.validate(spec)
        if spec.kind != "search":
            return
        # a sharded search spends ``budget`` per shard — cap the
        # aggregate, not the per-shard slice
        effective = (spec.budget or scen.budget) * (spec.shards or 1)
        if self.max_budget is not None and effective > self.max_budget:
            raise ConfigError(
                f"budget {effective} exceeds the server cap "
                f"{self.max_budget}"
            )
        if (spec.shards or spec.fleet_workers) and self.session.store is None:
            raise ConfigError("sharded search requires the server run store")

    def submit(
        self,
        spec: JobSpec,
        *,
        force: bool = False,
        request_id: Optional[str] = None,
    ) -> Tuple[Job, bool]:
        """Submit (or dedupe) one job; returns ``(job, created)``.

        Identical specs dedupe onto the existing job in any
        non-terminal-failure state — queued, running, or completed —
        so repeat traffic is answered from one execution.  A spec
        whose previous job failed or was cancelled is requeued under
        the same id.

        ``request_id`` (the HTTP ``X-Request-Id`` of the submitting
        call) is stamped on newly created jobs so their ``serve.job``
        trace span can be joined back to the originating request.

        :raises QueueFullError: the pending queue is at capacity
            (skipped with ``force=True``, used by restart-recovery).
        :raises ConfigError: invalid spec values for the target
            scenario, or a budget above the server cap.
        :raises UnknownNameError: unknown scenario name.
        """
        with self._lock:
            if self._closed:
                raise QueueFullError("registry is shut down")
            existing = self._jobs.get(spec.job_id)
            if existing is not None and existing.state not in (
                FAILED,
                CANCELLED,
            ):
                self._count("deduped")
                return existing, False
            if not force and self.queue_depth() >= self.max_queue:
                self._count("rejected")
                raise QueueFullError(
                    f"job queue is full ({self.max_queue} pending)"
                )
            self._validate(spec)
            job = Job(spec=spec, id=spec.job_id, request_id=request_id)
            if spec.kind == "search":
                # resolved through the same scenario/default pipeline
                # the execution uses, so the id always matches the run
                job.run_id = self.session.search_run_id(
                    spec.kernel, **spec.search_overrides()
                )
            self._jobs[job.id] = job
            self._count("submitted")
            self._journal_record(job)
            job.future = self._executor.submit(self._run, job)
            return job, True

    # -- lookup --------------------------------------------------------------
    def get(self, job_id: str) -> Job:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise UnknownNameError(f"unknown job {job_id!r}")
        return job

    def jobs(self, state: Optional[str] = None) -> List[Job]:
        with self._lock:
            out = list(self._jobs.values())
        if state is not None:
            out = [j for j in out if j.state == state]
        return out

    def queue_depth(self) -> int:
        with self._lock:
            return sum(
                1 for j in self._jobs.values() if j.state == QUEUED
            )

    def retry_after_s(self) -> int:
        """Adaptive ``Retry-After`` hint from live load.

        Estimates when a slot frees up: queue position over worker
        count, scaled by the median observed job duration (2 s before
        any job has finished).  Clamped to ``[1, 60]`` so a burst of
        slow jobs never tells clients to go away for hours."""
        snap = _JOB_SECONDS.snapshot()
        median = snap["p50"] if snap["count"] else 2.0
        waves = (self.queue_depth() + 1) / max(1, self.workers)
        return int(min(60, max(1, math.ceil(waves * median))))

    def progress(self, job: Job) -> Optional[Dict[str, object]]:
        """Live search progress from the run store's checkpoints."""
        store = getattr(self.session, "store", None)
        if job.run_id is None or store is None:
            return None
        return store.run_progress(job.run_id)

    # -- cancellation --------------------------------------------------------
    def cancel(self, job_id: str) -> Tuple[Job, bool]:
        """Request cancellation; returns ``(job, accepted)``.

        Queued jobs cancel immediately.  Running search jobs abort
        cooperatively at the next computed batch (their checkpointed
        prefix stays resumable); other running kinds finish their
        current call and only then observe the flag.
        """
        job = self.get(job_id)
        with self._lock:
            if job.state in FINISHED:
                return job, False
            job.cancel_event.set()
            if (
                job.state == QUEUED
                and job.future is not None
                and job.future.cancel()
            ):
                self._finish(job, CANCELLED, error="cancelled while queued")
            return job, True

    # -- execution -----------------------------------------------------------
    def _check_interrupt(self, job: Job, _n: int = 0) -> None:
        if job.cancel_event.is_set():
            raise JobCancelled(f"job {job.id} cancelled")
        deadline = self._deadlines.get(job.id)
        if deadline is not None and time.time() > deadline:
            raise JobTimeout(
                f"job {job.id} exceeded its wall-clock deadline"
            )

    def _finish(
        self,
        job: Job,
        state: str,
        *,
        result: Optional[Dict[str, object]] = None,
        error: Optional[str] = None,
    ) -> None:
        with self._lock:
            if job.state in FINISHED:
                return
            job.state = state
            job.finished = time.time()
            job.result = result
            job.error = error
            self._deadlines.pop(job.id, None)
            key = {
                COMPLETED: "completed",
                FAILED: "failed",
                CANCELLED: "cancelled",
            }[state]
            self._count(key)
            if job.started is not None and job.finished is not None:
                _JOB_SECONDS.observe(job.finished - job.started)
            self._journal_record(job)

    def _run(self, job: Job) -> None:
        with self._lock:
            if job.cancel_event.is_set() or job.state != QUEUED:
                self._finish(
                    job, CANCELLED, error="cancelled while queued"
                )
                return
            job.state = RUNNING
            job.started = time.time()
            timeout = (
                job.spec.timeout_s
                if job.spec.timeout_s is not None
                else self.default_timeout_s
            )
            if timeout is not None:
                self._deadlines[job.id] = job.started + float(timeout)
            self._journal_record(job)
        hook = self._pre_run_hook
        if hook is not None:
            hook(job)
        try:
            self._check_interrupt(job)
            # per-job root span: links the worker-thread execution back
            # to the submitting HTTP request via request_id (the trace
            # analogue of the X-Request-Id response header)
            with obs_trace.span(
                "serve.job",
                job_id=job.id,
                kind=job.spec.kind,
                kernel=job.spec.kernel,
                request_id=job.request_id,
                recovered=job.recovered,
            ):
                result = ops.execute(
                    self.session,
                    job.spec,
                    resume=self.session.store is not None,
                    on_batch=lambda n: self._check_interrupt(job, n),
                    deadline_s=job.spec.timeout_s or self.default_timeout_s,
                ).payload
        except JobCancelled:
            self._finish(job, CANCELLED, error="cancelled")
        except JobTimeout as exc:
            self._count("timeouts")
            self._finish(job, FAILED, error=str(exc))
        except Exception as exc:  # noqa: BLE001 - job isolation barrier
            self._finish(
                job, FAILED, error=f"{type(exc).__name__}: {exc}"
            )
        else:
            self._finish(job, COMPLETED, result=result)

    # -- watchdog ------------------------------------------------------------
    def watchdog_sweep(
        self, *, grace_s: float = 5.0, requeue: bool = True
    ) -> int:
        """Fail RUNNING jobs stuck past their deadline; returns the
        number aborted.

        The deadline is normally enforced cooperatively (the search
        driver's ``on_batch`` hook), but a job wedged *inside* one
        batch — a hung worker pool, a stuck filesystem — never reaches
        the next check.  The watchdog is the backstop: once a job is
        ``grace_s`` past its deadline it is marked FAILED (its worker
        thread is poisoned via the cancel event and its eventual
        result discarded by ``_finish``'s already-FINISHED guard).

        Aborted *search* jobs are requeued once per job id: their
        checkpointed prefix makes the re-run a warm resume, and even if
        the wedged thread later revives, both writers emit atomic
        whole-file checkpoints of prefixes of the same deterministic
        evaluation order — concurrent completion is benign.
        """
        now = time.time()
        aborted: List[Job] = []
        with self._lock:
            for job in self._jobs.values():
                if job.state != RUNNING:
                    continue
                deadline = self._deadlines.get(job.id)
                if deadline is None or now <= deadline + grace_s:
                    continue
                job.cancel_event.set()
                self._count("watchdog_aborts")
                self._finish(
                    job,
                    FAILED,
                    error=(
                        "watchdog: stuck past deadline by more than "
                        f"{grace_s:g}s (hung batch?)"
                    ),
                )
                aborted.append(job)
        for job in aborted:
            if (
                not requeue
                or job.spec.kind != "search"
                or job.id in self._watchdog_requeued
            ):
                continue
            self._watchdog_requeued.add(job.id)
            try:
                self.submit(job.spec, force=True)
            except ReproError:
                continue  # registry closing or scenario gone
            self._count("watchdog_requeues")
        return len(aborted)

    # -- restart recovery ----------------------------------------------------
    def recover(self) -> int:
        """Reload the journal: requeue unfinished jobs, rehydrate
        finished ones.  Returns the number of jobs requeued.

        Requeued search jobs run with ``resume=True`` against the
        shared run store, so a server killed mid-search continues from
        the checkpointed prefix — the resumed front is bit-identical
        to an uninterrupted run (the store's resume contract)."""
        if self.journal is None:
            return 0
        requeued = 0
        for rec in self.journal.load():
            try:
                spec = JobSpec.from_dict(rec["spec"])
            except (ConfigError, TypeError):
                continue
            state = rec.get("state")
            if state in (QUEUED, RUNNING):
                try:
                    job, created = self.submit(spec, force=True)
                except (ConfigError, UnknownNameError):
                    # e.g. a scenario that no longer exists
                    continue
                if created:
                    job.recovered = True
                    requeued += 1
                    with self._lock:
                        self._count("recovered")
            elif state in FINISHED:
                job = Job(
                    spec=spec,
                    id=str(rec.get("id") or spec.job_id),
                    state=str(state),
                    submitted=float(rec.get("submitted") or 0.0),
                    started=rec.get("started"),  # type: ignore[arg-type]
                    finished=rec.get("finished"),  # type: ignore[arg-type]
                    result=rec.get("result"),  # type: ignore[arg-type]
                    error=rec.get("error"),  # type: ignore[arg-type]
                    run_id=rec.get("run_id"),  # type: ignore[arg-type]
                    recovered=True,
                )
                with self._lock:
                    self._jobs.setdefault(job.id, job)
        return requeued

    # -- telemetry / shutdown ------------------------------------------------
    def stats(self) -> Dict[str, object]:
        with self._lock:
            states: Dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            return {
                "counters": dict(self.counters),
                "states": states,
                "queue": {
                    "depth": sum(
                        1
                        for j in self._jobs.values()
                        if j.state == QUEUED
                    ),
                    "capacity": self.max_queue,
                    "workers": self.workers,
                },
            }

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait for in-flight jobs to finish; returns whether the
        registry went idle within ``timeout`` seconds.

        Jobs still queued or running when the deadline expires stay
        QUEUED/RUNNING in the journal, which is exactly what
        :meth:`recover` requeues on the next start."""
        deadline = (
            None if timeout is None else time.monotonic() + float(timeout)
        )
        while True:
            busy = [
                j
                for j in self.jobs()
                if j.state in (QUEUED, RUNNING)
            ]
            if not busy:
                return True
            if deadline is not None and time.monotonic() > deadline:
                return False
            time.sleep(0.05)

    def close(self) -> None:
        """Shut the worker pool down (pending futures cancelled)."""
        with self._lock:
            self._closed = True
        self._executor.shutdown(wait=False, cancel_futures=True)
