"""Shared retry policy: bounded backoff with decorrelated jitter.

One retry discipline for every durable I/O path (run store, sweep
cache, job journal, serve handlers) instead of ad-hoc ``except
OSError: pass`` blocks:

* only **transient** failures are retried (:func:`is_transient`
  classifies by errno — ``EIO``, ``EAGAIN``, ``EINTR``, ``EBUSY``,
  ``ETIMEDOUT``, ``ENOSPC``, ...; everything else propagates on the
  first throw);
* backoff uses *decorrelated jitter* (each delay drawn uniformly from
  ``[base, 3 * previous]``, capped) — the schedule that avoids both
  thundering-herd resonance and the long fixed tails of plain
  exponential backoff;
* every retry loop is bounded twice: by ``attempts`` and by a
  wall-clock ``deadline_s`` — a retried operation can never wedge its
  caller;
* telemetry is uniform: every sleep-then-retry increments
  ``repro_retries_total`` and emits a ``retry`` span (op, attempt,
  error type); giving up after a transient failure increments
  ``repro_retry_exhausted_total``.

The first successful call pays nothing beyond the ``try`` frame — no
span, no counter, no clock read beyond one ``monotonic()``.
"""

from __future__ import annotations

import errno
import random
import time
from dataclasses import dataclass
from typing import Callable, TypeVar

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

__all__ = [
    "RetryPolicy",
    "DEFAULT_IO_POLICY",
    "TRANSIENT_ERRNOS",
    "is_transient",
    "retry_call",
]

T = TypeVar("T")

#: errnos worth retrying: interruptions, contention, timeouts — and
#: ENOSPC, which log rotation or tempdir GC can clear within the
#: deadline (hopeless full disks exhaust the bounded schedule fast)
TRANSIENT_ERRNOS = frozenset(
    {
        errno.EIO,
        errno.EINTR,
        errno.EAGAIN,
        errno.EBUSY,
        errno.ETIMEDOUT,
        errno.ENOSPC,
        errno.ESTALE,
    }
)

_RETRIES = obs_metrics.REGISTRY.counter(
    "repro_retries_total", "transient-failure retries (all ops)"
)
_EXHAUSTED = obs_metrics.REGISTRY.counter(
    "repro_retry_exhausted_total",
    "retried ops that still failed at the attempt/deadline bound",
)

#: jitter source — schedule timing only, never results (retries return
#: the wrapped call's value unchanged), so this needs no seeding
_JITTER = random.Random()


@dataclass(frozen=True)
class RetryPolicy:
    """Bounds of one retry schedule.

    Defaults suit local-filesystem I/O: four attempts inside two
    seconds, sleeping milliseconds.  Derive stricter/looser policies
    with ``dataclasses.replace``.
    """

    #: total call attempts (1 = no retries)
    attempts: int = 4
    #: minimum sleep between attempts
    base_s: float = 0.005
    #: maximum sleep between attempts
    cap_s: float = 0.25
    #: wall-clock budget across all attempts and sleeps
    deadline_s: float = 2.0


#: the shared default for store/cache/journal writes
DEFAULT_IO_POLICY = RetryPolicy()


def is_transient(exc: BaseException) -> bool:
    """Whether ``exc`` is a retry-worthy transient ``OSError``."""
    return (
        isinstance(exc, OSError) and exc.errno in TRANSIENT_ERRNOS
    )


def retry_call(
    fn: Callable[[], T],
    *,
    policy: RetryPolicy = DEFAULT_IO_POLICY,
    op: str = "io",
    classify: Callable[[BaseException], bool] = is_transient,
    sleep: Callable[[float], None] = time.sleep,
) -> T:
    """Call ``fn`` with bounded transient-failure retries.

    Non-transient exceptions (per ``classify``) propagate immediately;
    transient ones are retried with decorrelated jitter until the
    attempt count or the deadline runs out, at which point the last
    exception propagates (after counting it exhausted).

    ``op`` labels the ``retry`` spans and should name the site
    (``"store.write"``); ``sleep`` is injectable for tests.
    """
    start = time.monotonic()
    prev = policy.base_s
    for attempt in range(1, policy.attempts + 1):
        try:
            return fn()
        except BaseException as exc:  # noqa: BLE001 - classified below
            if not classify(exc):
                raise
            delay = min(
                policy.cap_s, _JITTER.uniform(policy.base_s, prev * 3)
            )
            prev = delay
            out_of_budget = (
                attempt >= policy.attempts
                or time.monotonic() - start + delay > policy.deadline_s
            )
            if out_of_budget:
                _EXHAUSTED.inc()
                raise
            _RETRIES.inc()
            with obs_trace.span(
                "retry",
                op=op,
                attempt=attempt,
                error=type(exc).__name__,
                delay_s=round(delay, 6),
            ):
                sleep(delay)
    raise AssertionError("unreachable: loop returns or raises")
