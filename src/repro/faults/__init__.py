"""Deterministic, seedable fault injection for every I/O boundary.

The failure paths this library promises — atomic checkpoints, cache
degradation to recompute, journal recovery, lease stealing —
are only contracts if something exercises them on demand.  This
package is that something: a process-wide registry of **fault sites**
(``store.write``, ``cache.read``, ``journal.append``, ``http.accept``,
``lease.acquire``, ...) that the I/O helpers probe with one call::

    from repro import faults

    spec = faults.check("store.write")   # None, or an action spec,
                                         # or raises InjectedFaultError

Sites fire according to a :class:`FaultPlan` — by 1-based call index
(``nth``) and/or a seeded per-call probability — so a chaos run is as
reproducible as the search it perturbs: same plan, same call sequence,
same faults.

Disabled mode is the default and follows the ``NULL_SPAN`` discipline
of :mod:`repro.obs.trace`: :func:`check` reads one module global and
returns ``None`` — no allocation, no lock, no counter — so production
hot paths pay nothing for being injectable (tracemalloc-asserted in
``tests/test_faults.py``).

Enable through :func:`enable` (a plan object), ``SessionConfig.
fault_plan`` / ``--faults`` (inline JSON or a file path), or the
``REPRO_FAULTS`` environment variable (read at import).  Fleet
workers (:mod:`repro.dist`) enable the plan from their own session
config, so each process counts its own site calls.
"""

from __future__ import annotations

import os
import random
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.faults.plan import (
    FaultPlan,
    FaultSpec,
    InjectedFaultError,
    KINDS,
    KNOWN_SITES,
)
from repro.obs import metrics as obs_metrics

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "InjectedFaultError",
    "KINDS",
    "KNOWN_SITES",
    "ActiveFaults",
    "check",
    "enable",
    "enable_from_env",
    "disable",
    "is_enabled",
    "current",
    "stats",
]

_INJECTED = obs_metrics.REGISTRY.counter(
    "repro_faults_injected_total", "faults fired by the active plan"
)


class ActiveFaults:
    """Runtime state of one enabled plan: counters and RNG streams.

    Thread-safe: one lock guards the per-site call counters and
    per-spec fire counts (sites are probed from the asyncio loop,
    worker threads, and the search driver concurrently).  Forked
    processes inherit a *copy*, whose counters diverge from the
    parent's.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._calls: Dict[str, int] = {}
        self._fired: Dict[int, int] = {}
        self._by_site: Dict[str, List[Tuple[int, FaultSpec]]] = {}
        self._rngs: Dict[int, random.Random] = {}
        for i, spec in enumerate(plan.specs):
            self._by_site.setdefault(spec.site, []).append((i, spec))
            if spec.probability > 0.0:
                self._rngs[i] = random.Random(
                    f"{plan.seed}:{spec.site}:{i}"
                )

    def check(self, site: str) -> Optional[FaultSpec]:
        """Count one call at ``site`` and fire any due fault.

        Raise-kind faults (``oserror``/``enospc``) raise
        :class:`InjectedFaultError`; ``delay`` sleeps and returns
        ``None`` (transparent to the caller); the action kind ``torn``
        returns the spec for the site to act on.
        """
        fired: Optional[FaultSpec] = None
        with self._lock:
            n = self._calls.get(site, 0) + 1
            self._calls[site] = n
            for i, spec in self._by_site.get(site, ()):
                if (
                    spec.max_fires is not None
                    and self._fired.get(i, 0) >= spec.max_fires
                ):
                    continue
                hit = n in spec.nth
                if not hit and spec.probability > 0.0:
                    hit = self._rngs[i].random() < spec.probability
                if hit:
                    self._fired[i] = self._fired.get(i, 0) + 1
                    fired = spec
                    break
        if fired is None:
            return None
        _INJECTED.inc()
        if fired.kind in ("oserror", "enospc"):
            raise InjectedFaultError(
                fired.effective_errno, site, fired.kind
            )
        if fired.kind == "delay":
            time.sleep(fired.delay_s)
            return None
        return fired  # torn: the site acts on the spec

    def stats(self) -> Dict[str, object]:
        """Call and firing counts, JSON-ready."""
        with self._lock:
            calls = dict(sorted(self._calls.items()))
            fired = {
                f"{spec.site}:{spec.kind}": self._fired.get(i, 0)
                for i, spec in enumerate(self.plan.specs)
            }
        return {
            "seed": self.plan.seed,
            "calls": calls,
            "fired": fired,
            "injected": sum(fired.values()),
        }


# -- module-level registry -----------------------------------------------------

_STATE_LOCK = threading.Lock()
_ACTIVE: Optional[ActiveFaults] = None


def _reinit_state_lock() -> None:
    # the child of a fork gets fresh locks: one held by another thread
    # at fork time would never be released in the child
    global _STATE_LOCK
    _STATE_LOCK = threading.Lock()
    if _ACTIVE is not None:
        _ACTIVE._lock = threading.Lock()


os.register_at_fork(after_in_child=_reinit_state_lock)


def check(site: str) -> Optional[FaultSpec]:
    """Probe one fault site (the call every wired boundary makes).

    Disabled (the default): reads one module global and returns
    ``None`` — the zero-overhead fast path.  Enabled: counts the call
    and fires any due fault (see :meth:`ActiveFaults.check`).
    """
    state = _ACTIVE
    if state is None:
        return None
    return state.check(site)


def enable(plan: FaultPlan) -> ActiveFaults:
    """Install ``plan`` process-wide (replacing any active plan).

    Counters restart from zero — enabling is the start of one
    deterministic chaos schedule.
    """
    global _ACTIVE
    with _STATE_LOCK:
        _ACTIVE = ActiveFaults(plan)
        return _ACTIVE


def disable() -> None:
    """Tear fault injection down (no-op when already off)."""
    global _ACTIVE
    with _STATE_LOCK:
        _ACTIVE = None


def is_enabled() -> bool:
    """Whether a fault plan is active."""
    return _ACTIVE is not None


def current() -> Optional[ActiveFaults]:
    """The active runtime state, or ``None``."""
    return _ACTIVE


def stats() -> Optional[Dict[str, object]]:
    """The active plan's call/firing counters, or ``None`` when off."""
    state = _ACTIVE
    return state.stats() if state is not None else None


def enable_from_env() -> Optional[ActiveFaults]:
    """Enable from ``REPRO_FAULTS`` (inline JSON or a file path).

    Called at import so any entry point — CLI, server, pytest, a
    forked worker re-importing in a spawn context — honors the
    variable.  A malformed plan raises :class:`ConfigError` eagerly: a
    chaos run that silently tested nothing would be worse than one
    that fails to start.
    """
    raw = os.environ.get("REPRO_FAULTS")
    if not raw:
        return None
    return enable(FaultPlan.load(raw))


enable_from_env()
