"""The five scenario operations, declared once.

``estimate``, ``sweep``, ``tune``, ``analyze`` and ``search`` on a named
app scenario are exposed by three front ends: the ``python -m repro``
subcommands (:mod:`repro.cli`), the job server (:mod:`repro.serve`)
and, for the search knobs, plan files
(:mod:`repro.search.orchestrator`).  This module owns what they share:

* the **knob checks** (:data:`CHECKS`): each knob's type and range
  rule, applied by :class:`JobSpec`, plan overrides and
  :class:`~repro.session.SessionConfig` alike;
* the **spec** (:class:`JobSpec`): one operation request as a frozen,
  normalised value whose content hash is the server's job id;
* the **scenario checks** (:func:`validate`): the point is in range,
  the scenario has an input sweep, the aggregate name resolves;
* the **dispatch** (:func:`execute`): the
  :class:`~repro.session.Session` call behind each operation and the
  JSON payload it answers with.  A serve job's result and the CLI's
  ``--json`` output are that payload.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from repro.util.errors import ConfigError, ReproError, UnknownNameError

#: the operations, one per :class:`~repro.session.Session` workflow method
KINDS = ("estimate", "sweep", "tune", "analyze", "search")


# -- knob checks --------------------------------------------------------------


def positive(name: str, value: object) -> float:
    """``value`` as a float > 0."""
    try:
        out = float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None
    if not out > 0:
        raise ConfigError(f"{name} must be > 0, got {out!r}")
    return out


def integer(name: str, value: object, minimum: Optional[int] = None) -> int:
    """``value`` as an int, at least ``minimum`` when one is given."""
    try:
        out = int(value)  # type: ignore[call-overload]
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(
            f"{name} must be an integer, got {value!r}"
        ) from None
    if minimum is not None and out < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {out!r}")
    return out


def names(name: str, value: object) -> Tuple[str, ...]:
    """``value`` as a tuple of names (``tuple("greedy")`` would
    silently split a bare string into letters, so one is rejected)."""
    if isinstance(value, str):
        raise ConfigError(
            f"{name} must be a sequence of names, not a bare string — "
            f"got {value!r}"
        )
    try:
        out = tuple(value)  # type: ignore[call-overload]
    except TypeError:
        raise ConfigError(
            f"{name} must be a sequence of names, got {value!r}"
        ) from None
    bad = [s for s in out if not isinstance(s, str)]
    if bad:
        raise ConfigError(f"{name} must be names (str), got {bad!r}")
    return out


def _at_least(minimum: int) -> Callable[[str, object], int]:
    return lambda name, value: integer(name, value, minimum)


#: knob name -> ``check(name, value)``, returning the normalised value
#: or raising :class:`ConfigError`
CHECKS: Dict[str, Callable[[str, object], object]] = {
    "threshold": positive,
    "timeout_s": positive,
    "budget": _at_least(1),
    "checkpoint_every": _at_least(1),
    "shards": _at_least(1),
    "fleet_workers": _at_least(1),
    "point": _at_least(0),
    "workers": _at_least(0),
    "seed": integer,
    "strategies": names,
}


def check(name: str, value: object):
    """Apply the :data:`CHECKS` rule of knob ``name`` to ``value``."""
    return CHECKS[name](name, value)


# -- the spec -----------------------------------------------------------------

_TUNES = ("point tune", "robust tune")

#: spec knob -> the operation modes it applies to.  Knobs not listed
#: (seed, timeout_s) apply to every mode; a listed knob set away from
#: its default on another mode is rejected, since dropping it silently
#: would run a different operation than the one asked for
APPLIES: Dict[str, Tuple[str, ...]] = {
    "threshold": (*_TUNES, "analyze", "search"),
    "budget": ("search",),
    "strategies": ("search",),
    "point": ("estimate", "point tune"),
    "robust": ("robust tune",),
    "aggregate": ("sweep", "robust tune"),
    "shards": ("search",),
    "fleet_workers": ("search",),
}


@dataclass(frozen=True)
class JobSpec:
    """One operation request: frozen, validated, content-addressed.

    Follows the :class:`~repro.session.config.SessionConfig`
    discipline: plain JSON-expressible fields, validation on
    construction, a stable content hash (:attr:`job_id`).  Two
    requests that normalise to the same spec are the *same job*.
    """

    #: one of :data:`KINDS`
    kind: str
    #: app scenario name (``"blackscholes"``, ``"kmeans"``, ...)
    kernel: str
    #: error threshold (tune/analyze/search; ``None``: scenario default)
    threshold: Optional[float] = None
    #: evaluation budget (search; ``None``: scenario default)
    budget: Optional[int] = None
    #: strategy line-up (search; ``None``: session default)
    strategies: Optional[Tuple[str, ...]] = None
    #: RNG seed (search)
    seed: int = 0
    #: validation point index (estimate / point-mode tune)
    point: int = 0
    #: distribution-robust tuning over the scenario sweep (tune)
    robust: bool = False
    #: sweep/robust-tune aggregation name (``None``: worst case)
    aggregate: Optional[str] = None
    #: per-job wall-clock deadline in seconds (``None``: server default)
    timeout_s: Optional[float] = None
    #: fan a search out into N seed-varied shard runs executed by the
    #: distributed worker fleet (search; ``None``: no fan-out)
    shards: Optional[int] = None
    #: fleet worker processes for a sharded search (search;
    #: ``None`` with ``shards`` set: 2)
    fleet_workers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(
                f"job kind must be one of {list(KINDS)}, "
                f"got {self.kind!r}"
            )
        if not isinstance(self.kernel, str) or not self.kernel:
            raise ConfigError(
                f"kernel must be an app scenario name, got {self.kernel!r}"
            )
        object.__setattr__(self, "robust", bool(self.robust))
        if self.aggregate is not None and not isinstance(
            self.aggregate, str
        ):
            raise ConfigError(
                f"aggregate must be a name, got {self.aggregate!r}"
            )
        for f in fields(self)[2:]:  # the knobs after kind and kernel
            value = getattr(self, f.name)
            if value is None:
                continue
            if f.name in CHECKS:
                value = check(f.name, value)
                object.__setattr__(self, f.name, value)
            modes = APPLIES.get(f.name)
            if modes and value != f.default and self.mode not in modes:
                raise ConfigError(
                    f"{f.name}= applies to {' / '.join(modes)} jobs, "
                    f"not {self.mode!r}"
                )

    @property
    def mode(self) -> str:
        """The kind, with tune split into point and robust tuning."""
        if self.kind != "tune":
            return self.kind
        return "robust tune" if self.robust else "point tune"

    def search_overrides(self) -> Dict[str, object]:
        """The knobs a search spec sets, as
        :meth:`~repro.session.Session.search` keywords."""
        out: Dict[str, object] = {"seed": self.seed}
        for name in ("threshold", "budget", "strategies"):
            if getattr(self, name) is not None:
                out[name] = getattr(self, name)
        return out

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """The full normalised field set (JSON-expressible)."""
        out: Dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, raw: object) -> "JobSpec":
        """Build a spec from a wire payload.

        :raises ConfigError: non-mapping payloads, unknown keys, or
            invalid values (HTTP 400 at the API surface).
        """
        if not isinstance(raw, dict):
            raise ConfigError(
                f"job spec must be a JSON object, got "
                f"{type(raw).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigError(
                f"job spec: unknown keys {unknown} "
                f"(known: {sorted(known)})"
            )
        return cls(**raw)

    @property
    def job_id(self) -> str:
        """Content-addressed job id.

        Explicit defaults and omitted fields normalise identically, so
        ``{"kind": "search", "kernel": "kmeans"}`` and the same spec
        with ``"seed": 0`` spelled out are one job.
        """
        payload = json.dumps(self.to_dict(), sort_keys=True)
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        return f"job-{digest[:16]}"


# -- scenario checks ----------------------------------------------------------


def scenario(name: str):
    """The :class:`~repro.search.scenario.SearchScenario` of the app
    scenario called ``name``."""
    from repro.search.orchestrator import app_scenarios

    scenarios = app_scenarios()
    if name not in scenarios:
        raise UnknownNameError(
            f"unknown kernel {name!r}: unknown app scenario "
            f"(available: {sorted(scenarios)})"
        )
    return scenarios[name].search_scenario()


def validate(spec: JobSpec):
    """Check ``spec`` against its scenario; returns the scenario.

    :raises UnknownNameError: no app scenario has that name.
    :raises ConfigError: the point is out of range, the operation
        needs an input sweep the scenario lacks, or the aggregate name
        does not resolve.
    """
    scen = scenario(spec.kernel)
    # APPLIES leaves point at 0 on the modes that take no point
    if spec.point >= len(scen.points):
        raise ConfigError(
            f"point {spec.point} out of range (scenario "
            f"{spec.kernel!r} has {len(scen.points)} validation points)"
        )
    if spec.mode in ("sweep", "robust tune") and scen.samples is None:
        raise ConfigError(f"scenario {spec.kernel!r} has no input sweep")
    if spec.aggregate is not None:
        from repro.sweep.aggregate import resolve_aggregator

        resolve_aggregator(spec.aggregate)
    return scen


# -- dispatch -----------------------------------------------------------------


class Outcome(NamedTuple):
    """What :func:`execute` returns."""

    #: the JSON result payload: the serve job result, the CLI ``--json``
    payload: Dict[str, object]
    #: the session method's own result (report, tuning result, ...)
    result: object


def _estimate(sess, spec: JobSpec, scen):
    report = sess.estimate_at(scen.kernel, scen.points[spec.point])
    return report, {
        "point": spec.point,
        "value": report.value,
        "total_error": report.total_error,
        "per_variable": dict(report.per_variable),
    }


def _sweep(sess, spec: JobSpec, scen):
    import numpy as np

    from repro.sweep.aggregate import resolve_aggregator

    agg_name, agg = resolve_aggregator(spec.aggregate or "max")
    rep = sess.sweep(scen.kernel, scen.samples, fixed=scen.fixed)
    return rep, {
        "n": rep.n,
        "backend": rep.backend,
        "from_cache": rep.from_cache,
        "aggregate": agg_name,
        "total_error": float(agg(np.asarray(rep.total_error))),
        "per_variable": {
            v: float(agg(np.asarray(a)))
            for v, a in rep.per_variable.items()
        },
    }


def _tune(sess, spec: JobSpec, scen):
    threshold = (
        spec.threshold if spec.threshold is not None else scen.threshold
    )
    if spec.robust:
        aggregate = spec.aggregate or "max"
        result = sess.tune(
            scen.kernel,
            threshold,
            samples=scen.samples,
            fixed=scen.fixed,
            aggregate=aggregate,
        )
        mode = f"robust [{aggregate}]"
    else:
        result = sess.tune(
            scen.kernel, threshold, args=scen.points[spec.point]
        )
        mode = f"point {spec.point}"
    return result, {
        "threshold": threshold,
        "mode": mode,
        "configuration": result.config.describe(),
        "demoted": list(result.demoted),
        "estimated_error": result.estimated_error,
        "ranking": [[v, e] for v, e in result.ranking],
    }


def _analyze(sess, spec: JobSpec, scen):
    # static analysis: no execution, no sweep — the report is the
    # payload (schema of AnalysisReport.to_dict)
    threshold = (
        spec.threshold if spec.threshold is not None else scen.threshold
    )
    report = sess.analyze(scen, threshold=threshold)
    return report, report.to_dict()


def _fleet(sess, spec: JobSpec, deadline_s: Optional[float]):
    """Fan a search out across the distributed worker fleet.

    Shard runs land in the session's store, so a resubmitted spec
    resumes from the shard checkpoints and the elected front is
    bit-identical to a serial execution of the same shards.
    """
    from repro.dist.fleet import run_fleet
    from repro.search.orchestrator import PlanEntry

    entry = PlanEntry(scenario=spec.kernel, overrides=spec.search_overrides())
    fleet = run_fleet(
        [entry],
        sess.store,
        workers=spec.fleet_workers or 2,
        shards=spec.shards or 1,
        session_config=sess.config,
        deadline_s=deadline_s,
    )
    if not fleet.completed:
        done = sum(1 for e in fleet.entries if e.get("completed"))
        raise ReproError(
            f"fleet search left {len(fleet.entries) - done}"
            f"/{len(fleet.entries)} shard run(s) incomplete"
        )
    return fleet, fleet.to_dict()


_OPERATIONS = {
    "estimate": _estimate,
    "sweep": _sweep,
    "tune": _tune,
    "analyze": _analyze,
}


def execute(
    session,
    spec: JobSpec,
    scen,
    *,
    resume: bool = False,
    on_batch: Optional[Callable[[int], None]] = None,
    deadline_s: Optional[float] = None,
) -> Outcome:
    """Run the operation ``spec`` asks for on ``session``.

    ``scen`` is the scenario :func:`validate` returned for ``spec``.
    The search knobs ride along: ``resume`` resumes a stored run from
    the session's run store, ``on_batch`` is called after every
    computed batch (the server's cancellation and deadline hook), and
    ``deadline_s`` bounds a sharded search's fleet.  Call
    :func:`validate` first: this function trusts the spec's scenario
    checks.
    """
    base = {"kind": spec.kind, "kernel": spec.kernel}
    if spec.kind != "search":
        result, payload = _OPERATIONS[spec.kind](session, spec, scen)
    elif spec.shards or spec.fleet_workers:
        result, payload = _fleet(session, spec, deadline_s)
    else:
        # resolved by scenario name through the same pipeline as
        # Session.search_run_id, so a server's submission-time run id
        # is the run this executes
        result = session.search(
            spec.kernel,
            resume=resume,
            on_batch=on_batch,
            **spec.search_overrides(),
        )
        payload = result.to_dict()
    return Outcome({**base, **payload}, result)
