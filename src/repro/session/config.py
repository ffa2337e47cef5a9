"""The frozen, serializable configuration of a :class:`~repro.session.Session`.

Before the session facade, every entry point re-plumbed the same knobs
(`opt_level`, `workers`, `aggregate`, `seed`, cache/store directories,
...) through its own keyword list.  :class:`SessionConfig` is the one
place those defaults live: a frozen dataclass that validates on
construction, round-trips through JSON (``to_dict``/``from_dict``), and
has a stable content :meth:`fingerprint` that session provenance stamps
onto every result.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, replace
from typing import Dict, Mapping, Optional, Tuple, Union

from repro.ir.types import DType
from repro.session.ops import check, integer, positive
from repro.util.errors import ConfigError

#: serializable aggregator specs (callables stay per-call arguments)
AggregateSpec = Union[str, Tuple[str, float]]

#: strategy line-up default — mirrors repro.search.strategies
#: .DEFAULT_STRATEGIES (kept literal here so importing the config does
#: not pull the whole search subsystem in)
_DEFAULT_STRATEGIES: Tuple[str, ...] = ("greedy", "delta", "anneal")

_ERROR_METRICS = ("worst", "actual", "estimate")


@dataclass(frozen=True)
class SessionConfig:
    """Defaults shared by every method of one :class:`Session`.

    All fields are plain JSON-expressible values, so a config can be
    persisted next to the results it produced and rebuilt with
    :meth:`from_dict`.  Instances are frozen — derive variants with
    :meth:`with_options`.
    """

    #: target precision for demotion candidates
    demote_to: DType = DType.F32
    #: optimization pipeline level for generated adjoints
    opt_level: int = 2
    #: TBR tape minimization (ablation hook)
    minimal_pushes: bool = True
    #: sweep aggregation — ``"max"``/``"mean"``/``"p95"``/
    #: ``("percentile", q)``
    aggregate: AggregateSpec = "max"
    #: ``>= 2`` fans search candidate pools over worker processes
    workers: int = 0
    #: RNG seed for stochastic search strategies
    seed: int = 0
    #: Pareto error axis (``"worst"``, ``"actual"``, ``"estimate"``)
    error_metric: str = "worst"
    #: score proposal pools through the compile-once lane kernel
    config_batch: bool = True
    #: default search evaluation budget
    budget: int = 64
    #: default search strategy line-up
    strategies: Tuple[str, ...] = _DEFAULT_STRATEGIES
    #: run-store checkpoint cadence, in computed batches
    checkpoint_every: int = 1
    #: sweep-cache directory (``None``: in-memory only when a cache
    #: object is supplied, no cache otherwise)
    cache_dir: Optional[str] = None
    #: run-store directory (``None``: searches are not persisted)
    store_dir: Optional[str] = None
    #: fault-injection plan — inline JSON or a file path, resolved by
    #: :meth:`repro.faults.FaultPlan.load` (``None``: faults disabled)
    fault_plan: Optional[str] = None
    #: fsync store/cache writes (durability against power loss)
    fsync: bool = False
    #: distributed-claim lease time-to-live (seconds): how long a
    #: fleet worker may go without a checkpoint heartbeat before its
    #: entry is stolen (:mod:`repro.dist.lease`)
    lease_ttl_s: float = 30.0
    #: run the static precision analysis (:mod:`repro.analyze`) before
    #: searches and tunes: statically pinned / demotion-safe variables
    #: are pruned from the candidate space and the greedy ladder is
    #: ordered most-sensitive-last.  Off by default — with ``False``
    #: every result is bit-identical to a pre-analysis session
    analyze: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.demote_to, DType):
            try:
                object.__setattr__(self, "demote_to", DType(self.demote_to))
            except ValueError:
                raise ConfigError(
                    f"demote_to: unknown precision {self.demote_to!r}"
                ) from None
        if self.error_metric not in _ERROR_METRICS:
            raise ConfigError(
                f"error_metric must be one of {_ERROR_METRICS}, "
                f"got {self.error_metric!r}"
            )
        # numeric fields are coerced, not just checked, so a config
        # rebuilt from hand-edited JSON ("workers": "4") cannot smuggle
        # strings into comparisons deep inside the search driver
        for name in ("budget", "checkpoint_every", "workers", "seed"):
            object.__setattr__(self, name, check(name, getattr(self, name)))
        object.__setattr__(
            self, "opt_level", integer("opt_level", self.opt_level)
        )
        if self.opt_level not in (0, 1, 2):
            raise ConfigError(
                f"opt_level must be 0, 1, or 2, got {self.opt_level!r}"
            )
        if callable(self.aggregate):
            raise ConfigError(
                "SessionConfig.aggregate must be serializable (a name or "
                "a ('percentile', q) pair); pass callables per call "
                "instead"
            )
        object.__setattr__(
            self, "strategies", check("strategies", self.strategies)
        )
        if isinstance(self.aggregate, list):
            object.__setattr__(
                self, "aggregate", tuple(self.aggregate)
            )
        if self.fault_plan is not None and not isinstance(
            self.fault_plan, str
        ):
            raise ConfigError(
                "fault_plan must be inline JSON or a file path, "
                f"got {self.fault_plan!r}"
            )
        object.__setattr__(self, "fsync", bool(self.fsync))
        object.__setattr__(self, "analyze", bool(self.analyze))
        object.__setattr__(
            self, "lease_ttl_s", positive("lease_ttl_s", self.lease_ttl_s)
        )

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """A plain JSON-expressible mapping of every field."""
        out = asdict(self)
        out["demote_to"] = self.demote_to.value
        out["strategies"] = list(self.strategies)
        if isinstance(self.aggregate, tuple):
            out["aggregate"] = list(self.aggregate)
        return out

    @classmethod
    def from_dict(cls, raw: Mapping[str, object]) -> "SessionConfig":
        """Rebuild a config serialized with :meth:`to_dict`.

        :raises ConfigError: for unknown keys or invalid values.
        """
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigError(
                f"SessionConfig: unknown keys {unknown} "
                f"(known: {sorted(known)})"
            )
        data = dict(raw)
        if isinstance(data.get("aggregate"), list):
            data["aggregate"] = tuple(data["aggregate"])
        return cls(**data)  # type: ignore[arg-type]

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "SessionConfig":
        return cls.from_dict(json.loads(payload))

    def fingerprint(self) -> str:
        """Stable content hash — the config half of result provenance.

        Computed once per instance (fields are frozen) and kept outside
        the dataclass fields, so ``to_dict``, ``==``, ``repr`` and
        ``replace`` never see it."""
        fp = self.__dict__.get("_fingerprint")
        if fp is None:
            fp = hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()
            object.__setattr__(self, "_fingerprint", fp)
        return fp

    # -- derivation ----------------------------------------------------------
    def with_options(self, **changes: object) -> "SessionConfig":
        """A copy with the given fields replaced (validated again)."""
        try:
            return replace(self, **changes)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None
