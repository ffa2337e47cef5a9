"""The declarative half of fault injection: specs and plans.

A :class:`FaultSpec` names one fault to inject — *where* (a site such
as ``store.write``), *what* (a kind from :data:`KINDS`), and *when*
(specific call indices and/or a seeded probability).  A
:class:`FaultPlan` bundles specs with one seed; it round-trips through
JSON so a plan can live in ``SessionConfig``, an environment variable,
or a file next to the chaos run it reproduces.

Everything here is pure data — the runtime (call counting, seeded
draws, the zero-overhead disabled path) lives in
:mod:`repro.faults.__init__`.
"""

from __future__ import annotations

import errno as _errno
import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.util.errors import ConfigError, ReproError

#: fault kinds a spec may inject
#:
#: * ``oserror`` / ``enospc`` — raise an :class:`InjectedFaultError`
#:   (an ``OSError`` with ``EIO`` / ``ENOSPC``) at the site;
#: * ``torn`` — an *action* kind: the I/O helper truncates the payload
#:   mid-write and completes silently, simulating a post-crash torn
#:   page that only the read-side checksum can catch;
#: * ``delay`` — sleep ``delay_s`` at the site (stall, not failure).
KINDS = ("oserror", "enospc", "torn", "delay")

#: the sites wired through the stack — a spec naming any other site
#: could never fire, so it is rejected (this tuple is also the README
#: table's source of truth)
KNOWN_SITES = (
    "store.write",
    "store.read",
    "cache.write",
    "cache.read",
    "csv.write",
    "journal.append",
    "journal.read",
    "http.accept",
    "lease.acquire",
    "lease.renew",
)

_DEFAULT_ERRNO = {
    "oserror": _errno.EIO,
    "enospc": _errno.ENOSPC,
}


class InjectedFaultError(ReproError, OSError):
    """An injected fault surfacing as an ``OSError``.

    Carries the real errno (``EIO``/``ENOSPC`` by default), so retry
    classification and caller ``except OSError`` paths treat it exactly
    like the organic failure it simulates.
    """

    def __init__(self, errno_code: int, site: str, kind: str) -> None:
        OSError.__init__(
            self,
            errno_code,
            f"injected {kind} fault at {site}",
        )
        self.site = site
        self.kind = kind


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject: site + kind + trigger.

    Triggers combine: the spec fires on any call index in ``nth``
    (1-based, counted per site) *or* on a seeded coin flip with
    ``probability`` per call.  ``max_fires`` bounds total firings.
    """

    #: injection site name (``store.write``, ``cache.read``, ...)
    site: str
    #: one of :data:`KINDS`
    kind: str
    #: 1-based call indices at this site that fire the fault
    nth: Tuple[int, ...] = ()
    #: per-call firing probability (seeded, deterministic per plan)
    probability: float = 0.0
    #: total firing cap (``None``: unbounded)
    max_fires: Optional[int] = None
    #: sleep duration for ``delay`` faults
    delay_s: float = 0.005
    #: errno raised by ``oserror``/``enospc`` (``None``: kind default)
    errno_code: Optional[int] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ConfigError(
                f"fault kind must be one of {list(KINDS)}, "
                f"got {self.kind!r}"
            )
        if self.site not in KNOWN_SITES:
            raise ConfigError(
                f"fault site must be one of {list(KNOWN_SITES)}, "
                f"got {self.site!r}"
            )
        if isinstance(self.nth, int):
            object.__setattr__(self, "nth", (self.nth,))
        try:
            object.__setattr__(
                self, "nth", tuple(int(n) for n in self.nth)
            )
        except (TypeError, ValueError):
            raise ConfigError(
                f"nth must be call indices, got {self.nth!r}"
            ) from None
        if any(n < 1 for n in self.nth):
            raise ConfigError(
                f"nth call indices are 1-based, got {self.nth!r}"
            )
        try:
            object.__setattr__(
                self, "probability", float(self.probability)
            )
        except (TypeError, ValueError):
            raise ConfigError(
                f"probability must be a float, got {self.probability!r}"
            ) from None
        if not 0.0 <= self.probability <= 1.0:
            raise ConfigError(
                f"probability must be in [0, 1], got {self.probability!r}"
            )
        if not self.nth and self.probability == 0.0:
            raise ConfigError(
                f"fault at {self.site!r} can never fire: give nth= "
                f"call indices and/or probability="
            )
        if self.max_fires is not None:
            object.__setattr__(self, "max_fires", int(self.max_fires))
            if self.max_fires < 1:
                raise ConfigError(
                    f"max_fires must be >= 1, got {self.max_fires!r}"
                )
        object.__setattr__(self, "delay_s", float(self.delay_s))
        if self.delay_s < 0:
            raise ConfigError(
                f"delay_s must be >= 0, got {self.delay_s!r}"
            )
        if self.errno_code is not None:
            object.__setattr__(self, "errno_code", int(self.errno_code))

    @property
    def effective_errno(self) -> int:
        """The errno an ``oserror``/``enospc`` firing raises."""
        if self.errno_code is not None:
            return self.errno_code
        return _DEFAULT_ERRNO.get(self.kind, _errno.EIO)

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {"site": self.site, "kind": self.kind}
        if self.nth:
            out["nth"] = list(self.nth)
        if self.probability:
            out["probability"] = self.probability
        if self.max_fires is not None:
            out["max_fires"] = self.max_fires
        if self.kind == "delay":
            out["delay_s"] = self.delay_s
        if self.errno_code is not None:
            out["errno_code"] = self.errno_code
        return out

    @classmethod
    def from_dict(cls, raw: object) -> "FaultSpec":
        if not isinstance(raw, Mapping):
            raise ConfigError(
                f"fault spec must be a JSON object, got "
                f"{type(raw).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigError(
                f"fault spec: unknown keys {unknown} "
                f"(known: {sorted(known)})"
            )
        missing = sorted({"site", "kind"} - set(raw))
        if missing:
            raise ConfigError(
                f"fault spec: missing required keys {missing}"
            )
        data = dict(raw)
        if isinstance(data.get("nth"), list):
            data["nth"] = tuple(data["nth"])
        return cls(**data)  # type: ignore[arg-type]


@dataclass(frozen=True)
class FaultPlan:
    """A seed plus the fault specs to inject under it.

    The seed drives every probabilistic trigger (one independent
    ``random.Random`` stream per spec, keyed ``{seed}:{site}:{index}``)
    — the same plan over the same call sequence always fires the same
    faults, which is what makes a chaos run a *reproducible* test.
    """

    seed: int = 0
    specs: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "specs", tuple(self.specs))
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise ConfigError(
                    f"plan specs must be FaultSpec, got "
                    f"{type(spec).__name__}"
                )

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "faults": [s.to_dict() for s in self.specs],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, raw: object) -> "FaultPlan":
        if not isinstance(raw, Mapping):
            raise ConfigError(
                f"fault plan must be a JSON object, got "
                f"{type(raw).__name__}"
            )
        unknown = sorted(set(raw) - {"seed", "faults"})
        if unknown:
            raise ConfigError(
                f"fault plan: unknown keys {unknown} "
                f"(known: ['faults', 'seed'])"
            )
        faults_raw = raw.get("faults", [])
        if not isinstance(faults_raw, list):
            raise ConfigError(
                f"fault plan 'faults' must be a list, got "
                f"{type(faults_raw).__name__}"
            )
        return cls(
            seed=raw.get("seed", 0),  # type: ignore[arg-type]
            specs=tuple(FaultSpec.from_dict(f) for f in faults_raw),
        )

    @classmethod
    def load(cls, source: Union[str, Path]) -> "FaultPlan":
        """Build a plan from inline JSON or a JSON file path.

        A string starting with ``{`` parses as inline JSON (the
        ``REPRO_FAULTS``/``--faults`` convenience); anything else is
        read as a file path.
        """
        text = str(source).strip()
        if not text.startswith("{"):
            try:
                text = Path(text).read_text()
            except OSError as exc:
                raise ConfigError(
                    f"cannot read fault plan file {source!r}: {exc}"
                ) from None
        try:
            raw = json.loads(text)
        except ValueError as exc:
            raise ConfigError(
                f"fault plan is not valid JSON: {exc}"
            ) from None
        return cls.from_dict(raw)

    def sites(self) -> List[str]:
        """The distinct sites this plan touches, sorted."""
        return sorted({s.site for s in self.specs})
