"""Lock-free work claiming over shared storage: atomic lease files.

Many worker processes pull entries from one plan without a
coordinator.  The claim protocol needs exactly three properties, all
built from atomic filesystem primitives (the only shared medium the
run store assumes):

* **exclusive acquire** — a lease is published with
  :func:`repro.util.atomio.publish_exclusive` (tempfile +
  ``os.link``), which fails when the file exists: when N processes
  race to claim one key, exactly one link lands;
* **TTL + heartbeat** — a lease carries an absolute expiry deadline
  and the holder renews it (atomic rewrite) from the search's
  ``on_batch`` checkpoint hook; a worker that stops checkpointing —
  hung, OOM-killed, ``SIGKILL``-ed — stops renewing;
* **steal-after-expiry** — an expired (or unreadable/torn) lease is
  reclaimed by first *renaming it away* (``os.rename`` to a
  holder-unique tombstone: of N racing stealers exactly one rename
  succeeds, the rest get ``ENOENT`` and move on), then re-acquiring
  through the same exclusive publish.

Losing a lease is detected at the next renewal: the holder's token no
longer matches (or the file is gone) and :class:`LeaseLostError` tells
the worker to abandon the entry — its checkpoints remain a valid
prefix for whoever stole it.  Leases minimize duplicate work; they do
not gate correctness (the store is content-addressed and checkpoints
are deterministic prefixes, so double execution converges).

Fault sites ``lease.acquire`` and ``lease.renew`` inject here: raising
kinds (``oserror``/``enospc``) surface as claim failures the fleet
tolerates, and ``torn`` truncates the published payload — leaving a
corrupt lease the next reader treats as expired and steals.
"""

from __future__ import annotations

import json
import os
import socket
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.obs import metrics as obs_metrics
from repro.session.ops import positive
from repro.obs import trace as obs_trace
from repro.util import atomio
from repro.util.errors import ConfigError, ReproError

__all__ = [
    "Lease",
    "LeaseLostError",
    "LeaseManager",
    "DEFAULT_TTL_S",
]

#: default lease time-to-live; a holder renews well inside this from
#: its checkpoint heartbeat, so expiry means the holder is gone
DEFAULT_TTL_S = 30.0

_CLAIMS = obs_metrics.REGISTRY.counter(
    "repro_dist_claims_total", "lease claims granted"
)
_CONFLICTS = obs_metrics.REGISTRY.counter(
    "repro_dist_claim_conflicts_total",
    "lease claims refused (live holder elsewhere)",
)
_STEALS = obs_metrics.REGISTRY.counter(
    "repro_dist_lease_steals_total",
    "expired/corrupt leases reclaimed from a dead holder",
)
_RENEWALS = obs_metrics.REGISTRY.counter(
    "repro_dist_lease_renewals_total", "lease heartbeat renewals"
)
_LOST = obs_metrics.REGISTRY.counter(
    "repro_dist_leases_lost_total",
    "renewals that found the lease stolen or expired",
)


class LeaseLostError(ReproError):
    """The holder's lease is gone: stolen, expired, or unreadable.

    The worker must abandon the entry immediately — another process
    may already be executing it.  Its checkpoints stay behind as a
    valid resumable prefix, so no work is wasted."""


@dataclass
class Lease:
    """A granted claim (mutable: renewals advance the deadline)."""

    key: str
    owner: str
    token: str
    acquired: float
    deadline: float
    renewals: int = 0
    meta: Dict[str, object] = field(default_factory=dict)

    def to_record(self) -> Dict[str, object]:
        return {
            "key": self.key,
            "owner": self.owner,
            "token": self.token,
            "acquired": self.acquired,
            "deadline": self.deadline,
            "renewals": self.renewals,
            "meta": dict(self.meta),
        }


def _parse_record(blob: bytes) -> Optional[Dict[str, object]]:
    """Decode a lease file; ``None`` for torn/foreign payloads."""
    try:
        rec = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        return None
    if not isinstance(rec, dict):
        return None
    try:
        float(rec["deadline"])
        str(rec["token"])
    except (KeyError, TypeError, ValueError):
        return None
    return rec


class LeaseManager:
    """Claim protocol over one lease directory (see module docstring).

    ``directory`` is shared by all contenders — for run-store work it
    is :meth:`RunStore.leases_dir` (``<store_root>/_leases``).  Keys
    must be filesystem-safe; run ids (hex digests) are.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        owner: Optional[str] = None,
        ttl_s: float = DEFAULT_TTL_S,
    ) -> None:
        self.ttl_s = positive("lease ttl_s", ttl_s)
        self.directory = Path(directory)
        self.owner = owner or f"{socket.gethostname()}:{os.getpid()}"
        # tombstone names are holder-unique so racing stealers never
        # rename onto each other's tombstones
        self._nonce = uuid.uuid4().hex[:12]

    # -- paths ---------------------------------------------------------------
    def _path(self, key: str) -> Path:
        if not key or any(c in key for c in "/\\\0") or key.startswith("."):
            raise ConfigError(f"lease key not filesystem-safe: {key!r}")
        return self.directory / f"{key}.lease"

    # -- claim ---------------------------------------------------------------
    def acquire(
        self, key: str, meta: Optional[Dict[str, object]] = None
    ) -> Optional[Lease]:
        """Try to claim ``key``; ``None`` when a live holder has it.

        Expired and unreadable (torn) leases are stolen.  Injected
        ``lease.acquire`` faults of a raising kind propagate as
        ``OSError`` — callers treat a failed claim attempt like a
        lost one and move on.
        """
        path = self._path(key)
        with obs_trace.span("dist.claim", key=key[:12], owner=self.owner):
            self.directory.mkdir(parents=True, exist_ok=True)
            now = time.time()
            existing: Optional[bytes]
            try:
                existing = path.read_bytes()
            except OSError:
                existing = None
            if existing is not None:
                rec = _parse_record(existing)
                if rec is not None and float(rec["deadline"]) > now:
                    _CONFLICTS.inc()
                    return None
                # expired or torn: steal via rename-away (exactly one
                # of N racing stealers wins the rename)
                tomb = self.directory / (
                    f".{key}.{self._nonce}.tomb"
                )
                try:
                    os.rename(path, tomb)
                except OSError:
                    _CONFLICTS.inc()
                    return None  # someone else stole it first
                try:
                    os.unlink(tomb)
                except OSError:
                    pass
                _STEALS.inc()
            lease = Lease(
                key=key,
                owner=self.owner,
                token=uuid.uuid4().hex,
                acquired=now,
                deadline=now + self.ttl_s,
                meta=dict(meta or {}),
            )
            payload = (
                json.dumps(lease.to_record(), indent=2) + "\n"
            ).encode("utf-8")
            if not atomio.publish_exclusive(
                path, payload, site="lease.acquire"
            ):
                _CONFLICTS.inc()
                return None  # lost the re-create race to another stealer
            _CLAIMS.inc()
            return lease

    def renew(self, lease: Lease) -> Lease:
        """Heartbeat: push the deadline out by one TTL (in place).

        :raises LeaseLostError: the on-disk lease is missing, owned by
            a different token, unreadable, or already expired — in
            every case a stealer may be running, so the holder must
            abandon the entry.  A ``torn`` fault at ``lease.renew``
            corrupts the file silently; the *next* renewal (or any
            contender's read) detects it.
        """
        path = self._path(lease.key)
        now = time.time()
        try:
            rec = _parse_record(path.read_bytes())
        except OSError:
            rec = None
        if (
            rec is None
            or rec.get("token") != lease.token
            or float(rec["deadline"]) <= now
        ):
            _LOST.inc()
            raise LeaseLostError(
                f"lease on {lease.key[:12]} lost by {lease.owner} "
                f"(stolen, expired, or unreadable)"
            )
        lease.deadline = now + self.ttl_s
        lease.renewals += 1
        payload = (
            json.dumps(lease.to_record(), indent=2) + "\n"
        ).encode("utf-8")
        try:
            atomio.atomic_write(path, payload, site="lease.renew")
        except OSError as exc:
            # a heartbeat that cannot land is indistinguishable (to
            # everyone else) from a dead holder: abandon conservatively
            _LOST.inc()
            raise LeaseLostError(
                f"lease renewal on {lease.key[:12]} failed: {exc}"
            ) from exc
        _RENEWALS.inc()
        return lease

    def release(self, lease: Lease) -> bool:
        """Drop a held lease; returns whether we still owned it.

        Only unlinks when the on-disk record carries our token *and*
        is unexpired — an expired lease may already have been stolen
        and re-published, and unlinking that would strand the new
        holder.  (The read-then-unlink window is a benign race: it
        could only remove our own still-live lease.)
        """
        path = self._path(lease.key)
        try:
            rec = _parse_record(path.read_bytes())
        except OSError:
            return False
        if rec is None or rec.get("token") != lease.token:
            return False
        if float(rec["deadline"]) <= time.time():
            return False
        try:
            os.unlink(path)
        except OSError:
            return False
        return True

    # -- inspection ----------------------------------------------------------
    def holder(self, key: str) -> Optional[Dict[str, object]]:
        """The live lease record for ``key``, or ``None``."""
        try:
            rec = _parse_record(self._path(key).read_bytes())
        except OSError:
            return None
        if rec is None or float(rec["deadline"]) <= time.time():
            return None
        return rec

    def active_keys(self) -> List[str]:
        """Keys currently under a live (unexpired, readable) lease."""
        try:
            entries = sorted(self.directory.iterdir())
        except OSError:
            return []
        now = time.time()
        out: List[str] = []
        for p in entries:
            if not p.name.endswith(".lease"):
                continue
            try:
                rec = _parse_record(p.read_bytes())
            except OSError:
                continue
            if rec is not None and float(rec["deadline"]) > now:
                out.append(p.name[: -len(".lease")])
        return out

    def sweep_expired(self) -> int:
        """Remove expired/torn lease files; returns how many."""
        removed = 0
        try:
            entries = sorted(self.directory.iterdir())
        except OSError:
            return 0
        now = time.time()
        for p in entries:
            if not p.name.endswith(".lease"):
                continue
            try:
                rec = _parse_record(p.read_bytes())
            except OSError:
                continue
            if rec is None or float(rec["deadline"]) <= now:
                tomb = self.directory / f".{p.name}.{self._nonce}.tomb"
                try:
                    os.rename(p, tomb)
                    os.unlink(tomb)
                except OSError:
                    continue
                removed += 1
        return removed
