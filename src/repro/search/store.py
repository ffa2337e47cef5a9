"""Persistent, content-addressed run store for precision searches.

A search run is compile-and-run heavy, and until now it was entirely
in-memory: a crash, an OOM kill, or a CI timeout threw away every
evaluated candidate.  :class:`RunStore` makes runs durable:

* each run lives in its own directory under the store root, named by a
  **content-addressed run id** — the SHA-256 of everything that
  determines the run's results (IR fingerprint of the kernel, input
  digests of the validation points and sweep, threshold, budget,
  strategy line-up, seed, error/cost model fingerprints) — so resuming
  with the same arguments finds the same run automatically, and runs
  with different parameters never collide;
* a JSON ``manifest.json`` records the run metadata (scenario label,
  kernel, library version, the full key components, the derived
  candidate set and contribution ranking, completion state and final
  front fingerprint);
* evaluation history checkpoints to a pickled ``evals.pkl`` payload —
  floats round-trip bit-exactly, which the resume contract depends on;
* every write is atomic (``mkstemp`` + ``os.replace``, the same
  discipline as :mod:`repro.sweep.cache`), so a run killed at any
  instant leaves either the previous checkpoint or the new one on
  disk, never a torn file.  A checkpoint is always a *prefix* of the
  deterministic evaluation order, which is exactly what resume needs.

The resume contract itself (re-seeding the evaluator memo and budget
so a resumed run is bit-identical to an uninterrupted one) lives in
:func:`repro.search.api.search`; multi-run plans in
:class:`repro.search.orchestrator.SearchOrchestrator`.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import socket
import time
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.interp.cost_model import CostModel
from repro.ir import nodes as N
from repro.ir.fingerprint import ir_fingerprint
from repro.ir.types import DType
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.search.evaluate import EvaluatedCandidate
from repro.sweep.cache import digest_inputs
from repro.tuning.config import PrecisionConfig
from repro.util import atomio
from repro.util.retry import DEFAULT_IO_POLICY
from repro.util.errors import ConfigError, StoreError, UnknownNameError

#: on-disk layout version; bumped on incompatible record/manifest changes
#: (checksummed evals.pkl framing is NOT a bump: readers fall back to
#: unframed legacy payloads, so both generations coexist in one store)
RUN_FORMAT = 1

#: pickle protocol pinned for cross-version disk compatibility
_PICKLE_PROTOCOL = 4

#: lease files for the distributed claim protocol (repro.dist.lease)
#: live in this subdirectory of the store root
LEASES_DIRNAME = "_leases"

#: fleet worker summaries (repro.dist.fleet) land here
DIST_DIRNAME = "_dist"

#: store-root subdirectories that are infrastructure, never run dirs —
#: listings, merges and the prune orphan scan must all skip them
RESERVED_DIRNAMES = (
    LEASES_DIRNAME,
    DIST_DIRNAME,
    atomio.QUARANTINE_DIR,
)

StoreLike = Union[None, str, Path, "RunStore"]


def library_version() -> str:
    """The installed package version, recorded in run manifests.

    Resume refuses to mix records across versions: the run key hashes
    parameters, not library behavior, so a version change invalidates
    stored runs (the resume path restarts them from scratch)."""
    try:
        from importlib.metadata import version

        return version("repro-cheffp")
    except Exception:  # not installed (PYTHONPATH=src usage)
        import repro

        return getattr(repro, "__version__", "unknown")


# -- run identity -------------------------------------------------------------


def run_key_components(
    fn: N.Function,
    points: Sequence[Sequence[object]],
    threshold: float,
    candidates: Optional[Sequence[str]],
    samples: Optional[Mapping[str, Sequence[object]]],
    fixed: Optional[Mapping[str, object]],
    demote_to: DType,
    strategies: Sequence[str],
    budget: int,
    seed: int,
    aggregate: str,
    error_metric: str,
    model_fingerprint: str,
    cost_model: CostModel,
    approx,
) -> Dict[str, object]:
    """Everything that determines a search run's results, as JSON.

    Deliberately excludes knobs that are bit-identical by contract
    (``config_batch``) and pure plumbing (``cache``) — a run may be
    resumed on the per-candidate path after starting config-batched
    and vice versa.
    """
    if samples is not None:
        sample_names = sorted(samples)
        samples_digest = digest_inputs(
            [samples[name] for name in sample_names]
        )
    else:
        sample_names, samples_digest = [], None
    if fixed:
        fixed_names = sorted(fixed)
        fixed_digest = digest_inputs([fixed[name] for name in fixed_names])
    else:
        fixed_names, fixed_digest = [], None
    return {
        "ir_fingerprint": ir_fingerprint(fn),
        "points_digest": [digest_inputs(tuple(p)) for p in points],
        "threshold": float(threshold),
        "candidates": (
            "auto" if candidates is None else sorted(candidates)
        ),
        "sample_names": sample_names,
        "samples_digest": samples_digest,
        "fixed_names": fixed_names,
        "fixed_digest": fixed_digest,
        "demote_to": demote_to.value,
        "strategies": list(strategies),
        "budget": int(budget),
        "seed": int(seed),
        "aggregate": aggregate,
        "error_metric": error_metric,
        "model_fingerprint": model_fingerprint,
        # CostModel is a plain dataclass of cost tables; its repr is a
        # deterministic rendering of those tables
        "cost_model": hashlib.sha256(
            repr(cost_model).encode()
        ).hexdigest(),
        "approx": sorted(approx) if approx else [],
        "format": RUN_FORMAT,
    }


def run_id_of(components: Mapping[str, object]) -> str:
    """Content-addressed run id of one parameter set."""
    payload = json.dumps(components, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _looks_like_run_dir(name: str) -> bool:
    """Whether a directory name matches the run-dir layout
    (``run_id[:32]`` — 32 lowercase hex characters)."""
    return len(name) == 32 and all(c in "0123456789abcdef" for c in name)


def _describe_provenance(manifest: Optional[Mapping[str, object]]) -> str:
    """One-line shard provenance for a manifest (ambiguity listings)."""
    if not isinstance(manifest, Mapping):
        return "(no readable manifest)"
    key = manifest.get("key")
    seed = key.get("seed") if isinstance(key, Mapping) else None
    origin = manifest.get("origin")
    parts = [
        str(manifest.get("label") or manifest.get("kernel") or "?"),
        f"seed={seed}",
    ]
    if isinstance(origin, Mapping):
        parts.append(f"origin={origin.get('host')}:{origin.get('pid')}")
    shards = manifest.get("shards")
    if isinstance(shards, Sequence) and not isinstance(shards, str):
        parts.append(f"merged-from={len(shards)} shard(s)")
    parts.append(
        "completed" if manifest.get("completed") else "in-flight"
    )
    return " ".join(parts)


# -- evaluation record (de)serialization --------------------------------------


def record_of(cand: EvaluatedCandidate) -> Dict[str, object]:
    """Serialize one evaluated candidate (pickle payload entry)."""
    return {
        "key": cand.key,
        "demotions": {
            name: dt.value for name, dt in cand.config.demotions.items()
        },
        "actual_error": cand.actual_error,
        "point_errors": tuple(cand.point_errors),
        "estimated_error": cand.estimated_error,
        "error": cand.error,
        "cycles": cand.cycles,
        "cycles_reference": cand.cycles_reference,
        "strategy": cand.strategy,
        "index": cand.index,
    }


def candidate_of(rec: Mapping[str, object]) -> EvaluatedCandidate:
    """Rebuild an :class:`EvaluatedCandidate` from a stored record."""
    config = PrecisionConfig(
        {name: DType(v) for name, v in rec["demotions"].items()}
    )
    return EvaluatedCandidate(
        key=rec["key"],
        config=config,
        actual_error=rec["actual_error"],
        point_errors=tuple(rec["point_errors"]),
        estimated_error=rec["estimated_error"],
        error=rec["error"],
        cycles=rec["cycles"],
        cycles_reference=rec["cycles_reference"],
        strategy=rec["strategy"],
        index=rec["index"],
    )


class RunStore:
    """A directory of persisted search runs, one subdirectory per run.

    ::

        store/
          <run_id[:32]>/
            manifest.json   # metadata, key components, completion state
            evals.pkl       # checkpointed evaluation history (a prefix
                            # of the deterministic evaluation order)
    """

    def __init__(
        self, root: Union[str, Path], *, fsync: bool = False
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: durability policy: fsync every manifest/checkpoint write
        #: (atomic against power loss, not just process death)
        self.fsync = bool(fsync)

    # -- paths --------------------------------------------------------------
    def run_dir(self, run_id: str) -> Path:
        return self.root / run_id[:32]

    def _manifest_path(self, run_id: str) -> Path:
        return self.run_dir(run_id) / "manifest.json"

    def _records_path(self, run_id: str) -> Path:
        return self.run_dir(run_id) / "evals.pkl"

    # -- manifests ----------------------------------------------------------
    def new_manifest(
        self,
        run_id: str,
        components: Mapping[str, object],
        kernel: str,
        label: str,
        analysis: Optional[Mapping[str, object]] = None,
    ) -> Dict[str, object]:
        return {
            "format": RUN_FORMAT,
            "run_id": run_id,
            "label": label,
            "kernel": kernel,
            "library_version": library_version(),
            "created": time.time(),
            "key": dict(components),
            "candidates": None,
            "contributions": None,
            "completed": False,
            "n_evaluations": 0,
            "baseline_key": None,
            "front": None,
            # shard provenance: which process created the run, and —
            # after a store merge — which shards contributed to it
            "origin": {
                "host": socket.gethostname(),
                "pid": os.getpid(),
            },
            "shards": None,
            # static-analysis provenance: the analyze report digest and
            # the pruned candidate names, when pre-search pruning ran
            "analysis": dict(analysis) if analysis is not None else None,
        }

    def save_manifest(
        self, run_id: str, manifest: Mapping[str, object]
    ) -> None:
        self.run_dir(run_id).mkdir(parents=True, exist_ok=True)
        data = (json.dumps(manifest, indent=2) + "\n").encode("utf-8")
        # manifests stay plain JSON (external tooling reads them);
        # their corruption mode is already handled by load_manifest
        atomio.atomic_write(
            self._manifest_path(run_id),
            data,
            fsync=self.fsync,
            site="store.write",
            retry=DEFAULT_IO_POLICY,
        )

    def load_manifest(self, run_id: str) -> Optional[Dict[str, object]]:
        """The run's manifest, or ``None`` when absent/unreadable or
        written by an incompatible layout version."""
        path = self._manifest_path(run_id)
        try:
            manifest = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        # a concurrent writer may have left a torn/foreign payload —
        # valid JSON that is not a manifest object degrades like a
        # missing one instead of raising downstream
        if not isinstance(manifest, dict):
            return None
        if manifest.get("format") != RUN_FORMAT:
            return None
        return manifest

    # -- evaluation records --------------------------------------------------
    def checkpoint(
        self, run_id: str, records: Sequence[Mapping[str, object]]
    ) -> None:
        """Persist the full evaluation history so far (atomic rewrite).

        Called after every computed batch; budgets are small (tens to a
        few hundred records), so rewriting beats the bookkeeping of an
        append-only log while keeping the all-or-nothing guarantee.
        Payloads are checksum-framed so torn pages are detected on
        resume; transient write failures retry under the shared policy.

        :raises StoreError: the write still failed after the bounded
            retries — a lost checkpoint loses work, so it surfaces as
            the documented structured error instead of vanishing."""
        t0 = time.perf_counter()
        with obs_trace.span(
            "store.checkpoint", run_id=run_id, records=len(records)
        ):
            self.run_dir(run_id).mkdir(parents=True, exist_ok=True)
            data = pickle.dumps(list(records), protocol=_PICKLE_PROTOCOL)
            try:
                atomio.atomic_write(
                    self._records_path(run_id),
                    data,
                    checksum=True,
                    fsync=self.fsync,
                    site="store.write",
                    retry=DEFAULT_IO_POLICY,
                )
            except OSError as exc:
                raise StoreError(
                    f"checkpoint of run {run_id[:12]} failed after "
                    f"retries: {exc}"
                ) from exc
        obs_metrics.REGISTRY.counter(
            "repro_search_checkpoints_total", "run-store checkpoint writes"
        ).inc()
        obs_metrics.REGISTRY.histogram(
            "repro_checkpoint_write_seconds", "run-store checkpoint latency"
        ).observe(time.perf_counter() - t0)

    def load_records(self, run_id: str) -> List[Dict[str, object]]:
        """Stored evaluation records, as the longest valid prefix.

        A corrupt or unreadable payload degrades to an empty history
        (the run restarts from scratch rather than failing) and the
        bad file moves to the run's ``_quarantine/`` for forensics;
        records after an index gap are dropped, preserving the prefix
        property the bit-identical-resume contract depends on."""
        path = self._records_path(run_id)
        if not path.exists():
            return []
        try:
            blob = atomio.read_bytes(
                path,
                checked=True,
                site="store.read",
                retry=DEFAULT_IO_POLICY,
            )
            raw = pickle.loads(blob)
        except FileNotFoundError:
            return []  # lost a race with remove_run/prune
        except (
            atomio.CorruptPayloadError,
            pickle.PickleError, EOFError, AttributeError,
            ValueError,  # e.g. a truncated/garbled protocol header
        ):
            atomio.quarantine(path, "corrupt checkpoint payload")
            return []
        except OSError:
            # unreadable but not provably corrupt (retries exhausted):
            # leave the file for the next attempt
            return []
        if not isinstance(raw, list):
            return []
        out: List[Dict[str, object]] = []
        for rec in sorted(
            (r for r in raw if isinstance(r, dict)),
            key=lambda r: r.get("index", -1),
        ):
            if rec.get("index") != len(out):
                break
            out.append(rec)
        return out

    def complete_run(
        self,
        run_id: str,
        manifest: Dict[str, object],
        records: Sequence[Mapping[str, object]],
        baseline_key: Optional[str],
        front: Sequence[Mapping[str, object]],
    ) -> None:
        """Final checkpoint + manifest completion marker."""
        self.checkpoint(run_id, records)
        manifest["completed"] = True
        manifest["n_evaluations"] = len(records)
        manifest["baseline_key"] = baseline_key
        manifest["front"] = list(front)
        self.save_manifest(run_id, manifest)

    # -- cross-run access ----------------------------------------------------
    def save_run(
        self,
        manifest: Dict[str, object],
        records: Sequence[Mapping[str, object]],
    ) -> str:
        """Write a run wholesale (copy/truncate tooling and tests)."""
        run_id = str(manifest["run_id"])
        self.save_manifest(run_id, manifest)
        self.checkpoint(run_id, records)
        return run_id

    def list_runs(self) -> List[Dict[str, object]]:
        """Manifests of every readable run, newest first."""
        out = []
        for sub in self.root.iterdir():
            if not sub.is_dir():
                continue
            try:
                manifest = json.loads((sub / "manifest.json").read_text())
            except (OSError, ValueError):
                # half-written run dir (a concurrent writer mkdir'd but
                # hasn't landed the manifest yet) or plain corruption:
                # skip it, never fail the listing
                continue
            if not isinstance(manifest, dict):
                continue
            if manifest.get("format") == RUN_FORMAT:
                out.append(manifest)
        out.sort(key=lambda m: m.get("created", 0.0), reverse=True)
        return out

    def _resolve_against(
        self, manifests: Sequence[Mapping[str, object]], prefix: str
    ) -> str:
        """Expand a run-id prefix against already-loaded manifests."""
        matches = sorted(
            {
                str(m["run_id"])
                for m in manifests
                if str(m.get("run_id", "")).startswith(prefix)
            }
        )
        if not matches:
            raise UnknownNameError(
                f"no stored run matches {prefix!r} in {self.root}"
            )
        if len(matches) > 1:
            # merged stores hold shard runs whose ids share long
            # prefixes with their siblings' labels; list each
            # candidate with its shard provenance so the caller can
            # pick the right one without spelunking manifests
            by_id = {str(m.get("run_id", "")): m for m in manifests}
            lines = []
            for rid in matches:
                lines.append(
                    f"  {rid[:12]}  {_describe_provenance(by_id.get(rid))}"
                )
            raise UnknownNameError(
                f"run id prefix {prefix!r} is ambiguous between "
                f"{len(matches)} runs:\n" + "\n".join(lines)
            )
        return matches[0]

    def resolve_run_id(self, prefix: str) -> str:
        """Expand a (possibly abbreviated) run id against stored runs.

        :raises UnknownNameError: no stored run matches, or the prefix
            is ambiguous.
        """
        return self._resolve_against(self.list_runs(), prefix)

    def run_progress(self, run_id: str) -> Dict[str, object]:
        """Live progress of one run, read from its checkpoints.

        Safe to call while another process (or thread) is writing the
        run: checkpoints are atomic, so the snapshot is always a valid
        prefix of the evaluation order.  This is the polling surface
        the job server (:mod:`repro.serve`) streams search progress
        from.  Returns ``{"exists": False}`` for an unknown run id.
        """
        manifest = self.load_manifest(run_id)
        if manifest is None:
            return {"run_id": run_id, "exists": False}
        key = manifest.get("key") or {}
        n_evaluations = self.stored_evaluation_count(manifest)
        budget = key.get("budget")
        return {
            "run_id": manifest.get("run_id"),
            "exists": True,
            "label": manifest.get("label"),
            "kernel": manifest.get("kernel"),
            "completed": bool(manifest.get("completed")),
            "n_evaluations": n_evaluations,
            "budget": budget,
            "fraction": (
                min(1.0, n_evaluations / budget)
                if isinstance(budget, int) and budget > 0
                else None
            ),
            "front_size": len(manifest.get("front") or []),
            "created": manifest.get("created"),
            "library_version": manifest.get("library_version"),
        }

    def in_flight_runs(self) -> List[Dict[str, object]]:
        """Manifests of runs that never completed, newest first.

        These are the resumable runs a restarted server discovers:
        each still has a valid checkpointed prefix on disk, and
        re-running the same parameters with ``resume=True`` continues
        bit-identically from it.
        """
        return [m for m in self.list_runs() if not m.get("completed")]

    def stored_evaluation_count(
        self, manifest: Mapping[str, object]
    ) -> int:
        """Evaluations a run actually holds.

        Completed runs carry the count in the manifest; for partial
        (crashed) runs the manifest counter is stuck at its initial 0
        — ``checkpoint()`` never rewrites the manifest — so the
        checkpointed records (the resumable prefix) are counted
        instead.  Used by ``compare()`` and the CLI listings.
        """
        if manifest.get("completed"):
            return int(manifest.get("n_evaluations", 0))  # type: ignore[arg-type]
        return len(self.load_records(str(manifest.get("run_id"))))

    def remove_run(self, run_id: str) -> bool:
        """Delete one run directory (full id); returns whether it
        existed.  Use :meth:`resolve_run_id` first to expand prefixes."""
        run_dir = self.run_dir(run_id)
        if not run_dir.is_dir():
            return False
        shutil.rmtree(run_dir, ignore_errors=True)
        return True

    def leases_dir(self) -> Path:
        """Directory the distributed claim protocol keeps leases in."""
        return self.root / LEASES_DIRNAME

    def _leased_run_dirs(self) -> set:
        """Run-dir names (``run_id[:32]``) under a live lease.

        Lazy-imports :mod:`repro.dist.lease` at call time (the dist
        layer imports this module, so a top-level import would cycle).
        """
        if not self.leases_dir().is_dir():
            return set()
        from repro.dist.lease import LeaseManager

        return {
            key[:32]
            for key in LeaseManager(self.leases_dir()).active_keys()
        }

    def merge(
        self,
        src_stores: Sequence[StoreLike],
        *,
        verify: bool = True,
    ):
        """Union-merge runs from ``src_stores`` into this store.

        Thin facade over :func:`repro.dist.store_merge.merge_stores`
        (see there for the dedup/verification/provenance semantics);
        returns its :class:`~repro.dist.store_merge.MergeReport`.
        """
        from repro.dist.store_merge import merge_stores

        return merge_stores(self, src_stores, verify=verify)

    def _run_dir_mtime(self, run_dir: Path) -> float:
        """Latest mtime across a run directory's files (0.0 if gone)."""
        latest = 0.0
        try:
            entries = list(run_dir.iterdir())
        except OSError:
            return latest
        for p in entries:
            try:
                latest = max(latest, p.stat().st_mtime)
            except OSError:
                continue
        return latest

    def prune(
        self,
        max_age_days: Optional[float] = None,
        max_runs: Optional[int] = None,
        incomplete: bool = False,
        dry_run: bool = False,
        min_age_hours: float = 1.0,
    ) -> List[Dict[str, object]]:
        """Garbage-collect stored runs; returns the pruned manifests.

        Selection is the union of the given criteria:

        * ``incomplete=True`` — runs that never completed (crashed and
          abandoned checkpoints), including **orphaned run
          directories** with no readable manifest of the current
          layout format (a crash before the first manifest write, disk
          corruption, or a format bump) — exactly the debris a GC
          exists to clear;
        * ``max_age_days`` — runs created longer ago than this;
        * ``max_runs`` — keep only the newest N of whatever survives
          the other criteria.

        ``dry_run=True`` reports what *would* be pruned without
        deleting anything.

        ``min_age_hours`` protects **live** runs from the
        ``incomplete`` criterion: an in-flight search looks exactly
        like a crashed one (manifest not completed, checkpoints
        accruing), so incomplete runs whose files were touched within
        this window are skipped (default: one hour; pass ``0`` to
        collect everything regardless of recency).

        :raises ConfigError: when called with no criterion at all, or
            with negative values.
        """
        if max_age_days is None and max_runs is None and not incomplete:
            raise ConfigError(
                "prune() requires at least one criterion "
                "(max_age_days=, max_runs=, or incomplete=True)"
            )
        # destructive knobs reject out-of-range values instead of
        # coercing (-1 would silently select every stored run)
        if max_runs is not None and int(max_runs) < 0:
            raise ConfigError(
                f"max_runs must be >= 0, got {max_runs!r}"
            )
        if max_age_days is not None and float(max_age_days) < 0:
            raise ConfigError(
                f"max_age_days must be >= 0, got {max_age_days!r}"
            )
        if float(min_age_hours) < 0:
            raise ConfigError(
                f"min_age_hours must be >= 0, got {min_age_hours!r}"
            )
        recency_cutoff = time.time() - float(min_age_hours) * 3600.0
        manifests = self.list_runs()  # newest first
        victims: List[Dict[str, object]] = []
        victim_ids = set()

        def condemn(m: Dict[str, object]) -> None:
            rid = str(m.get("run_id"))
            if rid not in victim_ids:
                victim_ids.add(rid)
                victims.append(m)

        # runs another worker holds a live lease on (repro.dist) are
        # in-flight shard work, however stale their files look — the
        # lease heartbeat, not the file mtime, is their liveness signal
        leased = self._leased_run_dirs()

        if incomplete:
            for m in manifests:
                if str(m["run_id"])[:32] in leased:
                    continue
                if not m.get("completed") and (
                    self._run_dir_mtime(
                        self.run_dir(str(m["run_id"]))
                    )
                    <= recency_cutoff
                ):
                    condemn(m)
            # orphaned run directories (no readable current-format
            # manifest) are invisible to list_runs but still take
            # disk.  Only condemn directories that demonstrably were
            # run dirs — holding run files or named like one (32 hex
            # chars) — never arbitrary colocated data, and never a
            # whole store written by a *newer* layout format
            known_dirs = {
                str(self.run_dir(str(m["run_id"]))) for m in manifests
            }
            for sub in sorted(self.root.iterdir()):
                if not sub.is_dir() or str(sub) in known_dirs:
                    continue
                if sub.name in RESERVED_DIRNAMES or sub.name in leased:
                    # lease/quarantine/fleet infrastructure and
                    # live-leased shard runs are never orphans
                    continue
                manifest_path = sub / "manifest.json"
                if manifest_path.exists():
                    try:
                        fmt = json.loads(
                            manifest_path.read_text()
                        ).get("format")
                    except (OSError, ValueError):
                        fmt = None
                    if isinstance(fmt, int) and fmt > RUN_FORMAT:
                        # a newer library owns this run; leave it
                        continue
                run_shaped = (
                    manifest_path.exists()
                    or (sub / "evals.pkl").exists()
                    or _looks_like_run_dir(sub.name)
                )
                if run_shaped and (
                    self._run_dir_mtime(sub) <= recency_cutoff
                ):
                    condemn(
                        {
                            "run_id": sub.name,
                            "label": "(orphaned)",
                            "completed": False,
                            "orphaned": True,
                        }
                    )
        if max_age_days is not None:
            cutoff = time.time() - float(max_age_days) * 86400.0
            for m in manifests:
                if str(m["run_id"])[:32] in leased:
                    continue
                if float(m.get("created", 0.0)) < cutoff:
                    condemn(m)
        if max_runs is not None:
            survivors = [
                m
                for m in manifests
                if str(m.get("run_id")) not in victim_ids
            ]
            for m in survivors[int(max_runs):]:
                if str(m["run_id"])[:32] in leased:
                    continue
                condemn(m)
        if not dry_run:
            for m in victims:
                if m.get("orphaned"):
                    # the directory name is not a run id — remove it
                    # directly
                    shutil.rmtree(
                        self.root / str(m["run_id"]), ignore_errors=True
                    )
                else:
                    self.remove_run(str(m["run_id"]))
        return victims

    def compare(
        self, run_ids: Optional[Sequence[str]] = None
    ) -> List[Dict[str, object]]:
        """Comparison rows across stored runs (newest first).

        Each row summarizes one run — label, kernel, completion state,
        evaluation count, Pareto front size, and the cheapest front
        point within the run's own threshold.  For runs that never
        completed, the evaluation count is the number of checkpointed
        records on disk (the resumable prefix), not the manifest's
        stale counter.
        """
        stored = self.list_runs()  # one scan serves every lookup
        if run_ids is not None:
            by_id = {str(m["run_id"]): m for m in stored}
            manifests = [
                by_id[self._resolve_against(stored, rid)]
                for rid in run_ids
            ]
        else:
            manifests = stored
        rows = []
        for m in manifests:
            front = m.get("front") or []
            key = m.get("key") or {}
            threshold = key.get("threshold")
            best = None
            if front and threshold is not None:
                feasible = [
                    p for p in front if p.get("error", 0) <= threshold
                ]
                if feasible:
                    best = min(feasible, key=lambda p: p["cycles"])
            completed = bool(m.get("completed"))
            n_evaluations = self.stored_evaluation_count(m)
            rows.append(
                {
                    "run_id": m.get("run_id"),
                    "label": m.get("label"),
                    "kernel": m.get("kernel"),
                    "created": m.get("created"),
                    "completed": completed,
                    "n_evaluations": n_evaluations,
                    "front_size": len(front),
                    "threshold": threshold,
                    "budget": key.get("budget"),
                    "strategies": key.get("strategies"),
                    "seed": key.get("seed"),
                    "best_error": best["error"] if best else None,
                    "best_cycles": best["cycles"] if best else None,
                }
            )
        return rows

    def diff_fronts(self, run_a: str, run_b: str) -> Dict[str, object]:
        """Structured diff of two stored runs' Pareto fronts.

        Front points are matched by configuration key; the result
        reports points exclusive to either run and, for shared
        configurations, their (error, cycles) deltas.

        :raises StoreError: when either run never completed (it has no
            final front to diff).
        """
        stored = self.list_runs()
        by_id = {str(m["run_id"]): m for m in stored}
        out: Dict[str, object] = {}
        fronts: Dict[str, Dict[str, Dict[str, object]]] = {}
        for name, rid in (("a", run_a), ("b", run_b)):
            full = self._resolve_against(stored, rid)
            manifest = by_id[full]
            if not manifest.get("completed"):
                raise StoreError(
                    f"run {rid!r} never completed — no front to diff"
                )
            out[f"run_{name}"] = full
            out[f"label_{name}"] = manifest.get("label")
            fronts[name] = {
                str(p["key"]): p for p in (manifest.get("front") or [])
            }
        keys_a, keys_b = set(fronts["a"]), set(fronts["b"])
        common = []
        for key in sorted(keys_a & keys_b):
            pa, pb = fronts["a"][key], fronts["b"][key]
            common.append(
                {
                    "key": key,
                    "error_a": pa["error"],
                    "error_b": pb["error"],
                    "cycles_a": pa["cycles"],
                    "cycles_b": pb["cycles"],
                    "same": (
                        pa["error"] == pb["error"]
                        and pa["cycles"] == pb["cycles"]
                    ),
                }
            )
        out["only_a"] = [fronts["a"][k] for k in sorted(keys_a - keys_b)]
        out["only_b"] = [fronts["b"][k] for k in sorted(keys_b - keys_a)]
        out["common"] = common
        out["identical"] = (
            not out["only_a"]
            and not out["only_b"]
            and all(c["same"] for c in common)
        )
        return out
