"""Unified atomic file I/O: checksums, durability policy, quarantine.

Three subsystems (run store, sweep cache, job journal) grew three
copies of the same ``mkstemp`` + ``os.replace`` discipline.  This
module is the one implementation, extended with the robustness layers
the copies lacked:

* **checksummed framing** — :func:`atomic_write` with
  ``checksum=True`` wraps the payload in a small header (magic,
  SHA-256, length) that :func:`read_bytes` verifies, so a torn page or
  bit rot that survives the atomic rename is *detected* instead of
  deserialized; unframed legacy files still read (the frame is
  recognized by its magic, not assumed), so stores written before this
  layer keep working;
* **durability policy** — ``fsync=True`` fsyncs the temp file before
  the rename and the directory after it, turning "atomic against
  crashes of this process" into "atomic against power loss" where the
  caller wants to pay for it;
* **quarantine** — corrupt files move into a ``_quarantine/`` sibling
  directory (never deleted), preserving the forensic evidence while
  guaranteeing the bad entry cannot shadow a fresh write;
* **fault sites** — every helper probes :mod:`repro.faults` (sites
  like ``store.write``/``cache.read``) *inside* the retried callable,
  so injected transient errors exercise the same
  :mod:`repro.util.retry` schedule organic ones would, and injected
  ``torn`` faults truncate the payload mid-write while completing the
  rename silently — exactly the failure the checksum exists to catch.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path
from typing import Callable, Optional, Union

from repro import faults
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.util.retry import RetryPolicy, retry_call

__all__ = [
    "CorruptPayloadError",
    "MAGIC",
    "frame",
    "unframe",
    "atomic_write",
    "atomic_build",
    "publish_exclusive",
    "read_bytes",
    "quarantine",
    "QUARANTINE_DIR",
]

#: frame header magic; the trailing version digit gates format bumps
MAGIC = b"%RPIO1\n"

#: quarantine subdirectory name (sibling of the corrupt file)
QUARANTINE_DIR = "_quarantine"

_QUARANTINED = obs_metrics.REGISTRY.counter(
    "repro_quarantined_total", "corrupt files moved to quarantine"
)


class CorruptPayloadError(ValueError):
    """A framed payload failed its checksum/length verification."""


def frame(data: bytes) -> bytes:
    """Wrap ``data`` in the checksummed frame.

    Layout: ``MAGIC`` + 64 hex sha256 chars + ``\\n`` + decimal length
    + ``\\n`` + payload.  The digest covers the payload bytes only.
    """
    digest = hashlib.sha256(data).hexdigest().encode("ascii")
    return b"%s%s\n%d\n%s" % (MAGIC, digest, len(data), data)


def unframe(blob: bytes, *, source: Optional[Path] = None) -> bytes:
    """Verify and strip the frame; pass unframed payloads through.

    Blobs that do not start with :data:`MAGIC` are returned unchanged
    — the legacy-compatibility path for files written before framing.

    :raises CorruptPayloadError: framed blobs whose length or digest
        does not match (truncation, torn page, bit rot).
    """
    if not blob.startswith(MAGIC):
        return blob
    where = f" in {source}" if source is not None else ""
    head = blob[len(MAGIC):]
    try:
        digest_line, _, rest = head.partition(b"\n")
        length_line, _, payload = rest.partition(b"\n")
        expected_len = int(length_line)
    except ValueError:
        raise CorruptPayloadError(
            f"torn frame header{where}"
        ) from None
    if len(payload) != expected_len:
        raise CorruptPayloadError(
            f"truncated payload{where}: "
            f"{len(payload)} of {expected_len} bytes"
        )
    actual = hashlib.sha256(payload).hexdigest().encode("ascii")
    if actual != digest_line:
        raise CorruptPayloadError(f"checksum mismatch{where}")
    return payload


def _fsync_dir(directory: Path) -> None:
    """fsync a directory so a completed rename survives power loss."""
    try:
        fd = os.open(str(directory), os.O_RDONLY)
    except OSError:
        return  # platform without directory fds: best effort
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write(
    path: Union[str, Path],
    data: bytes,
    *,
    checksum: bool = False,
    fsync: bool = False,
    site: Optional[str] = None,
    retry: Optional[RetryPolicy] = None,
) -> None:
    """Write ``data`` to ``path`` atomically (tempfile + rename).

    A reader (or a crash) can only ever observe the old content or the
    new content, never a torn file.  ``checksum=True`` frames the
    payload for read-side verification; ``fsync=True`` makes the write
    durable against power loss; ``site`` names the fault-injection
    point probed on every attempt; ``retry`` retries transient
    ``OSError`` failures under the given policy (``None``: one
    attempt, failures propagate).
    """
    path = Path(path)
    payload = frame(data) if checksum else data

    def _write() -> None:
        body = payload
        spec = faults.check(site) if site is not None else None
        if spec is not None and spec.kind == "torn":
            # a torn write is *silent*: half the payload lands and the
            # rename completes, simulating the post-crash page tear
            # that only the read-side checksum can detect
            body = payload[: len(payload) // 2]
        fd, tmp = tempfile.mkstemp(
            dir=str(path.parent), suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(body)
                if fsync:
                    f.flush()
                    os.fsync(f.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        if fsync:
            _fsync_dir(path.parent)

    if retry is None:
        _write()
    else:
        retry_call(_write, policy=retry, op=site or "atomic_write")


def atomic_build(
    path: Union[str, Path], build: Callable[[Path], None]
) -> None:
    """Produce ``path`` with an external writer, atomically.

    ``build`` is called with a holder-unique temporary path in
    ``path``'s directory and must write the complete file there (e.g.
    a compiler's ``-o``); the result is then renamed over ``path``.
    Concurrent builders never see each other's partial output, and a
    failed build leaves nothing behind.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp"
    )
    os.close(fd)
    try:
        build(Path(tmp))
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def publish_exclusive(
    path: Union[str, Path],
    data: bytes,
    *,
    checksum: bool = False,
    fsync: bool = False,
    site: Optional[str] = None,
) -> bool:
    """Atomically create ``path`` with ``data`` iff it does not exist.

    The compare-and-swap half of the lease protocol: the payload is
    written to a tempfile and published with ``os.link``, which fails
    with ``EEXIST`` when ``path`` already exists — so when N processes
    race to create the same file, exactly one wins.  Returns ``True``
    on publish, ``False`` when the path already existed (the caller
    lost the race).  Unlike :func:`atomic_write` this never replaces
    existing content.

    ``site`` probes fault injection like :func:`atomic_write` does:
    raising kinds propagate, and a ``torn`` fault truncates the
    payload while still publishing — leaving a corrupt file the
    read side must detect and treat as reclaimable.
    """
    path = Path(path)
    payload = frame(data) if checksum else data
    body = payload
    spec = faults.check(site) if site is not None else None
    if spec is not None and spec.kind == "torn":
        body = payload[: len(payload) // 2]
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(body)
            if fsync:
                f.flush()
                os.fsync(f.fileno())
        try:
            os.link(tmp, path)
        except FileExistsError:
            return False
        if fsync:
            _fsync_dir(path.parent)
        return True
    finally:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def read_bytes(
    path: Union[str, Path],
    *,
    checked: bool = False,
    site: Optional[str] = None,
    retry: Optional[RetryPolicy] = None,
) -> bytes:
    """Read ``path`` with optional frame verification and retries.

    ``checked=True`` verifies and strips the checksum frame (legacy
    unframed files pass through).  ``FileNotFoundError`` always
    propagates immediately (ENOENT is not transient).

    :raises CorruptPayloadError: a framed payload failed verification.
    """
    path = Path(path)

    def _read() -> bytes:
        if site is not None:
            faults.check(site)
        return path.read_bytes()

    if retry is None:
        blob = _read()
    else:
        blob = retry_call(_read, policy=retry, op=site or "read")
    return unframe(blob, source=path) if checked else blob


def quarantine(
    path: Union[str, Path], reason: str = "corrupt"
) -> Optional[Path]:
    """Move a corrupt file into its directory's ``_quarantine/``.

    Preserves the evidence (nothing is deleted) while guaranteeing the
    bad file cannot shadow the fresh rewrite; repeated quarantines of
    the same name get numeric suffixes.  Returns the new location, or
    ``None`` when the move failed (the file is then unlinked as a last
    resort — a corrupt entry must never keep poisoning reads).
    """
    path = Path(path)
    qdir = path.parent / QUARANTINE_DIR
    try:
        qdir.mkdir(parents=True, exist_ok=True)
        target = qdir / path.name
        n = 0
        while target.exists() and n < 1000:
            n += 1
            target = qdir / f"{path.name}.{n}"
        os.replace(path, target)
    except OSError:
        try:
            path.unlink()
        except OSError:
            pass
        return None
    _QUARANTINED.inc()
    with obs_trace.span(
        "quarantine", path=str(path), reason=reason
    ):
        pass  # span carries the record; the move already happened
    return target
