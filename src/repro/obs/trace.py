"""Span-based structured tracing: append-only JSONL, zero-cost when off.

A **span** is one timed region of work with a name, key/value
attributes, and causality links::

    from repro.obs import trace

    trace.enable("run.trace.jsonl")
    with trace.span("search.batch", k=32, run_id=run_id):
        evaluate_pool(...)
    trace.disable()

Every span that *finishes* appends exactly one JSON line to the trace
file, carrying:

* ``span`` / ``parent`` — span ids; the parent is the innermost open
  span **on the same thread** (a thread-local stack), so nested
  ``with`` blocks reconstruct into a tree offline;
* ``t_start`` / ``dur_s`` — monotonic (``perf_counter``) start offset
  from the tracer's epoch plus duration, immune to wall-clock steps;
  ``ts`` is the wall-clock start for human correlation;
* ``thread`` / ``pid`` — writer attribution: forked fleet workers
  (:mod:`repro.dist`) inherit the tracer and append to the same file,
  and their records are distinguished by pid;
* ``status`` — ``"ok"``, or ``"error:<ExcType>"`` when the traced
  block raised (the exception still propagates).

Write discipline: the trace file is opened ``O_APPEND`` and every
record is a single ``os.write`` of one complete line, so concurrent
writers (threads of one process, or forked worker processes sharing
the inherited descriptor) never interleave partial lines — the file is
valid JSONL at every instant, the append-only analogue of the run
store's ``mkstemp`` + ``os.replace`` discipline for rewritten files.

Disabled mode is the default and costs nearly nothing: ``span(...)``
checks one module-level flag and returns a shared no-op singleton — no
tracer object, no record, no allocation attributable to this module.
Hot loops that build expensive attribute dicts can guard on
:func:`is_enabled` to skip even the argument packing.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
import uuid
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

__all__ = [
    "Span",
    "Tracer",
    "enable",
    "disable",
    "is_enabled",
    "current",
    "span",
    "collect",
    "NULL_SPAN",
]

#: a finished-span record, as handed to sinks (JSON-expressible)
Record = Dict[str, object]
Sink = Callable[[Record], None]


class Span:
    """One open traced region; a context manager emitting on exit."""

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "attrs",
        "status",
        "t_start",
        "ts",
        "dur_s",
        "_tracer",
        "_stack",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        attrs: Dict[str, object],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = tracer._next_id()
        self.status = "ok"
        self.parent_id: Optional[str] = None
        self.t_start = 0.0
        self.ts = 0.0
        self.dur_s = 0.0
        self._stack: Optional[List["Span"]] = None

    def set(self, **attrs: object) -> "Span":
        """Attach (or overwrite) attributes on the open span."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        stack = self._tracer._stack()
        if stack:
            self.parent_id = stack[-1].span_id
        stack.append(self)
        self._stack = stack
        self.ts = time.time()
        self.t_start = time.perf_counter() - self._tracer.epoch
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self.dur_s = (
            time.perf_counter() - self._tracer.epoch - self.t_start
        )
        if exc_type is not None:
            self.status = f"error:{getattr(exc_type, '__name__', exc_type)}"
        stack = self._stack
        if stack and stack[-1] is self:
            stack.pop()
        elif stack is not None:  # pragma: no cover - defensive
            try:
                stack.remove(self)
            except ValueError:
                pass
        self._tracer._emit(self)
        return False  # never swallow the exception


class _NullSpan:
    """The shared no-op span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: object) -> "_NullSpan":
        return self


#: module-level singleton: ``span()`` in disabled mode always returns
#: this exact object (the zero-allocation fast path)
NULL_SPAN = _NullSpan()


class Tracer:
    """Owns the trace file, the sinks, and the per-thread span stacks.

    :param path: JSONL trace file to append finished spans to
        (``None``: sinks only — e.g. an in-memory :func:`collect`).
    """

    def __init__(self, path: Union[None, str, Path] = None) -> None:
        self.path = Path(path) if path is not None else None
        self.trace_id = f"tr-{uuid.uuid4().hex[:12]}"
        #: monotonic epoch all ``t_start`` offsets are relative to
        self.epoch = time.perf_counter()
        self._epoch_ts = time.time()
        self._fd: Optional[int] = None
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fd = os.open(
                str(self.path),
                os.O_WRONLY | os.O_CREAT | os.O_APPEND,
                0o644,
            )
        self._lock = threading.Lock()
        self._sinks: List[Sink] = []
        self._local = threading.local()
        self._counter = itertools.count()

    # -- internals -----------------------------------------------------------
    def _next_id(self) -> str:
        # the pid component keeps ids unique across forked workers
        # that inherited (and keep advancing) the same counter
        return f"sp-{os.getpid():x}-{next(self._counter):06d}"

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _emit(self, sp: Span) -> None:
        record: Record = {
            "name": sp.name,
            "span": sp.span_id,
            "parent": sp.parent_id,
            "trace": self.trace_id,
            "pid": os.getpid(),
            "thread": threading.get_ident(),
            "ts": sp.ts,
            "t_start": round(sp.t_start, 9),
            "dur_s": round(sp.dur_s, 9),
            "status": sp.status,
        }
        if sp.attrs:
            record["attrs"] = sp.attrs
        line: Optional[bytes] = None
        if self._fd is not None:
            try:
                line = (
                    json.dumps(record, default=str) + "\n"
                ).encode("utf-8")
            except (TypeError, ValueError):  # pragma: no cover
                record.pop("attrs", None)
                line = (json.dumps(record) + "\n").encode("utf-8")
        with self._lock:
            if self._fd is not None and line is not None:
                # one complete line per write: O_APPEND keeps
                # concurrent writers from interleaving partial records
                os.write(self._fd, line)
            for sink in self._sinks:
                sink(record)

    # -- public --------------------------------------------------------------
    def span(self, name: str, **attrs: object) -> Span:
        """Open a span (use as a context manager)."""
        return Span(self, name, attrs)

    def add_sink(self, sink: Sink) -> None:
        """Subscribe ``sink`` to every finished-span record."""
        with self._lock:
            self._sinks.append(sink)

    def remove_sink(self, sink: Sink) -> None:
        with self._lock:
            try:
                self._sinks.remove(sink)
            except ValueError:
                pass

    def close(self) -> None:
        """Close the trace file (sinks stay; idempotent)."""
        with self._lock:
            if self._fd is not None:
                try:
                    os.close(self._fd)
                except OSError:  # pragma: no cover
                    pass
                self._fd = None


# -- module-level tracer -------------------------------------------------------

_STATE_LOCK = threading.Lock()
_TRACER: Optional[Tracer] = None


def _reinit_state_lock() -> None:
    # the child of a fork gets fresh locks: one held by another thread
    # at fork time would never be released in the child
    global _STATE_LOCK
    _STATE_LOCK = threading.Lock()
    if _TRACER is not None:
        _TRACER._lock = threading.Lock()


os.register_at_fork(after_in_child=_reinit_state_lock)


def enable(path: Union[None, str, Path] = None) -> Tracer:
    """Install (and return) the process-wide tracer.

    ``path`` is the JSONL trace file to append to (``None``: in-memory
    sinks only).  Replaces any previously enabled tracer (which is
    closed first).
    """
    global _TRACER
    with _STATE_LOCK:
        if _TRACER is not None:
            _TRACER.close()
        _TRACER = Tracer(path)
        return _TRACER


def disable() -> None:
    """Tear the process-wide tracer down (no-op when already off)."""
    global _TRACER
    with _STATE_LOCK:
        if _TRACER is not None:
            _TRACER.close()
            _TRACER = None


def is_enabled() -> bool:
    """Whether a process-wide tracer is installed."""
    return _TRACER is not None


def current() -> Optional[Tracer]:
    """The installed tracer, or ``None``."""
    return _TRACER


def span(name: str, **attrs: object):
    """A span on the process-wide tracer — or the shared no-op
    singleton when tracing is disabled (the fast path)."""
    tracer = _TRACER
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **attrs)


class collect:
    """Context manager collecting finished-span records in memory.

    Attaches a list sink to the *current* tracer for its scope::

        with trace.collect() as records:
            run_search(...)
        profile = summarize_records(records)

    With tracing disabled the collected list simply stays empty (the
    context is still safe to enter), so callers need no mode check.
    """

    def __init__(self) -> None:
        self.records: List[Record] = []
        self._tracer: Optional[Tracer] = None

    def __enter__(self) -> List[Record]:
        self._tracer = _TRACER
        if self._tracer is not None:
            self._tracer.add_sink(self.records.append)
        return self.records

    def __exit__(self, *exc: object) -> bool:
        if self._tracer is not None:
            self._tracer.remove_sink(self.records.append)
            self._tracer = None
        return False
