"""Process-wide metrics registry: counters, gauges, bounded histograms.

One :class:`MetricsRegistry` (the module-level :data:`REGISTRY`) is the
single store every subsystem's telemetry folds into.  The stat dicts
(``Session.stats()``, serve's ``ServiceMetrics``, …) are *views* over
this registry — one source of truth.

Metric naming follows the Prometheus convention the exposition format
implies: ``repro_<subsystem>_<what>_total`` for counters,
``repro_<subsystem>_<what>`` for gauges, ``repro_<what>_seconds`` for
timing histograms.  See the README "Observability" section for the
full glossary.

All three instrument types are thread-safe (one registry-wide lock;
increments are cheap enough that finer locking buys nothing at this
call rate) and fork-inherited counters simply diverge per process, the
same contract as the rest of the process-wide caches.

Histograms are **bounded**: they keep running ``count``/``sum``/``max``
exactly, plus a fixed-size reservoir of the most recent observations
from which ``p50``/``p95`` are estimated — memory stays O(1) no matter
how long the process serves.

Quick use::

    from repro.obs import metrics

    metrics.REGISTRY.counter("repro_memo_hits_total").inc()
    metrics.REGISTRY.histogram("repro_search_batch_seconds").observe(dt)
    print(metrics.render_prom())
"""

from __future__ import annotations

import os
import threading
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "render_prom",
]


class Counter:
    """A monotonically increasing count (resettable only via the
    registry, for cache-clear and test-isolation semantics)."""

    __slots__ = ("name", "help", "_value", "_lock")

    def __init__(self, name: str, help: str, lock: threading.RLock) -> None:
        self.name = name
        self.help = help
        self._value = 0
        self._lock = lock

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (default 1) to the counter."""
        with self._lock:
            self._value += n

    @property
    def value(self) -> int:
        """Current count."""
        with self._lock:
            return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0


class Gauge:
    """A value that goes up and down (sizes, capacities, occupancy)."""

    __slots__ = ("name", "help", "_value", "_lock")

    def __init__(self, name: str, help: str, lock: threading.RLock) -> None:
        self.name = name
        self.help = help
        self._value: float = 0
        self._lock = lock

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        with self._lock:
            self._value = value

    def inc(self, n: float = 1) -> None:
        """Add ``n`` (default 1) to the gauge."""
        with self._lock:
            self._value += n

    def dec(self, n: float = 1) -> None:
        """Subtract ``n`` (default 1) from the gauge."""
        with self._lock:
            self._value -= n

    @property
    def value(self) -> float:
        """Current value."""
        with self._lock:
            return self._value

    def _reset(self) -> None:
        with self._lock:
            self._value = 0


class Histogram:
    """Bounded distribution summary: exact count/sum/max, reservoir
    p50/p95.

    Keeps the last ``maxlen`` observations (default 1024) in a deque;
    quantiles are computed over that window on demand.  ``count``,
    ``sum`` and ``max`` are exact over the histogram's whole lifetime.
    """

    __slots__ = ("name", "help", "_window", "_count", "_sum", "_max", "_lock")

    def __init__(
        self,
        name: str,
        help: str,
        lock: threading.RLock,
        maxlen: int = 1024,
    ) -> None:
        self.name = name
        self.help = help
        self._window: Deque[float] = deque(maxlen=maxlen)
        self._count = 0
        self._sum = 0.0
        self._max = 0.0
        self._lock = lock

    def observe(self, value: float) -> None:
        """Record one observation."""
        with self._lock:
            self._count += 1
            self._sum += value
            if value > self._max:
                self._max = value
            self._window.append(value)

    def snapshot(self) -> Dict[str, float]:
        """``{"count", "sum", "max", "p50", "p95"}`` at this instant."""
        with self._lock:
            window = sorted(self._window)
            count, total, mx = self._count, self._sum, self._max
        p50 = _quantile(window, 0.50)
        p95 = _quantile(window, 0.95)
        return {
            "count": count,
            "sum": total,
            "max": mx,
            "p50": p50,
            "p95": p95,
        }

    def _reset(self) -> None:
        with self._lock:
            self._window.clear()
            self._count = 0
            self._sum = 0.0
            self._max = 0.0


def _quantile(ordered: List[float], q: float) -> float:
    """Nearest-rank quantile of an already-sorted list (0.0 if empty)."""
    if not ordered:
        return 0.0
    idx = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[idx]


class MetricsRegistry:
    """Thread-safe registry of named counters, gauges and histograms.

    Instruments are created on first reference (``counter(name)`` etc.
    are get-or-create) so call sites need no registration ceremony;
    referencing an existing name with a different instrument type
    raises ``ValueError``.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _check_free(self, name: str, kind: str) -> None:
        for other_kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if other_kind != kind and name in table:
                raise ValueError(
                    f"metric {name!r} already registered as a {other_kind}"
                )

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the counter ``name``."""
        with self._lock:
            c = self._counters.get(name)
            if c is None:
                self._check_free(name, "counter")
                c = Counter(name, help, self._lock)
                self._counters[name] = c
            return c

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the gauge ``name``."""
        with self._lock:
            g = self._gauges.get(name)
            if g is None:
                self._check_free(name, "gauge")
                g = Gauge(name, help, self._lock)
                self._gauges[name] = g
            return g

    def histogram(
        self, name: str, help: str = "", maxlen: int = 1024
    ) -> Histogram:
        """Get or create the histogram ``name``."""
        with self._lock:
            h = self._histograms.get(name)
            if h is None:
                self._check_free(name, "histogram")
                h = Histogram(name, help, self._lock, maxlen=maxlen)
                self._histograms[name] = h
            return h

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready dump: every instrument's current value, sorted by
        name — ``{"counters": {...}, "gauges": {...},
        "histograms": {...}}``."""
        with self._lock:
            counters = {n: c.value for n, c in sorted(self._counters.items())}
            gauges = {n: g.value for n, g in sorted(self._gauges.items())}
            hists = {
                n: h.snapshot() for n, h in sorted(self._histograms.items())
            }
        return {"counters": counters, "gauges": gauges, "histograms": hists}

    def render_prom(self) -> str:
        """Prometheus text exposition (version 0.0.4) of the registry.

        Counters/gauges render as single samples; histograms render as
        summaries (``_count``/``_sum``/``_max`` plus ``quantile``-
        labelled p50/p95 samples).
        """
        lines: List[str] = []
        with self._lock:
            counters = sorted(self._counters.items())
            gauges = sorted(self._gauges.items())
            hists = sorted(self._histograms.items())
        for name, c in counters:
            if c.help:
                lines.append(f"# HELP {name} {c.help}")
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {c.value}")
        for name, g in gauges:
            if g.help:
                lines.append(f"# HELP {name} {g.help}")
            lines.append(f"# TYPE {name} gauge")
            lines.append(f"{name} {_fmt(g.value)}")
        for name, h in hists:
            snap = h.snapshot()
            if h.help:
                lines.append(f"# HELP {name} {h.help}")
            lines.append(f"# TYPE {name} summary")
            lines.append(f'{name}{{quantile="0.5"}} {_fmt(snap["p50"])}')
            lines.append(f'{name}{{quantile="0.95"}} {_fmt(snap["p95"])}')
            lines.append(f"{name}_sum {_fmt(snap['sum'])}")
            lines.append(f"{name}_count {int(snap['count'])}")
            lines.append(f"{name}_max {_fmt(snap['max'])}")
        return "\n".join(lines) + "\n"

    def _reinit_lock(self) -> None:
        """Give the registry and every instrument a fresh lock — the
        fork-child handler: a lock another thread held at fork time
        would never be released in the child."""
        self._lock = threading.RLock()
        for table in (self._counters, self._gauges, self._histograms):
            for instrument in table.values():
                instrument._lock = self._lock  # type: ignore[attr-defined]

    def reset(self, prefix: Optional[str] = None) -> None:
        """Zero every instrument (or only those whose name starts with
        ``prefix``).  Instruments stay registered; used by the cache
        ``clear_*`` helpers and test isolation."""
        with self._lock:
            tables: Tuple[Dict[str, object], ...] = (
                self._counters,
                self._gauges,
                self._histograms,
            )
            for table in tables:
                for name, instrument in table.items():
                    if prefix is None or name.startswith(prefix):
                        instrument._reset()  # type: ignore[attr-defined]


#: the process-wide registry every subsystem folds its telemetry into
REGISTRY = MetricsRegistry()
os.register_at_fork(after_in_child=REGISTRY._reinit_lock)


def render_prom() -> str:
    """Prometheus text exposition of the process-wide :data:`REGISTRY`."""
    return REGISTRY.render_prom()


def _fmt(value: float) -> str:
    """Render a sample value the way Prometheus text format expects."""
    if isinstance(value, int) or (
        isinstance(value, float) and value.is_integer()
    ):
        return str(int(value))
    return repr(float(value))
