"""Per-layer instrumentation for the traced benchmark run.

The program already emits ``repro.obs`` spans at a few boundaries
(``estimate.build``, ``sweep.run``, ``search.batch``,
``store.checkpoint``, ``codegen.compile`` around lane-kernel compiles,
``serve.job``).  :class:`Layers` adds spans around the remaining public
entry points from the outside, by rebinding each function in every
``repro`` module that holds a reference to it, so no program source
changes.  The wrappers are installed only for the traced phase; the
untraced phase runs the program exactly as shipped.

``util.atomio.atomic_write`` spans carry the fault site and the bytes
written; the per-layer accounting folds them back into their parent span,
so that ``store.checkpoint`` self time keeps its own I/O.

:func:`attribution` checks that the spanned layers account for the traced
time: a layer whose wrapper is missing leaves its time in the self time
of an unnamed parent, and the check fails.  ``PERFBENCH_UNWRAP`` (span
names, comma-separated) leaves layers unwrapped, to show that it does.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from typing import Callable, Dict, Iterable, List, Tuple

#: (module, attribute, span name) of each spanned entry point.  A dotted
#: attribute is a method patched on its class.  ``compile_raw`` shares the
#: ``codegen.compile`` name with the program's lane-kernel compile span:
#: both are the codegen layer and never nest.
SPANNED: Tuple[Tuple[str, str, str], ...] = (
    ("repro.ir.builder", "clone", "ir.clone"),
    ("repro.core.api", "build_adjoint", "core.build_adjoint"),
    ("repro.opt.pipeline", "optimize", "opt.optimize"),
    ("repro.codegen.compile", "compile_raw", "codegen.compile"),
    ("repro.core.api", "ErrorEstimator.execute", "core.execute"),
    ("repro.tuning.validate", "PoolCountingRunner.__call__",
     "tuning.validate"),
)
#: the scalar counting-runner factory: its call (a compile) and every
#: call of the runner it returns are ``tuning.validate`` spans
RUNNER_FACTORY = ("repro.tuning.validate", "counting_runner")
ATOMIC_WRITE = ("repro.util.atomio", "atomic_write")

WRITE_SPAN = "util.atomic_write"

#: root span the benchmark opens around every timed op
OP_SPAN = "bench.op"

#: the layers whose self times the per-layer metrics report: the spans
#: above, the program's own ``sweep.run``, ``search.batch`` and
#: ``store.checkpoint`` spans, and every ``analysis.*`` span
LAYER_SPANS = frozenset(
    [name for _, _, name in SPANNED]
    + ["sweep.run", "search.batch", "store.checkpoint", WRITE_SPAN]
)
ANALYSIS_PREFIX = "analysis."


class Layers:
    """Installs the span wrappers; ``uninstall`` restores every binding."""

    def __init__(self) -> None:
        from repro.obs import trace

        self._trace = trace
        self._patched: List[Tuple[object, str, object]] = []
        self.skip = set(
            filter(None, os.environ.get("PERFBENCH_UNWRAP", "").split(","))
        )

    # -- installation --------------------------------------------------------
    def install(self) -> None:
        for module, attr, name in SPANNED:
            if name not in self.skip:
                self._wrap(module, attr, self._spanned(name))
        if "tuning.validate" not in self.skip:
            self._wrap(*RUNNER_FACTORY, self._runner_factory)
        if WRITE_SPAN not in self.skip:
            self._wrap(*ATOMIC_WRITE, self._spanned_write)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(
        self, module: str, attr: str, make: Callable[[Callable], Callable]
    ) -> None:
        mod = importlib.import_module(module)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            original = cls.__dict__[meth]
            self._set(cls, meth, original, make(original))
            return
        original = getattr(mod, attr)
        wrapper = make(original)
        # every module that did ``from module import attr`` holds its own
        # binding; rebind each one
        for name, other in list(sys.modules.items()):
            if not name.startswith("repro") or other is None:
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    self._set(other, key, original, wrapper)

    def _set(self, owner: object, attr: str, original, wrapper) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # -- wrappers ------------------------------------------------------------
    def _spanned(self, name: str) -> Callable[[Callable], Callable]:
        span = self._trace.span

        def make(fn: Callable) -> Callable:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with span(name):
                    return fn(*args, **kwargs)

            return wrapper

        return make

    def _runner_factory(self, factory: Callable) -> Callable:
        span = self._trace.span

        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            with span("tuning.validate"):
                run = factory(*args, **kwargs)

            @functools.wraps(run)
            def spanned_run(*a, **kw):
                with span("tuning.validate"):
                    return run(*a, **kw)

            return spanned_run

        return wrapper

    def _spanned_write(self, write: Callable) -> Callable:
        span = self._trace.span

        @functools.wraps(write)
        def wrapper(path, data, *args, **kwargs):
            site = kwargs.get("site") or "other"
            with span(WRITE_SPAN, site=site, bytes=len(data)):
                return write(path, data, *args, **kwargs)

        return wrapper


# -- span accounting -----------------------------------------------------------


def under_ops(records: List[dict], root: str = OP_SPAN) -> List[dict]:
    """The records inside ``root`` spans (by default ``bench.op``, which
    drops the benchmark's own checks, run between ops)."""
    by_id = {r["span"]: r for r in records}
    keep: Dict[str, bool] = {}

    def inside(r: dict) -> bool:
        sid = r["span"]
        if sid not in keep:
            parent = by_id.get(r.get("parent"))
            keep[sid] = r["name"] == root or (
                parent is not None and inside(parent)
            )
        return keep[sid]

    return [r for r in records if inside(r)]


def split_writes(records: List[dict]) -> Tuple[List[dict], Dict[str, int]]:
    """Remove the atomic-write spans, so that their time counts as their
    parent's self time; returns the rest and ``{site: writes, "bytes":
    total bytes}``."""
    removed = {r["span"]: r.get("parent") for r in records
               if r["name"] == WRITE_SPAN}
    rest: List[dict] = []
    writes: Dict[str, int] = {"bytes": 0}
    for r in records:
        if r["name"] == WRITE_SPAN:
            attrs = r.get("attrs", {})
            site = str(attrs.get("site", "other"))
            writes[site] = writes.get(site, 0) + 1
            writes["bytes"] += int(attrs.get("bytes", 0))
            continue
        parent = r.get("parent")
        if parent in removed:  # a retry span inside a write
            while parent in removed:
                parent = removed[parent]
            r = dict(r, parent=parent)
        rest.append(r)
    return rest, writes


def self_times(records: Iterable[dict]) -> Dict[str, Dict[str, float]]:
    """``{name: {"calls", "self_s", "total_s"}}`` over span records.

    A span's self time is its duration minus its children's durations,
    so the self times of a span tree sum to its root's duration."""
    from repro.obs.profile import summarize_records

    phases = summarize_records(list(records))["phases"]
    return {
        name: {
            "calls": int(p["count"]),
            "self_s": float(p["self_s"]),
            "total_s": float(p["total_s"]),
        }
        for name, p in phases.items()
    }


def is_layer(name: str) -> bool:
    return name in LAYER_SPANS or name.startswith(ANALYSIS_PREFIX)


def attribution(records: List[dict], root: str) -> Tuple[float, float]:
    """``(layer seconds, root seconds)``: the summed self times of the
    layer spans, and the summed durations of the ``root`` spans they lie
    in.  The rest of the root time is self time of unnamed spans (the
    root's own, ``search.run``, ``estimate.build``, ...)."""
    st = self_times(under_ops(records, root))
    layers = sum(p["self_s"] for name, p in st.items() if is_layer(name))
    return layers, st.get(root, {}).get("total_s", 0.0)


def shares_with_build_collapsed(records: List[dict]) -> Dict[str, float]:
    """Self time per span name, except that every ``core.build_adjoint``
    span counts with all its descendants (IR clones, opt passes, ...).
    The values partition the traced time like plain self times do."""
    by_id = {r["span"]: r for r in records}

    def inside_build(r: dict) -> bool:
        parent = by_id.get(r.get("parent"))
        while parent is not None:
            if parent["name"] == "core.build_adjoint":
                return True
            parent = by_id.get(parent.get("parent"))
        return False

    kept = [r for r in records if not inside_build(r)]
    out: Dict[str, float] = {}
    for name, p in self_times(kept).items():
        out[name] = (
            p["total_s"] if name == "core.build_adjoint" else p["self_s"]
        )
    return out
