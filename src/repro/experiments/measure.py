"""Uniform time/peak-memory measurement of one analysis run.

The paper measures analysis wall-clock (Google benchmark) and peak RSS
(GNU time).  We measure wall-clock with ``perf_counter`` and Python-heap
peaks with ``tracemalloc`` (with each tool's tape footprint as a floor:
ADAPT's tape estimate, the native engine's C tapes); tool *build* time
(adjoint generation, compilation and native lowering — the analogue of
compiling with Clad) is excluded from the analysis time, exactly as
compilation is excluded in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.adapt.analysis import AdaptAnalysis
from repro.adapt.tape import TapeLimits
from repro.codegen.compile import compile_primal
from repro.core.api import ErrorEstimator
from repro.core.models import AdaptModel, ErrorModel
from repro.frontend.registry import Kernel
from repro.ir import nodes as N
from repro.util.errors import AnalysisOutOfMemory
from repro.util.memory import measure_time_and_peak_memory


@dataclass
class Measurement:
    """One (tool, benchmark, size) measurement."""

    tool: str
    time_s: float
    peak_bytes: int
    value: Optional[float] = None
    total_error: Optional[float] = None
    oom: bool = False

    @property
    def time_ms(self) -> float:
        return self.time_s * 1e3

    @property
    def peak_mb(self) -> float:
        return self.peak_bytes / (1024.0 * 1024.0)


def _time_untraced(fn) -> float:
    """Wall-clock a call with tracemalloc guaranteed off.

    tracemalloc slows allocation-heavy code by large, workload-dependent
    factors (it hooks every object allocation), so timing and peak-
    memory measurement run as *separate* executions — the paper's GNU
    ``time`` likewise observes the process from outside.
    """
    import time
    import tracemalloc

    assert not tracemalloc.is_tracing(), "timing run must be untraced"
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def measure_chef(
    k: Union[Kernel, N.Function],
    args: Sequence[object],
    model: Optional[ErrorModel] = None,
    opt_level: int = 2,
    minimal_pushes: bool = True,
) -> Measurement:
    """CHEF-FP analysis time/memory (adjoint built outside the clock).

    Native lowering, or the Python compile when Python runs the
    adjoint, is build work too, done before the clock, so the timed
    and the memory-measured runs take the same engine.
    """
    est = ErrorEstimator(
        k,
        model=model or AdaptModel(),
        opt_level=opt_level,
        minimal_pushes=minimal_pushes,
    )
    runner = est._runner
    runner.lower()
    t = _time_untraced(lambda: est.execute(*args))
    report, _, peak = measure_time_and_peak_memory(
        lambda: est.execute(*args)
    )
    # a native run keeps its tapes in C, out of tracemalloc's sight:
    # count them as measure_adapt counts its tape
    peak = max(peak, runner.tape_bytes)
    return Measurement(
        tool="chef-fp",
        time_s=t,
        peak_bytes=peak,
        value=report.value,
        total_error=report.total_error,
    )


def measure_adapt(
    k: Union[Kernel, N.Function],
    args: Sequence[object],
    memory_budget_bytes: int = 512 * 1024 * 1024,
) -> Measurement:
    """ADAPT analysis time/memory; OOM is reported, not raised."""
    analysis = AdaptAnalysis(
        k, limits=TapeLimits(memory_budget_bytes=memory_budget_bytes)
    )
    try:
        t = _time_untraced(lambda: analysis.execute(*args))
        report, _, peak = measure_time_and_peak_memory(
            lambda: analysis.execute(*args)
        )
    except AnalysisOutOfMemory as oom:
        return Measurement(
            tool="adapt",
            time_s=float("nan"),
            peak_bytes=oom.budget_bytes,
            oom=True,
        )
    # the tape estimate is the honest footprint (tracemalloc sees the
    # Python lists too; take the max of both)
    peak = max(peak, report.tape_bytes)
    return Measurement(
        tool="adapt",
        time_s=t,
        peak_bytes=peak,
        value=report.value,
        total_error=report.total_error,
    )


def measure_app(
    k: Union[Kernel, N.Function], args: Sequence[object]
) -> Measurement:
    """Plain application run (the 'Appl.' series of Figs. 4–8)."""
    fn = k.ir if isinstance(k, Kernel) else k
    compiled = compile_primal(fn)
    t = _time_untraced(lambda: compiled(*args))
    value, _, peak = measure_time_and_peak_memory(
        lambda: compiled(*args)
    )
    return Measurement(
        tool="app", time_s=t, peak_bytes=peak, value=float(value)  # type: ignore[arg-type]
    )
