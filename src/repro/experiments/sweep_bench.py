"""Sweep-engine benchmark: batched versus scalar-loop adjoint evaluation.

Measures the central performance claim of the sweep subsystem: a
vectorized N-point error sweep versus the naive Python loop of
single-input ``ErrorEstimator.execute`` calls, with per-point agreement
checked at the same time (the batch backend is built to reproduce the
scalar path bit-for-bit; the benchmark records the observed worst
relative difference rather than assuming it).  For a kernel with loops
the scalar loop runs on the native scalar engine; the result records
how many of its calls did, and how many fell back to Python.

``benchmarks/bench_sweep.py`` drives this to emit ``BENCH_sweep.json``.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.codegen.native import NATIVE_FALLBACKS, NATIVE_RUNS
from repro.core.api import ErrorEstimator
from repro.core.models import AdaptModel, ErrorModel
from repro.frontend.registry import Kernel
from repro.sweep.batch import BatchReport
from repro.sweep.samplers import Sweep


@dataclass
class SweepBenchResult:
    """One app's batched-versus-loop comparison."""

    app: str
    n: int
    #: wall-clock of one batched ``execute_batch`` call
    batched_s: float
    #: wall-clock of the N-call scalar ``execute`` loop
    loop_s: float
    #: which backend the batch path actually used
    backend: str
    #: worst relative difference between per-point batched and scalar
    #: results (over value, total_error, and every per-variable entry)
    max_rel_diff: float
    #: scalar-loop calls run by the native engine, and those of a kernel
    #: with loops that fell back to Python (0 unless something is off)
    loop_native_runs: int = 0
    loop_native_fallbacks: int = 0
    speedup: float = field(init=False)

    def __post_init__(self) -> None:
        self.speedup = (
            self.loop_s / self.batched_s if self.batched_s > 0 else 0.0
        )

    def to_dict(self) -> Dict[str, object]:
        return asdict(self)


def _rel_diff(a: float, b: float) -> float:
    if a == b:
        return 0.0
    denom = max(abs(a), abs(b))
    if denom == 0.0:
        return 0.0
    return abs(a - b) / denom


def compare_batch_to_loop(
    batch: BatchReport, scalar_reports: Sequence
) -> float:
    """Worst per-point relative difference between the two backends."""
    worst = 0.0
    for i, rep in enumerate(scalar_reports):
        p = batch.point(i)
        worst = max(worst, _rel_diff(rep.value, p.value))
        worst = max(worst, _rel_diff(rep.total_error, p.total_error))
        for v, e in rep.per_variable.items():
            worst = max(worst, _rel_diff(e, p.per_variable.get(v, 0.0)))
    return worst


def run_sweep_benchmark(
    app_name: str,
    kernel: Kernel,
    samples: Sweep,
    fixed: Optional[Mapping[str, object]] = None,
    model: Optional[ErrorModel] = None,
) -> SweepBenchResult:
    """Time one batched sweep against the equivalent scalar loop.

    Build time (adjoint generation + compilation, both scalar and
    batched) is excluded from both sides — each variant is warmed on a
    2-point prefix before timing, matching how the paper excludes Clad
    compilation from analysis time.
    """
    model = model or AdaptModel()
    est = ErrorEstimator(kernel, model=model)
    fixed = dict(fixed or {})
    names = [p.name for p in est.primal_ir.params]
    n = len(next(iter(samples.values())))

    def point_args(i: int) -> List[object]:
        out: List[object] = []
        for p in est.primal_ir.params:
            if p.name in samples:
                v = samples[p.name][i]
                out.append(
                    int(v) if p.type.dtype.value == "i64" else float(v)
                )
            else:
                out.append(fixed[p.name])
        return out

    batch_args: List[object] = [
        np.asarray(samples[nm]) if nm in samples else fixed[nm]
        for nm in names
    ]
    warm_args: List[object] = [
        np.asarray(samples[nm][:2]) if nm in samples else fixed[nm]
        for nm in names
    ]

    # warm both paths: compile the batched variant, lower the scalar
    # adjoint for the native engine, trigger lazy imports
    est.execute_batch(*warm_args)
    est._runner.lower()
    est.execute(*point_args(0))

    t0 = time.perf_counter()
    batch = est.execute_batch(*batch_args)
    batched_s = time.perf_counter() - t0

    runs, fallbacks = NATIVE_RUNS.value, NATIVE_FALLBACKS.value
    t0 = time.perf_counter()
    scalar_reports = [est.execute(*point_args(i)) for i in range(n)]
    loop_s = time.perf_counter() - t0

    return SweepBenchResult(
        app=app_name,
        n=n,
        batched_s=batched_s,
        loop_s=loop_s,
        backend=batch.backend,
        max_rel_diff=compare_batch_to_loop(batch, scalar_reports),
        loop_native_runs=NATIVE_RUNS.value - runs,
        loop_native_fallbacks=NATIVE_FALLBACKS.value - fallbacks,
    )


def blackscholes_sweep(n: int, seed: int = 404) -> Sweep:
    """The PARSEC-style option-portfolio distribution as a sweep over
    ``bs_price``'s scalar parameters."""
    rng = np.random.default_rng(seed)
    spt = rng.uniform(25.0, 150.0, n)
    return {
        "sptprice": spt,
        "strike": spt * rng.uniform(0.8, 1.2, n),
        "rate": rng.uniform(0.02, 0.1, n),
        "volatility": rng.uniform(0.05, 0.65, n),
        "otime": rng.uniform(0.05, 1.0, n),
        "otype": rng.integers(0, 2, n).astype(np.int64),
    }
