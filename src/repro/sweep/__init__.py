"""Batched input-sweep engine (beyond the paper).

The paper's Discussion concedes that error estimates — and the
mixed-precision configurations derived from them — are input-dependent,
and defers to callers to "sweep inputs".  This subsystem makes that
sweep a first-class, fast operation:

* :mod:`~repro.sweep.batch` — evaluate a compiled error-estimating
  adjoint over N input points at once (NumPy array-at-a-time backend
  with a transparent scalar-loop fallback),
* :mod:`~repro.sweep.samplers` — grid / seeded-random / explicit input
  distributions,
* :mod:`~repro.sweep.cache` — content-addressed result cache (memory +
  disk) keyed by IR hash, model, and input digest,
* :mod:`~repro.sweep.aggregate` — max / mean / percentile reduction of
  per-point results into distribution statistics,
* :mod:`~repro.sweep.engine` — :func:`~repro.sweep.engine.run_sweep`,
  the engine behind :meth:`repro.session.Session.sweep`.

Distribution-robust mixed-precision tuning on top of this lives in
``Session.tune(k, threshold, samples=...)``.
"""

from repro.sweep.aggregate import (
    SweepSummary,
    resolve_aggregator,
    summarize,
)
from repro.sweep.batch import (
    BatchedErrorEstimator,
    BatchReport,
    ConfigBatchedEstimator,
    ConfigBatchReport,
)
from repro.sweep.cache import SweepCache, digest_inputs, make_key
from repro.sweep.engine import build_args
from repro.sweep.samplers import explicit_sweep, grid_sweep, random_sweep

__all__ = [
    "BatchReport",
    "BatchedErrorEstimator",
    "ConfigBatchReport",
    "ConfigBatchedEstimator",
    "SweepCache",
    "SweepSummary",
    "build_args",
    "digest_inputs",
    "explicit_sweep",
    "grid_sweep",
    "make_key",
    "random_sweep",
    "resolve_aggregator",
    "summarize",
]
