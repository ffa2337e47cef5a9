"""Sweep orchestration: samples → batch evaluation → (cached) report.

:func:`run_sweep` is the engine behind
:meth:`repro.session.Session.sweep`, the one-call entry point of the
sweep subsystem::

    import repro
    from repro.sweep import random_sweep

    sess = repro.Session(cache="~/.cache/repro-sweeps")
    report = sess.sweep(
        kernel,
        samples=random_sweep({"x": (0.1, 10.0)}, n=1000, seed=7),
        fixed={"n": 100},
        model=AdaptModel(),
    )
    report.total_error        # (N,) per-point estimates

It reuses compiled estimators across calls (content-addressed memo in
:mod:`repro.core.api`), consults the result cache before evaluating,
and prefers the vectorized batch backend with a transparent scalar-loop
fallback.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.core.api import KernelLike, cached_error_estimator
from repro.core.models import ErrorModel, TaylorModel
from repro.frontend.registry import Kernel
from repro.ir import nodes as N
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.sweep.batch import BatchReport
from repro.sweep.cache import SweepCache, make_key
from repro.util.errors import ExecutionError

CacheLike = Union[None, str, Path, SweepCache]


def resolve_cache(cache: CacheLike) -> Optional[SweepCache]:
    """A :class:`SweepCache` (or ``None``) from any ``cache=`` value."""
    if cache is None or isinstance(cache, SweepCache):
        return cache
    return SweepCache(directory=cache)


def build_args(
    primal: N.Function,
    samples: Mapping[str, Sequence[float]],
    fixed: Mapping[str, object],
) -> List[object]:
    """Zip a sweep and fixed values into positional arguments.

    Every kernel parameter must appear in exactly one of ``samples``
    (swept, as a length-N array) or ``fixed`` (lane-uniform).
    """
    overlap = set(samples) & set(fixed)
    if overlap:
        raise ExecutionError(
            f"{primal.name}: parameters both swept and fixed: "
            f"{sorted(overlap)}"
        )
    known = {p.name for p in primal.params}
    unknown = (set(samples) | set(fixed)) - known
    if unknown:
        raise ExecutionError(
            f"{primal.name}: unknown parameters: {sorted(unknown)}"
        )
    args: List[object] = []
    for p in primal.params:
        if p.name in samples:
            args.append(np.asarray(samples[p.name]))
        elif p.name in fixed:
            args.append(fixed[p.name])
        else:
            raise ExecutionError(
                f"{primal.name}: parameter {p.name!r} is neither swept "
                "nor fixed"
            )
    return args


def run_sweep(
    k: KernelLike,
    samples: Mapping[str, Sequence[float]],
    fixed: Optional[Mapping[str, object]] = None,
    model: Optional[ErrorModel] = None,
    opt_level: int = 2,
    minimal_pushes: bool = True,
    cache: CacheLike = None,
) -> BatchReport:
    """The sweep engine proper — see :meth:`repro.session.Session.sweep`.

    Shared by the session facade and the internal callers (robust
    tuning, candidate evaluation, contribution ranking).

    :param samples: ``{param: length-N array}`` — swept parameters (see
        :mod:`repro.sweep.samplers`).
    :param fixed: lane-uniform values for the remaining parameters.
    :param model: error model (default: Taylor, Eq. 1).
    :param cache: ``None``, a directory path, or a :class:`SweepCache` —
        repeated estimates (same kernel content, model, inputs) are
        served from it without re-running the adjoint.
    """
    model = model or TaylorModel()
    with obs_trace.span("sweep.run", kernel=_kernel_name(k)) as sp:
        primal = k.ir if isinstance(k, Kernel) else k
        args = build_args(primal, dict(samples), dict(fixed or {}))
        n = max(
            (len(a) for a in args if isinstance(a, np.ndarray)), default=1
        )
        sp.set(n=n)
        store = resolve_cache(cache)
        key: Optional[str] = None
        if store is not None:
            key = make_key(
                primal, model, args,
                opt_level=opt_level, minimal_pushes=minimal_pushes,
            )
            hit = store.get(key)
            if hit is not None:
                sp.set(cache="hit")
                return hit
        # built only on a cache miss: a hit needs no adjoint
        est = cached_error_estimator(
            k, model=model, opt_level=opt_level, minimal_pushes=minimal_pushes
        )
        report = est.execute_batch(*args)
        sp.set(cache="miss" if store is not None else "off")
        obs_metrics.REGISTRY.counter(
            "repro_sweep_points_total", "input points swept (cache misses)"
        ).inc(n)
        if store is not None:
            store.put(key, report)
        return report


def _kernel_name(k: KernelLike) -> str:
    name = getattr(k, "name", None)
    return name if isinstance(name, str) else "<ir>"

