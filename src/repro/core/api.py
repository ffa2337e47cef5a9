"""Public entry points: ``gradient`` and the error estimator.

These mirror ``clad::gradient`` / ``clad::estimate_error`` (paper
Listing 1): they take a :class:`~repro.frontend.registry.Kernel` (or an
IR function), run the reverse-mode transformation — with the Error
Estimation Module attached for :class:`ErrorEstimator`, which
:meth:`repro.session.Session.estimate` serves from the memo — push the result
through the optimization pipeline, compile it, and wrap execution in a
friendly calling convention.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.codegen import native
from repro.codegen.compile import (
    CallingConvention,
    CompiledFunction,
    compile_raw,
)
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.core.estimation import ErrorEstimationModule
from repro.core.models import ErrorModel
from repro.core.report import ErrorReport, GradientResult
from repro.core.reverse import ReverseModeTransformer
from repro.frontend.registry import Kernel
from repro.ir import nodes as N
from repro.util.errors import ExecutionError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sweep.batch import (
        BatchReport,
        ConfigBatchedEstimator,
        ConfigBatchReport,
    )

KernelLike = Union[Kernel, N.Function]


def _as_ir(k: KernelLike) -> N.Function:
    if isinstance(k, Kernel):
        return k.ir
    return k


def build_adjoint(
    primal: N.Function,
    extension,
    opt_level: int = 2,
    minimal_pushes: bool = True,
) -> N.Function:
    """Reverse-mode transform + optimization pipeline, no compilation.

    The IR half of estimator construction (:class:`_AdjointRunner`).
    Called once per estimator: the config-batched estimator derives
    every configuration's lane parameters from this one adjoint
    instead of rebuilding it per configuration.
    """
    _ADJOINT_BUILDS.inc()
    transformer = ReverseModeTransformer(
        primal, extension=extension, minimal_pushes=minimal_pushes
    )
    adjoint = transformer.transform()
    if opt_level > 0:
        from repro.opt.pipeline import optimize

        adjoint = optimize(adjoint, level=opt_level)
    return adjoint


class _AdjointRunner:
    """Shared machinery: build, optimize, compile, and call an adjoint.

    The adjoint IR is built at construction; its Python code is
    generated and compiled on the first call that runs on the Python
    path (:attr:`compiled`), so an adjoint that only ever runs natively
    or on lanes never compiles one.
    """

    def __init__(
        self,
        primal: N.Function,
        extension,
        opt_level: int,
        minimal_pushes: bool,
        extra_bindings: Optional[Dict[str, object]] = None,
    ) -> None:
        self.primal = primal
        t0 = time.perf_counter()
        with obs_trace.span(
            "estimate.build",
            kernel=primal.name,
            opt_level=opt_level,
            estimating=extension is not None,
        ):
            adjoint = build_adjoint(
                primal, extension, opt_level=opt_level,
                minimal_pushes=minimal_pushes,
            )
            self.adjoint = adjoint
            self.layout = adjoint.meta["adjoint"]
            #: argument handling and traces, read off the IR
            self.calling = CallingConvention(adjoint)
        _BUILD_SECONDS.observe(time.perf_counter() - t0)
        self._extra_bindings = extra_bindings
        self._compiled: Optional[CompiledFunction] = None
        self._n_primal_params = len(primal.params)
        # the native scalar engine (see _run): external error models
        # bind Python callables, so they stay on the Python path
        self._loops = native.worth_lowering(adjoint)
        self._python_only = bool(extra_bindings)
        self._native: Optional[native.ScalarKernel] = None
        self._lowered = False
        self._called = False
        #: tape high water (bytes) of the last native run, 0 after a
        #: Python one: C tapes are invisible to tracemalloc
        self.tape_bytes = 0

    @property
    def compiled(self) -> CompiledFunction:
        """The adjoint compiled to Python, on first access.  Threads
        racing here compile twice and keep either, equal, function."""
        compiled = self._compiled
        if compiled is None:
            compiled = self._compiled = compile_raw(
                self.adjoint, extra_bindings=self._extra_bindings
            )
        return compiled

    def lower(self) -> None:
        """Do the build work the next call would do: lower the adjoint
        for the native scalar engine, or compile its Python code when
        Python is the engine the next call takes.  Threads racing here
        lower twice and keep either, equal, kernel."""
        if not self._lowered:
            if self._loops and not self._python_only:
                self._native = native.lower_scalar(self.adjoint)
            self._lowered = True
        if self._native is None:
            self.compiled  # noqa: B018 - compiles on first access

    def _run(self, args: List[object]) -> object:
        """One call of the adjoint.

        An adjoint with a loop runs on the native scalar engine from its
        second call (or once :meth:`lower` ran): lowering costs more
        than a one-shot caller's whole Python run.  A call the engine
        cannot take (arguments it does not marshal, or a replay) runs
        here in Python on the untouched arguments, counted as a
        fallback; adjoints without a loop are never lowered nor counted.
        """
        if self._loops and (self._lowered or self._called):
            self.lower()
            kern = self._native
            done, out = native.run(
                kern, self.calling.prepare(args) if kern else ()
            )
            if done:
                result, self.tape_bytes = out  # type: ignore[misc]
                return result
        self._called = True
        self.tape_bytes = 0
        return self.compiled(*args)

    @property
    def generated_source(self) -> str:
        """The generated (optimized) Python source of the adjoint."""
        return self.compiled.source

    def call(
        self, args: Sequence[object]
    ) -> Tuple[Dict[Tuple[str, ...], float], Dict[str, np.ndarray], Dict[str, list]]:
        if len(args) != self._n_primal_params:
            raise ExecutionError(
                f"{self.primal.name}: expected {self._n_primal_params} "
                f"arguments, got {len(args)}"
            )
        array_grads: Dict[str, np.ndarray] = {}
        full_args: List[object] = list(args)
        for p in self.primal.params:
            gname = self.layout["array_grads"].get(p.name)
            if gname is not None:
                src = args[self.primal.param_names.index(p.name)]
                n = len(src)  # type: ignore[arg-type]
                g = np.zeros(n, dtype=np.float64)
                array_grads[p.name] = g
                full_args.append(g)
        result = self._run(full_args)
        if self.calling.traces:
            base, extras = result  # type: ignore[misc]
            traces = {k: v for k, v in extras.items() if k != "cost"}
        else:
            base, traces = result, {}
        if not isinstance(base, tuple):
            base = (base,)
        named: Dict[Tuple[str, ...], float] = {}
        for key, val in zip(self.layout["ret_names"], base):
            named[tuple(key)] = val
        return named, array_grads, traces


class Gradient:
    """A compiled reverse-mode gradient of a kernel."""

    def __init__(
        self,
        k: KernelLike,
        opt_level: int = 2,
        minimal_pushes: bool = True,
    ) -> None:
        self._runner = _AdjointRunner(
            _as_ir(k), extension=None, opt_level=opt_level,
            minimal_pushes=minimal_pushes,
        )

    @property
    def source(self) -> str:
        """Generated Python source of the gradient function."""
        return self._runner.generated_source

    @property
    def adjoint_ir(self) -> N.Function:
        return self._runner.adjoint

    def execute(self, *args: object) -> GradientResult:
        """Run the gradient; see :class:`GradientResult`."""
        named, array_grads, _ = self._runner.call(args)
        res = GradientResult(value=named[("value",)])
        for key, val in named.items():
            if key[0] == "grad":
                res.gradients[key[1]] = val
        res.gradients.update(array_grads)
        return res


class ErrorEstimator:
    """A compiled error-estimating adjoint (``clad::estimate_error``).

    :param model: the error model (default: Taylor, Eq. 1).
    :param track: variable names whose per-assignment sensitivity
        ``|x*dx|`` should be traced (Fig. 9 input).
    :param opt_level: optimization pipeline level (0 disables — the
        ablation baseline).
    :param minimal_pushes: enable TBR tape minimization (ablation hook).
    """

    def __init__(
        self,
        k: KernelLike,
        model: Optional[ErrorModel] = None,
        track: Sequence[str] = (),
        opt_level: int = 2,
        minimal_pushes: bool = True,
    ) -> None:
        self.module = ErrorEstimationModule(model=model, track=track)
        self.opt_level = opt_level
        self.minimal_pushes = minimal_pushes
        self._runner = _AdjointRunner(
            _as_ir(k),
            extension=self.module,
            opt_level=opt_level,
            minimal_pushes=minimal_pushes,
            extra_bindings=self.module.bindings(),
        )
        self._batched = None  # lazily-built repro.sweep.BatchedErrorEstimator
        self._config_batched = None  # lazy repro.sweep.ConfigBatchedEstimator

    @property
    def source(self) -> str:
        """Generated Python source of the error-estimated adjoint."""
        return self._runner.generated_source

    @property
    def adjoint_ir(self) -> N.Function:
        return self._runner.adjoint

    @property
    def primal_ir(self) -> N.Function:
        """The primal IR the adjoint was generated from."""
        return self._runner.primal

    @property
    def layout(self) -> Dict[str, object]:
        """The adjoint's return-layout metadata (``meta['adjoint']``)."""
        return self._runner.layout

    def execute(self, *args: object) -> ErrorReport:
        """Run the analysis; see :class:`ErrorReport`."""
        named, array_grads, traces = self._runner.call(args)
        rep = ErrorReport(value=named[("value",)])
        for key, val in named.items():
            if key[0] == "grad":
                rep.gradients[key[1]] = val
            elif key[0] == "extra":
                if key[1] == "fp_error":
                    rep.total_error = val
                elif key[1].startswith("delta:"):
                    rep.per_variable[key[1][len("delta:"):]] = val
        rep.gradients.update(array_grads)
        rep.traces = dict(traces)
        # input variables are never assignment targets, so their
        # representation error is accounted for here (the Eq. 2 sum runs
        # over inputs too — this is how read-only data like k-Means'
        # `clusters` acquires an estimate)
        model = self.module.model
        primal = self._runner.primal
        for p in primal.params:
            if p.name not in rep.gradients:
                continue
            idx = primal.param_names.index(p.name)
            contrib = model.input_error(
                p.name, args[idx], rep.gradients[p.name]
            )
            if contrib:
                rep.per_variable[p.name] = (
                    rep.per_variable.get(p.name, 0.0) + contrib
                )
                rep.total_error += contrib
        return rep

    def execute_batch(self, *args: object) -> "BatchReport":
        """Run the analysis over a **batch of input points** at once.

        Each argument is either a lane-uniform scalar or a length-N
        array sweeping that parameter; all arrays must share one N.
        Uses the vectorized (array-at-a-time) adjoint backend when the
        kernel's structure allows it and falls back to a scalar loop
        otherwise — see :class:`repro.sweep.BatchedErrorEstimator`.
        """
        if self._batched is None:
            from repro.sweep.batch import BatchedErrorEstimator

            self._batched = BatchedErrorEstimator(self)
        return self._batched.execute(*args)

    def execute_config_batch(
        self, configs: Sequence[object], *args: object
    ) -> "ConfigBatchReport":
        """Run the analysis for **K precision configurations** at once.

        ``configs`` is a sequence of
        :class:`~repro.tuning.PrecisionConfig`; ``args`` follow the
        :meth:`execute_batch` conventions (lane-uniform scalars and/or
        length-N sweep arrays), so the result covers a K × N grid of
        (configuration, input point) pairs.  Per (config, point) the
        numbers equal what a freshly built estimator of the demoted
        kernel would report — the vectorized backend reuses this
        estimator's compiled lanes (compile-once), with a transparent
        per-config fallback where the kernel (or a config) cannot be
        expressed as lane parameters.
        """
        return self.config_batched.execute(configs, *args)

    @property
    def config_batched(self) -> "ConfigBatchedEstimator":
        """The :class:`~repro.sweep.ConfigBatchedEstimator` behind
        :meth:`execute_config_batch` (built on first use)."""
        if self._config_batched is None:
            from repro.sweep.batch import ConfigBatchedEstimator

            self._config_batched = ConfigBatchedEstimator(self)
        return self._config_batched


def gradient(k: KernelLike, **kwargs: object) -> Gradient:
    """Build the reverse-mode gradient of a kernel.

    Example::

        g = repro.gradient(func)
        res = g.execute(1.0, 2.0)
        res.value, res.grad("x")
    """
    return Gradient(k, **kwargs)  # type: ignore[arg-type]


# -- estimator reuse ----------------------------------------------------------
#
# Building an ErrorEstimator runs the reverse-mode transformation and
# the optimization pipeline (compilation follows on first Python-path
# use) — ~10-100ms of work that tuning searches and sweep engines
# repeat for the *same* kernel/model pair over and over.  The memo is content-addressed (IR fingerprint + model
# fingerprint + options), so re-registered kernels with identical IR and
# equal model configurations share one compiled estimator.
#
# Process sharing: compiled estimators hold code objects and cannot be
# pickled, so the memo is shared with worker processes by *inheritance*
# — a fork-started fleet worker (repro.dist) snapshots whatever the
# parent memoized (copy-on-write), and each worker's memo then grows
# independently.  run_fleet prewarms the parent memo before forking
# for exactly this reason.

_ESTIMATOR_MEMO: "OrderedDict[tuple, ErrorEstimator]" = OrderedDict()
_ESTIMATOR_MEMO_MAX = 64
# process-cumulative hit/miss counts live in the process-wide metrics
# registry (misses = estimators compiled through the memo; uncacheable
# builds count as misses too); Session.stats() is a view over these
# instruments
_MEMO_HITS = obs_metrics.REGISTRY.counter(
    "repro_memo_hits_total", "estimator memo hits"
)
_MEMO_MISSES = obs_metrics.REGISTRY.counter(
    "repro_memo_misses_total", "estimator memo misses (compiles)"
)
_MEMO_ENTRIES = obs_metrics.REGISTRY.gauge(
    "repro_memo_entries", "estimator memo occupancy"
)
_MEMO_CAPACITY = obs_metrics.REGISTRY.gauge(
    "repro_memo_capacity", "estimator memo capacity"
)
_MEMO_CAPACITY.set(_ESTIMATOR_MEMO_MAX)
#: estimator builds: the adjoint IR build, without the Python compile
#: that each estimator defers to its first Python-path call
_BUILD_SECONDS = obs_metrics.REGISTRY.histogram(
    "repro_estimate_build_seconds", "adjoint build latency"
)
_ADJOINT_BUILDS = obs_metrics.REGISTRY.counter(
    "repro_adjoint_builds_total",
    "adjoint IR builds (reverse-mode transform + optimization)",
)
#: guards the memo and its counters: long-lived servers (repro.serve)
#: share one process-wide memo across concurrent worker threads, and
#: an unguarded read-modify-write would corrupt occupancy/hit counts.
#: Held across a miss's build too, so concurrent requests for the
#: same kernel/model pair build one estimator, not one per thread.
_MEMO_LOCK = threading.RLock()


def _reinit_memo_lock() -> None:
    # a fork while another thread builds an estimator must not leave
    # the child waiting on a lock nobody in it will release
    global _MEMO_LOCK
    _MEMO_LOCK = threading.RLock()


os.register_at_fork(after_in_child=_reinit_memo_lock)


def _memo_key(
    k: KernelLike,
    model: Optional[ErrorModel],
    opt_level: int,
    minimal_pushes: bool,
) -> tuple:
    """Content key of one estimator in the process-wide memo."""
    from repro.ir.fingerprint import ir_fingerprint

    return (
        ir_fingerprint(_as_ir(k)),
        model.fingerprint() if model is not None else None,
        opt_level,
        minimal_pushes,
    )


def cached_error_estimator(
    k: KernelLike,
    model: Optional[ErrorModel] = None,
    track: Sequence[str] = (),
    opt_level: int = 2,
    minimal_pushes: bool = True,
) -> ErrorEstimator:
    """Build an error-estimating adjoint, memoized by content.

    Models that close over arbitrary callables (``cacheable = False``)
    and tracked-sensitivity estimators are never memoized.
    """
    if (model is not None and not model.cacheable) or track:
        _MEMO_MISSES.inc()
        return ErrorEstimator(
            k, model=model, track=track, opt_level=opt_level,
            minimal_pushes=minimal_pushes,
        )
    key = _memo_key(k, model, opt_level, minimal_pushes)
    with _MEMO_LOCK:
        est = _ESTIMATOR_MEMO.get(key)
        if est is None:
            _MEMO_MISSES.inc()
            est = ErrorEstimator(
                k, model=model, opt_level=opt_level,
                minimal_pushes=minimal_pushes,
            )
            _ESTIMATOR_MEMO[key] = est
            while len(_ESTIMATOR_MEMO) > _ESTIMATOR_MEMO_MAX:
                _ESTIMATOR_MEMO.popitem(last=False)
        else:
            _MEMO_HITS.inc()
            _ESTIMATOR_MEMO.move_to_end(key)
        _MEMO_ENTRIES.set(len(_ESTIMATOR_MEMO))
        return est


def warm_start_estimator_memo(
    kernels: Sequence[KernelLike],
    models: Sequence[Optional[ErrorModel]] = (None,),
    opt_level: int = 2,
    minimal_pushes: bool = True,
) -> int:
    """Pre-build (compile) estimators into the process-wide memo.

    Returns the number of estimators newly compiled (already-memoized
    combinations are skipped; uncacheable models are ignored).

    Two callers benefit: the distributed fleet forks workers that
    inherit whatever the parent memoized (copy-on-write), so warming
    the memo *before* the fork turns per-worker compiles into shared
    ones; and multi-scenario orchestrations (resumed or not) front-load
    every kernel/model compile once instead of paying it lazily inside
    each scenario's run.
    """
    built = 0
    for k in kernels:
        for model in models:
            if model is not None and not model.cacheable:
                continue
            key = _memo_key(k, model, opt_level, minimal_pushes)
            with _MEMO_LOCK:
                if key in _ESTIMATOR_MEMO:
                    continue
                cached_error_estimator(
                    k, model=model, opt_level=opt_level,
                    minimal_pushes=minimal_pushes,
                )
            built += 1
    return built


def _memo_stats() -> Dict[str, int]:
    """Registry view of the estimator memo (behind
    :meth:`repro.session.Session.estimator_memo_stats`)."""
    with _MEMO_LOCK:
        return {
            "entries": len(_ESTIMATOR_MEMO),
            "capacity": _ESTIMATOR_MEMO_MAX,
            "hits": _MEMO_HITS.value,
            "misses": _MEMO_MISSES.value,
        }


def _work_stats() -> Dict[str, int]:
    """Process-cumulative build-side work counters (behind
    ``Session.stats()["work"]``): adjoint builds, estimator builds
    (an adjoint build each; the compile waits for first use),
    config-batched estimates that fell back to one estimator per
    configuration, and calls of kernels with loops (config-lane and
    input-sweep batch kernels, and scalar adjoints from their second
    call) run by the native interpreter or, instead, on the numpy or
    Python path."""
    from repro.codegen.native import NATIVE_FALLBACKS, NATIVE_RUNS
    from repro.sweep.batch import _CB_FALLBACKS

    return {
        "adjoint_builds": _ADJOINT_BUILDS.value,
        "estimator_builds": int(_BUILD_SECONDS.snapshot()["count"]),
        "config_batch_fallbacks": _CB_FALLBACKS.value,
        "native_lane_runs": NATIVE_RUNS.value,
        "native_fallbacks": NATIVE_FALLBACKS.value,
    }


def clear_estimator_memo() -> None:
    """Drop all memoized estimators (test isolation helper).

    The ``repro_memo_*`` registry counters reset too, so tests can
    assert per-scope hit deltas.
    """
    with _MEMO_LOCK:
        _ESTIMATOR_MEMO.clear()
        obs_metrics.REGISTRY.reset(prefix="repro_memo_")
        _MEMO_CAPACITY.set(_ESTIMATOR_MEMO_MAX)
