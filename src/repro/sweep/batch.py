"""Batched adjoint execution: N input points per call.

:class:`BatchedErrorEstimator` wraps a compiled
:class:`~repro.core.api.ErrorEstimator` and evaluates it over a batch of
input points.  Two backends:

* **vectorized** — the adjoint IR is re-rendered as NumPy
  array-at-a-time code (:mod:`repro.codegen.npgen`): one pass through
  the generated function replaces N scalar calls.  Per lane it performs
  bit-identical operations to the scalar path (transcendentals included,
  via :func:`repro.codegen.runtime.exactwise`).
* **loop** — the scalar estimator called per point.  Used when the
  kernel cannot be vectorized (array parameters, data-dependent trip
  counts, sensitivity traces) — results are identical either way, only
  slower.

A batched variant is built lazily per *set of swept parameters* (the
taint analysis — and therefore the generated code — depends on which
parameters are arrays) and memoized on the estimator.  A variant that
runs on the native lane interpreter (kernels with a loop, see
:mod:`repro.codegen.native`) is lowered at once and renders and compiles
its numpy source only when a call first takes the numpy path; the
others render at once and compile on their first call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.codegen import native, runtime
from repro.codegen.npgen import UnvectorizableError, generate_batch_source
from repro.core.report import ErrorReport
from repro.ir import nodes as N
from repro.ir.types import ArrayType, DType
from repro.obs import metrics as obs_metrics
from repro.util.errors import ExecutionError

if TYPE_CHECKING:  # pragma: no cover
    from repro.codegen.native import NativeKernel
    from repro.core.api import ErrorEstimator

#: config-batched estimates that ran one estimator per configuration
#: (the ``loop`` backend) instead of on lanes
_CB_FALLBACKS = obs_metrics.REGISTRY.counter(
    "repro_config_batch_fallbacks_total",
    "config-batched estimates computed per configuration (loop backend)",
)


@dataclass
class BatchReport:
    """Per-point error-estimation results for a batch of N inputs.

    Mirrors :class:`~repro.core.report.ErrorReport` with a leading batch
    axis: every field holds length-N arrays (``gradients`` of array
    parameters hold ``(N, len)`` matrices under the loop backend).
    """

    n: int
    #: primal return value per point
    values: np.ndarray
    #: accumulated FP error estimate per point
    total_error: np.ndarray
    #: per-variable error contributions, each length N
    per_variable: Dict[str, np.ndarray] = field(default_factory=dict)
    #: d(value)/d(param) per point
    gradients: Dict[str, np.ndarray] = field(default_factory=dict)
    #: which backend produced the results: ``vectorized`` or ``loop``
    backend: str = "vectorized"
    #: True when the report was served from a sweep cache
    from_cache: bool = False
    #: session provenance (session/config identity, method, sequence
    #: number) — stamped by :class:`repro.session.Session`; never
    #: serialized (cache entries are provenance-free by design, the
    #: session re-stamps every report it hands out)
    provenance: Optional[Dict[str, object]] = None

    def point(self, i: int) -> ErrorReport:
        """The scalar :class:`ErrorReport` of sample ``i``."""
        rep = ErrorReport(value=float(self.values[i]))
        rep.total_error = float(self.total_error[i])
        rep.per_variable = {
            v: float(a[i]) for v, a in self.per_variable.items()
        }
        rep.gradients = {
            p: (float(a[i]) if np.ndim(a[i]) == 0 else np.asarray(a[i]))
            for p, a in self.gradients.items()
        }
        return rep

    def worst(self) -> int:
        """Index of the sample with the largest total error."""
        return int(np.argmax(self.total_error))

    def copy(self) -> "BatchReport":
        """Deep copy (fresh arrays) — the cache hands out copies so
        callers mutating a result can never corrupt the cached entry."""
        return BatchReport(
            n=self.n,
            values=np.array(self.values),
            total_error=np.array(self.total_error),
            per_variable={
                v: np.array(a) for v, a in self.per_variable.items()
            },
            gradients={
                g: np.array(a) for g, a in self.gradients.items()
            },
            backend=self.backend,
            from_cache=self.from_cache,
            provenance=(
                dict(self.provenance)
                if self.provenance is not None
                else None
            ),
        )

    def to_dict(self) -> Dict[str, object]:
        """Plain-dict form for (de)serialization by the sweep cache."""
        return {
            "n": self.n,
            "values": self.values,
            "total_error": self.total_error,
            "per_variable": dict(self.per_variable),
            "gradients": dict(self.gradients),
            "backend": self.backend,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "BatchReport":
        return cls(
            n=int(d["n"]),
            values=d["values"],  # type: ignore[arg-type]
            total_error=d["total_error"],  # type: ignore[arg-type]
            per_variable=dict(d["per_variable"]),  # type: ignore[arg-type]
            gradients=dict(d["gradients"]),  # type: ignore[arg-type]
            backend=str(d["backend"]),
        )


def _is_sweep_array(a: object) -> bool:
    return (
        isinstance(a, np.ndarray) and a.ndim >= 1
    ) or isinstance(a, (list, tuple))


def _scan_sweep_args(
    primal: N.Function, args: Sequence[object]
) -> Tuple[List[str], int]:
    """Classify positional args into swept parameter names and batch N.

    Shared by the input-batched and config-batched executors: array
    parameters are always lane-uniform; scalar parameters given as
    length-N sequences sweep the input axis and must agree on one N.
    """
    params = primal.params
    if len(args) != len(params):
        raise ExecutionError(
            f"{primal.name}: expected {len(params)} arguments, "
            f"got {len(args)}"
        )
    batched: List[str] = []
    n: Optional[int] = None
    for a, p in zip(args, params):
        if isinstance(p.type, ArrayType):
            continue  # array params are always lane-uniform
        if _is_sweep_array(a):
            m = len(a)  # type: ignore[arg-type]
            if n is None:
                n = m
            elif m != n:
                raise ExecutionError(
                    f"{primal.name}: swept arrays disagree on batch "
                    f"size ({n} vs {m} for {p.name!r})"
                )
            batched.append(p.name)
    if n == 0:
        raise ExecutionError(
            f"{primal.name}: empty sweep (length-0 arrays)"
        )
    return batched, (1 if n is None else n)


class _Variant:
    """A batch variant: the kernel for one swept-parameter set.

    Rendered as numpy source (``generate_batch_source``) and compiled
    on the first call that takes the numpy path; when the kernel runs on
    the native engine, its lowering is built at once and the numpy
    source waits for the first replay or fallback.
    """

    def __init__(
        self,
        est: "ErrorEstimator",
        batched: frozenset,
        engine: bool,
        lowered: Optional["NativeKernel"],
    ) -> None:
        self.est = est
        self.batched = batched
        #: whether calls go to the native engine at all
        self.engine = engine
        #: the kernel lowered for the interpreter (``None``: numpy path)
        self.lowered = lowered
        self._source: Optional[str] = None
        self._raw: Optional[object] = None

    @property
    def source(self) -> str:
        """The generated numpy source (rendered on first access)."""
        src = self._source
        if src is None:
            src = self._source = generate_batch_source(
                self.est.adjoint_ir, set(self.batched)
            )
        return src

    @property
    def raw(self) -> object:
        """The compiled numpy kernel (compiled on first access).
        Threads racing here compile twice and keep either, equal,
        function."""
        raw = self._raw
        if raw is None:
            adj = self.est.adjoint_ir
            g = runtime.batch_bindings()
            for name, impl in self.est.module.bindings().items():
                # user-bound scalar callables (external error models) are
                # lifted elementwise so they flow through batch code
                g[name] = (
                    runtime.exactwise(impl) if callable(impl) else impl
                )
            ns: Dict[str, object] = {}
            code = compile(self.source, f"<repro-batch:{adj.name}>", "exec")
            exec(code, g, ns)  # noqa: S102 - our own generated source
            raw = self._raw = ns[adj.name]
        return raw


class BatchedErrorEstimator:
    """Batch execution façade over one :class:`ErrorEstimator`."""

    def __init__(self, est: "ErrorEstimator") -> None:
        self.est = est
        # frozenset(batched param names) -> variant | None
        # (unvectorizable)
        self._variants: Dict[frozenset, Optional[_Variant]] = {}

    # -- variant construction -----------------------------------------------
    def _variant(self, batched: frozenset) -> Optional[_Variant]:
        if batched not in self._variants:
            adj = self.est.adjoint_ir
            # the same kernel on the C lane interpreter, one lane per
            # point (user-bound callables stay on the numpy path); its
            # lowering rejects exactly what the numpy renderer rejects,
            # so a lowered kernel defers the render
            engine = native.worth_lowering(adj)
            lowered = None
            try:
                if engine and not self.est.module.bindings():
                    lowered = native.lower_batch(adj, set(batched))
                variant = _Variant(self.est, batched, engine, lowered)
                if lowered is None:
                    variant.source  # noqa: B018 - renders on first access
            except UnvectorizableError:
                variant = None
            self._variants[batched] = variant
        return self._variants[batched]

    # -- execution ----------------------------------------------------------
    def execute(self, *args: object) -> BatchReport:
        """Evaluate the estimator over a batch.

        Each positional argument is either a lane-uniform value (scalar,
        or a numpy array for an array parameter) or — for scalar
        parameters only — a length-N array/list sweeping that parameter.
        All swept arrays must share one length N.
        """
        primal = self.est.primal_ir
        batched, n = _scan_sweep_args(primal, args)

        variant = None
        if batched and not self.est._runner.calling.traces:
            variant = self._variant(frozenset(batched))
        if variant is not None:
            return self._execute_vectorized(args, batched, n, variant)
        return self._execute_loop(args, batched, n)

    # -- vectorized backend -------------------------------------------------
    def _execute_vectorized(
        self,
        args: Sequence[object],
        batched: List[str],
        n: int,
        variant: _Variant,
    ) -> BatchReport:
        primal = self.est.primal_ir
        full: List[object] = []
        for a, p in zip(args, primal.params):
            dt = p.type.dtype
            if p.name in batched:
                arr = np.asarray(
                    a, dtype=np.int64 if dt is DType.I64 else np.float64
                )
                if dt in (DType.F32, DType.F16):
                    from repro.fp.precision import round_to

                    arr = np.asarray(round_to(arr, dt))
                full.append(arr)
            else:
                v: object = a
                if dt in (DType.F32, DType.F16) and isinstance(
                    a, (int, float)
                ):
                    from repro.fp.precision import round_to

                    v = round_to(float(a), dt)
                full.append(v)
        done, result = (
            native.run(variant.lowered, None, full)
            if variant.engine
            else (False, None)
        )
        if not done:
            with np.errstate(all="ignore"):
                result = variant.raw(*full)  # type: ignore[operator]
        if not isinstance(result, tuple):
            result = (result,)
        named: Dict[Tuple[str, ...], np.ndarray] = {}
        for key, val in zip(self.est.layout["ret_names"], result):
            named[tuple(key)] = np.broadcast_to(
                np.asarray(val, dtype=np.float64), (n,)
            ).copy()

        rep = BatchReport(
            n=n,
            values=named[("value",)],
            total_error=np.zeros(n),
            backend="vectorized",
        )
        for key, val in named.items():
            if key[0] == "grad":
                rep.gradients[key[1]] = val
            elif key[0] == "extra":
                if key[1] == "fp_error":
                    rep.total_error = val
                elif key[1].startswith("delta:"):
                    rep.per_variable[key[1][len("delta:"):]] = val
        self._add_input_errors(rep, args, batched, n)
        return rep

    def _add_input_errors(
        self,
        rep: BatchReport,
        args: Sequence[object],
        batched: List[str],
        n: int,
    ) -> None:
        # mirror of the scalar path: input variables are never assignment
        # targets, so their representation error is added host-side from
        # the final adjoints (Eq. 2 runs over inputs too)
        model = self.est.module.model
        primal = self.est.primal_ir
        for i, p in enumerate(primal.params):
            if p.name not in rep.gradients:
                continue
            if p.name in batched:
                values = np.asarray(args[i], dtype=np.float64)
            else:
                values = np.full(n, float(args[i]))  # type: ignore[arg-type]
            contrib = np.asarray(
                model.input_error_batch(
                    p.name, values, rep.gradients[p.name]
                ),
                dtype=np.float64,
            )
            if np.any(contrib != 0.0):
                rep.per_variable[p.name] = (
                    rep.per_variable.get(p.name, np.zeros(n)) + contrib
                )
                rep.total_error = rep.total_error + contrib

    # -- loop backend -------------------------------------------------------
    def _execute_loop_points(
        self, args: Sequence[object], batched: List[str], n: int
    ) -> List[ErrorReport]:
        primal = self.est.primal_ir
        reports: List[ErrorReport] = []
        for i in range(n):
            point: List[object] = []
            for a, p in zip(args, primal.params):
                if p.name in batched:
                    v = a[i]  # type: ignore[index]
                    point.append(
                        int(v) if p.type.dtype is DType.I64 else float(v)
                    )
                elif isinstance(a, np.ndarray):
                    # fresh copy per point: kernels may mutate array
                    # arguments in place
                    point.append(a.copy())
                else:
                    point.append(a)
            reports.append(self.est.execute(*point))
        return reports

    def _execute_loop(
        self, args: Sequence[object], batched: List[str], n: int
    ) -> BatchReport:
        reports = self._execute_loop_points(args, batched, n)
        per_vars = sorted({v for r in reports for v in r.per_variable})
        grads = sorted({g for r in reports for g in r.gradients})
        return BatchReport(
            n=n,
            values=np.asarray([r.value for r in reports]),
            total_error=np.asarray([r.total_error for r in reports]),
            per_variable={
                v: np.asarray(
                    [r.per_variable.get(v, 0.0) for r in reports]
                )
                for v in per_vars
            },
            gradients={
                g: np.stack(
                    [np.asarray(r.gradients[g]) for r in reports]
                )
                for g in grads
            },
            backend="loop",
        )


# --------------------------------------------------------------------------
# Config-batched estimation: K configurations × N input points
# --------------------------------------------------------------------------


@dataclass
class ConfigBatchReport:
    """Error-estimation results over a (configuration, input) grid.

    Mirrors :class:`BatchReport` with a leading **config-lane axis**:
    ``values``/``total_error`` are ``(K, N)``, ``per_variable`` and
    ``gradients`` map names to ``(K, N)`` (or ``(K, N, len)``) arrays.
    Per lane the numbers equal what a freshly built estimator of the
    demoted kernel reports at each input point.
    """

    k: int
    n: int
    values: np.ndarray
    total_error: np.ndarray
    per_variable: Dict[str, np.ndarray] = field(default_factory=dict)
    gradients: Dict[str, np.ndarray] = field(default_factory=dict)
    #: ``lanes`` (vectorized, compile-once) or ``loop`` (per config)
    backend: str = "lanes"
    #: per-variable error registers always present in a lane's report
    #: (host-added input contributions appear only where nonzero)
    register_vars: frozenset = frozenset()
    #: per-config reports when the loop backend produced the result
    _rows: Optional[List[BatchReport]] = None

    def report(self, lane: int) -> BatchReport:
        """The input-batch :class:`BatchReport` of configuration ``lane``."""
        if self._rows is not None:
            return self._rows[lane].copy()
        per_variable = {}
        for v, a in self.per_variable.items():
            row = np.array(a[lane])
            if v in self.register_vars or np.any(row != 0.0):
                per_variable[v] = row
        return BatchReport(
            n=self.n,
            values=np.array(self.values[lane]),
            total_error=np.array(self.total_error[lane]),
            per_variable=per_variable,
            gradients={
                g: np.array(a[lane]) for g, a in self.gradients.items()
            },
            backend="vectorized",
        )

    def worst(self) -> Tuple[int, int]:
        """(lane, sample) index of the largest total error."""
        flat = int(np.argmax(self.total_error))
        return flat // self.n, flat % self.n


class ConfigBatchedEstimator:
    """Config-batch execution façade over one :class:`ErrorEstimator`.

    The vectorized backend renders the estimator's *baseline* adjoint
    once in precision-parameterized (config-lane) form.  Per pool it
    derives each configuration's lane parameters — rounding selectors
    and the error model's machine-epsilon constants — from the
    configuration's variable dtypes
    (:func:`~repro.codegen.compile.lower_adjoint_pool`): no adjoint is
    rebuilt, so K configurations cost one build plus one numpy
    execution over all K configurations × N input points.  Kernels,
    models or pools the lane form cannot express fall back to one
    (memoized-compile) estimator per configuration — same numbers,
    just slower.
    """

    def __init__(self, est: "ErrorEstimator") -> None:
        self.est = est
        # frozenset(batched param names) -> ConfigLaneKernel | None
        self._kernels: Dict[frozenset, Optional[object]] = {}
        # name-resolution plan of the primal (built on first lowering)
        self._primal_plan = None

    # -- kernel compilation (once per batched-set) --------------------------
    def _kernel(self, batched: frozenset):
        """The lane kernel for a swept-parameter set, or ``None`` when
        the estimator cannot run on lanes (traces, uncacheable models,
        array parameters, unvectorizable structure)."""
        est = self.est
        if (
            est._runner.calling.traces
            or not est.module.model.cacheable
            or any(
                isinstance(p.type, ArrayType) for p in est.primal_ir.params
            )
        ):
            return None
        if batched not in self._kernels:
            from repro.codegen.compile import config_lane_kernel
            from repro.codegen.npgen import UnvectorizableError

            adj = est.adjoint_ir
            bindings = {}
            for name, impl in est.module.bindings().items():
                bindings[name] = (
                    runtime.exactwise(impl) if callable(impl) else impl
                )
            try:
                self._kernels[batched] = config_lane_kernel(
                    adj,
                    batched=set(batched),
                    counting=False,
                    allow_arrays=False,
                    extra_bindings=bindings or None,
                    use_cache=not bindings,
                )
            except UnvectorizableError:
                self._kernels[batched] = None
        return self._kernels[batched]

    def prepare(self, *args: object) -> None:
        """Compile the lane kernel for ``args``' layout (see
        :meth:`execute`) ahead of the first pool."""
        batched, _ = _scan_sweep_args(self.est.primal_ir, args)
        self._kernel(frozenset(batched))

    # -- pool lowering (per call) -------------------------------------------
    def _lower(self, kernel, configs: Sequence[object]):
        from repro.codegen.compile import (
            ConfigLoweringError,
            LoweringPlan,
            lower_adjoint_pool,
        )

        model = self.est.module.model
        if not model.marks_dtype_constants:
            raise ConfigLoweringError(
                f"error model {model.name!r} does not declare its "
                "dtype-dependent constants"
            )
        if self._primal_plan is None:
            self._primal_plan = LoweringPlan(self.est.primal_ir)
        return lower_adjoint_pool(kernel.program, self._primal_plan, configs)

    # -- execution ----------------------------------------------------------
    def execute(
        self, configs: Sequence[object], *args: object
    ) -> ConfigBatchReport:
        from repro.codegen.compile import ConfigLoweringError

        primal = self.est.primal_ir
        configs = list(configs)
        if not configs:
            raise ExecutionError(
                f"{primal.name}: empty configuration pool"
            )
        batched, n = _scan_sweep_args(primal, args)
        kernel = self._kernel(frozenset(batched))
        if kernel is not None:
            try:
                pool = self._lower(kernel, configs)
            except ConfigLoweringError:
                pool = None
            if pool is not None:
                return self._execute_lanes(
                    kernel, pool, configs, args, batched, n
                )
        _CB_FALLBACKS.inc()
        return self._execute_loop(configs, args, n)

    # -- lanes backend ------------------------------------------------------
    def _execute_lanes(
        self,
        kernel,
        pool,
        configs: Sequence[object],
        args: Sequence[object],
        batched: List[str],
        n: int,
    ) -> ConfigBatchReport:
        est = self.est
        primal = est.primal_ir
        k = len(configs)
        full: List[object] = []
        for a, p in zip(args, primal.params):
            dt = p.type.dtype
            if p.name in batched:
                full.append(
                    np.asarray(
                        a,
                        dtype=np.int64 if dt is DType.I64 else np.float64,
                    )
                )
            elif dt is DType.I64:
                full.append(int(a))  # type: ignore[arg-type]
            elif dt.is_float:
                full.append(float(a))  # type: ignore[arg-type]
            else:
                full.append(a)
        result = kernel(pool, *full)
        if not isinstance(result, tuple):
            result = (result,)
        named: Dict[Tuple[str, ...], np.ndarray] = {}
        for key, val in zip(est.layout["ret_names"], result):
            named[tuple(key)] = np.broadcast_to(
                np.asarray(val, dtype=np.float64), (k, n)
            ).copy()
        rep = ConfigBatchReport(
            k=k,
            n=n,
            values=named[("value",)],
            total_error=np.zeros((k, n)),
            backend="lanes",
        )
        registers = set()
        for key, val in named.items():
            if key[0] == "grad":
                rep.gradients[key[1]] = val
            elif key[0] == "extra":
                if key[1] == "fp_error":
                    rep.total_error = val
                elif key[1].startswith("delta:"):
                    var = key[1][len("delta:"):]
                    rep.per_variable[var] = val
                    registers.add(var)
        rep.register_vars = frozenset(registers)
        self._add_input_errors(rep, args, batched, n)
        return rep

    def _add_input_errors(
        self,
        rep: ConfigBatchReport,
        args: Sequence[object],
        batched: List[str],
        n: int,
    ) -> None:
        # host-side mirror of the scalar/input-batched paths: inputs are
        # never assignment targets, so their representation error is
        # added from the final adjoints, per config lane (adding a zero
        # row is a bitwise no-op, matching the scalar path's gating)
        model = self.est.module.model
        primal = self.est.primal_ir
        for i, p in enumerate(primal.params):
            if p.name not in rep.gradients:
                continue
            if p.name in batched:
                values = np.asarray(args[i], dtype=np.float64)
            else:
                values = np.full(n, float(args[i]))  # type: ignore[arg-type]
            contrib = np.stack(
                [
                    np.asarray(
                        model.input_error_batch(
                            p.name, values, rep.gradients[p.name][lane]
                        ),
                        dtype=np.float64,
                    )
                    for lane in range(rep.k)
                ]
            )
            if np.any(contrib != 0.0):
                rep.per_variable[p.name] = (
                    rep.per_variable.get(p.name, np.zeros((rep.k, n)))
                    + contrib
                )
                rep.total_error = rep.total_error + contrib

    # -- loop backend -------------------------------------------------------
    def _execute_loop(
        self, configs: Sequence[object], args: Sequence[object], n: int
    ) -> ConfigBatchReport:
        from repro.core.api import cached_error_estimator, ErrorEstimator
        from repro.tuning.config import apply_precision

        est = self.est
        primal = est.primal_ir
        model = est.module.model
        rows: List[BatchReport] = []
        for config in configs:
            mixed = (
                apply_precision(primal, config) if config else primal
            )
            if model.cacheable and not est.module.track:
                sub = cached_error_estimator(
                    mixed,
                    model=model,
                    opt_level=est.opt_level,
                    minimal_pushes=est.minimal_pushes,
                )
            else:
                sub = ErrorEstimator(
                    mixed,
                    model=model,
                    track=est.module.track,
                    opt_level=est.opt_level,
                    minimal_pushes=est.minimal_pushes,
                )
            rows.append(sub.execute_batch(*args))
        k = len(rows)
        per_vars = sorted({v for r in rows for v in r.per_variable})
        grads = sorted({g for r in rows for g in r.gradients})
        return ConfigBatchReport(
            k=k,
            n=n,
            values=np.stack([r.values for r in rows]),
            total_error=np.stack([r.total_error for r in rows]),
            per_variable={
                v: np.stack(
                    [
                        np.asarray(
                            r.per_variable.get(v, np.zeros(n))
                        )
                        for r in rows
                    ]
                )
                for v in per_vars
            },
            gradients={
                g: np.stack([np.asarray(r.gradients[g]) for r in rows])
                for g in grads
            },
            backend="loop",
            _rows=rows,
        )
