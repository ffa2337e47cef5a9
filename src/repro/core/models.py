"""Error models.

An error model maps one differentiable assignment — (value, adjoint) —
to an IR expression computing that assignment's floating-point error
contribution (paper §II-A and §III-E).  The Error Estimation Module
accumulates the returned expressions into per-variable registers and the
total error.

Built-in models:

* :class:`TaylorModel` — the default model of Eq. 1:
  ``A_f = |eps_m * x * dx|`` with ``eps_m`` the machine epsilon of the
  assignment's storage precision.
* :class:`AdaptModel` — the ADAPT model of Eq. 2:
  ``Δ = Σ |df/dx_i| * (x_i - (float)x_i)`` — the error a demotion to
  binary32 *would* introduce, used for mixed-precision tuning.
* :class:`ApproxModel` — Algorithm 2: for variables mapped to intrinsic
  functions, ``|dx * (f(x) - f̃(x))|`` where ``f̃`` is the FastApprox
  variant.
* :class:`ExternalModel` — the "call a user function" path of Listing 3:
  synthesizes ``user_err(dx, x, site)`` calls bound to an arbitrary
  Python callable ``(dx, x, name) -> float``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.ir import builder as b
from repro.ir import nodes as N
from repro.ir.types import DType, machine_eps

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.reverse import AdjointContext


def _target_name(target: N.LValue) -> str:
    return target.id if isinstance(target, N.Name) else target.base


def eps_const(var: str, dt: DType) -> N.Const:
    """``machine_eps(dt)`` as a constant marked with the variable whose
    storage precision ``dt`` is (see :attr:`ErrorModel.marks_dtype_constants`).
    """
    c = b.const(machine_eps(dt))
    c.eps_of = var
    return c


def _target_read(target: N.LValue) -> N.Expr:
    if isinstance(target, N.Name):
        return b.name(target.id, target.dtype or DType.F64)
    return b.index(
        target.base, b.clone(target.index), target.dtype or DType.F64
    )


class ErrorModel:
    """Base class of error models (``FPErrorEstimationModel`` analogue)."""

    name = "base"

    #: whether results produced under this model may be memoized across
    #: calls/processes — models closing over arbitrary Python callables
    #: (:class:`ExternalModel`) must opt out
    cacheable = True

    #: whether every float constant this model emits whose value depends
    #: on a variable's storage precision is built with :func:`eps_const`.
    #: Config-batched estimation derives the marked constants per
    #: configuration from one adjoint; a model that leaves this False is
    #: estimated one configuration at a time (same numbers, slower)
    marks_dtype_constants = False

    def fingerprint(self) -> str:
        """Stable identity string for result caching and estimator reuse.

        Two model instances with the same fingerprint must generate the
        same error code and the same host-side input-error values.
        """
        return self.name

    def error_expr(
        self,
        ctx: "AdjointContext",
        target: N.LValue,
        adjoint: N.Expr,
        stmt: N.Assign,
    ) -> Optional[N.Expr]:
        """Error-contribution expression for one assignment.

        Return ``None`` to skip this assignment entirely (no register
        update, no accumulation).
        """
        raise NotImplementedError

    def bindings(self) -> Dict[str, object]:
        """Extra runtime bindings required by generated error code."""
        return {}

    def reset(self) -> None:
        """Clear per-generation state (the adjoint generator runs two
        passes; stateful models must restart cleanly)."""
        return None

    def input_error(self, name: str, value, adjoint) -> float:
        """Error contribution of an *input* variable (never assigned,
        so no ``AssignError`` site exists for it).

        Evaluated host-side after the adjoint run, with the parameter's
        value(s) and final adjoint(s) — scalars or numpy arrays.  The
        Eq. 2 sum runs over inputs as well as assignments, which is how
        read-only data like k-Means' ``clusters`` acquires an error
        estimate (Table III).
        """
        return 0.0

    def input_error_batch(self, name: str, values, adjoints):
        """Vectorized :meth:`input_error` for a *scalar* parameter over a
        batch: ``values`` and ``adjoints`` are length-N arrays and the
        result is the length-N array of per-sample contributions.

        The default loops over :meth:`input_error`; the built-in models
        override with closed-form numpy.
        """
        import numpy as np

        return np.asarray(
            [
                self.input_error(name, float(v), float(a))
                for v, a in zip(np.asarray(values), np.asarray(adjoints))
            ],
            dtype=np.float64,
        )


class TaylorModel(ErrorModel):
    """Default first-order Taylor model (paper Eq. 1).

    Per assignment to ``x``: ``err = |eps_m(x) * x * dx|``, where
    ``eps_m`` is the machine epsilon of the variable's storage precision.
    Produces a (loose) upper bound on accumulated rounding error.
    """

    name = "taylor"

    marks_dtype_constants = True

    def __init__(self, precision: Optional[DType] = None) -> None:
        #: override: estimate as if every variable were stored at this
        #: precision (useful to ask "what if everything were f32?")
        self.precision = precision

    def fingerprint(self) -> str:
        p = self.precision.value if self.precision is not None else "-"
        return f"{self.name}:{p}"

    def error_expr(self, ctx, target, adjoint, stmt):
        dt = target.dtype or DType.F64
        if not dt.is_float:
            return None
        if self.precision is not None:
            eps = b.const(machine_eps(self.precision))
        else:
            eps = eps_const(_target_name(target), dt)
        return b.fabs(
            b.mul(eps, b.mul(_target_read(target), b.clone(adjoint)))
        )

    def input_error(self, name, value, adjoint):
        import numpy as np

        eps = machine_eps(self.precision or DType.F64)
        return float(np.sum(np.abs(eps * np.asarray(value) * np.asarray(adjoint))))

    def input_error_batch(self, name, values, adjoints):
        import numpy as np

        eps = machine_eps(self.precision or DType.F64)
        return np.abs(
            eps * np.asarray(values, dtype=np.float64) * np.asarray(adjoints)
        )


class AdaptModel(ErrorModel):
    """The ADAPT-FP model (paper Eq. 2, Listing 3).

    Per assignment to ``x``: ``err = |dx * (x - (float)x)|`` — the exact
    first-order effect of demoting the stored value to binary32.  Zero
    for values already representable in binary32; this is the model the
    paper uses for the mixed-precision benchmarks (Arc Length, Simpsons,
    k-Means, HPCCG).
    """

    name = "adapt"

    #: no constant depends on a storage precision
    marks_dtype_constants = True

    def __init__(self, demote_to: DType = DType.F32) -> None:
        self.demote_to = demote_to

    def fingerprint(self) -> str:
        return f"{self.name}:{self.demote_to.value}"

    #: saturation for values that overflow the demoted format: their
    #: demotion delta is ±inf, and inf·0 adjoints would poison the total
    #: with NaNs — clamp to a huge finite cost instead ("cannot demote")
    _SATURATE = 1e300

    def error_expr(self, ctx, target, adjoint, stmt):
        dt = target.dtype or DType.F64
        if not dt.is_float:
            return None
        x = _target_read(target)
        delta = b.sub(b.clone(x), b.cast(self.demote_to, b.clone(x)))
        delta.dtype = DType.F64
        clamped = b.call(
            "fmin", [b.fabs(delta), b.const(self._SATURATE)],
            dtype=DType.F64,
        )
        return b.mul(clamped, b.fabs(b.clone(adjoint)))

    def input_error(self, name, value, adjoint):
        import numpy as np

        from repro.fp.precision import demotion_error

        v = np.asarray(value, dtype=np.float64)
        delta = np.clip(
            np.abs(demotion_error(v, self.demote_to)),
            0.0,
            self._SATURATE,
        )
        return float(np.sum(np.abs(np.asarray(adjoint)) * delta))

    def input_error_batch(self, name, values, adjoints):
        import numpy as np

        from repro.fp.precision import demotion_error

        v = np.asarray(values, dtype=np.float64)
        delta = np.clip(
            np.abs(demotion_error(v, self.demote_to)), 0.0, self._SATURATE
        )
        return np.abs(np.asarray(adjoints)) * delta


class ApproxModel(ErrorModel):
    """Approximate-function error model (paper Algorithm 2).

    :param var_to_fn: map from variable name to the intrinsic whose
        approximate (FastApprox) variant consumes that variable — the
        "map of variables of interest" S of Algorithm 2.  For a variable
        ``x`` mapped to ``f``: ``err = |dx * (f(x) - fast_f(x))|``.
    :param fallthrough: optional second model applied to unmapped
        variables (``None`` skips them, as Algorithm 2 does).

    Faithfulness note: Algorithm 2 multiplies Δ by the adjoint of the
    function's *input* variable (``dx``), which differs from the exact
    first-order effect — that would multiply by the adjoint of the
    function's *output* — by a factor of f′(x).  We reproduce the
    paper's formulation verbatim; this is why the paper's own Table IV
    estimates differ from its actual errors by up to ~8x, a shape our
    Table IV reproduces.
    """

    name = "approx"

    _SUPPORTED = {"exp", "log", "log2", "exp2", "sqrt"}

    def __init__(
        self,
        var_to_fn: Dict[str, str],
        fallthrough: Optional[ErrorModel] = None,
    ) -> None:
        for v, fn in var_to_fn.items():
            if fn not in self._SUPPORTED:
                raise ValueError(
                    f"no FastApprox variant for intrinsic {fn!r} "
                    f"(variable {v!r})"
                )
        self.var_to_fn = dict(var_to_fn)
        self.fallthrough = fallthrough

    @property
    def cacheable(self) -> bool:  # type: ignore[override]
        return self.fallthrough is None or self.fallthrough.cacheable

    @property
    def marks_dtype_constants(self) -> bool:  # type: ignore[override]
        return (
            self.fallthrough is None
            or self.fallthrough.marks_dtype_constants
        )

    def fingerprint(self) -> str:
        m = ",".join(f"{v}={f}" for v, f in sorted(self.var_to_fn.items()))
        ft = self.fallthrough.fingerprint() if self.fallthrough else "-"
        return f"{self.name}:{m}:{ft}"

    def _lookup(self, name: str) -> Optional[str]:
        """Resolve a variable name to its mapped intrinsic.

        Kernel inlining renames callee locals with ``_in<k>`` suffixes
        (possibly stacked), so ``expin`` in the map also matches
        ``expin_in1`` and ``expin_in1_in3``.
        """
        if name in self.var_to_fn:
            return self.var_to_fn[name]
        for key, fn in self.var_to_fn.items():
            if name.startswith(key + "_in"):
                return fn
        return None

    def error_expr(self, ctx, target, adjoint, stmt):
        dt = target.dtype or DType.F64
        if not dt.is_float:
            return None
        name = _target_name(target)
        fn = self._lookup(name)
        if fn is None:
            if self.fallthrough is not None:
                return self.fallthrough.error_expr(
                    ctx, target, adjoint, stmt
                )
            return None
        x = _target_read(target)
        delta = b.sub(
            b.call(fn, [b.clone(x)], dtype=DType.F64),
            b.call(f"fast_{fn}", [b.clone(x)], dtype=DType.F64),
        )
        return b.fabs(b.mul(b.clone(adjoint), delta))

    def input_error(self, name, value, adjoint):
        import numpy as np

        from repro.fp import fastapprox as fa

        fn = self._lookup(name)
        if fn is None:
            if self.fallthrough is not None:
                return self.fallthrough.input_error(name, value, adjoint)
            return 0.0
        exact = fa.EXACT_REFERENCE[fn]
        approx = fa.FAST_VARIANTS[fn]
        v = np.atleast_1d(np.asarray(value, dtype=np.float64))
        a = np.atleast_1d(np.asarray(adjoint, dtype=np.float64))
        total = 0.0
        for vi, ai in zip(v, a):
            total += abs(ai * (exact(vi) - approx(vi)))
        return float(total)

    def bindings(self):
        if self.fallthrough is not None:
            return self.fallthrough.bindings()
        return {}


class CenaModel(ErrorModel):
    """Signed first-order error estimation (CENA-style; Langlois 2000).

    The paper's related-work section credits the CENA method with
    improving estimate accuracy by tracking the *signed* first-order
    effect of each rounding so that cancelling errors cancel in the
    estimate too.  Per assignment: ``err = dx · (x − (float)x)`` with no
    absolute value; the per-variable registers and the total therefore
    hold signed sums, and :attr:`ErrorReport.total_error` reports the
    magnitude of the *net* error — a tighter (but no longer
    conservative) estimate than :class:`AdaptModel`'s triangle-
    inequality bound.

    Extension beyond the paper's evaluation (which uses Eq. 2); used by
    the accuracy-comparison tests and available to users who want net-
    effect estimates rather than worst-case bounds.
    """

    name = "cena"

    #: no constant depends on a storage precision
    marks_dtype_constants = True

    _SATURATE = 1e300

    def __init__(self, demote_to: DType = DType.F32) -> None:
        self.demote_to = demote_to

    def fingerprint(self) -> str:
        return f"{self.name}:{self.demote_to.value}"

    def error_expr(self, ctx, target, adjoint, stmt):
        dt = target.dtype or DType.F64
        if not dt.is_float:
            return None
        x = _target_read(target)
        delta = b.sub(b.clone(x), b.cast(self.demote_to, b.clone(x)))
        delta.dtype = DType.F64
        # saturate via fmax/fmin to keep inf·0 NaNs out of the sum
        clamped = b.call(
            "fmax",
            [
                b.call(
                    "fmin", [delta, b.const(self._SATURATE)],
                    dtype=DType.F64,
                ),
                b.const(-self._SATURATE),
            ],
            dtype=DType.F64,
        )
        return b.mul(b.clone(adjoint), clamped)

    def input_error(self, name, value, adjoint):
        import numpy as np

        from repro.fp.precision import demotion_error

        v = np.asarray(value, dtype=np.float64)
        delta = np.clip(
            demotion_error(v, self.demote_to),
            -self._SATURATE,
            self._SATURATE,
        )
        return float(np.sum(np.asarray(adjoint) * delta))

    def input_error_batch(self, name, values, adjoints):
        import numpy as np

        from repro.fp.precision import demotion_error

        v = np.asarray(values, dtype=np.float64)
        delta = np.clip(
            demotion_error(v, self.demote_to), -self._SATURATE, self._SATURATE
        )
        return np.asarray(adjoints) * delta


class ExternalModel(ErrorModel):
    """Synthesize calls to a user-supplied Python error function.

    The paper's Listing 3 builds a call to ``clad::getErrorVal(dx, x,
    name)``; here ``user_fn(dx, x, name)`` is any Python callable.  Each
    assignment site gets a stable integer id that the generated call
    passes; the binding shim translates it back to the variable name.
    """

    name = "external"

    #: closes over an arbitrary Python callable — never memoize results
    cacheable = False

    def __init__(self, user_fn: Callable[[float, float, str], float]) -> None:
        self.user_fn = user_fn
        self._site_names: List[str] = []

    def reset(self) -> None:
        # clear in place: the runtime binding shim closes over this list
        del self._site_names[:]

    def error_expr(self, ctx, target, adjoint, stmt):
        dt = target.dtype or DType.F64
        if not dt.is_float:
            return None
        name = _target_name(target)
        site = len(self._site_names)
        self._site_names.append(name)
        return b.call(
            "user_err",
            [b.clone(adjoint), _target_read(target), b.const(site)],
            dtype=DType.F64,
        )

    def input_error(self, name, value, adjoint):
        import numpy as np

        v = np.atleast_1d(np.asarray(value, dtype=np.float64))
        a = np.atleast_1d(np.asarray(adjoint, dtype=np.float64))
        return float(
            sum(abs(self.user_fn(ai, vi, name)) for vi, ai in zip(v, a))
        )

    def bindings(self):
        names = self._site_names
        user_fn = self.user_fn

        def _user_err(dx: float, x: float, site: int) -> float:
            return float(user_fn(dx, x, names[int(site)]))

        return {"_i_user_err": _user_err}
