"""repro — a Python reproduction of CHEF-FP (IPDPS 2023).

Fast, automatic floating-point error analysis via source-transformation
reverse-mode AD with inline error-estimation code.

Quickstart (paper Listing 1, through the session facade)::

    import repro

    @repro.kernel
    def func(x: "f32", y: "f32") -> float:
        z: "f32" = x + y
        return z

    sess = repro.Session()
    df = sess.estimate(func)
    report = df.execute(1.95e-5, 1.37e-7)
    print("Error in func:", report.total_error)

One :class:`~repro.session.Session` owns the shared resources
(estimator memo, sweep cache, run store, default models) and exposes
the whole workflow — ``estimate`` / ``sweep`` / ``tune`` / ``search`` /
``plan`` / ``runs`` — as methods; ``python -m repro`` is the matching
CLI, and ``python -m repro serve`` exposes the same workflow as a
long-lived HTTP/JSON job service over one shared session
(:mod:`repro.serve`); both run the operations declared once in
:mod:`repro.session.ops`.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.
"""

from repro.frontend.registry import kernel, Kernel, get_kernel
from repro.core.api import gradient, ErrorEstimator, Gradient
from repro.core.models import (
    ErrorModel,
    TaylorModel,
    AdaptModel,
    ApproxModel,
    CenaModel,
    ExternalModel,
)
from repro.core.report import ErrorReport, GradientResult
from repro.core.forward import forward_derivative, ForwardDerivative
from repro.ir.types import DType
from repro.sweep import (
    BatchReport,
    SweepCache,
    explicit_sweep,
    grid_sweep,
    random_sweep,
    summarize,
)

# the Pareto precision-search subsystem: its front/result/registry
# types are re-exported at top level
from repro import search  # noqa: E402  (subsystem module, kept last)
from repro.search import (
    ParetoFront,
    RunStore,
    SearchOrchestrator,
    SearchResult,
    SearchScenario,
    STRATEGIES,
    get_strategy,
    register_strategy,
)

# the session facade: shared resources (estimator memo, sweep cache,
# run store, default models) + the whole workflow as methods
from repro.session import RunsView, Session, SessionConfig  # noqa: E402

# the observability layer: span tracing, the process-wide metrics
# registry, and trace profiling (see README "Observability")
from repro import obs  # noqa: E402

# deterministic fault injection (see README "Failure semantics");
# importing it also honours the REPRO_FAULTS environment variable
from repro import faults  # noqa: E402

# distributed sharded search: lease-claiming worker fleets, store
# union-merge, winner-front election (see README "Distributed search")
from repro import dist  # noqa: E402
from repro.util.errors import (  # noqa: E402
    ConfigError,
    InputError,
    InvalidRecordError,
    ReproError,
    StoreError,
    UnknownNameError,
)

__version__ = "2.0.0"

__all__ = [
    "kernel",
    "Kernel",
    "get_kernel",
    "gradient",
    "ErrorEstimator",
    "Gradient",
    "ErrorModel",
    "TaylorModel",
    "AdaptModel",
    "ApproxModel",
    "CenaModel",
    "ExternalModel",
    "ErrorReport",
    "GradientResult",
    "forward_derivative",
    "ForwardDerivative",
    "DType",
    "BatchReport",
    "SweepCache",
    "explicit_sweep",
    "grid_sweep",
    "random_sweep",
    "summarize",
    "search",
    "ParetoFront",
    "SearchResult",
    "SearchScenario",
    "STRATEGIES",
    "get_strategy",
    "register_strategy",
    "Session",
    "SessionConfig",
    "RunsView",
    "RunStore",
    "SearchOrchestrator",
    "obs",
    "dist",
    "ReproError",
    "InputError",
    "ConfigError",
    "UnknownNameError",
    "StoreError",
    "InvalidRecordError",
    "__version__",
]
