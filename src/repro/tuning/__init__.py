"""Mixed-precision tuning driven by CHEF-FP error profiles (paper §III).

The tuner consumes per-variable error contributions from an
error-estimation run, greedily demotes the least-sensitive variables
while the accumulated estimated error stays below the user threshold,
then validates the configuration by actually executing the demoted
program (actual error) and costing it with the performance model
(speedup) — the workflow behind Tables I and III.  The loop-split
("perforation") analysis of the HPCCG study (Fig. 9) lives in
:mod:`repro.tuning.perforation`.

Beyond the single greedy pass, the multi-objective search subsystem
(:mod:`repro.search`: Pareto fronts over error × modelled cycles,
delta-debugging and annealing strategies, config-batched candidate
evaluation) has its result and strategy-registry types re-exported
here.  The tuning entry point is :meth:`repro.session.Session.tune`.
"""

from repro.tuning.config import PrecisionConfig, apply_precision
from repro.tuning.greedy import greedy_select, TuningResult
from repro.tuning.validate import validate_config, ConfigValidation
from repro.tuning.perforation import (
    iteration_sensitivity,
    find_split_iteration,
    estimate_split_speedup,
)

__all__ = [
    "PrecisionConfig",
    "apply_precision",
    "greedy_select",
    "TuningResult",
    "validate_config",
    "ConfigValidation",
    "measure_reference",
    "ReferencePoint",
    "iteration_sensitivity",
    "find_split_iteration",
    "estimate_split_speedup",
    # lazy re-exports of the Pareto search subsystem (see __getattr__)
    "ParetoFront",
    "SearchResult",
    "STRATEGIES",
    "get_strategy",
    "register_strategy",
]

from repro.tuning.validate import measure_reference, ReferencePoint  # noqa: E402

#: names forwarded to :mod:`repro.search` on attribute access — lazy
#: because the search subsystem imports the tuning submodules (config,
#: greedy) and an eager import here would be circular
_SEARCH_EXPORTS = (
    "ParetoFront",
    "SearchResult",
    "STRATEGIES",
    "get_strategy",
    "register_strategy",
)


def __getattr__(name: str):
    if name in _SEARCH_EXPORTS:
        from repro import search as _search

        return getattr(_search, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )
