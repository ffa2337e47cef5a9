"""Greedy threshold-driven mixed-precision selection (paper §III).

    "An effective way ... is by analyzing the sensitivity of all input
    and intermediate variables and selecting the ones with lower
    sensitivity to be demoted.  The FP error contributions of the
    demoted variables are accumulated and compared to the threshold
    value.  A mixed precision configuration is reached when the
    accumulated error meets the threshold value."

Exactly that: variables are sorted by their estimated demotion-error
contribution (the ``_delta_<var>`` registers under the ADAPT model) and
demoted greedily while the running sum stays within the threshold.

:func:`run_greedy_tune` decides from **one** input point — the paper's
workflow.  Its Discussion concedes the result is input-dependent;
:func:`repro.tuning.robust.run_robust_tune` is the distribution-robust
variant that feeds *aggregated* contributions from a whole input sweep
through the same greedy core.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.api import cached_error_estimator
from repro.core.models import AdaptModel, ErrorModel
from repro.core.report import ErrorReport
from repro.frontend.registry import Kernel
from repro.ir import nodes as N
from repro.ir.types import DType
from repro.tuning.config import PrecisionConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.sweep.batch import BatchReport

#: registers that are analysis artifacts, never demotion candidates
_EXCLUDED = {"_ret"}


@dataclass
class TuningResult:
    """Outcome of a greedy mixed-precision search."""

    config: PrecisionConfig
    #: estimated total error of the chosen configuration
    estimated_error: float
    #: the full error report the decision was based on — for
    #: robust tuning this is the report of the worst-case sample
    report: Optional[ErrorReport] = field(repr=False, default=None)
    #: per-candidate estimated contributions, ascending
    ranking: List = field(default_factory=list)
    threshold: float = 0.0
    #: the per-point sweep results behind a robust tuning decision
    sweep: Optional["BatchReport"] = field(repr=False, default=None)
    #: session provenance (session/config identity, method, sequence
    #: number) — stamped by :class:`repro.session.Session`
    provenance: Optional[Dict[str, object]] = field(
        repr=False, default=None
    )

    @property
    def demoted(self) -> List[str]:
        return self.config.demoted_names


def greedy_select(
    contrib: Dict[str, float],
    threshold: float,
    candidates: Optional[Sequence[str]] = None,
    sensitivity: Optional[Dict[str, float]] = None,
) -> Tuple[List[Tuple[str, float]], List[str], float]:
    """The greedy demotion core shared by point and sweep tuning.

    Filters analysis artifacts, restricts to ``candidates`` when given,
    ranks ascending by contribution, and demotes while the accumulated
    estimate stays within ``threshold``.

    ``sensitivity`` (static per-variable amplification bounds from
    :mod:`repro.analyze`) refines the ladder order: contribution ties
    are broken least-amplifying-first, so the most-sensitive variables
    are demoted last.  Without it the historical ordering is preserved
    exactly (bit-identical results).

    :returns: ``(ranking, chosen, accumulated_error)``.
    """
    filtered = {
        v: e
        for v, e in contrib.items()
        if v not in _EXCLUDED
        and (candidates is None or v in candidates)
    }
    if sensitivity is None:
        ranking = sorted(filtered.items(), key=lambda kv: kv[1])
    else:
        ranking = sorted(
            filtered.items(),
            key=lambda kv: (
                kv[1], sensitivity.get(kv[0], 0.0), kv[0]
            ),
        )
    chosen: List[str] = []
    acc = 0.0
    for var, err in ranking:
        if acc + err <= threshold:
            chosen.append(var)
            acc += err
    return ranking, chosen, acc


def run_greedy_tune(
    k: Union[Kernel, N.Function],
    args: Sequence[object],
    threshold: float,
    model: Optional[ErrorModel] = None,
    candidates: Optional[Sequence[str]] = None,
    demote_to: DType = DType.F32,
    opt_level: int = 2,
    minimal_pushes: bool = True,
    sensitivity: Optional[Dict[str, float]] = None,
) -> TuningResult:
    """The single-point greedy tuner proper — see
    :meth:`repro.session.Session.tune`.

    :param args: representative inputs (the result is
        input-dependent; tune over a sweep with
        :func:`~repro.tuning.robust.run_robust_tune` instead of relying
        on one point).
    :param threshold: maximum acceptable accumulated estimated error.
    :param model: error model; default is the ADAPT demotion model
        (Eq. 2), as in the paper's mixed-precision benchmarks.
    :param candidates: restrict demotion candidates (default: every
        variable with an error register).
    """
    est = cached_error_estimator(
        k, model=model or AdaptModel(demote_to),
        opt_level=opt_level, minimal_pushes=minimal_pushes,
    )
    report = est.execute(*args)
    ranking, chosen, acc = greedy_select(
        report.per_variable, threshold, candidates,
        sensitivity=sensitivity,
    )
    return TuningResult(
        config=PrecisionConfig.demote(chosen, to=demote_to),
        estimated_error=acc,
        report=report,
        ranking=ranking,
        threshold=threshold,
    )

