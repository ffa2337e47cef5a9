"""Aggregation of per-point sweep results into distribution statistics.

A sweep answers "what is the error *at these N points*"; a tuning
decision needs one number per variable.  :func:`summarize` reduces a
:class:`~repro.sweep.batch.BatchReport` along the batch axis with a
named aggregator:

* ``"max"`` — worst case over the distribution (the conservative choice
  for threshold-driven tuning, and the default of robust tuning),
* ``"mean"`` — expected error,
* ``"p<q>"`` (e.g. ``"p95"``) or ``("percentile", q)`` — tail quantile,
* any callable ``(np.ndarray) -> float``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Tuple, Union

import numpy as np

from repro.sweep.batch import BatchReport
from repro.util.errors import ConfigError

Aggregator = Callable[[np.ndarray], float]
AggregatorSpec = Union[str, Tuple[str, float], Aggregator]


def resolve_aggregator(how: AggregatorSpec) -> Tuple[str, Aggregator]:
    """Resolve an aggregator spec into ``(name, callable)``."""
    if callable(how):
        return getattr(how, "__name__", "custom"), lambda a: float(how(a))
    if isinstance(how, tuple):
        kind, q = how
        if kind != "percentile":
            raise ConfigError(f"unknown aggregator tuple {how!r}")
        qf = float(q)
        return f"p{qf:g}", lambda a: float(np.percentile(a, qf))
    if how == "max":
        return "max", lambda a: float(np.max(a))
    if how == "mean":
        return "mean", lambda a: float(np.mean(a))
    if isinstance(how, str) and how.startswith("p"):
        try:
            qf = float(how[1:])
        except ValueError:
            raise ConfigError(f"unknown aggregator {how!r}") from None
        if not 0.0 <= qf <= 100.0:
            raise ConfigError(f"percentile out of range: {how!r}")
        return f"p{qf:g}", lambda a: float(np.percentile(a, qf))
    raise ConfigError(f"unknown aggregator {how!r}")


@dataclass
class SweepSummary:
    """Distribution statistics of one sweep."""

    #: aggregator name (``max``, ``mean``, ``p95``, ...)
    how: str
    #: number of samples aggregated
    n: int
    #: aggregated total error
    total_error: float
    #: aggregated per-variable contributions
    per_variable: Dict[str, float] = field(default_factory=dict)
    #: index of the sample with the largest total error
    worst_index: int = 0

    def dominant_variables(self, k: int = 5) -> list:
        """The ``k`` variables with the largest aggregated contributions."""
        return [
            v
            for v, _ in sorted(
                self.per_variable.items(),
                key=lambda kv: kv[1],
                reverse=True,
            )[:k]
        ]

    def __str__(self) -> str:
        lines = [
            f"SweepSummary(n={self.n}, {self.how} total_error="
            f"{self.total_error:.6g})"
        ]
        for v, e in sorted(
            self.per_variable.items(), key=lambda kv: -kv[1]
        ):
            lines.append(f"  {self.how} delta[{v}] = {e:.6g}")
        return "\n".join(lines)


def summarize(
    report: BatchReport, how: AggregatorSpec = "max"
) -> SweepSummary:
    """Reduce a batch report along the sample axis."""
    name, agg = resolve_aggregator(how)
    return SweepSummary(
        how=name,
        n=report.n,
        total_error=agg(np.asarray(report.total_error)),
        per_variable={
            v: agg(np.asarray(a)) for v, a in report.per_variable.items()
        },
        worst_index=report.worst(),
    )
