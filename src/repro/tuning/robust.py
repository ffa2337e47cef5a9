"""Distribution-robust mixed-precision tuning (beyond the paper).

The paper's greedy tuner decides from **one** input point; its
Discussion concedes the choice is input-dependent and that callers
should sweep inputs.  :func:`run_robust_tune` does exactly that: it runs a
batched error sweep over an input distribution, aggregates each
variable's demotion-error contribution across the whole distribution
(worst case by default), and feeds the aggregated contributions through
the same greedy demotion core.

Soundness of the default (``max``) aggregation: for any sample ``s``
and chosen set ``C``,

    error_s(C) = Σ_{v∈C} delta_v(s)  ≤  Σ_{v∈C} max_s delta_v(s)  ≤  threshold

so the configuration's estimated error stays under the threshold at
*every* swept point, not just a representative one.  The reported
``estimated_error`` is the tighter ``agg_s error_s(C)`` computed from
the actual per-sample sums.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Union

import numpy as np

from repro.core.models import AdaptModel, ErrorModel
from repro.frontend.registry import Kernel
from repro.ir import nodes as N
from repro.ir.types import DType
from repro.sweep.aggregate import AggregatorSpec, resolve_aggregator
from repro.sweep.engine import CacheLike, run_sweep
from repro.tuning.config import PrecisionConfig
from repro.tuning.greedy import TuningResult, greedy_select


def run_robust_tune(
    k: Union[Kernel, N.Function],
    samples: Mapping[str, Sequence[float]],
    threshold: float,
    fixed: Optional[Mapping[str, object]] = None,
    model: Optional[ErrorModel] = None,
    candidates: Optional[Sequence[str]] = None,
    demote_to: DType = DType.F32,
    aggregate: AggregatorSpec = "max",
    cache: CacheLike = None,
    opt_level: int = 2,
    minimal_pushes: bool = True,
    sensitivity: Optional[Dict[str, float]] = None,
) -> TuningResult:
    """The distribution-robust tuner proper — see
    :meth:`repro.session.Session.tune`.

    :param samples: swept parameters — ``{param: length-N array}``; see
        :mod:`repro.sweep.samplers` for grid/random/explicit builders.
    :param threshold: maximum acceptable accumulated estimated error,
        enforced on the *aggregated* (default: worst-case) contributions.
    :param aggregate: how contributions are reduced across samples —
        ``"max"`` (default, conservative), ``"mean"``, ``"p95"``, a
        ``("percentile", q)`` tuple, or a callable.
    :param cache: optional sweep result cache; repeated tuning runs
        over the same distribution become cache hits.
    """
    model = model or AdaptModel(demote_to)
    batch = run_sweep(
        k, samples=samples, fixed=fixed, model=model, cache=cache,
        opt_level=opt_level, minimal_pushes=minimal_pushes,
    )
    _, agg = resolve_aggregator(aggregate)
    contrib = {
        v: agg(np.asarray(a)) for v, a in batch.per_variable.items()
    }
    ranking, chosen, _ = greedy_select(
        contrib, threshold, candidates, sensitivity=sensitivity
    )
    if chosen:
        per_sample = np.sum(
            [np.asarray(batch.per_variable[v]) for v in chosen], axis=0
        )
        estimated = float(agg(per_sample))
    else:
        estimated = 0.0
    return TuningResult(
        config=PrecisionConfig.demote(chosen, to=demote_to),
        estimated_error=estimated,
        report=batch.point(batch.worst()),
        ranking=ranking,
        threshold=threshold,
        sweep=batch,
    )

