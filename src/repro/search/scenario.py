"""Search scenarios: the per-app bundle of everything a search needs.

Each benchmark app (:mod:`repro.apps`) exposes a ``search_scenario()``
returning one of these — kernel, validation points, input sweep, the
candidate demotion set, and the error threshold — so the CLI
(``python -m repro search --kernel <app>``), the benchmarks, and the
tests all drive the same definitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Tuple

from repro.core.api import KernelLike


@dataclass
class SearchScenario:
    """A ready-to-run precision-search problem."""

    name: str
    kernel: KernelLike
    #: validation input tuples (actual error / cycle measurement)
    points: Sequence[Sequence[object]]
    threshold: float
    candidates: Tuple[str, ...]
    #: optional swept inputs for the distribution-robust error estimate
    samples: Optional[Mapping[str, Sequence[float]]] = None
    fixed: Optional[Mapping[str, object]] = field(default=None)
    #: default evaluation budget for CLI/benchmark runs
    budget: int = 48
    description: str = ""

    def run(self, session=None, **overrides):
        """Run the precision search on this scenario.

        Goes through :meth:`repro.session.Session.search` — pass
        ``session=`` to share an existing session's sweep cache, run
        store, and defaults (a throwaway default session is used
        otherwise).  Keyword overrides are passed through (``budget=``,
        ``strategies=``, ``threshold=``, ...).
        """
        if session is None:
            from repro.session import Session

            session = Session()
        kwargs = {
            "candidates": self.candidates,
            "samples": self.samples,
            "fixed": self.fixed,
            "budget": self.budget,
            # run-store manifests label runs by scenario name
            "label": self.name,
        }
        threshold = overrides.pop("threshold", self.threshold)
        kwargs.update(overrides)
        return session.search(
            self.kernel, self.points, threshold, **kwargs
        )
