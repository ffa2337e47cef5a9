"""``search-cold``: one cold ``Session.search`` per op over the app scenarios.

Each search starts from what a fresh CLI process has: an empty run
store, an empty estimator memo and an empty config-kernel cache.  A
round is one search per scenario at its default budget.  The order comes
from the workload seed, and each search's seed from the workload seed and
the round.  The traced phase repeats the untraced rounds, and each
repeated search must return the same front and history bit for bit.

Set-up is timed from outside: a fresh interpreter imports ``repro``,
builds the five scenarios and opens a ``Session`` over a store.
"""

from __future__ import annotations

import math
import random
import shutil
import subprocess
import sys
import tempfile
from typing import Dict, List, Optional

from harness import Op, Workload, digest_json, registry_counters

SCENARIOS = ("arclength", "simpsons", "kmeans", "hpccg", "blackscholes")
#: quick mode: every scenario, at a budget small enough for a smoke test
QUICK_BUDGET = 4

_COLD_START = (
    "import sys, tempfile\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import repro\n"
    "from repro.search.orchestrator import app_scenarios\n"
    "scenarios = [m.search_scenario() for m in app_scenarios().values()]\n"
    "with tempfile.TemporaryDirectory(dir=sys.argv[2]) as d:\n"
    "    repro.Session(store=d)\n"
)


def front_digest(result) -> str:
    """The front and the full evaluation history, in discovery order."""
    return digest_json({
        "front": [
            [p.key, repr(p.error), repr(p.cycles), p.strategy, p.index]
            for p in result.front.points
        ],
        "history": [
            [e.key, repr(e.error), repr(e.cycles), e.strategy, e.index]
            for e in result.evaluations
        ],
    })


def check_search(result, budget: Optional[int]) -> Optional[str]:
    front = result.front
    if not front.is_consistent():
        return "front has a dominated member"
    if budget is not None and result.n_evaluated > budget:
        return f"{result.n_evaluated} evaluations exceed budget {budget}"
    for e in result.evaluations:
        if not math.isnan(e.error) and not front.covers(e):
            return f"evaluation {e.key} is not covered by the front"
    best = result.best_under()
    if best is None or not best.error <= result.threshold:
        return "no front member within the threshold"
    return None


class SearchCold(Workload):
    name = "search-cold"
    rate = 0.2
    min_rounds = 2

    def __init__(self, ctx) -> None:
        super().__init__(ctx)
        rng = random.Random(f"search-cold:{ctx.seed}")
        self.order = list(SCENARIOS)
        rng.shuffle(self.order)
        self.budget = QUICK_BUDGET if ctx.quick else None
        #: per-op memo / lane-kernel counts, summed (the caches are
        #: cleared, and their counters reset, before every op)
        self._acc = {"memo_hits": 0, "memo_misses": 0,
                     "lane_kernel_hits": 0, "lane_kernel_misses": 0}
        self._first: Dict[str, str] = {}

    def setup(self) -> None:
        subprocess.run(
            [sys.executable, "-c", _COLD_START, self.ctx.src, self.ctx.tmp],
            check=True, timeout=120,
        )

    def round(self, index: int) -> List[Op]:
        from repro import Session
        from repro.codegen.compile import clear_config_kernel_cache
        from repro.core.api import clear_estimator_memo

        ops: List[Op] = []
        for name in self.order:
            seed = random.Random(
                f"search-cold:{self.ctx.seed}:{index}:{name}"
            ).randrange(1 << 16)
            key = f"{name}/seed={seed}"
            box: Dict[str, object] = {}

            def prepare(box=box) -> None:
                clear_estimator_memo()
                clear_config_kernel_cache()
                box["store"] = tempfile.mkdtemp(dir=self.ctx.tmp)

            def run(box=box, name=name, seed=seed):
                sess = Session(store=box["store"])
                box["session"] = sess
                if self.budget is None:
                    return sess.search(name, seed=seed)
                return sess.search(name, seed=seed, budget=self.budget)

            def check(result, key=key):
                err = check_search(result, self.budget)
                if err is None:
                    err = self._same_as_first(key, front_digest(result))
                return err

            def cleanup(box=box) -> None:
                stats = box["session"].stats() if "session" in box else {}
                memo = stats.get("estimator_memo", {})
                lanes = stats.get("config_kernel_cache", {})
                self._acc["memo_hits"] += memo.get("hits", 0)
                self._acc["memo_misses"] += memo.get("misses", 0)
                self._acc["lane_kernel_hits"] += lanes.get("hits", 0)
                self._acc["lane_kernel_misses"] += lanes.get("misses", 0)
                shutil.rmtree(box["store"], ignore_errors=True)

            ops.append(Op(
                key=key, kind=name, run=run, check=check,
                digest=front_digest, prepare=prepare, cleanup=cleanup,
            ))
        return ops

    def _same_as_first(self, key: str, digest: str) -> Optional[str]:
        first = self._first.setdefault(key, digest)
        if first != digest:
            return f"result {digest} differs from the first run's {first}"
        return None

    def begin_trace(self) -> None:
        self._next_round = 0  # the same searches again, traced
        super().begin_trace()

    def counters(self) -> Dict[str, float]:
        out = registry_counters()
        out.update(self._acc)
        return out
