"""Search strategies over the precision-configuration space.

The paper's workflow is one greedy demotion pass.  Search-based tuners
(Precimonious' delta debugging, FPTuner's global trade-off optimization)
show that *exploring* the space finds strictly better error/performance
points.  Every strategy here speaks one interface —
:meth:`SearchStrategy.run` against a :class:`SearchProblem` — and they
compose: the driver runs them in sequence over a shared evaluator whose
memo makes re-proposed configurations free.

Built-ins (see :data:`STRATEGIES`):

* ``greedy`` — the paper's greedy tuner as a baseline adapter: evaluates
  the full demotion ladder (every prefix of the contribution ranking)
  plus the exact threshold-driven greedy choice, which it records as
  ``problem.baseline``.
* ``delta`` — Precimonious-style delta debugging (ddmin over the set of
  variables *kept* in f64): finds a small kept-set whose complement
  demotes within the threshold, evaluating whole partitions per round
  (one pool per round).
* ``anneal`` — simulated annealing with random restarts over bit-flip
  moves, with exhaustive enumeration as the small-kernel fallback when
  the whole space fits in the remaining budget.
* ``population`` — lockstep population annealing: the restart chains
  advance together and each step proposes one *generation* (a pool of
  flips, one per chain) instead of singletons, so the config-batched
  evaluator scores a whole generation in one lane execution.
  Not in the default line-up: pooling reorders evaluations relative to
  ``anneal``, whose sequential trajectory the default results contract
  (bit-reproducibility across releases) pins down.
* ``exhaustive`` — enumerate every subset (budget-gated; chunks sized
  for pool evaluation).

Register your own with :func:`register_strategy`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
)

import numpy as np

from repro.ir.types import DType
from repro.search.evaluate import (
    CandidateEvaluator,
    EvaluatedCandidate,
    config_key,
)
from repro.tuning.config import PrecisionConfig
from repro.tuning.greedy import greedy_select
from repro.util.errors import ConfigError, UnknownNameError

Subset = FrozenSet[str]


@dataclass
class SearchProblem:
    """Shared state the strategies operate on.

    Budget semantics: ``budget`` caps *computed* evaluations; memo hits
    (configurations already scored) are free, so strategies may freely
    re-propose known points.  ``evaluate_many`` returns ``None`` in the
    slot of any configuration dropped for lack of budget.
    """

    evaluator: CandidateEvaluator
    candidates: Tuple[str, ...]
    threshold: float
    #: estimated demotion-error contribution per candidate (aggregated
    #: over the input sweep when one is present)
    contributions: Dict[str, float]
    demote_to: DType = DType.F32
    budget: int = 64
    seed: int = 0
    #: the greedy strategy records its threshold-driven choice here
    baseline: Optional[EvaluatedCandidate] = None
    _spent: int = field(default=0, init=False)

    # -- bookkeeping --------------------------------------------------------
    @property
    def remaining(self) -> int:
        return max(self.budget - self._spent, 0)

    @property
    def exhausted(self) -> bool:
        return self.remaining <= 0

    def charge(self, n: int) -> None:
        """Pre-charge ``n`` evaluations against the budget.

        The resume path charges the evaluations restored from a run
        store so a resumed run computes exactly as many *new*
        candidates as the uninterrupted run would have — restored
        results themselves replay as free memo hits."""
        self._spent += int(n)

    @property
    def ranking(self) -> List[Tuple[str, float]]:
        """Candidates ascending by estimated contribution (greedy order)."""
        return sorted(
            self.contributions.items(), key=lambda kv: (kv[1], kv[0])
        )

    def config_for(self, subset: Subset) -> PrecisionConfig:
        return PrecisionConfig.demote(sorted(subset), to=self.demote_to)

    # -- evaluation (budget-gated) ------------------------------------------
    def evaluate_many(
        self, subsets: Sequence[Subset], strategy: str
    ) -> List[Optional[EvaluatedCandidate]]:
        """Evaluate a pool of subsets; ``None`` where budget ran out."""
        configs = [self.config_for(s) for s in subsets]
        admitted: List[PrecisionConfig] = []
        slots: List[bool] = []
        batch_new: set = set()
        for c in configs:
            key = config_key(c)
            known = key in self.evaluator.memo or key in batch_new
            if not known and self._spent + len(batch_new) >= self.budget:
                slots.append(False)
                continue
            if not known:
                batch_new.add(key)
            admitted.append(c)
            slots.append(True)
        before = self.evaluator.n_computed
        results = self.evaluator.evaluate_many(admitted, strategy)
        self._spent += self.evaluator.n_computed - before
        out: List[Optional[EvaluatedCandidate]] = []
        it = iter(results)
        for ok in slots:
            out.append(next(it) if ok else None)
        return out

    def evaluate(
        self, subset: Subset, strategy: str
    ) -> Optional[EvaluatedCandidate]:
        return self.evaluate_many([subset], strategy)[0]


class SearchStrategy:
    """One exploration policy over the configuration space."""

    #: registry key; subclasses must override
    name: str = ""

    def run(self, problem: SearchProblem) -> None:
        """Propose and evaluate configurations until done or out of
        budget.  All results land in the shared evaluator history; the
        driver assembles the Pareto front afterwards."""
        raise NotImplementedError


STRATEGIES: Dict[str, Type[SearchStrategy]] = {}

#: strategy line-up used when the caller does not choose
DEFAULT_STRATEGIES: Tuple[str, ...] = ("greedy", "delta", "anneal")


def register_strategy(cls: Type[SearchStrategy]) -> Type[SearchStrategy]:
    """Class decorator: add a strategy to the registry by its name."""
    if not cls.name:
        raise ConfigError(
            f"{cls.__name__} must define a non-empty name"
        )
    STRATEGIES[cls.name] = cls
    return cls


def get_strategy(name: str) -> SearchStrategy:
    """Instantiate a registered strategy by name."""
    try:
        return STRATEGIES[name]()
    except KeyError:
        raise UnknownNameError(
            f"unknown search strategy {name!r} "
            f"(registered: {sorted(STRATEGIES)})"
        ) from None


@register_strategy
class GreedyLadderStrategy(SearchStrategy):
    """The existing greedy tuner, adapted as a baseline strategy.

    Evaluates the exact threshold-driven greedy choice first (recorded
    as ``problem.baseline``) and then the whole demotion ladder — every
    prefix of the contribution ranking, from "demote nothing" to
    "demote everything" — as one pool.  The ladder *is* the family of
    configurations the paper's greedy pass can ever produce (one per
    threshold), so its evaluations chart the greedy trade-off curve.
    """

    name = "greedy"

    def run(self, problem: SearchProblem) -> None:
        ranking = problem.ranking
        _, chosen, _ = greedy_select(
            problem.contributions,
            problem.threshold,
            candidates=problem.candidates,
        )
        subsets: List[Subset] = [frozenset(chosen), frozenset()]
        prefix: set = set()
        for var, _ in ranking:
            prefix.add(var)
            subsets.append(frozenset(prefix))
        results = problem.evaluate_many(subsets, self.name)
        if results[0] is not None:
            problem.baseline = results[0]


def _split(items: List[str], n: int) -> List[List[str]]:
    """Split into ``n`` near-equal contiguous chunks (no empties)."""
    n = min(n, len(items))
    size, rem = divmod(len(items), n)
    chunks, start = [], 0
    for i in range(n):
        end = start + size + (1 if i < rem else 0)
        chunks.append(items[start:end])
        start = end
    return chunks


@register_strategy
class DeltaDebugStrategy(SearchStrategy):
    """Precimonious-style delta debugging over the demotion set.

    Searches for a 1-minimal set ``R`` of variables *kept* at f64 such
    that demoting everything else stays within the error threshold —
    i.e. a maximal demotion set.  Each granularity round proposes all
    chunk/complement tests as one pool, so the config-batched evaluator
    scores a whole partition at once.
    """

    name = "delta"

    def run(self, problem: SearchProblem) -> None:
        everything = frozenset(problem.candidates)
        full = problem.evaluate(everything, self.name)
        if full is None or full.error <= problem.threshold:
            return  # demote-all already passes: it is the maximal set
        # invariant: demoting (everything - R) passes the threshold;
        # R = all candidates trivially satisfies it (empty config)
        kept: List[str] = sorted(problem.candidates)
        n = 2
        while len(kept) >= 2 and not problem.exhausted:
            chunks = _split(kept, n)
            tests = [everything - frozenset(ch) for ch in chunks]
            results = problem.evaluate_many(tests, self.name)
            reduced = False
            for ch, res in zip(chunks, results):
                if res is not None and res.error <= problem.threshold:
                    kept, n, reduced = list(ch), 2, True
                    break
            if reduced:
                continue
            if n > 2:
                comps = [
                    everything - (frozenset(kept) - frozenset(ch))
                    for ch in chunks
                ]
                results = problem.evaluate_many(comps, self.name)
                for ch, res in zip(chunks, results):
                    if res is not None and res.error <= problem.threshold:
                        drop = set(ch)
                        kept = [v for v in kept if v not in drop]
                        n, reduced = max(n - 1, 2), True
                        break
                if reduced:
                    continue
            if n >= len(kept):
                break
            n = min(len(kept), 2 * n)
        problem.evaluate(everything - frozenset(kept), self.name)


@register_strategy
class ExhaustiveStrategy(SearchStrategy):
    """Enumerate every subset of the candidates (budget-gated).

    Exact on small kernels; on larger ones it simply stops when the
    budget runs out, having covered the enumeration prefix (subsets
    ordered by bitmask over the sorted candidate list).
    """

    name = "exhaustive"

    #: enumeration chunk handed to the evaluator pool at a time — sized
    #: for the config-batched lane engine (bigger pools amortize better;
    #: chunking never changes which subsets get evaluated or in which
    #: order, since budget admission is per-config within a pool)
    CHUNK = 64

    def run(self, problem: SearchProblem) -> None:
        names = sorted(problem.candidates)
        k = len(names)
        total = 1 << k
        mask = 0
        while mask < total and not problem.exhausted:
            hi = min(mask + self.CHUNK, total)
            subsets = [
                frozenset(
                    names[i] for i in range(k) if (m >> i) & 1
                )
                for m in range(mask, hi)
            ]
            problem.evaluate_many(subsets, self.name)
            mask = hi


def anneal_energy(cand: EvaluatedCandidate, threshold: float) -> float:
    """Scalarized objective shared by the annealing strategies.

    Cycles when the error meets the threshold; cycles plus a
    logarithmic over-threshold penalty otherwise — trajectories are
    pulled toward the cheap side of the feasible region while every
    intermediate evaluation still feeds the Pareto front.
    """
    if cand.error <= threshold:
        return cand.cycles
    if threshold > 0:
        ratio = max(cand.error / threshold, 1.0)
    else:
        ratio = 1e12
    penalty = 1.0 + min(math.log10(ratio), 12.0)
    return cand.cycles + max(cand.cycles_reference, 1.0) * penalty


@register_strategy
class AnnealStrategy(SearchStrategy):
    """Simulated annealing with random restarts (bit-flip moves).

    Scalarizes the two objectives into an energy: cycles when the error
    meets the threshold, cycles plus a logarithmic over-threshold
    penalty otherwise — so trajectories are pulled toward the cheap
    side of the feasible region while every intermediate evaluation
    still feeds the Pareto front.  When the whole space fits in the
    remaining budget the strategy falls back to exhaustive enumeration
    (the small-kernel fallback), which is exact.
    """

    name = "anneal"

    restarts = 3
    steps = 40
    cooling = 0.9

    def _energy(self, cand: EvaluatedCandidate, threshold: float) -> float:
        return anneal_energy(cand, threshold)

    def run(self, problem: SearchProblem) -> None:
        names = sorted(problem.candidates)
        k = len(names)
        if k == 0:
            problem.evaluate(frozenset(), self.name)
            return
        if (1 << k) <= problem.remaining:
            ExhaustiveStrategy().run(problem)
            return
        _, greedy_start, _ = greedy_select(
            problem.contributions,
            problem.threshold,
            candidates=problem.candidates,
        )
        for restart in range(self.restarts):
            if problem.exhausted:
                return
            rng = np.random.default_rng(problem.seed * 7919 + restart)
            if restart == 0:
                current = frozenset(greedy_start)
            else:
                current = frozenset(
                    n for n in names if rng.random() < 0.5
                )
            cur = problem.evaluate(current, self.name)
            if cur is None:
                return
            e_cur = self._energy(cur, problem.threshold)
            temperature = 0.1 * max(cur.cycles_reference, 1.0)
            for _ in range(self.steps):
                if problem.exhausted:
                    return
                flip = names[int(rng.integers(k))]
                proposal = (
                    current - {flip}
                    if flip in current
                    else current | {flip}
                )
                cand = problem.evaluate(proposal, self.name)
                if cand is None:
                    return
                e_new = self._energy(cand, problem.threshold)
                accept = e_new <= e_cur or float(rng.random()) < math.exp(
                    -(e_new - e_cur) / max(temperature, 1e-12)
                )
                if accept:
                    current, e_cur = proposal, e_new
                temperature *= self.cooling


@register_strategy
class PopulationAnnealStrategy(SearchStrategy):
    """Lockstep population annealing — generations, not singletons.

    ``chains`` annealing chains advance in lockstep: every step gathers
    one bit-flip proposal per active chain and submits the whole
    *generation* as one pool, which the config-batched evaluator scores
    in a single lane execution.  Chain trajectories are independent — each chain
    accepts/rejects against its own energy with its own RNG stream — so
    the search is deterministic under a fixed seed.

    Compared to ``anneal`` (one evaluation per step), a generation of G
    flips costs roughly one, so the same budget explores ~G× more
    moves.  It is not in :data:`DEFAULT_STRATEGIES` because pooled
    proposals evaluate in a different order than ``anneal``'s
    sequential trajectory, which the default line-up keeps
    bit-reproducible across releases.
    """

    name = "population"

    chains = 4
    steps = 30
    cooling = 0.9

    def run(self, problem: SearchProblem) -> None:
        names = sorted(problem.candidates)
        k = len(names)
        if k == 0:
            problem.evaluate(frozenset(), self.name)
            return
        if (1 << k) <= problem.remaining:
            ExhaustiveStrategy().run(problem)
            return
        _, greedy_start, _ = greedy_select(
            problem.contributions,
            problem.threshold,
            candidates=problem.candidates,
        )
        rngs = [
            np.random.default_rng(problem.seed * 6007 + chain)
            for chain in range(self.chains)
        ]
        starts: List[Subset] = []
        for chain, rng in enumerate(rngs):
            if chain == 0:
                starts.append(frozenset(greedy_start))
            else:
                starts.append(
                    frozenset(n for n in names if rng.random() < 0.5)
                )
        results = problem.evaluate_many(starts, self.name)
        current: List[Optional[Subset]] = []
        energy: List[float] = []
        temp: List[float] = []
        for subset, cand in zip(starts, results):
            if cand is None:
                current.append(None)  # budget ran out: chain inactive
                energy.append(math.inf)
                temp.append(0.0)
            else:
                current.append(subset)
                energy.append(anneal_energy(cand, problem.threshold))
                temp.append(0.1 * max(cand.cycles_reference, 1.0))
        for _ in range(self.steps):
            if problem.exhausted:
                return
            live = [c for c in range(self.chains) if current[c] is not None]
            if not live:
                return
            proposals: List[Subset] = []
            for c in live:
                flip = names[int(rngs[c].integers(k))]
                cur = current[c]
                assert cur is not None
                proposals.append(
                    cur - {flip} if flip in cur else cur | {flip}
                )
            generation = problem.evaluate_many(proposals, self.name)
            for c, subset, cand in zip(live, proposals, generation):
                if cand is None:
                    current[c] = None  # this chain lost the budget race
                    continue
                e_new = anneal_energy(cand, problem.threshold)
                accept = e_new <= energy[c] or float(
                    rngs[c].random()
                ) < math.exp(
                    -(e_new - energy[c]) / max(temp[c], 1e-12)
                )
                if accept:
                    current[c], energy[c] = subset, e_new
                temp[c] *= self.cooling
