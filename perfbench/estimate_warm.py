"""``estimate-warm``: run generated adjoint code with every estimator built.

Set-up builds the error estimators of the five ``INSTRUMENTED`` app
kernels, plus the scenario kernels the sweeps use, and runs one tiny
sweep per sweep kernel so its vectorised lanes are compiled.  The timed
phase then alternates two kinds of op and builds nothing:

* ``exec:<app>`` — ``ErrorEstimator.execute`` at one large seeded input:
  the scalar generated adjoint, the paper's analysis run;
* ``sweep:<app>`` — ``Session.sweep`` over a freshly seeded sample set,
  with no sweep cache: the vectorised npgen lanes.

Every sweep is checked lane against scalar: a few seeded lanes must equal
``execute`` at the same point bit for bit.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Dict, List, Optional, Tuple

import numpy as np

from harness import Op, Workload, digest_json

#: (app, input size) of the single-input ops; quick mode divides by 20
EXEC_SIZES = (
    ("arclength", 20000),
    ("simpsons", 20000),
    ("kmeans", 2000),
    ("hpccg", 6),
    ("blackscholes", 5000),
)
#: (scenario, lanes) of the sweep ops; quick mode divides by 20
SWEEP_SIZES = (
    ("blackscholes", 50000),
    ("arclength", 300),
    ("simpsons", 300),
)
#: lanes per sweep compared against scalar ``execute``
CHECKED_LANES = 3
HPCCG_ITERS = 30


def _scaled(n: int, quick: bool) -> int:
    return max(2, n // 20) if quick else n


class EstimateWarm(Workload):
    name = "estimate-warm"
    rate = 1.2

    def __init__(self, ctx) -> None:
        super().__init__(ctx)
        self.rng = np.random.default_rng([ctx.seed, 0xE57])

    # -- set-up --------------------------------------------------------------
    def setup(self) -> None:
        from repro import Session
        from repro.apps import ALL_APPS
        from repro.core.api import clear_estimator_memo
        from repro.search.orchestrator import app_scenarios

        clear_estimator_memo()
        self.session = Session()
        self.estimators = {
            name: self.session.estimate(app.INSTRUMENTED)
            for name, app in ALL_APPS.items()
        }
        scenarios = app_scenarios()
        self.sweeps: Dict[str, Tuple[object, Dict, Dict, object]] = {}
        for name, _ in SWEEP_SIZES:
            scen = scenarios[name].search_scenario()
            ranges = {
                p: (float(np.min(v)), float(np.max(v)))
                for p, v in scen.samples.items()
            }
            est = self.session.estimate(scen.kernel)
            self.sweeps[name] = (scen.kernel, ranges, scen.fixed, est)
            # compiles the vectorised lanes; its own generator, so that
            # the timed inputs do not depend on the number of set-ups
            self.session.sweep(
                scen.kernel,
                self._samples(ranges, 4, np.random.default_rng(0)),
                fixed=scen.fixed,
            )

    def _samples(self, ranges, n: int, rng=None) -> Dict[str, np.ndarray]:
        rng = self.rng if rng is None else rng
        return {p: rng.uniform(lo, hi, n) for p, (lo, hi) in ranges.items()}

    # -- inputs --------------------------------------------------------------
    def _exec_args(self, app: str, n: int) -> Tuple[object, ...]:
        from repro.apps import blackscholes, hpccg, kmeans

        seed = int(self.rng.integers(1 << 30))
        if app == "arclength":
            return (n, math.pi / n * self.rng.uniform(0.5, 1.0))
        if app == "simpsons":
            return (n, self.rng.uniform(0.0, 0.5),
                    self.rng.uniform(math.pi / 2, math.pi))
        if app == "kmeans":
            return kmeans.make_workload(n, seed=seed)
        if app == "hpccg":
            args = list(hpccg.make_workload(n, max_iter=HPCCG_ITERS))
            args[6] = args[6] * self.rng.uniform(0.5, 2.0)  # right-hand side
            return tuple(args)
        return blackscholes.make_workload(n, seed=seed)

    # -- rounds --------------------------------------------------------------
    def round(self, index: int) -> List[Op]:
        quick = self.ctx.quick
        execs = [self._exec_op(index, app, _scaled(n, quick))
                 for app, n in EXEC_SIZES]
        sweeps = [self._sweep_op(index, app, _scaled(n, quick))
                  for app, n in SWEEP_SIZES]
        ops: List[Op] = []
        for i, op in enumerate(execs):
            ops.append(op)
            if i < len(sweeps):
                ops.append(sweeps[i])
        return ops

    def _exec_op(self, index: int, app: str, n: int) -> Op:
        est = self.estimators[app]
        args = self._exec_args(app, n)

        def check(rep) -> Optional[str]:
            if not (math.isfinite(rep.value) and math.isfinite(rep.total_error)
                    and rep.total_error >= 0.0):
                return f"non-finite or negative estimate {rep.total_error!r}"
            return None

        return Op(
            key=f"r{index}/exec:{app}", kind=f"exec:{app}",
            run=lambda: est.execute(*args), check=check,
            digest=lambda rep: digest_json(
                [repr(rep.value), repr(rep.total_error)]
            ),
        )

    def _sweep_op(self, index: int, app: str, n: int) -> Op:
        kernel, ranges, fixed, est = self.sweeps[app]
        samples = self._samples(ranges, n)
        lanes = random.Random(f"{self.ctx.seed}:{index}:{app}").sample(
            range(n), min(CHECKED_LANES, n)
        )
        params = kernel.ir.param_names

        def check(rep) -> Optional[str]:
            if rep.n != n or rep.from_cache:
                return f"swept {rep.n} points (cached={rep.from_cache})"
            for lane in lanes:
                point = [samples[p][lane] if p in samples else fixed[p]
                         for p in params]
                scalar = est.execute(*point)
                if (scalar.value != rep.values[lane]
                        or scalar.total_error != rep.total_error[lane]):
                    return (f"lane {lane}: sweep {rep.total_error[lane]!r} "
                            f"!= execute {scalar.total_error!r}")
            return None

        return Op(
            key=f"r{index}/sweep:{app}", kind=f"sweep:{app}",
            run=lambda: self.session.sweep(kernel, samples, fixed=fixed),
            check=check,
            digest=lambda rep: hashlib.sha256(
                np.asarray(rep.values, dtype=np.float64).tobytes()
                + np.asarray(rep.total_error, dtype=np.float64).tobytes()
            ).hexdigest()[:24],
        )
