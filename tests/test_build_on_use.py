"""A search builds only what it runs.

Every proposal pool, a single configuration included, is scored on the
config lanes, and generated Python/numpy code is compiled when a call
first takes the Python or numpy path: kernels that run on the native
lane interpreter, and adjoints that never run in Python, compile
nothing.  Results are bit-identical to the per-candidate path and to
eagerly compiled kernels.
"""

from __future__ import annotations

import builtins
import sys
import threading

import numpy as np
import pytest

from repro.apps import arclength, hpccg, simpsons
from repro.apps import blackscholes as bs
from repro.apps import kmeans as km
from repro.codegen import compile as codegen_compile
from repro.codegen import native
from repro.codegen.compile import clear_config_kernel_cache, config_lane_kernel
from repro.codegen.npgen import UnvectorizableError, generate_batch_source
from repro.core.api import ErrorEstimator, build_adjoint, clear_estimator_memo
from repro.core.estimation import ErrorEstimationModule
from repro.core.models import AdaptModel, TaylorModel
from repro.frontend.registry import Kernel
from repro.frontend.registry import kernel as register_kernel
from repro.ir.types import ArrayType
from repro.search.evaluate import CandidateEvaluator
from repro.session import Session
from repro.sweep import batch as sweep_batch
from repro.tuning.config import PrecisionConfig
from repro.util.errors import DifferentiationError
from tests.conftest import assert_reports_identical, search_fingerprint


@register_kernel
def fu_floordiv(n: int, x: float, y: float) -> float:
    s = 0.0
    for i in range(n):
        s = s + x // y + i
    return s


@register_kernel
def fu_big(n: int, x: float) -> float:
    s = 0.0
    for i in range(3):
        m = n * n + 1
        s = s + x * (m - n * n)  # exact in Python ints, 0 in doubles
    return s


def _bits(a) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


@pytest.fixture
def native_engine():
    """A native-capable machine with cold kernel and estimator caches."""
    if native.library() is None:
        pytest.skip("no C compiler for the native lane engine")
    clear_config_kernel_cache()
    clear_estimator_memo()
    yield
    clear_config_kernel_cache()
    clear_estimator_memo()


# --------------------------------------------------------------------------
# Single-configuration pools run on the lanes
# --------------------------------------------------------------------------

SCENARIOS = {
    "arclength": lambda: arclength.search_scenario(size=20, n_samples=8),
    "simpsons": lambda: simpsons.search_scenario(size=20, n_samples=8),
    "blackscholes": lambda: bs.search_scenario(n_points=2, n_samples=8),
    "kmeans": lambda: km.search_scenario(size=10, n_workloads=2),
    "hpccg": lambda: hpccg.search_scenario(),
}


@pytest.mark.parametrize(
    "name,budget",
    [
        ("arclength", 2),
        ("simpsons", 2),
        ("simpsons", 6),
        ("blackscholes", 2),
        ("kmeans", 2),
        ("kmeans", 6),
        ("hpccg", 2),
    ],
)
def test_single_config_pools_match_the_per_candidate_path(
    name, budget, tmp_path, monkeypatch
):
    sizes = []
    compute_many = CandidateEvaluator._compute_many

    def recorded(self, configs):
        sizes.append(sum(1 for c in configs if c))
        return compute_many(self, configs)

    monkeypatch.setattr(CandidateEvaluator, "_compute_many", recorded)
    scen = SCENARIOS[name]()
    runs = {}
    for batch in (True, False):
        clear_estimator_memo()
        clear_config_kernel_cache()
        sizes.clear()
        before = Session().stats()["work"]["adjoint_builds"]
        runs[batch] = scen.run(
            session=Session(store=tmp_path / str(batch)),
            seed=0,
            budget=budget,
            config_batch=batch,
        )
        builds = Session().stats()["work"]["adjoint_builds"] - before
        if batch:
            # one adjoint per error model: the Taylor estimate lanes
            # (with an input sweep) and the ADAPT contribution pass
            assert builds == (2 if scen.samples is not None else 1)
            assert 1 in sizes  # the budget proposes a one-config pool
    a, b = runs[True], runs[False]
    assert search_fingerprint(a) == search_fingerprint(b)
    assert [c.strategy for c in a.evaluations] == [
        c.strategy for c in b.evaluations
    ]
    assert a.stats["evaluator"]["pool_fallbacks"] == 0
    if name != "hpccg":  # unvectorizable: the per-candidate path
        assert a.stats["evaluator"]["pool_lanes"] == sum(sizes)


# --------------------------------------------------------------------------
# Compile on first use
# --------------------------------------------------------------------------


def test_cold_simpsons_search_compiles_only_what_runs_in_python(
    native_engine, monkeypatch
):
    compiled = []

    def counting_compile(source, filename, *args, **kwargs):
        compiled.append(filename)
        return builtins.compile(source, filename, *args, **kwargs)

    for module in (codegen_compile, sweep_batch):
        monkeypatch.setattr(module, "compile", counting_compile, raising=False)
    res = Session().search(
        simpsons.search_scenario(size=20, n_samples=8), seed=0, budget=10
    )
    work = res.stats["work"]
    assert work["native_lane_runs"] > 0 and work["native_fallbacks"] == 0
    # the lane kernels, the sweep batch kernel and both adjoints ran
    # natively; only the reference counting runner runs in Python
    assert compiled == ["<repro:simpson>"]


def test_native_config_lane_kernel_compiles_at_a_replay(native_engine):
    pool_cfgs = [PrecisionConfig(), PrecisionConfig.demote(["s"])]
    xs = np.array([1.0, -2.5, 3.0])
    eager = config_lane_kernel(
        fu_floordiv.ir, batched={"x", "y"}, use_cache=False
    )
    eager.raw  # noqa: B018 - compiled before any call
    lazy = config_lane_kernel(
        fu_floordiv.ir, batched={"x", "y"}, use_cache=False
    )
    assert lazy.native is not None
    pool = lazy.lower(pool_cfgs)
    runs, fallbacks = native.NATIVE_RUNS.value, native.NATIVE_FALLBACKS.value
    lazy(pool, 4, xs, np.array([0.5, 2.0, 3.0]))
    assert lazy._raw is None  # a native run compiles nothing
    zero = np.array([0.5, 0.0, 3.0])  # `//` by zero replays on numpy
    got = lazy(pool, 4, xs, zero)
    assert lazy._raw is not None
    assert native.NATIVE_RUNS.value == runs + 1
    assert native.NATIVE_FALLBACKS.value == fallbacks + 1
    want = eager(eager.lower(pool_cfgs), 4, xs, zero)
    assert _bits(np.broadcast_to(got, (2, 3))) == _bits(
        np.broadcast_to(want, (2, 3))
    )


def test_native_batch_variant_compiles_at_a_replay(native_engine):
    xs = np.array([1.0, -2.5, 3.0])
    zero = np.array([0.5, 0.0, 3.0])
    eager_est = ErrorEstimator(fu_floordiv)
    eager_est.execute_batch(4, xs, np.array([0.5, 2.0, 3.0]))
    eager = eager_est._batched._variants[frozenset({"x", "y"})]
    eager.raw  # noqa: B018 - compiled before the replaying call

    est = ErrorEstimator(fu_floordiv)
    est.execute_batch(4, xs, np.array([0.5, 2.0, 3.0]))
    variant = est._batched._variants[frozenset({"x", "y"})]
    assert variant.lowered is not None
    assert variant._source is None and variant._raw is None
    fallbacks = native.NATIVE_FALLBACKS.value
    got = est.execute_batch(4, xs, zero)
    assert native.NATIVE_FALLBACKS.value == fallbacks + 1
    assert variant._raw is not None
    assert got.backend == "vectorized"
    assert_reports_identical(got, eager_est.execute_batch(4, xs, zero))


def test_scalar_adjoint_compiles_on_its_first_python_call(native_engine):
    est = ErrorEstimator(fu_big)
    runner = est._runner
    runner.lower()  # the native engine takes the next call
    assert runner._compiled is None
    est.execute(3, 1.5)
    assert runner._compiled is None
    big = est.execute(2**30, 1.5)  # past 2**53: replays in Python
    assert runner._compiled is not None
    assert big.value == 4.5 == ErrorEstimator(fu_big).execute(2**30, 1.5).value
    # with Python as the next engine, lower() is where the compile goes
    straight = ErrorEstimator(bs.bs_price)
    straight._runner.lower()
    assert straight._runner._compiled is not None


def test_racing_first_python_calls_agree():
    # more threads than cores, switching often: every racing first call
    # compiles (or picks up) an equal function and returns the same
    est = ErrorEstimator(bs.bs_price, model=AdaptModel())
    args = bs.point_args(bs.make_workload(4, seed=3), 1)
    n = 4
    barrier = threading.Barrier(n)
    out = [None] * n

    def call(i):
        barrier.wait(timeout=60)
        out[i] = est.execute(*args)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=call, args=(i,)) for i in range(n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    want = ErrorEstimator(bs.bs_price, model=AdaptModel()).execute(*args)
    for rep in out:
        assert _bits(rep.value) == _bits(want.value)
        assert _bits(rep.total_error) == _bits(want.total_error)
        assert rep.per_variable.keys() == want.per_variable.keys()
        for v in want.per_variable:
            assert _bits(rep.per_variable[v]) == _bits(want.per_variable[v])
        assert rep.gradients.keys() == want.gradients.keys()
        for g in want.gradients:
            assert _bits(rep.gradients[g]) == _bits(want.gradients[g])


def _suite_kernels():
    from tests import test_config_batch, test_native

    modules = (
        arclength, bs, hpccg, km, simpsons, test_config_batch, test_native,
    )
    seen = {}
    for mod in modules:
        for value in vars(mod).values():
            if isinstance(value, Kernel):
                seen.setdefault(value.ir.name, value)
    return [seen[name] for name in sorted(seen)]


def test_lower_batch_rejects_exactly_what_the_renderer_rejects(
    native_engine,
):
    """A lowered batch variant skips the numpy render, so the lowering
    must reject (``UnvectorizableError``) exactly the kernels the
    renderer rejects."""

    def rejects(make):
        try:
            make()
        except UnvectorizableError:
            return True
        return False

    fns = []
    for k in _suite_kernels():
        fns.append(k.ir)
        for model in (TaylorModel(), AdaptModel()):
            try:
                fns.append(
                    build_adjoint(k.ir, ErrorEstimationModule(model=model))
                )
            except DifferentiationError:
                pass  # kernels reverse mode does not take
    checked = {True: 0, False: 0}
    for fn in fns:
        scalars = [
            p.name for p in fn.params if not isinstance(p.type, ArrayType)
        ]
        for batched in [set(), set(scalars)] + [{p} for p in scalars]:
            rendered = rejects(lambda: generate_batch_source(fn, batched))
            lowered = rejects(lambda: native.lower_batch(fn, batched))
            assert rendered == lowered, (fn.name, sorted(batched))
            checked[rendered] += 1
    assert checked[True] > 0 and checked[False] > 0
