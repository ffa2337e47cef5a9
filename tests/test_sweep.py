"""Tests for the batched input-sweep engine (repro.sweep) and
distribution-robust tuning (repro.tuning.robust)."""

from __future__ import annotations

import math
import os

import numpy as np
import pytest

from repro.apps import blackscholes as bs
from repro.apps import simpsons
from repro.core.api import (
    _memo_stats,
    cached_error_estimator,
    clear_estimator_memo,
)
from repro.core.models import AdaptModel, ExternalModel, TaylorModel
from repro.codegen.npgen import UnvectorizableError, generate_batch_source
from repro.frontend.registry import kernel
from repro.ir.fingerprint import ir_fingerprint
from repro.session import Session
from repro.sweep import (
    BatchReport,
    SweepCache,
    explicit_sweep,
    grid_sweep,
    random_sweep,
    summarize,
)
from repro.sweep.aggregate import resolve_aggregator
from repro.sweep.cache import digest_inputs, make_key
from repro.sweep.engine import run_sweep
from repro.tuning import apply_precision
from repro.tuning.greedy import TuningResult, run_greedy_tune
from repro.tuning.robust import run_robust_tune
from repro.tuning.config import PrecisionConfig
from repro.util.errors import ExecutionError
from tests.conftest import assert_reports_identical


def _bs_sweep(n, seed=11):
    rng = np.random.default_rng(seed)
    spt = rng.uniform(25.0, 150.0, n)
    return {
        "sptprice": spt,
        "strike": spt * rng.uniform(0.8, 1.2, n),
        "rate": rng.uniform(0.02, 0.1, n),
        "volatility": rng.uniform(0.05, 0.65, n),
        "otime": rng.uniform(0.05, 1.0, n),
        "otype": rng.integers(0, 2, n).astype(np.int64),
    }


def _bs_point(sw, i):
    return (
        float(sw["sptprice"][i]),
        float(sw["strike"][i]),
        float(sw["rate"][i]),
        float(sw["volatility"][i]),
        float(sw["otime"][i]),
        int(sw["otype"][i]),
    )


def _assert_point_matches(batch, scalar_report, i, rtol=1e-12):
    p = batch.point(i)
    assert p.value == pytest.approx(scalar_report.value, rel=rtol, abs=0)
    assert p.total_error == pytest.approx(
        scalar_report.total_error, rel=rtol, abs=0
    )
    for v, e in scalar_report.per_variable.items():
        assert p.per_variable.get(v, 0.0) == pytest.approx(
            e, rel=rtol, abs=0
        ), v


# -- batched execution ---------------------------------------------------------


class TestBatchedExecution:
    def test_blackscholes_vectorized_matches_scalar(self):
        sw = _bs_sweep(60)
        est = Session().estimate(bs.bs_price, model=AdaptModel())
        batch = est.execute_batch(*(sw[p] for p in (
            "sptprice", "strike", "rate", "volatility", "otime", "otype"
        )))
        assert batch.backend == "vectorized"
        assert batch.n == 60
        for i in range(60):
            _assert_point_matches(batch, est.execute(*_bs_point(sw, i)), i)

    def test_simpsons_loop_and_branches_vectorized(self):
        # simpson has a counted for-loop and an if/else on the iteration
        # parity — both must survive vectorization unchanged
        hi = np.linspace(math.pi / 2, math.pi, 25)
        est = Session().estimate(simpsons.simpson, model=AdaptModel())
        batch = est.execute_batch(40, 0.0, hi)
        assert batch.backend == "vectorized"
        for i in range(25):
            _assert_point_matches(
                batch, est.execute(40, 0.0, float(hi[i])), i
            )

    def test_gradients_match_scalar(self):
        sw = _bs_sweep(20)
        est = Session().estimate(bs.bs_price, model=AdaptModel())
        batch = est.execute_batch(*(sw[p] for p in (
            "sptprice", "strike", "rate", "volatility", "otime", "otype"
        )))
        for i in range(20):
            rep = est.execute(*_bs_point(sw, i))
            for g, v in rep.gradients.items():
                assert float(batch.gradients[g][i]) == pytest.approx(
                    v, rel=1e-12, abs=0
                )

    def test_taylor_model_batch(self):
        hi = np.linspace(1.0, math.pi, 15)
        est = Session().estimate(simpsons.simpson, model=TaylorModel())
        batch = est.execute_batch(20, 0.0, hi)
        assert batch.backend == "vectorized"
        for i in range(15):
            _assert_point_matches(
                batch, est.execute(20, 0.0, float(hi[i])), i
            )

    def test_array_param_kernel_falls_back_to_loop(self):
        workload = bs.make_workload(8, seed=3)
        est = Session().estimate(bs.bs_total, model=AdaptModel())
        # nothing batched: uniform arrays only -> loop backend, n=1
        batch = est.execute_batch(*workload)
        assert batch.backend == "loop"
        assert batch.n == 1
        rep = est.execute(*bs.make_workload(8, seed=3))
        _assert_point_matches(batch, rep, 0)

    def test_data_dependent_while_falls_back(self):
        @kernel
        def halving_sweeptest(x: float) -> float:
            y = x
            while y > 1.0:
                y = y * 0.5
            return y

        xs = np.array([3.0, 9.0, 1.5, 0.25])
        est = Session().estimate(halving_sweeptest, model=AdaptModel())
        batch = est.execute_batch(xs)
        assert batch.backend == "loop"
        for i, x in enumerate(xs):
            _assert_point_matches(batch, est.execute(float(x)), i)

    def test_external_model_vectorizes_via_elementwise_binding(self):
        calls = []

        def user_err(dx, x, name):
            calls.append(name)
            return abs(dx) * 1e-7

        est = Session().estimate(bs.cndf, model=ExternalModel(user_err))
        xs = np.linspace(-2.0, 2.0, 9)
        batch = est.execute_batch(xs)
        assert batch.backend == "vectorized"
        for i, x in enumerate(xs):
            _assert_point_matches(batch, est.execute(float(x)), i)

    def test_batch_size_mismatch_raises(self):
        est = Session().estimate(simpsons.simpson, model=AdaptModel())
        with pytest.raises(ExecutionError):
            est.execute_batch(10, np.zeros(4), np.ones(5))

    def test_cse_temp_declared_inside_branch(self):
        # CSE (opt_level=2) declares temps *inside* data-dependent
        # branches; the batch backend must not blend a declaration with
        # its (nonexistent) prior value
        @kernel
        def branchy_cse_sweeptest(x: float, y: float) -> float:
            z = 0.0
            if x > y:
                z = sin(x) * sin(x) + sin(x)
            return z

        xs = np.array([1.0, 2.5, 0.3])
        est = Session().estimate(branchy_cse_sweeptest, model=AdaptModel())
        batch = est.execute_batch(xs, 1.0)
        assert batch.backend == "vectorized"
        for i, x in enumerate(xs):
            _assert_point_matches(batch, est.execute(float(x), 1.0), i)

    def test_nan_saturation_matches_scalar(self):
        # inf - inf = NaN flows into the AdaptModel saturation clamp;
        # the scalar path's min()/max() propagate the NaN and the batch
        # backend must reproduce that (np.fmin would swallow it)
        @kernel
        def overflowing_sweeptest(x: float) -> float:
            z = x * x
            w = z - z
            return w

        xs = np.array([1.0, 1e200])
        est = Session().estimate(overflowing_sweeptest, model=AdaptModel())
        batch = est.execute_batch(xs)
        assert batch.backend == "vectorized"
        for i, x in enumerate(xs):
            rep = est.execute(float(x))
            p = batch.point(i)
            for v, e in rep.per_variable.items():
                assert np.array_equal(
                    e, p.per_variable.get(v, 0.0), equal_nan=True
                ), v
            assert np.array_equal(
                rep.total_error, p.total_error, equal_nan=True
            )

    def test_empty_sweep_rejected(self):
        est = Session().estimate(simpsons.simpson, model=AdaptModel())
        with pytest.raises(ExecutionError):
            est.execute_batch(10, 0.0, np.array([]))

    def test_tracked_estimator_uses_loop_backend(self):
        est = Session().estimate(
            simpsons.simpson, model=AdaptModel(), track=("s",)
        )
        batch = est.execute_batch(10, 0.0, np.array([2.0, 3.0]))
        assert batch.backend == "loop"


class TestNpgen:
    def test_array_params_unvectorizable(self):
        est = Session().estimate(bs.bs_total, model=AdaptModel())
        with pytest.raises(UnvectorizableError):
            generate_batch_source(est.adjoint_ir, {"n"})

    def test_unknown_batched_name_rejected(self):
        est = Session().estimate(bs.bs_price, model=AdaptModel())
        with pytest.raises(UnvectorizableError):
            generate_batch_source(est.adjoint_ir, {"nonexistent"})

    def test_generated_source_has_masked_blends(self):
        est = Session().estimate(bs.bs_price, model=AdaptModel())
        src = generate_batch_source(est.adjoint_ir, {"sptprice"})
        assert "_where(" in src  # data-dependent branches if-converted


# -- samplers ------------------------------------------------------------------


class TestSamplers:
    def test_grid_product_and_order(self):
        sw = grid_sweep({"a": (0.0, 1.0, 3), "b": (10.0, 20.0, 2)})
        assert len(sw["a"]) == len(sw["b"]) == 6
        assert sorted(set(sw["a"])) == [0.0, 0.5, 1.0]
        assert sorted(set(sw["b"])) == [10.0, 20.0]

    def test_grid_log_axis(self):
        sw = grid_sweep({"a": (1e-3, 1e3, 7, "log")})
        assert sw["a"][0] == pytest.approx(1e-3)
        assert sw["a"][-1] == pytest.approx(1e3)
        ratios = sw["a"][1:] / sw["a"][:-1]
        assert np.allclose(ratios, ratios[0])

    def test_grid_log_axis_needs_positive_bounds(self):
        with pytest.raises(ValueError):
            grid_sweep({"a": (-1.0, 1.0, 3, "log")})

    def test_grid_explicit_axis(self):
        sw = grid_sweep({"a": [1.0, 2.0], "b": (0.0, 1.0, 2)})
        assert len(sw["a"]) == 4

    def test_random_seed_reproducible(self):
        a = random_sweep({"x": (0.0, 1.0)}, n=32, seed=5)
        b = random_sweep({"x": (0.0, 1.0)}, n=32, seed=5)
        c = random_sweep({"x": (0.0, 1.0)}, n=32, seed=6)
        assert np.array_equal(a["x"], b["x"])
        assert not np.array_equal(a["x"], c["x"])

    def test_random_loguniform(self):
        sw = random_sweep(
            {"x": (1e-6, 1.0)}, n=500, seed=1, log=["x"]
        )
        assert np.all(sw["x"] >= 1e-6) and np.all(sw["x"] <= 1.0)
        # log-uniform: ~half the mass below the geometric midpoint
        mid = math.sqrt(1e-6 * 1.0)
        frac = np.mean(sw["x"] < mid)
        assert 0.35 < frac < 0.65

    def test_random_log_bounds_validated(self):
        with pytest.raises(ValueError):
            random_sweep({"x": (0.0, 1.0)}, n=4, seed=0, log=["x"])
        with pytest.raises(ValueError):
            random_sweep({"x": (0.0, 1.0)}, n=4, seed=0, log=["y"])

    def test_explicit_validates_lengths(self):
        sw = explicit_sweep({"a": [1.0, 2.0], "b": (3.0, 4.0)})
        assert np.array_equal(sw["b"], [3.0, 4.0])
        with pytest.raises(ValueError):
            explicit_sweep({"a": [1.0, 2.0], "b": [3.0]})


# -- aggregation ---------------------------------------------------------------


class TestAggregate:
    def test_resolvers(self):
        data = np.arange(101, dtype=np.float64)
        for spec, expect in [
            ("max", 100.0),
            ("mean", 50.0),
            ("p95", 95.0),
            (("percentile", 50), 50.0),
        ]:
            name, agg = resolve_aggregator(spec)
            assert agg(data) == pytest.approx(expect)
        name, agg = resolve_aggregator(lambda a: float(a[0]))
        assert agg(data) == 0.0
        with pytest.raises(ValueError):
            resolve_aggregator("median")
        with pytest.raises(ValueError):
            resolve_aggregator("p200")

    def test_summarize(self):
        hi = np.linspace(math.pi / 2, math.pi, 40)
        rep = run_sweep(
            simpsons.simpson,
            samples={"hi": hi},
            fixed={"n": 30, "lo": 0.0},
            model=AdaptModel(),
        )
        s = summarize(rep, "max")
        assert s.n == 40
        assert s.total_error == pytest.approx(float(np.max(rep.total_error)))
        assert s.worst_index == rep.worst()
        for v, a in rep.per_variable.items():
            assert s.per_variable[v] == pytest.approx(float(np.max(a)))
        m = summarize(rep, "mean")
        assert m.total_error <= s.total_error


# -- result cache --------------------------------------------------------------


class TestSweepCache:
    def _args(self, n=8):
        return [np.linspace(1.0, 2.0, n), 0.5]

    def test_key_changes_with_ir_model_and_inputs(self):
        est = Session().estimate(simpsons.simpson, model=AdaptModel())
        primal = est.primal_ir
        args = [30, 0.0, np.linspace(1.0, 3.0, 8)]
        base = make_key(primal, AdaptModel(), args)
        assert base == make_key(primal, AdaptModel(), args)
        # model change
        assert base != make_key(primal, TaylorModel(), args)
        # input change
        args2 = [30, 0.0, np.linspace(1.0, 3.0, 9)]
        assert base != make_key(primal, AdaptModel(), args2)
        # IR change (a demoted clone of the same kernel)
        mixed = apply_precision(
            simpsons.simpson, PrecisionConfig.demote(["s"])
        )
        assert ir_fingerprint(mixed) != ir_fingerprint(
            simpsons.simpson.ir
        )
        assert base != make_key(mixed, AdaptModel(), args)
        # option change
        assert base != make_key(primal, AdaptModel(), args, opt_level=0)

    def test_uncacheable_model_gets_no_key(self):
        est = Session().estimate(simpsons.simpson, model=AdaptModel())
        key = make_key(
            est.primal_ir,
            ExternalModel(lambda dx, x, name: 0.0),
            [30, 0.0, 1.0],
        )
        assert key is None

    def test_engine_memory_hits(self):
        cache = SweepCache()
        hi = np.linspace(1.0, 3.0, 12)
        kwargs = dict(
            samples={"hi": hi},
            fixed={"n": 20, "lo": 0.0},
            model=AdaptModel(),
            cache=cache,
        )
        first = run_sweep(simpsons.simpson, **kwargs)
        assert not first.from_cache
        assert cache.misses == 1 and cache.hits == 0
        second = run_sweep(simpsons.simpson, **kwargs)
        assert second.from_cache
        assert cache.hits == 1
        assert np.array_equal(first.total_error, second.total_error)
        # different inputs miss
        run_sweep(
            simpsons.simpson,
            samples={"hi": hi + 0.1},
            fixed={"n": 20, "lo": 0.0},
            model=AdaptModel(),
            cache=cache,
        )
        assert cache.misses == 2
        # different model misses
        run_sweep(
            simpsons.simpson,
            samples={"hi": hi},
            fixed={"n": 20, "lo": 0.0},
            model=TaylorModel(),
            cache=cache,
        )
        assert cache.misses == 3

    def test_cache_hit_builds_no_estimator(self):
        # the key comes from the primal IR, so a hit needs no adjoint:
        # with the estimator memo cleared, a repeated sweep must not
        # build (miss) one

        cache = SweepCache()
        kwargs = dict(
            samples={"hi": np.linspace(1.0, 3.0, 12)},
            fixed={"n": 20, "lo": 0.0},
            model=AdaptModel(),
            cache=cache,
        )
        first = run_sweep(simpsons.simpson, **kwargs)
        clear_estimator_memo()
        second = run_sweep(simpsons.simpson, **kwargs)
        assert second.from_cache
        assert _memo_stats()["misses"] == 0
        assert_reports_identical(first, second)

    def test_disk_cache_survives_process_boundary(self, tmp_path):
        hi = np.linspace(1.0, 3.0, 10)
        kwargs = dict(
            samples={"hi": hi},
            fixed={"n": 20, "lo": 0.0},
            model=AdaptModel(),
        )
        c1 = SweepCache(directory=tmp_path)
        first = run_sweep(simpsons.simpson, cache=c1, **kwargs)
        assert not first.from_cache
        # a fresh cache over the same directory simulates a new process
        c2 = SweepCache(directory=tmp_path)
        second = run_sweep(simpsons.simpson, cache=c2, **kwargs)
        assert second.from_cache
        assert c2.hits == 1 and c2.misses == 0
        assert np.array_equal(first.total_error, second.total_error)
        assert first.per_variable.keys() == second.per_variable.keys()

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        hi = np.linspace(1.0, 3.0, 6)
        kwargs = dict(
            samples={"hi": hi},
            fixed={"n": 10, "lo": 0.0},
            model=AdaptModel(),
        )
        c1 = SweepCache(directory=tmp_path)
        run_sweep(simpsons.simpson, cache=c1, **kwargs)
        for p in tmp_path.glob("*.pkl"):
            p.write_bytes(b"not a pickle")
        c2 = SweepCache(directory=tmp_path)
        rep = run_sweep(simpsons.simpson, cache=c2, **kwargs)
        assert not rep.from_cache
        assert c2.misses == 1
        # the corrupt entry was evicted, then overwritten by the fresh
        # result — a third cache over the same directory hits again
        assert c2.corrupt_evictions == 1
        c3 = SweepCache(directory=tmp_path)
        assert run_sweep(simpsons.simpson, cache=c3, **kwargs).from_cache

    @pytest.mark.parametrize("via_env", [False, True])
    def test_truncated_disk_entry_is_a_miss_and_evicted(
        self, tmp_path, monkeypatch, via_env
    ):
        """Crash-safety: a pickle torn by a mid-write crash (outside
        the cache's own atomic protocol, e.g. a copied partial file)
        counts as a miss and is evicted — under both the in-process
        ``directory=`` configuration and ``REPRO_SWEEP_CACHE``."""
        if via_env:
            monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path))
            make = lambda: SweepCache()  # noqa: E731
        else:
            monkeypatch.delenv("REPRO_SWEEP_CACHE", raising=False)
            make = lambda: SweepCache(directory=tmp_path)  # noqa: E731
        hi = np.linspace(1.0, 3.0, 6)
        kwargs = dict(
            samples={"hi": hi},
            fixed={"n": 10, "lo": 0.0},
            model=AdaptModel(),
        )
        c1 = make()
        assert c1.directory == tmp_path
        run_sweep(simpsons.simpson, cache=c1, **kwargs)
        (entry,) = tmp_path.glob("*.pkl")
        data = entry.read_bytes()
        entry.write_bytes(data[: len(data) // 2])  # truncate mid-write
        c2 = make()
        rep = run_sweep(simpsons.simpson, cache=c2, **kwargs)
        assert not rep.from_cache
        assert c2.misses == 1 and c2.hits == 0
        assert c2.corrupt_evictions == 1
        assert c2.cache_stats()["corrupt_evictions"] == 1
        # evict-then-recompute leaves a valid entry behind
        c3 = make()
        rep3 = run_sweep(simpsons.simpson, cache=c3, **kwargs)
        assert rep3.from_cache and c3.corrupt_evictions == 0

    def test_truncated_entry_eviction_when_refetch_skipped(self, tmp_path):
        """The corrupt file is unlinked by the failed get() itself —
        even if nothing is ever re-put, it cannot shadow the key."""
        hi = np.linspace(1.0, 3.0, 6)
        kwargs = dict(
            samples={"hi": hi},
            fixed={"n": 10, "lo": 0.0},
            model=AdaptModel(),
        )
        c1 = SweepCache(directory=tmp_path)
        run_sweep(simpsons.simpson, cache=c1, **kwargs)
        (entry,) = tmp_path.glob("*.pkl")
        entry.write_bytes(entry.read_bytes()[:10])
        c2 = SweepCache(directory=tmp_path)
        assert c2.get(entry.stem) is None  # filename is the key
        assert not entry.exists()
        assert c2.corrupt_evictions == 1

    def test_ragged_sequence_raises_documented_typeerror(self):
        # regression: used to leak raw numpy errors (or, pre-1.24, an
        # object-dtype array into ``tobytes``)
        with pytest.raises(TypeError, match="element 1"):
            digest_inputs([[[1.0, 2.0], [3.0]]])

    def test_none_element_raises_with_offending_index(self):
        # regression: None used to be swallowed into an object array
        with pytest.raises(TypeError, match="element 2"):
            digest_inputs([[1.0, 2.0, None, 4.0]])

    def test_non_numeric_elements_raise(self):
        with pytest.raises(TypeError, match="element 0"):
            digest_inputs([["a", "b"]])
        with pytest.raises(TypeError, match="cannot digest argument"):
            digest_inputs([{"x": 1}])

    def test_uniform_sequences_still_digest(self):
        d1 = digest_inputs([[1.0, 2.0, 3.0]])
        assert d1 == digest_inputs([(1.0, 2.0, 3.0)])
        assert d1 != digest_inputs([[1.0, 2.0, 4.0]])
        # uniform nesting and bools are fine
        digest_inputs([[[1.0, 2.0], [3.0, 4.0]]])
        digest_inputs([[True, False]])

    def test_numpy_scalar_fixed_values_digestible(self):
        # sizes/bounds routinely come out of numpy; the cache key must
        # accept them (and give the same key as the Python equivalents)
        cache = SweepCache()
        hi = np.linspace(1.0, 2.0, 6)
        rep = run_sweep(
            simpsons.simpson,
            samples={"hi": hi},
            fixed={"n": np.int64(10), "lo": np.float64(0.0)},
            model=AdaptModel(),
            cache=cache,
        )
        assert rep.n == 6
        rep2 = run_sweep(
            simpsons.simpson,
            samples={"hi": hi},
            fixed={"n": 10, "lo": 0.0},
            model=AdaptModel(),
            cache=cache,
        )
        assert rep2.from_cache  # same key as the numpy-scalar call

    def test_cached_reports_are_isolated_copies(self):
        cache = SweepCache()
        hi = np.linspace(1.0, 3.0, 8)
        kwargs = dict(
            samples={"hi": hi},
            fixed={"n": 15, "lo": 0.0},
            model=AdaptModel(),
            cache=cache,
        )
        r1 = run_sweep(simpsons.simpson, **kwargs)
        r2 = run_sweep(simpsons.simpson, **kwargs)
        assert r2.from_cache and not r1.from_cache  # no retroactive flag
        assert r2.total_error is not r1.total_error
        # mutating a returned report must not corrupt the cache entry
        r2.total_error[:] = -1.0
        r3 = run_sweep(simpsons.simpson, **kwargs)
        assert np.array_equal(r3.total_error, r1.total_error)

    def test_cache_accepts_directory_path(self, tmp_path):
        hi = np.linspace(1.0, 2.0, 5)
        rep = run_sweep(
            simpsons.simpson,
            samples={"hi": hi},
            fixed={"n": 10, "lo": 0.0},
            model=AdaptModel(),
            cache=str(tmp_path / "sweeps"),
        )
        assert rep.n == 5
        assert list((tmp_path / "sweeps").glob("*.pkl"))


class TestCacheEviction:
    """Disk-tier size caps, LRU eviction order, and cache_stats()."""

    def _report(self, n=4):
        return BatchReport(
            n=n,
            values=np.zeros(n),
            total_error=np.zeros(n),
        )

    def test_entry_cap_evicts_oldest(self, tmp_path):
        cache = SweepCache(directory=tmp_path, max_disk_entries=2)
        for i, key in enumerate(["k0", "k1", "k2", "k3"]):
            cache.put(key, self._report())
            os.utime(tmp_path / f"{key}.pkl", (i, i))  # force ordering
            cache._evict_disk()
        names = {p.stem for p in tmp_path.glob("*.pkl")}
        assert names == {"k2", "k3"}
        assert cache.evictions == 2

    def test_byte_cap_evicts_until_under(self, tmp_path):
        cache = SweepCache(directory=tmp_path)
        cache.put("k0", self._report())
        entry_size = (tmp_path / "k0.pkl").stat().st_size
        cache.max_disk_bytes = 2 * entry_size
        for i, key in enumerate(["k1", "k2", "k3"]):
            cache.put(key, self._report())
            os.utime(tmp_path / f"{key}.pkl", (i + 1, i + 1))
            cache._evict_disk()
        files = list(tmp_path.glob("*.pkl"))
        assert len(files) == 2
        assert sum(p.stat().st_size for p in files) <= 2 * entry_size
        assert cache.evictions == 2

    def test_disk_hit_refreshes_recency(self, tmp_path):
        cache = SweepCache(directory=tmp_path, max_disk_entries=2)
        cache.put("old", self._report())
        os.utime(tmp_path / "old.pkl", (1, 1))
        cache.put("mid", self._report())
        os.utime(tmp_path / "mid.pkl", (2, 2))
        # a *disk* hit on `old` bumps its mtime past `mid`
        fresh = SweepCache(directory=tmp_path, max_disk_entries=2)
        assert fresh.get("old") is not None
        fresh.put("new", self._report())
        names = {p.stem for p in tmp_path.glob("*.pkl")}
        assert names == {"old", "new"}
        assert fresh.evictions == 1

    def test_cache_stats_counters(self, tmp_path):
        cache = SweepCache(
            directory=tmp_path, max_disk_entries=1, max_disk_bytes=None
        )
        cache.put("a", self._report())
        cache.get("a")
        cache.get("missing")
        cache.put("b", self._report())
        os.utime(tmp_path / "b.pkl", None)
        cache._evict_disk()
        stats = cache.cache_stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["evictions"] >= 1
        assert stats["disk_entries"] == 1
        assert stats["disk_bytes"] > 0
        assert stats["max_disk_entries"] == 1
        assert "evictions" in cache.stats

    def test_env_var_byte_cap(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_CACHE_BYTES", "12345")
        cache = SweepCache(directory=tmp_path)
        assert cache.max_disk_bytes == 12345

    def test_unbounded_by_default(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_CACHE_BYTES", raising=False)
        cache = SweepCache(directory=tmp_path)
        assert cache.max_disk_bytes is None
        for i in range(6):
            cache.put(f"k{i}", self._report())
        assert len(list(tmp_path.glob("*.pkl"))) == 6
        assert cache.evictions == 0


# -- estimator reuse -----------------------------------------------------------


class TestEstimatorReuse:
    def test_memo_shares_compiled_estimators(self):
        clear_estimator_memo()
        a = cached_error_estimator(simpsons.simpson, model=AdaptModel())
        b = cached_error_estimator(simpsons.simpson, model=AdaptModel())
        assert a is b
        c = cached_error_estimator(simpsons.simpson, model=TaylorModel())
        assert c is not a

    def test_uncacheable_model_not_memoized(self):
        m = ExternalModel(lambda dx, x, name: 0.0)
        a = cached_error_estimator(simpsons.simpson, model=m)
        b = cached_error_estimator(simpsons.simpson, model=m)
        assert a is not b


# -- robust tuning -------------------------------------------------------------


class TestRobustTune:
    def test_single_point_sweep_matches_greedy(self):
        args = simpsons.make_workload(50)
        g = run_greedy_tune(simpsons.INSTRUMENTED, args, 1e-6)
        r = run_robust_tune(
            simpsons.INSTRUMENTED,
            samples={"hi": np.array([args[2]])},
            fixed={"n": args[0], "lo": args[1]},
            threshold=1e-6,
        )
        assert r.demoted == g.demoted
        assert r.estimated_error == pytest.approx(
            g.estimated_error, rel=1e-12
        )

    def test_single_point_sweep_matches_greedy_blackscholes(self):
        sw = _bs_sweep(1, seed=21)
        g = run_greedy_tune(bs.bs_price, _bs_point(sw, 0), 1e-8)
        r = run_robust_tune(
            bs.bs_price,
            samples={k: v[:1] for k, v in sw.items()},
            threshold=1e-8,
        )
        assert r.demoted == g.demoted

    @pytest.mark.parametrize("threshold", [1e-6, 1e-8])
    def test_threshold_holds_over_sweep_simpsons(self, threshold):
        samples = random_sweep(
            {"lo": (0.0, 0.5), "hi": (math.pi / 2, math.pi)},
            n=120,
            seed=9,
        )
        r = run_robust_tune(
            simpsons.INSTRUMENTED,
            samples=samples,
            fixed={"n": 60},
            threshold=threshold,
        )
        assert r.sweep is not None and r.sweep.n == 120
        assert r.estimated_error <= threshold
        if r.demoted:
            per_sample = np.sum(
                [r.sweep.per_variable[v] for v in r.demoted], axis=0
            )
            assert float(np.max(per_sample)) <= threshold

    def test_threshold_holds_over_sweep_blackscholes(self):
        threshold = 1e-9
        samples = _bs_sweep(150, seed=17)
        r = run_robust_tune(bs.bs_price, samples=samples, threshold=threshold)
        assert r.sweep is not None and r.sweep.n == 150
        assert r.demoted, "expected at least one demotable variable"
        assert r.estimated_error <= threshold
        per_sample = np.sum(
            [r.sweep.per_variable[v] for v in r.demoted], axis=0
        )
        assert float(np.max(per_sample)) <= threshold

    def test_robust_is_no_looser_than_any_point(self):
        # every variable the robust (max-aggregated) run demotes must
        # also be demotable at each individual point's contribution
        samples = {"hi": np.linspace(math.pi / 2, math.pi, 40)}
        r = run_robust_tune(
            simpsons.INSTRUMENTED,
            samples=samples,
            fixed={"n": 40, "lo": 0.0},
            threshold=1e-7,
        )
        assert r.sweep is not None
        for i in range(r.sweep.n):
            point_total = sum(
                float(r.sweep.per_variable[v][i]) for v in r.demoted
            )
            assert point_total <= 1e-7

    def test_mean_aggregation(self):
        samples = {"hi": np.linspace(math.pi / 2, math.pi, 30)}
        rmax = run_robust_tune(
            simpsons.INSTRUMENTED,
            samples=samples,
            fixed={"n": 30, "lo": 0.0},
            threshold=1e-7,
            aggregate="max",
        )
        rmean = run_robust_tune(
            simpsons.INSTRUMENTED,
            samples=samples,
            fixed={"n": 30, "lo": 0.0},
            threshold=1e-7,
            aggregate="mean",
        )
        # mean-aggregated contributions are <= max-aggregated, so the
        # mean run demotes at least as many variables
        assert set(rmax.demoted) <= set(rmean.demoted)

    def test_tuning_result_report_optional(self):
        res = TuningResult(
            config=PrecisionConfig.demote([]), estimated_error=0.0
        )
        assert res.report is None
        assert res.sweep is None

    def test_robust_tune_with_cache(self, tmp_path):
        cache = SweepCache(directory=tmp_path)
        samples = {"hi": np.linspace(1.0, 3.0, 20)}
        kwargs = dict(
            samples=samples,
            fixed={"n": 20, "lo": 0.0},
            threshold=1e-6,
            cache=cache,
        )
        r1 = run_robust_tune(simpsons.INSTRUMENTED, **kwargs)
        r2 = run_robust_tune(simpsons.INSTRUMENTED, **kwargs)
        assert cache.hits == 1
        assert r1.demoted == r2.demoted
        assert r2.sweep is not None and r2.sweep.from_cache
