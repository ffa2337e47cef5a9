"""End-to-end integration: the full paper workflow on each benchmark —
analyze → tune → validate — plus cross-tool agreement at realistic (but
laptop-scaled) sizes."""

import math

import numpy as np
import pytest

import repro
from repro.adapt import AdaptAnalysis
from repro.apps import arclength, blackscholes, hpccg, kmeans, simpsons
from repro.tuning import validate_config
from repro.tuning.greedy import run_greedy_tune


class TestPaperWorkflow:
    """Listing 1 → analysis → Table-I-style tuning, per benchmark."""

    @pytest.mark.parametrize(
        "app,size",
        [(arclength, 1_000), (simpsons, 1_000), (kmeans, 300)],
    )
    def test_tune_validate_roundtrip(self, app, size):
        args = app.make_workload(size)
        tuning = run_greedy_tune(
            app.INSTRUMENTED, args, app.DEFAULT_THRESHOLD
        )
        assert tuning.estimated_error <= app.DEFAULT_THRESHOLD
        validation = validate_config(
            app.INSTRUMENTED, tuning.config, app.make_workload(size)
        )
        # the estimate is a (first-order) bound on the actual error
        assert validation.actual_error <= max(
            10.0 * tuning.estimated_error, 1e-12
        )

    def test_hpccg_workflow(self):
        from repro.experiments.tables import hpccg_sensitivity

        split, series, report = hpccg_sensitivity(nz=4, max_iter=30)
        assert 0 < split <= 30
        # the split kernel actually runs and stays stable
        v = hpccg.hpccg_cg_split(
            *hpccg.make_split_workload(4, split, max_iter=30)
        )
        assert math.isfinite(v)

    def test_blackscholes_workflow(self):
        model = repro.ApproxModel(blackscholes.APPROX_VARIABLE_MAP)
        est = repro.Session().estimate(blackscholes.bs_price, model=model)
        wl = blackscholes.make_workload(30)
        for i in range(5):
            rep = est.execute(*blackscholes.point_args(wl, i))
            assert rep.total_error > 0


class TestCrossToolAgreement:
    """The paper: CHEF-FP 'produc[es] mixed precision analysis results
    that agree with ADAPT's analysis' — check gradients exactly and
    totals to within small factors on every benchmark."""

    @pytest.mark.parametrize(
        "app,size",
        [(arclength, 500), (simpsons, 500), (kmeans, 150)],
    )
    def test_gradients_exact_totals_close(self, app, size):
        args = app.make_workload(size)
        chef = repro.Session().estimate(
            app.INSTRUMENTED, model=repro.AdaptModel()
        ).execute(*args)
        adapt = AdaptAnalysis(app.INSTRUMENTED).execute(
            *app.make_workload(size)
        )
        assert chef.value == adapt.value
        for name, g in adapt.gradients.items():
            mine = chef.gradients[name]
            if isinstance(g, np.ndarray):
                np.testing.assert_allclose(mine, g, rtol=1e-9)
            else:
                assert mine == pytest.approx(g, rel=1e-9)
        ratio = chef.total_error / max(adapt.total_error, 1e-300)
        assert 0.2 < ratio < 5.0

    def test_hpccg_agreement(self):
        args = hpccg.make_workload(4, max_iter=15)
        chef = repro.Session().estimate(
            hpccg.INSTRUMENTED, model=repro.AdaptModel()
        ).execute(*args)
        adapt = AdaptAnalysis(hpccg.INSTRUMENTED).execute(
            *hpccg.make_workload(4, max_iter=15)
        )
        assert chef.value == pytest.approx(adapt.value, rel=1e-12)
        np.testing.assert_allclose(
            chef.grad("bvec"), adapt.grad("bvec"), rtol=1e-7
        )


class TestPerformanceShape:
    """The headline claims, as assertions (coarse, CI-stable)."""

    def test_chef_faster_than_adapt(self):
        from repro.experiments.measure import measure_adapt, measure_chef

        args = arclength.make_workload(5_000)
        chef = measure_chef(arclength.INSTRUMENTED, args)
        adapt = measure_adapt(
            arclength.INSTRUMENTED, arclength.make_workload(5_000)
        )
        assert chef.time_s < adapt.time_s

    def test_chef_leaner_than_adapt(self):
        from repro.experiments.measure import measure_adapt, measure_chef

        args = simpsons.make_workload(5_000)
        chef = measure_chef(simpsons.INSTRUMENTED, args)
        adapt = measure_adapt(
            simpsons.INSTRUMENTED, simpsons.make_workload(5_000)
        )
        assert chef.peak_bytes < adapt.peak_bytes

    def test_adapt_ooms_where_chef_survives(self):
        from repro.experiments.measure import measure_adapt, measure_chef

        budget = 2 * 1024 * 1024
        args = arclength.make_workload(20_000)
        adapt = measure_adapt(
            arclength.INSTRUMENTED,
            args,
            memory_budget_bytes=budget,
        )
        assert adapt.oom
        chef = measure_chef(
            arclength.INSTRUMENTED, arclength.make_workload(20_000)
        )
        assert chef.total_error is not None  # completed fine
