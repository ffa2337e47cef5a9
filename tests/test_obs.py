"""Observability layer tests: span tracer, metrics registry, trace
profiling, and the guarantees the rest of the repo leans on — valid
JSONL under concurrent writers, zero-allocation disabled mode, exact
lock-guarded counters, and bit-identical search results with tracing
on vs off."""

import json
import threading
import tracemalloc

import numpy as np
import pytest

from repro.frontend import kernel
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import (
    format_summary,
    load_trace,
    summarize_records,
)
from repro.search.api import run_search


@pytest.fixture(autouse=True)
def _tracing_off():
    """Every test starts and ends with the process-wide tracer off."""
    trace.disable()
    yield
    trace.disable()


# -- tracer -------------------------------------------------------------------


class TestTracer:
    def test_nested_spans_link_parents(self, tmp_path):
        path = tmp_path / "t.jsonl"
        trace.enable(path)
        with trace.span("outer", run="r1") as outer:
            with trace.span("inner") as inner:
                with trace.span("leaf", k=3) as leaf:
                    pass
        trace.disable()
        records = load_trace(path)
        by_name = {r["name"]: r for r in records}
        assert set(by_name) == {"outer", "inner", "leaf"}
        assert by_name["leaf"]["parent"] == inner.span_id
        assert by_name["inner"]["parent"] == outer.span_id
        assert by_name["outer"]["parent"] is None
        assert by_name["outer"]["attrs"] == {"run": "r1"}
        assert by_name["leaf"]["attrs"] == {"k": 3}
        # children close before parents, so durations nest
        assert by_name["outer"]["dur_s"] >= by_name["inner"]["dur_s"]
        assert all(r["status"] == "ok" for r in records)
        assert leaf.span_id != inner.span_id != outer.span_id

    def test_exception_exit_sets_error_status_and_propagates(
        self, tmp_path
    ):
        path = tmp_path / "t.jsonl"
        trace.enable(path)
        with pytest.raises(ValueError, match="boom"):
            with trace.span("failing"):
                raise ValueError("boom")
        # the failed span still emitted, and the stack unwound: a
        # sibling opened afterwards must not parent onto the dead span
        with trace.span("after"):
            pass
        trace.disable()
        by_name = {r["name"]: r for r in load_trace(path)}
        assert by_name["failing"]["status"] == "error:ValueError"
        assert by_name["after"]["parent"] is None
        assert by_name["after"]["status"] == "ok"

    def test_concurrent_writers_emit_valid_jsonl(self, tmp_path):
        path = tmp_path / "t.jsonl"
        trace.enable(path)
        n_threads, n_spans = 8, 40
        start = threading.Barrier(n_threads)

        def work(tid):
            start.wait()
            for i in range(n_spans):
                with trace.span("work", tid=tid, i=i):
                    with trace.span("sub"):
                        pass

        threads = [
            threading.Thread(target=work, args=(t,))
            for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        trace.disable()
        # every line parses (no interleaved partial writes), nothing
        # was lost, and span ids never collide
        records = load_trace(path)
        assert len(records) == n_threads * n_spans * 2
        assert len({r["span"] for r in records}) == len(records)
        # parents resolve within the same thread only
        by_id = {r["span"]: r for r in records}
        for r in records:
            if r["parent"] is not None:
                assert by_id[r["parent"]]["thread"] == r["thread"]

    def test_disabled_mode_is_zero_allocation(self):
        assert not trace.is_enabled()
        # identity: the no-op singleton, not a fresh object per call
        assert trace.span("x") is trace.NULL_SPAN
        assert trace.span("y").set(a=1) is trace.NULL_SPAN
        trace_file = trace.__file__
        tracemalloc.start()
        for _ in range(200):
            with trace.span("hot"):
                pass
        snap = tracemalloc.take_snapshot()
        tracemalloc.stop()
        mine = snap.filter_traces(
            [tracemalloc.Filter(True, trace_file)]
        ).statistics("filename")
        assert sum(s.size for s in mine) == 0

    def test_collect_gathers_records_in_memory(self):
        trace.enable(None)  # sinks only, no file
        with trace.collect() as records:
            with trace.span("a"):
                with trace.span("b"):
                    pass
        with trace.span("outside-collect"):
            pass
        trace.disable()
        assert [r["name"] for r in records] == ["b", "a"]

    def test_collect_is_safe_when_disabled(self):
        with trace.collect() as records:
            with trace.span("ignored"):
                pass
        assert records == []

    def test_enable_replaces_and_close_is_idempotent(self, tmp_path):
        first = trace.enable(tmp_path / "a.jsonl")
        second = trace.enable(tmp_path / "b.jsonl")
        assert trace.current() is second
        assert first is not second
        with trace.span("x"):
            pass
        trace.disable()
        trace.disable()
        assert load_trace(tmp_path / "b.jsonl")
        assert (tmp_path / "a.jsonl").read_text() == ""


# -- metrics registry ---------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_gauge_get_or_create(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_x_total", "x")
        assert reg.counter("repro_x_total") is c
        c.inc()
        c.inc(4)
        assert c.value == 5
        g = reg.gauge("repro_depth", "depth")
        g.set(7)
        g.inc(2)
        g.dec()
        assert g.value == 8

    def test_histogram_quantiles(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_lat_seconds", "latency")
        for v in range(1, 101):
            h.observe(float(v))
        snap = h.snapshot()
        assert snap["count"] == 100
        assert snap["sum"] == pytest.approx(5050.0)
        assert snap["max"] == 100.0
        assert snap["p50"] == pytest.approx(50.0, abs=1.0)
        assert snap["p95"] == pytest.approx(95.0, abs=1.0)

    def test_type_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("repro_thing", "t")
        with pytest.raises(ValueError, match="repro_thing"):
            reg.gauge("repro_thing")
        with pytest.raises(ValueError, match="repro_thing"):
            reg.histogram("repro_thing")

    def test_concurrent_increments_are_exact(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_hammer_total", "hammer")
        n_threads, n_incs = 16, 500

        def work():
            for _ in range(n_incs):
                c.inc()

        threads = [
            threading.Thread(target=work) for _ in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == n_threads * n_incs

    def test_render_prom_format(self):
        reg = MetricsRegistry()
        reg.counter("repro_a_total", "counts a").inc(3)
        reg.gauge("repro_b", "gauge b").set(2.5)
        h = reg.histogram("repro_c_seconds", "latency c")
        h.observe(0.25)
        text = reg.render_prom()
        lines = text.splitlines()
        assert "# HELP repro_a_total counts a" in lines
        assert "# TYPE repro_a_total counter" in lines
        assert "repro_a_total 3" in lines
        assert "# TYPE repro_b gauge" in lines
        assert "repro_b 2.5" in lines
        assert "# TYPE repro_c_seconds summary" in lines
        assert 'repro_c_seconds{quantile="0.5"} 0.25' in lines
        assert "repro_c_seconds_count 1" in lines
        assert "repro_c_seconds_sum 0.25" in lines
        # prometheus text format: every non-comment line is
        # "name{labels} value" with a float-parseable value
        for line in lines:
            if not line or line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            assert name
            float(value)

    def test_reset_by_prefix(self):
        reg = MetricsRegistry()
        a = reg.counter("repro_keep_total", "k")
        b = reg.counter("repro_drop_total", "d")
        a.inc(2)
        b.inc(3)
        reg.reset(prefix="repro_drop_")
        assert a.value == 2
        assert b.value == 0
        reg.reset()
        assert a.value == 0

    def test_snapshot_shapes(self):
        reg = MetricsRegistry()
        reg.counter("repro_n_total", "n").inc()
        reg.gauge("repro_g", "g").set(4)
        reg.histogram("repro_h_seconds", "h").observe(1.0)
        snap = reg.snapshot()
        assert snap["counters"]["repro_n_total"] == 1
        assert snap["gauges"]["repro_g"] == 4
        assert snap["histograms"]["repro_h_seconds"]["count"] == 1


# -- serve counters (satellite: thread-safety audit) --------------------------


class TestServeCounterThreadSafety:
    def test_service_metrics_observe_response_is_exact(self):
        from repro.serve.metrics import ServiceMetrics

        metrics = ServiceMetrics(registry=None)
        n_threads, n_obs = 12, 300
        statuses = (200, 201, 404, 500)

        def work(tid):
            for i in range(n_obs):
                metrics.observe_response(
                    statuses[(tid + i) % len(statuses)],
                    duration_s=0.001,
                )

        threads = [
            threading.Thread(target=work, args=(t,))
            for t in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = n_threads * n_obs
        assert metrics._http["requests"] == total
        assert metrics._http["responses_2xx"] == total // 2
        assert metrics._http["responses_4xx"] == total // 4
        assert metrics._http["responses_5xx"] == total // 4

    def test_job_registry_count_is_exact(self):
        from repro.serve.jobs import JobRegistry

        reg = JobRegistry(object(), workers=1, max_queue=4)
        try:
            n_threads, n_incs = 12, 250

            def work():
                for _ in range(n_incs):
                    reg._count("submitted")

            threads = [
                threading.Thread(target=work)
                for _ in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert reg.counters["submitted"] == n_threads * n_incs
        finally:
            reg.close()


# -- profiling ----------------------------------------------------------------


def _rec(span, name, dur, parent=None, t_start=0.0, status="ok"):
    return {
        "name": name,
        "span": span,
        "parent": parent,
        "dur_s": dur,
        "t_start": t_start,
        "status": status,
    }


class TestProfile:
    def test_self_times_partition_the_root(self):
        records = [
            _rec("s2", "compile", 0.3, parent="s1"),
            _rec("s3", "evaluate", 0.5, parent="s1"),
            _rec("s4", "checkpoint", 0.1, parent="s3"),
            _rec("s1", "run", 1.0),
        ]
        out = summarize_records(records)
        assert out["spans"] == 4
        assert out["errors"] == 0
        assert out["total_s"] == pytest.approx(1.0)
        phases = out["phases"]
        assert phases["run"]["self_s"] == pytest.approx(0.2)
        assert phases["evaluate"]["self_s"] == pytest.approx(0.4)
        assert phases["compile"]["self_s"] == pytest.approx(0.3)
        assert phases["checkpoint"]["self_s"] == pytest.approx(0.1)
        self_sum = sum(p["self_s"] for p in phases.values())
        assert self_sum == pytest.approx(out["total_s"])

    def test_root_filter_selects_one_subtree(self):
        records = [
            _rec("a1", "run", 1.0),
            _rec("a2", "evaluate", 0.6, parent="a1"),
            _rec("b1", "other.run", 2.0),
            _rec("b2", "other.step", 1.5, parent="b1"),
        ]
        out = summarize_records(records, root="a1")
        assert out["spans"] == 2
        assert out["total_s"] == pytest.approx(1.0)
        assert "other.run" not in out["phases"]

    def test_error_spans_counted(self):
        out = summarize_records(
            [_rec("x", "boom", 0.1, status="error:ValueError")]
        )
        assert out["errors"] == 1

    def test_format_summary_mentions_phases(self):
        out = summarize_records(
            [
                _rec("s1", "run", 1.0),
                _rec("s2", "evaluate", 0.75, parent="s1"),
            ]
        )
        text = format_summary(out)
        assert "evaluate" in text
        assert "self-time sum" in text
        assert "1.0000" in text

    def test_load_trace_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"name": "a", "span": "s"}\nnot-json\n')
        with pytest.raises(ValueError, match="bad.jsonl:1"):
            load_trace(bad)  # line 1 lacks dur_s/t_start
        ok_line = json.dumps(_rec("s", "a", 0.1))
        bad.write_text(ok_line + "\nnot-json\n")
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            load_trace(bad)


# -- search integration: tracing must not perturb results ---------------------


@kernel
def obs_kernel(n: int, h: float, data: "f64[]") -> float:
    s = 0.0
    t = 0.0
    for i in range(n):
        t = data[i] * h + t * 0.5
        s = s + sqrt(t * t + h)
    return s


def _obs_points(n=32, seeds=(5, 6)):
    out = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        out.append((n, 1.0 / 3.0, rng.uniform(0.1, 1.0, n)))
    return out


def _run_obs_search():
    return run_search(
        obs_kernel,
        _obs_points(),
        threshold=1e-6,
        candidates=("t", "s", "h"),
        strategies=("greedy", "delta"),
        budget=12,
        seed=3,
    )


def _scrub(obj):
    """Drop per-run identity (session ids) from a result payload."""
    if isinstance(obj, dict):
        return {
            k: _scrub(v)
            for k, v in obj.items()
            if k != "session_id"
        }
    if isinstance(obj, list):
        return [_scrub(v) for v in obj]
    return obj


def _comparable(result):
    out = result.to_dict()
    # stats carries process-wide cache occupancy and profile carries
    # timings — everything else must match bit for bit
    out.pop("stats", None)
    out.pop("profile", None)
    return json.dumps(_scrub(out), sort_keys=True)


class TestSearchTracingBitIdentity:
    def test_traced_search_matches_untraced(self, tmp_path):
        # traced run first (cold estimator memo → estimate.build spans
        # appear in the trace); warmth cannot change results, which is
        # exactly what the comparison asserts
        trace.enable(tmp_path / "search.jsonl")
        traced = _run_obs_search()
        trace.disable()

        untraced = _run_obs_search()
        assert untraced.profile is None

        assert _comparable(traced) == _comparable(untraced)

        # the traced run carries a profile whose phases cover the run
        prof = traced.profile
        assert prof is not None
        assert prof["spans"] > 0
        assert "search.batch" in prof["phases"]
        self_sum = sum(p["self_s"] for p in prof["phases"].values())
        assert self_sum == pytest.approx(prof["total_s"], rel=1e-6)

        # and the trace file itself holds the same span tree
        records = load_trace(tmp_path / "search.jsonl")
        names = {r["name"] for r in records}
        assert {"search.run", "search.batch", "estimate.build"} <= names
