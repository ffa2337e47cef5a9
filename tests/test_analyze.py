"""Static-analysis tests: dataflow/range/sensitivity consistency, the
lint engine's stable diagnostic codes, IRConfigError on authored-kernel
mistakes, optimization passes preserving analysis facts, and the
search-space pruning contract (front no worse, strictly fewer
evaluations, bit-identity when analysis is off)."""

import copy
import json

import pytest

from repro.analyze import (
    AnalysisReport,
    analyze_dataflow,
    analyze_ranges,
    derive_domains,
    prune_candidates,
)
from repro.analyze.dataflow import index_statements
from repro.cli import main as cli
from repro.ir import builder as b
from repro.ir import nodes as N
from repro.ir.types import DType, ScalarType
from repro.ir.validate import validate_function
from repro.opt import cse_function, dce_function, fold_function, optimize
from repro.search.orchestrator import app_scenarios
from repro.session import Session, SessionConfig
from repro.util.errors import ConfigError, IRConfigError, ValidationError
from tests.conftest import result_content

APPS = ("simpsons", "arclength", "kmeans", "blackscholes", "hpccg")

#: stable RA code sets per app — the golden lint contract.  A change
#: here is a deliberate analysis-semantics change, not noise.
GOLDEN_CODES = {
    "simpsons": [],
    "arclength": ["RA105", "RA106", "RA107"],
    "kmeans": ["RA101", "RA105", "RA106"],
    "blackscholes": ["RA105"],
    "hpccg": ["RA104", "RA105", "RA106", "RA107"],
}

GOLDEN_PINNED = {
    "simpsons": ("s",),
    "arclength": ("s",),
    "kmeans": ("best", "total"),
    "blackscholes": (),
    "hpccg": (),
}


def _scenario(name):
    return app_scenarios()[name].search_scenario()


def _ir_of(name):
    return copy.deepcopy(_scenario(name).kernel.ir)


def _domains(name):
    scen = _scenario(name)
    return derive_domains(
        scen.kernel.ir,
        points=scen.points,
        samples=scen.samples,
        fixed=scen.fixed,
    )


# -- dataflow consistency -----------------------------------------------------


def _assert_dataflow_consistent(df):
    """Structural invariants every Dataflow must satisfy."""
    n = len(df.stmts)
    for var, sites in df.defs.items():
        for site in sites:
            assert -len(df.fn.params) - 1 <= site.index < n, (var, site)
    for var, uses in df.uses.items():
        for i in uses:
            assert 0 <= i < n, (var, i)
    for (i, var), def_sites in df.use_def.items():
        assert 0 <= i < n
        for d in def_sites:
            assert d < n
            if d >= 0:
                assert any(
                    s.index == d for s in df.defs.get(var, ())
                ), (var, d)
    for var in df.flows_to_return:
        assert var in df.defs or any(
            p.name == var for p in df.fn.params
        )


class TestDataflow:
    @pytest.mark.parametrize("app", APPS)
    def test_facts_consistent(self, app):
        _assert_dataflow_consistent(analyze_dataflow(_ir_of(app)))

    @pytest.mark.parametrize("app", APPS)
    @pytest.mark.parametrize(
        "opt", [dce_function, cse_function, fold_function]
    )
    def test_facts_consistent_after_opt(self, app, opt):
        fn = _ir_of(app)
        opt(fn)
        _assert_dataflow_consistent(analyze_dataflow(fn))

    def test_statement_indexing_is_preorder(self):
        fn = _ir_of("kmeans")
        stmts = index_statements(fn)
        assert stmts, "kmeans has a body"
        assert all(s is stmts[i] for i, s in enumerate(stmts))


# -- opt passes preserve analysis facts ---------------------------------------


class TestOptPreservesFacts:
    @pytest.mark.parametrize("app", APPS)
    def test_opt_output_validates(self, app):
        """Satellite contract: dce/cse output is structurally valid."""
        for passes in (
            (dce_function,),
            (cse_function,),
            (fold_function,),
            (fold_function, cse_function, dce_function),
        ):
            fn = _ir_of(app)
            for p in passes:
                p(fn)
            validate_function(fn)

    @pytest.mark.parametrize("app", APPS)
    def test_optimize_pipeline_validates(self, app):
        validate_function(optimize(_ir_of(app)))

    @pytest.mark.parametrize("app", APPS)
    def test_ranges_only_tighten(self, app):
        """Optimizing a kernel may only *tighten* its value ranges:
        every variable surviving the pipeline has an interval contained
        in the unoptimized one (fewer def sites joined, exact constant
        folds — never a wider value set)."""
        domains = _domains(app)
        before = analyze_ranges(_ir_of(app), domains)
        fn = _ir_of(app)
        fold_function(fn)
        dce_function(fn)
        after = analyze_ranges(fn, domains)
        shared = set(before.ranges) & set(after.ranges)
        assert shared, "optimization must not rename every variable"
        for v in shared:
            lo_b, hi_b = before.ranges[v].lo, before.ranges[v].hi
            lo_a, hi_a = after.ranges[v].lo, after.ranges[v].hi
            assert lo_a >= lo_b or lo_a == pytest.approx(lo_b), v
            assert hi_a <= hi_b or hi_a == pytest.approx(hi_b), v

    @pytest.mark.parametrize("app", APPS)
    def test_def_use_survives_opt(self, app):
        """Variables flowing to the return value keep flowing to it
        across the full opt pipeline (the passes remove dead code, not
        live dependencies)."""
        before = analyze_dataflow(_ir_of(app))
        after = analyze_dataflow(optimize(_ir_of(app)))
        surviving = set(after.defs) | {
            p.name for p in after.fn.params
        }
        for var in before.flows_to_return & surviving:
            assert var in after.flows_to_return, var


# -- IRConfigError on authored mistakes ---------------------------------------


def _fn(params, body, ret=DType.F64):
    return N.Function(
        name="authored", params=params, body=body, ret_dtype=ret
    )


class TestIRConfigError:
    def test_duplicate_parameter(self):
        fn = _fn(
            [
                N.Param("x", ScalarType(DType.F64)),
                N.Param("x", ScalarType(DType.F64)),
            ],
            [N.Return(b.name("x", DType.F64))],
        )
        with pytest.raises(IRConfigError, match="duplicate parameter"):
            validate_function(fn)

    def test_use_before_definition(self):
        fn = _fn(
            [N.Param("x", ScalarType(DType.F64))],
            [
                N.VarDecl("tmp", DType.F64, None),
                N.Return(b.name("tmp", DType.F64)),
            ],
        )
        with pytest.raises(IRConfigError, match="before definition"):
            validate_function(fn)

    def test_assignment_defines(self):
        fn = _fn(
            [N.Param("x", ScalarType(DType.F64))],
            [
                N.VarDecl("tmp", DType.F64, None),
                N.Assign(b.name("tmp", DType.F64), b.name("x", DType.F64)),
                N.Return(b.name("tmp", DType.F64)),
            ],
        )
        validate_function(fn)  # no raise

    def test_branch_assignment_counts_as_defining(self):
        """The check is textual-order and branch-insensitive: an
        assignment inside an earlier If suffices (no false positives
        on path-dependent definitions)."""
        fn = _fn(
            [N.Param("x", ScalarType(DType.F64))],
            [
                N.VarDecl("tmp", DType.F64, None),
                N.If(
                    b.binop(
                        ">", b.name("x", DType.F64), b.const(0.0)
                    ),
                    [
                        N.Assign(
                            b.name("tmp", DType.F64),
                            b.name("x", DType.F64),
                        )
                    ],
                    [],
                ),
                N.Return(b.name("tmp", DType.F64)),
            ],
        )
        validate_function(fn)  # no raise

    def test_is_both_validation_and_config_error(self):
        assert issubclass(IRConfigError, ValidationError)
        assert issubclass(IRConfigError, ConfigError)

    @pytest.mark.parametrize("app", APPS)
    def test_apps_and_adjoints_stay_clean(self, app):
        """The use-before-definition check must never fire on real
        kernels or their generated adjoints (zero false positives)."""
        from repro.core.api import build_adjoint

        ir = _scenario(app).kernel.ir
        validate_function(ir)
        adj = build_adjoint(ir, extension=None)
        validate_function(adj, allow_adjoint_nodes=True)


# -- lint goldens -------------------------------------------------------------


class TestLintGolden:
    @pytest.mark.parametrize("app", APPS)
    def test_stable_codes(self, app):
        report = Session().analyze(app)
        assert (
            sorted({d.code for d in report.diagnostics})
            == GOLDEN_CODES[app]
        )

    @pytest.mark.parametrize("app", APPS)
    def test_pinned_sets(self, app):
        assert Session().analyze(app).pinned == GOLDEN_PINNED[app]

    def test_diagnostics_sorted_and_renderable(self):
        report = Session().analyze("hpccg")
        codes = [(d.code, d.var) for d in report.diagnostics]
        assert codes == sorted(codes)
        text = report.render()
        assert "hpccg" in text
        for d in report.diagnostics:
            assert d.code in text

    def test_digest_stable_across_runs(self):
        a = Session().analyze("simpsons")
        c = Session().analyze("simpsons")
        # wall-time and provenance are excluded from identity, so two
        # independent runs of the same pipeline agree exactly
        assert isinstance(a, AnalysisReport)
        assert a.digest() == c.digest()
        assert len(a.digest()) == 64


# -- pruning contract ---------------------------------------------------------


def _feasible_front_no_worse(unpruned, pruned, threshold):
    """Every threshold-feasible unpruned front point is weakly
    dominated by some pruned front point."""
    for u in unpruned.front.points:
        if u.error > threshold:
            continue
        assert any(
            p.error <= u.error and p.cycles <= u.cycles
            for p in pruned.front.points
        ), (u.key, u.error, u.cycles)


class TestPruning:
    @pytest.mark.parametrize(
        "app,overrides", [("simpsons", {}), ("arclength", {"budget": 80})]
    )
    def test_front_no_worse_with_fewer_evaluations(self, app, overrides):
        off = Session().search(app, **overrides)
        on = Session(config=SessionConfig(analyze=True)).search(
            app, **overrides
        )
        assert on.n_evaluated < off.n_evaluated
        assert set(on.candidates) < set(off.candidates)
        _feasible_front_no_worse(off, on, off.threshold)

    def test_prune_candidates_never_empties_the_space(self):
        report = Session().analyze("simpsons")
        kept, dropped = prune_candidates(report, ["s"])
        assert kept == ("s",) and dropped == ()
        kept, dropped = prune_candidates(report, ["s", "x"])
        assert kept == ("x",) and dropped == ("s",)

    def test_analyze_off_is_bit_identical(self, tmp_path):
        """The off-by-default contract: a session without analysis
        produces the same run identity and manifest as before the
        feature existed (no analysis component at all)."""
        base = Session(store=tmp_path / "a")
        run_id = base.search_run_id("simpsons")
        assert run_id == Session(store=tmp_path / "b").search_run_id(
            "simpsons"
        )
        result = base.search("simpsons")
        assert result.run_id == run_id
        manifest = base.store.load_manifest(run_id)
        assert manifest.get("analysis") is None

    def test_analyze_on_changes_run_identity(self):
        off = Session().search_run_id("simpsons")
        on = Session(config=SessionConfig(analyze=True)).search_run_id(
            "simpsons"
        )
        assert off != on

    def test_analysis_provenance_in_manifest(self, tmp_path):
        sess = Session(
            config=SessionConfig(analyze=True), store=tmp_path / "runs"
        )
        result = sess.search("simpsons")
        manifest = sess.store.load_manifest(result.run_id)
        assert manifest["analysis"]["pruned"] == ["s"]
        assert len(manifest["analysis"]["digest"]) == 64


# -- CLI ----------------------------------------------------------------------


class TestAnalyzeCLI:
    SCHEMA = {
        "amp", "demote_to", "diagnostics", "digest", "err_estimate",
        "ir_fingerprint", "kernel", "kind", "pinned", "provenance",
        "ranges", "safe", "threshold", "wall_time", "widened", "writes",
    }

    @pytest.mark.parametrize("app", APPS)
    def test_json_schema_stable(self, app, capsys, serve_payload):
        assert cli(["analyze", app, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload.keys()) == self.SCHEMA
        assert payload["kind"] == "analyze"
        # the report names the IR function, not the scenario
        assert payload["kernel"] == _scenario(app).kernel.ir.name
        for iv in payload["ranges"].values():
            assert set(iv) == {"lo", "hi"}
        # the CLI --json output is the serve payload of the same spec
        assert result_content(payload) == serve_payload(
            {"kind": "analyze", "kernel": app}
        )

    def test_text_render(self, capsys):
        assert cli(["analyze", "simpsons"]) == 0
        out = capsys.readouterr().out
        assert "analyze(simpson)" in out
        assert "pinned" in out

    def test_unknown_kernel_exits_2(self, capsys):
        assert cli(["analyze", "nope"]) == 2
        assert "unknown" in capsys.readouterr().err.lower()

    def test_list_scenarios(self, capsys):
        assert cli(["analyze", "--list"]) == 0
        out = capsys.readouterr().out
        for app in APPS:
            assert app in out

    def test_json_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert cli(["analyze", "kmeans", "--json", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["kernel"] == "kmeans_cost"
        assert payload["pinned"] == ["best", "total"]


# -- serve job ----------------------------------------------------------------


class TestAnalyzeJob:
    def test_analyze_job_kind(self, tmp_path):
        import time

        from repro.serve import JobRegistry, JobSpec

        sess = Session(store=tmp_path / "runs")
        reg = JobRegistry(sess)
        try:
            job, created = reg.submit(
                JobSpec.from_dict(
                    {"kind": "analyze", "kernel": "arclength"}
                )
            )
            assert created
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                done = reg.get(job.id)
                if done.state in ("completed", "failed", "cancelled"):
                    break
                time.sleep(0.05)
            assert done.state == "completed", done.error
            assert done.result["kernel"] == "arclength"
            assert done.result["pinned"] == ["s"]
            assert {d["code"] for d in done.result["diagnostics"]} == set(
                GOLDEN_CODES["arclength"]
            )
        finally:
            reg.close()
