"""Session facade tests: SessionConfig serialization, shared-resource
reuse (estimator memo + sweep cache hit counters), in-process/fleet
search equivalence, the removed search ``workers`` knob, provenance stamping, the plan/runs facades, and the
error-hierarchy mapping."""

import json

import numpy as np
import pytest

import repro
from repro import (
    ConfigError,
    InputError,
    ReproError,
    Session,
    SessionConfig,
    StoreError,
    UnknownNameError,
)
from repro.apps import blackscholes as bs
from repro.apps import kmeans as km
from repro.apps import simpsons
from repro.core.api import clear_estimator_memo
from repro.core.models import AdaptModel
from repro.frontend import kernel
from repro.ir.types import DType
from repro.sweep import SweepCache, random_sweep
from repro.sweep.cache import digest_inputs
from tests.conftest import search_fingerprint


@kernel
def sess_kernel(x: "f32", y: "f32") -> float:
    z: "f32" = x * y + x
    return z


def _bs_samples(n=16, seed=7):
    return random_sweep(
        {"sptprice": (25.0, 150.0), "volatility": (0.05, 0.65)},
        n=n,
        seed=seed,
    )


_BS_FIXED = {"strike": 100.0, "rate": 0.05, "otime": 0.5, "otype": 0}


def _front_tuples(result):
    return [(p.key, p.error, p.cycles) for p in result.front.points]


def _history_tuples(result):
    return [
        (c.key, c.error, c.cycles, c.strategy, c.index)
        for c in result.evaluations
    ]


class TestSessionConfig:
    def test_roundtrip(self):
        cfg = SessionConfig(
            seed=9,
            strategies=("greedy", "delta"),
            aggregate=("percentile", 90.0),
            demote_to=DType.F16,
            cache_dir="/tmp/x",
        )
        blob = cfg.to_json()
        back = SessionConfig.from_json(blob)
        assert back == cfg
        assert json.loads(blob)["demote_to"] == DType.F16.value

    def test_fingerprint_stable_and_sensitive(self):
        a = SessionConfig()
        b = SessionConfig()
        c = SessionConfig(seed=1)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_fingerprint_computed_once_outside_the_fields(self):
        from dataclasses import asdict

        cfg = SessionConfig(seed=4)
        blank = (cfg.to_dict(), asdict(cfg), repr(cfg))
        fp = cfg.fingerprint()
        assert cfg.fingerprint() is fp  # kept, not recomputed
        assert (cfg.to_dict(), asdict(cfg), repr(cfg)) == blank
        assert cfg == SessionConfig(seed=4)
        # a derived copy gets its own fingerprint
        other = cfg.with_options(seed=5)
        assert other.fingerprint() == SessionConfig(seed=5).fingerprint()
        assert other.fingerprint() != fp
        assert cfg.with_options(seed=4).fingerprint() == fp

    def test_with_options(self):
        cfg = SessionConfig().with_options(budget=16)
        assert cfg.budget == 16
        assert SessionConfig().budget != 16 or True  # frozen original
        with pytest.raises(ConfigError):
            SessionConfig().with_options(nonsense=1)

    def test_validation(self):
        with pytest.raises(ConfigError):
            SessionConfig(error_metric="bogus")
        with pytest.raises(ConfigError):
            SessionConfig(budget=0)
        with pytest.raises(ConfigError):
            SessionConfig(opt_level=7)
        with pytest.raises(ConfigError):
            SessionConfig(checkpoint_every=0)
        with pytest.raises(ConfigError):
            SessionConfig(aggregate=np.max)
        with pytest.raises(ConfigError):
            SessionConfig.from_dict({"bogus_key": 1})
        # ConfigError is still a ValueError for old callers
        with pytest.raises(ValueError):
            SessionConfig(budget=-3)

    def test_demote_to_accepts_raw_value(self):
        cfg = SessionConfig.from_dict({"demote_to": DType.F16.value})
        assert cfg.demote_to is DType.F16

    def test_numeric_fields_coerced_from_json_strings(self):
        # hand-edited JSON configs must not smuggle strings past
        # validation into the search driver
        cfg = SessionConfig.from_dict({"seed": "4", "budget": "10"})
        assert cfg.seed == 4 and isinstance(cfg.seed, int)
        assert cfg.budget == 10 and isinstance(cfg.budget, int)
        with pytest.raises(ConfigError, match="integer"):
            SessionConfig(seed="lots")

    def test_bare_string_strategies_rejected(self):
        # tuple("greedy") must not become ('g','r','e','e','d','y')
        with pytest.raises(ConfigError, match="bare"):
            SessionConfig(strategies="greedy")
        with pytest.raises(ConfigError, match="bare"):
            SessionConfig.from_dict({"strategies": "greedy"})
        with pytest.raises(ConfigError, match="names"):
            SessionConfig(strategies=(1, 2))
        with pytest.raises(ConfigError, match="sequence"):
            SessionConfig.from_dict({"strategies": 42})

    def test_default_strategies_match_search_subsystem(self):
        # config.py keeps a literal copy (import-cycle avoidance);
        # this pins it to the search registry's default line-up
        from repro.search.strategies import DEFAULT_STRATEGIES

        assert SessionConfig().strategies == DEFAULT_STRATEGIES


class TestSharedResources:
    def test_estimator_memo_reused_across_calls(self):
        clear_estimator_memo()
        sess = Session()
        a = sess.estimate(sess_kernel)
        before = sess.estimator_memo_stats()
        b = sess.estimate(sess_kernel)
        after = sess.estimator_memo_stats()
        assert a is b
        assert after["hits"] == before["hits"] + 1
        assert after["entries"] == before["entries"]

    def test_sweep_cache_reused_across_calls(self):
        sess = Session(cache=SweepCache())
        samples = _bs_samples()
        r1 = sess.sweep(
            bs.bs_price, samples, fixed=_BS_FIXED, model=AdaptModel()
        )
        stats1 = sess.cache_stats()
        r2 = sess.sweep(
            bs.bs_price, samples, fixed=_BS_FIXED, model=AdaptModel()
        )
        stats2 = sess.cache_stats()
        assert stats1["hits"] == 0 and stats1["misses"] == 1
        assert stats2["hits"] == 1
        assert r2.from_cache and not r1.from_cache
        np.testing.assert_array_equal(r1.total_error, r2.total_error)

    def test_two_searches_share_memo_and_cache(self):
        """Acceptance: two calls on one Session reuse the shared
        estimator memo and sweep cache (hit counters move)."""
        clear_estimator_memo()
        sess = Session(cache=SweepCache())
        scen = bs.search_scenario(n_points=2, n_samples=8)
        sess.search(scen, budget=3, strategies=("greedy",))
        memo1 = sess.estimator_memo_stats()
        cache1 = sess.cache_stats()
        sess.search(scen, budget=3, strategies=("greedy",))
        memo2 = sess.estimator_memo_stats()
        cache2 = sess.cache_stats()
        assert memo2["hits"] > memo1["hits"]
        assert memo2["misses"] == memo1["misses"]  # nothing recompiled
        assert cache2["hits"] > cache1["hits"]

    def test_session_stats_shape(self):
        sess = Session(cache=SweepCache())
        stats = sess.stats()
        assert stats["session_id"] == sess.id
        assert "estimator_memo" in stats
        assert "sweep_cache" in stats


class TestSessionMethods:
    @pytest.mark.parametrize(
        "name,args,budget",
        [
            ("kmeans", {}, 6),
            ("simpsons", {"size": 20, "n_samples": 8}, 8),
        ],
        ids=["kmeans", "simpsons"],
    )
    def test_search_fleet_is_bit_identical(self, name, args, budget, tmp_path):
        """Acceptance: a search a fleet worker process ran matches the
        in-process one: front AND full evaluation history
        (estimated-error axis included, for the swept simpsons
        scenario), and run id."""
        scen = {"kmeans": km, "simpsons": simpsons}[name].search_scenario(
            **args
        )
        serial = scen.run(
            session=Session(store=tmp_path / "serial"), budget=budget
        )
        sess = Session(store=tmp_path / "fleet")
        fleet = sess.fleet(
            [{"scenario": name, "scenario_args": args}],
            defaults={"budget": budget},
            workers=1,
        )
        assert fleet.completed
        # the fleet's stored run, restored without recomputing anything
        stored = scen.run(session=sess, budget=budget, resume=True)
        assert stored.n_restored == stored.n_evaluated == serial.n_evaluated
        assert stored.run_id == serial.run_id
        assert search_fingerprint(serial) == search_fingerprint(stored)
        assert _history_tuples(serial) == _history_tuples(stored)

    def test_removed_search_workers_knob_is_rejected(self, tmp_path):
        """Searches run in-process; process parallelism is the fleet's
        (``dist run --workers``).  The old search-level ``workers``
        knob and its fault hooks fail loudly instead of being
        ignored."""
        from repro.cli import main as cli
        from repro.faults import FaultPlan

        with pytest.raises(TypeError, match="workers"):
            SessionConfig(workers=2)
        with pytest.raises(ConfigError, match="workers"):
            SessionConfig.from_dict({"workers": 2})
        with pytest.raises(TypeError, match="workers"):
            Session().search("kmeans", budget=2, workers=2)
        plan = tmp_path / "plan.json"
        plan.write_text(
            json.dumps(
                {"defaults": {"workers": 2}, "entries": ["kmeans"]}
            )
        )
        with pytest.raises(ConfigError, match="workers"):
            Session(store=tmp_path / "runs").plan(plan_file=plan)
        with pytest.raises(SystemExit) as exc:
            cli(["search", "--kernel", "kmeans", "--workers", "2"])
        assert exc.value.code == 2
        for spec in (
            {"site": "worker.exec", "kind": "delay", "nth": [1]},
            {"site": "store.write", "kind": "worker-kill", "nth": [1]},
        ):
            with pytest.raises(ConfigError):
                FaultPlan.from_dict({"faults": [spec]})

    def test_estimate_at(self):
        sess = Session()
        rep = sess.estimate_at(sess_kernel, (1.5, 2.5))
        assert rep.total_error > 0

    def test_session_model_scopes_to_sweeps_not_tuning(self):
        # Session(model=Taylor) changes estimates/sweeps; tuning's
        # contribution ranking must stay on the ADAPT demotion model
        from repro.core.models import TaylorModel

        args = (100.0, 100.0, 0.05, 0.3, 0.5, 0)
        plain = Session().tune(bs.bs_price, 1e-8, args=args)
        taylor_sess = Session(model=TaylorModel())
        tuned = taylor_sess.tune(bs.bs_price, 1e-8, args=args)
        assert tuned.config.demotions == plain.config.demotions
        assert tuned.estimated_error == plain.estimated_error

    def test_tune_mode_inference(self):
        sess = Session()
        samples = _bs_samples(n=8)
        robust = sess.tune(
            bs.bs_price, 1e-9, samples=samples, fixed=_BS_FIXED
        )
        assert robust.sweep is not None
        point = sess.tune(
            bs.bs_price, 1e-9, args=(100.0, 100.0, 0.05, 0.3, 0.5, 0)
        )
        assert point.sweep is None
        with pytest.raises(ConfigError, match="samples="):
            sess.tune(bs.bs_price, 1e-9, robust=True)
        with pytest.raises(ConfigError, match="args="):
            sess.tune(bs.bs_price, 1e-9)
        # ambiguous: both inputs, mode unspecified
        point_args = (100.0, 100.0, 0.05, 0.3, 0.5, 0)
        with pytest.raises(ConfigError, match="robust="):
            sess.tune(
                bs.bs_price, 1e-9, args=point_args, samples=samples,
                fixed=_BS_FIXED,
            )
        # explicit mode resolves it either way
        explicit = sess.tune(
            bs.bs_price, 1e-9, args=point_args, samples=samples,
            fixed=_BS_FIXED, robust=False,
        )
        assert explicit.sweep is None

    def test_point_tune_rejects_robust_only_knobs(self):
        # fixed=/aggregate= are robust-mode parameters; silently
        # ignoring them would tune something else than asked
        sess = Session()
        point_args = (100.0, 100.0, 0.05, 0.3, 0.5, 0)
        with pytest.raises(ConfigError, match="robust tuning only"):
            sess.tune(
                bs.bs_price, 1e-9, args=point_args,
                fixed={"otype": 0}, robust=False,
            )
        with pytest.raises(ConfigError, match="robust tuning only"):
            sess.tune(
                bs.bs_price, 1e-9, args=point_args, aggregate="mean",
            )

    def test_search_by_scenario_name(self):
        res = Session().search("kmeans", budget=3, strategies=("greedy",))
        assert res.kernel == "kmeans_cost"
        assert len(res.front) >= 1
        with pytest.raises(UnknownNameError, match="unknown app"):
            Session().search("not-an-app")

    def test_search_requires_points_and_threshold(self):
        with pytest.raises(ConfigError, match="points="):
            Session().search(bs.bs_price)

    def test_provenance_stamped_and_sequenced(self):
        sess = Session()
        samples = _bs_samples(n=8)
        rep = sess.sweep(
            bs.bs_price, samples, fixed=_BS_FIXED, model=AdaptModel()
        )
        tun = sess.tune(
            bs.bs_price, 1e-9, samples=samples, fixed=_BS_FIXED
        )
        assert rep.provenance["session_id"] == sess.id
        assert rep.provenance["method"] == "sweep"
        assert tun.provenance["method"] == "tune"
        assert tun.provenance["seq"] == rep.provenance["seq"] + 1
        assert (
            rep.provenance["config_fingerprint"]
            == sess.config.fingerprint()
        )

    def test_search_result_provenance_in_dict(self):
        sess = Session()
        res = sess.search("kmeans", budget=3, strategies=("greedy",))
        assert res.provenance["method"] == "search"
        assert res.to_dict()["provenance"] == res.provenance

    def test_config_defaults_flow_into_search(self):
        # scenario defaults (budget) win over config, config fills the
        # rest (strategies, seed)
        cfg = SessionConfig(budget=3, strategies=("greedy",), seed=5)
        scen = km.search_scenario()
        res = Session(cfg).search(
            scen.kernel, scen.points, scen.threshold,
            candidates=scen.candidates,
        )
        assert res.budget == 3
        assert res.strategies == ("greedy",)
        # via the scenario, its own budget takes precedence
        res2 = Session(cfg).search("kmeans")
        assert res2.budget == scen.budget
        assert res2.strategies == ("greedy",)

    def test_session_store_used_by_search(self, tmp_path):
        sess = Session(store=tmp_path / "runs")
        res = sess.search("kmeans", budget=3, strategies=("greedy",))
        assert res.run_id is not None
        resumed = sess.search(
            "kmeans", budget=3, strategies=("greedy",), resume=True
        )
        assert resumed.resumed and resumed.n_restored == res.n_evaluated
        assert _front_tuples(resumed) == _front_tuples(res)

    def test_runs_requires_store(self):
        with pytest.raises(ConfigError, match="store"):
            Session().runs()
        with pytest.raises(ConfigError, match="store"):
            Session().plan(all_apps=True)


class TestPlanFacade:
    def test_plan_entries_and_run(self, tmp_path):
        sess = Session(store=tmp_path / "runs")
        orch = sess.plan(
            ["kmeans"], defaults={"budget": 3, "strategies": ("greedy",)}
        )
        assert orch.session is sess
        runs = orch.run()
        assert len(runs) == 1 and runs[0].ok
        # resumable: a second orchestration restores from the store
        orch2 = sess.plan(
            ["kmeans"], defaults={"budget": 3, "strategies": ("greedy",)}
        )
        runs2 = orch2.run()
        assert runs2[0].result.resumed

    def test_plan_validation(self, tmp_path):
        sess = Session(store=tmp_path / "runs")
        with pytest.raises(ConfigError, match="exactly one"):
            sess.plan(["kmeans"], all_apps=True)
        with pytest.raises(ConfigError, match="no entries"):
            sess.plan([])
        with pytest.raises(ConfigError):
            sess.plan([42])
        # typo'd names fail fast, before anything runs
        with pytest.raises(UnknownNameError, match="blackschols"):
            sess.plan(["blackschols"])

    def test_plan_file(self, tmp_path):
        plan = {
            "defaults": {"seed": 0},
            "entries": [
                {"scenario": "kmeans", "budget": 3,
                 "strategies": ["greedy"]}
            ],
        }
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        sess = Session(store=tmp_path / "runs")
        orch = sess.plan(plan_file=plan_path)
        orch.run()
        assert orch.ok

    def test_plan_file_defaults_validated(self, tmp_path):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(
            {"entries": [{"scenario": "kmeans"}]}
        ))
        sess = Session(store=tmp_path / "runs")
        with pytest.raises(ConfigError, match="unknown override"):
            sess.plan(plan_file=plan_path, defaults={"budgettt": 3})
        with pytest.raises(ConfigError, match="unknown override"):
            sess.plan(plan_file=plan_path, defaults={"store": "x"})

    def test_robust_tune_honors_config_opt_level(self):
        # opt_level=0 must reach the contribution sweep (the ablation
        # path); results agree with the default pipeline bit-for-bit
        samples = _bs_samples(n=8)
        base = Session().tune(
            bs.bs_price, 1e-9, samples=samples, fixed=_BS_FIXED
        )
        ablate = Session(SessionConfig(opt_level=0)).tune(
            bs.bs_price, 1e-9, samples=samples, fixed=_BS_FIXED
        )
        assert ablate.config.demotions == base.config.demotions


class TestRunsFacade:
    def _seed_store(self, tmp_path, budgets=(3, 4)):
        sess = Session(store=tmp_path / "runs")
        for b in budgets:
            sess.search("kmeans", budget=b, strategies=("greedy",))
        return sess

    def test_list_and_compare(self, tmp_path):
        sess = self._seed_store(tmp_path)
        view = sess.runs()
        manifests = view.list()
        assert len(manifests) == 2
        rows = view.compare()
        assert {r["label"] for r in rows} == {"kmeans"}
        assert all(r["completed"] for r in rows)
        assert "kmeans" in view.format_compare()

    def test_prune(self, tmp_path):
        sess = self._seed_store(tmp_path)
        view = sess.runs()
        kept_id = view.list()[0]["run_id"]
        dry = view.prune(max_runs=1, dry_run=True)
        assert len(dry) == 1 and len(view.list()) == 2
        pruned = view.prune(max_runs=1)
        assert len(pruned) == 1
        remaining = view.list()
        assert len(remaining) == 1
        assert remaining[0]["run_id"] == kept_id
        with pytest.raises(ConfigError, match="criterion"):
            view.prune()
        # negative knobs are rejected, never coerced into "prune all"
        with pytest.raises(ConfigError, match="max_runs"):
            view.prune(max_runs=-1)
        with pytest.raises(ConfigError, match="max_age_days"):
            view.prune(max_age_days=-0.5)
        with pytest.raises(ConfigError, match="min_age_hours"):
            view.prune(incomplete=True, min_age_hours=-1)
        assert len(view.list()) == 1  # nothing was deleted

    def test_partial_run_shows_stored_record_count(self, tmp_path):
        # a crashed run's manifest counter is stuck at 0, but its
        # checkpointed records are the resumable work — list/compare
        # must count those, not the stale manifest field
        sess = self._seed_store(tmp_path, budgets=(3,))
        store = sess.store
        done = store.list_runs()[0]
        records = store.load_records(done["run_id"])
        partial = dict(done)
        partial["run_id"] = "c" * 64
        partial["completed"] = False
        partial["n_evaluations"] = 0
        store.save_manifest(partial["run_id"], partial)
        store.checkpoint(partial["run_id"], records[:2])
        view = sess.runs()
        row = next(
            r for r in view.compare() if r["run_id"] == "c" * 64
        )
        assert not row["completed"]
        assert row["n_evaluations"] == 2
        listing = view.format_list()
        # skip the header lines (the store path may contain "partial")
        partial_line = next(
            ln
            for ln in listing.splitlines()[2:]
            if " partial " in ln
        )
        assert "    2" in partial_line

    def test_prune_incomplete(self, tmp_path):
        sess = self._seed_store(tmp_path, budgets=(3,))
        store = sess.store
        # fabricate a partial run: manifest without completion
        manifest = dict(store.list_runs()[0])
        manifest["run_id"] = "f" * 64
        manifest["completed"] = False
        store.save_manifest(manifest["run_id"], manifest)
        view = sess.runs()
        assert len(view.list()) == 2
        # default recency guard presumes a fresh partial run is live
        assert view.prune(incomplete=True) == []
        pruned = view.prune(incomplete=True, min_age_hours=0)
        assert [m["run_id"] for m in pruned] == ["f" * 64]
        assert len(view.list()) == 1

    def test_prune_incomplete_collects_orphaned_dirs(self, tmp_path):
        # a run dir with no readable manifest (crash before the first
        # manifest write, format bump) must still be reclaimable
        sess = self._seed_store(tmp_path, budgets=(3,))
        store = sess.store
        orphan = store.root / "deadbeefdir"
        orphan.mkdir()
        (orphan / "evals.pkl").write_bytes(b"garbage")
        pruned = store.prune(
            incomplete=True, dry_run=True, min_age_hours=0
        )
        assert any(m.get("orphaned") for m in pruned)
        assert orphan.is_dir()  # dry run touches nothing
        pruned = store.prune(incomplete=True, min_age_hours=0)
        assert any(m["run_id"] == "deadbeefdir" for m in pruned)
        assert not orphan.exists()
        assert len(store.list_runs()) == 1  # completed run survives

    def test_prune_never_touches_non_run_directories(self, tmp_path):
        # colocated data that never was a run dir must survive the GC,
        # and runs written by a NEWER layout format are left alone
        sess = self._seed_store(tmp_path, budgets=(3,))
        store = sess.store
        archive = store.root / "archive"
        archive.mkdir()
        (archive / "notes.txt").write_text("keep me")
        newer = store.root / ("9" * 32)
        newer.mkdir()
        (newer / "manifest.json").write_text(
            json.dumps({"format": 999, "run_id": "9" * 64})
        )
        pruned = store.prune(incomplete=True, min_age_hours=0)
        assert pruned == []
        assert archive.is_dir() and (archive / "notes.txt").exists()
        assert newer.is_dir()

    def test_diff_identical_and_prefix_resolution(self, tmp_path):
        sess = self._seed_store(tmp_path)
        view = sess.runs()
        ids = [m["run_id"] for m in view.list()]
        diff = view.diff(ids[0][:12], ids[1][:12])
        assert isinstance(diff["identical"], bool)
        assert "front diff" in view.format_diff(diff)
        with pytest.raises(UnknownNameError, match="no stored run"):
            view.diff("0000dead", ids[0])

    def test_diff_detects_front_changes(self, tmp_path):
        sess = self._seed_store(tmp_path, budgets=(3,))
        store = sess.store
        manifest = dict(store.list_runs()[0])
        twin = dict(manifest)
        twin["run_id"] = "e" * 64
        front = [dict(p) for p in (twin.get("front") or [])]
        assert front
        front[0]["cycles"] = front[0]["cycles"] + 1.0
        twin["front"] = front
        store.save_manifest(twin["run_id"], twin)
        diff = store.diff_fronts(manifest["run_id"], "e" * 64)
        assert not diff["identical"]
        changed = [c for c in diff["common"] if not c["same"]]
        assert len(changed) == 1

    def test_diff_incomplete_raises_store_error(self, tmp_path):
        sess = self._seed_store(tmp_path, budgets=(3,))
        store = sess.store
        manifest = dict(store.list_runs()[0])
        partial = dict(manifest)
        partial["run_id"] = "d" * 64
        partial["completed"] = False
        store.save_manifest(partial["run_id"], partial)
        with pytest.raises(StoreError, match="never completed"):
            store.diff_fronts(manifest["run_id"], "d" * 64)


class TestErrorHierarchy:
    def test_digest_inputs_raises_input_error(self):
        with pytest.raises(InputError) as exc:
            digest_inputs([object()])
        assert isinstance(exc.value, TypeError)
        assert isinstance(exc.value, ReproError)
        with pytest.raises(InputError, match="element 1"):
            digest_inputs([[1.0, None, 2.0]])

    def test_search_points_input_error(self):
        with pytest.raises(InputError, match="argument tuples"):
            Session().search(bs.bs_price, [1.0, 2.0], 1e-6)

    def test_resume_without_store_config_error(self):
        with pytest.raises(ConfigError, match="requires store="):
            from repro.search.api import run_search

            run_search(km.search_scenario().kernel, [(1,)], 1e-6,
                       resume=True)

    def test_unknown_strategy_is_config_and_key_error(self):
        from repro.search.strategies import get_strategy

        with pytest.raises(UnknownNameError) as exc:
            get_strategy("bogus")
        assert isinstance(exc.value, KeyError)
        assert isinstance(exc.value, ValueError)
        assert "unknown search strategy" in str(exc.value)

    def test_plan_validation_errors(self, tmp_path):
        from repro.search.orchestrator import SearchOrchestrator

        with pytest.raises(UnknownNameError, match="unknown plan"):
            SearchOrchestrator.from_plan(
                {"entries": [{"scenario": "nope"}]}, store=tmp_path
            )
        with pytest.raises(ConfigError, match="unknown override"):
            SearchOrchestrator.from_plan(
                {"entries": [{"scenario": "kmeans", "bogus": 1}]},
                store=tmp_path,
            )

    def test_sampler_and_aggregate_config_errors(self):
        from repro.sweep.aggregate import resolve_aggregator
        from repro.sweep.samplers import random_sweep as rs

        with pytest.raises(ConfigError):
            resolve_aggregator("bogus")
        with pytest.raises(ConfigError):
            rs({"x": (0.0, 1.0)}, n=0, seed=1)

    def test_restore_misuse_is_store_error(self):
        from repro.search.evaluate import CandidateEvaluator

        ev = CandidateEvaluator(
            km.search_scenario().kernel,
            km.search_scenario().points,
        )
        ev.history.append(object())
        with pytest.raises(StoreError, match="fresh evaluator"):
            ev.restore([])

    def test_non_contiguous_restore_still_a_value_error(self):
        # historically a ValueError; InvalidRecordError keeps that
        from repro.search.evaluate import CandidateEvaluator

        scen = km.search_scenario()
        res = Session().search(scen, budget=3, strategies=("greedy",))
        gapped = res.evaluations[-1]
        assert gapped.index > 0  # restoring it alone leaves a gap
        ev = CandidateEvaluator(scen.kernel, scen.points)
        with pytest.raises(repro.InvalidRecordError) as exc:
            ev.restore([gapped])
        assert isinstance(exc.value, ValueError)
        assert isinstance(exc.value, StoreError)
