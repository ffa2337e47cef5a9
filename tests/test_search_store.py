"""Run-store / orchestrator tests: content-addressed persistence,
checkpointing, crash-safe bit-identical resume (config-batched and
per-candidate, including a real SIGKILL), warm restores, and multi-scenario plans."""

import json
import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main as cli
from repro.frontend import kernel
from repro.interp.cost_model import DEFAULT_COST_MODEL
from repro.ir.types import DType
from repro.search import (
    PlanEntry,
    RunStore,
    SearchOrchestrator,
)
from repro.search.api import run_search
from repro.search.store import (
    candidate_of,
    record_of,
    run_id_of,
    run_key_components,
)
from repro.util.errors import ConfigError

_SRC = Path(__file__).resolve().parents[1] / "src"


@kernel
def rs_kernel(n: int, h: float, data: "f64[]") -> float:
    s = 0.0
    t = 0.0
    for i in range(n):
        t = data[i] * h + t * 0.5
        s = s + sqrt(t * t + h)
    return s


def _points(n=32, seeds=(5, 6)):
    out = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        out.append((n, 1.0 / 3.0, rng.uniform(0.1, 1.0, n)))
    return out


_KWARGS = dict(
    threshold=1e-6,
    candidates=("t", "s", "h", "data"),
    strategies=("greedy", "delta", "anneal"),
    budget=12,
    seed=7,
)


def _trace(result):
    """The full evaluation history as exact-comparable tuples."""
    return [
        (
            c.key,
            c.error,
            c.cycles,
            c.point_errors,
            c.estimated_error,
            c.strategy,
            c.index,
        )
        for c in result.evaluations
    ]


def _front(result):
    return [(p.key, p.error, p.cycles) for p in result.front.points]


@pytest.fixture(scope="module")
def reference():
    """One uninterrupted, store-less reference run."""
    return run_search(rs_kernel, points=_points(), **_KWARGS)


@pytest.fixture(scope="module")
def stored(tmp_path_factory, reference):
    """The same run executed against a persistent store."""
    root = tmp_path_factory.mktemp("runstore")
    result = run_search(rs_kernel, points=_points(), store=root, **_KWARGS)
    assert _trace(result) == _trace(reference)
    return RunStore(root), result


class TestRunStore:
    def test_record_roundtrip_is_bit_exact(self, reference):
        for cand in reference.evaluations:
            back = candidate_of(record_of(cand))
            assert back.key == cand.key
            assert back.error == cand.error  # bitwise float equality
            assert back.cycles == cand.cycles
            assert back.point_errors == cand.point_errors
            assert back.estimated_error == cand.estimated_error
            assert back.strategy == cand.strategy
            assert back.index == cand.index
            assert back.config.demotions == cand.config.demotions

    def test_run_id_content_addressing(self):
        base = dict(
            points=_points(),
            threshold=1e-6,
            candidates=("t", "s"),
            samples=None,
            fixed=None,
            demote_to=DType.F32,
            strategies=("greedy",),
            budget=8,
            seed=0,
            aggregate="max",
            error_metric="worst",
            model_fingerprint="taylor",
            cost_model=DEFAULT_COST_MODEL,
            approx=None,
        )
        rid = run_id_of(run_key_components(rs_kernel.ir, **base))
        assert rid == run_id_of(run_key_components(rs_kernel.ir, **base))
        for change in (
            {"seed": 1},
            {"budget": 9},
            {"threshold": 1e-5},
            {"strategies": ("greedy", "delta")},
        ):
            other = run_id_of(
                run_key_components(rs_kernel.ir, **{**base, **change})
            )
            assert other != rid, change

    def test_manifest_and_records_persisted(self, stored):
        store, result = stored
        manifest = store.load_manifest(result.run_id)
        assert manifest is not None
        assert manifest["completed"]
        assert manifest["kernel"] == "rs_kernel"
        assert manifest["n_evaluations"] == result.n_evaluated
        assert manifest["candidates"] == list(_KWARGS["candidates"])
        assert manifest["baseline_key"] == result.baseline.key
        assert [f["key"] for f in manifest["front"]] == [
            p.key for p in result.front.points
        ]
        assert len(store.load_records(result.run_id)) == result.n_evaluated
        assert [m["run_id"] for m in store.list_runs()] == [result.run_id]

    def test_corrupt_records_degrade_to_empty(self, stored, tmp_path):
        store, result = stored
        other = RunStore(tmp_path)
        manifest = dict(store.load_manifest(result.run_id))
        other.save_manifest(result.run_id, manifest)
        (other.run_dir(result.run_id) / "evals.pkl").write_bytes(
            b"not a pickle"
        )
        assert other.load_records(result.run_id) == []

    def test_index_gap_truncates_to_prefix(self, stored, tmp_path):
        store, result = stored
        records = store.load_records(result.run_id)
        gapped = [r for r in records if r["index"] != 2]
        other = RunStore(tmp_path)
        other.checkpoint(result.run_id, gapped)
        assert [
            r["index"] for r in other.load_records(result.run_id)
        ] == [0, 1]

    def test_incompatible_format_ignored(self, stored, tmp_path):
        store, result = stored
        manifest = dict(store.load_manifest(result.run_id))
        manifest["format"] = 999
        other = RunStore(tmp_path)
        other.save_manifest(result.run_id, manifest)
        assert other.load_manifest(result.run_id) is None


class TestResume:
    def _truncated_store(self, stored, tmp_path, k):
        """A store snapshot as if the run had been killed after ``k``
        computed evaluations (checkpoints are prefixes, so this is
        exactly the state an interrupted run leaves behind)."""
        store, result = stored
        records = store.load_records(result.run_id)
        manifest = dict(store.load_manifest(result.run_id))
        manifest.update(
            completed=False, n_evaluations=k, baseline_key=None,
            front=None,
        )
        snap = RunStore(tmp_path)
        snap.save_run(manifest, records[:k])
        return snap, result.run_id

    @pytest.mark.parametrize("k", [1, 5, 9])
    def test_killed_run_resumes_bit_identical(
        self, stored, reference, tmp_path, k
    ):
        snap, run_id = self._truncated_store(stored, tmp_path, k)
        resumed = run_search(
            rs_kernel, points=_points(), store=snap, resume=True,
            **_KWARGS,
        )
        assert resumed.resumed and resumed.n_restored == k
        assert _trace(resumed) == _trace(reference)
        assert _front(resumed) == _front(reference)
        rs = resumed.stats["run_store"]
        assert rs["computed"] == reference.n_evaluated - k
        assert rs["replayed"] is True
        # the resumed run completed the stored run in place
        manifest = snap.load_manifest(run_id)
        assert manifest["completed"]
        assert manifest["n_evaluations"] == reference.n_evaluated

    def test_per_candidate_resume_bit_identical(
        self, stored, reference, tmp_path
    ):
        # config_batch is outside the run identity: a config-batched
        # run resumes on the per-candidate path bit-identically
        snap, _ = self._truncated_store(stored, tmp_path, 5)
        resumed = run_search(
            rs_kernel, points=_points(), store=snap, resume=True,
            config_batch=False, **_KWARGS,
        )
        assert resumed.stats["evaluator"]["pool_runs"] == 0
        assert resumed.n_restored == 5
        assert _trace(resumed) == _trace(reference)
        assert _front(resumed) == _front(reference)

    def test_warm_resume_recomputes_nothing(self, stored, reference):
        store, result = stored
        warm = run_search(
            rs_kernel, points=_points(), store=store, resume=True,
            **_KWARGS,
        )
        assert warm.resumed
        assert warm.n_restored == reference.n_evaluated
        rs = warm.stats["run_store"]
        assert rs["computed"] == 0 and rs["replayed"] is False
        assert _trace(warm) == _trace(reference)
        assert _front(warm) == _front(reference)
        assert warm.baseline.key == reference.baseline.key
        assert warm.contributions == reference.contributions

    def test_resume_requires_store(self):
        with pytest.raises(ValueError, match="requires store="):
            run_search(
                rs_kernel, points=_points(), resume=True, **_KWARGS
            )

    def test_fresh_run_overwrites_stale_records(
        self, stored, reference, tmp_path
    ):
        snap, run_id = self._truncated_store(stored, tmp_path, 5)
        # resume=False: the stale partial run is truncated, not reused
        fresh = run_search(
            rs_kernel, points=_points(), store=snap, **_KWARGS
        )
        assert not fresh.resumed and fresh.n_restored == 0
        assert _trace(fresh) == _trace(reference)

    def test_resume_over_corrupt_records_restarts(
        self, stored, reference, tmp_path
    ):
        snap, run_id = self._truncated_store(stored, tmp_path, 5)
        (snap.run_dir(run_id) / "evals.pkl").write_bytes(b"\x80garbage")
        resumed = run_search(
            rs_kernel, points=_points(), store=snap, resume=True,
            **_KWARGS,
        )
        assert not resumed.resumed and resumed.n_restored == 0
        assert _trace(resumed) == _trace(reference)

    def test_version_mismatch_restarts_instead_of_mixing(
        self, stored, reference, tmp_path
    ):
        """Records computed by a different library release must never
        mix into a resumed run (the run key hashes parameters, not
        library behavior)."""
        snap, run_id = self._truncated_store(stored, tmp_path, 5)
        manifest = dict(snap.load_manifest(run_id))
        manifest["library_version"] = "0.0.0-other"
        snap.save_manifest(run_id, manifest)
        resumed = run_search(
            rs_kernel, points=_points(), store=snap, resume=True,
            **_KWARGS,
        )
        assert not resumed.resumed and resumed.n_restored == 0
        assert _trace(resumed) == _trace(reference)
        # the restarted run re-stamped the current version
        from repro.search.store import library_version

        assert (
            snap.load_manifest(run_id)["library_version"]
            == library_version()
        )

    def test_checkpoint_cadence(self, reference, tmp_path):
        result = run_search(
            rs_kernel, points=_points(), store=tmp_path,
            checkpoint_every=3, **_KWARGS,
        )
        assert _trace(result) == _trace(reference)
        # final completion checkpoint always lands
        store = RunStore(tmp_path)
        assert (
            len(store.load_records(result.run_id))
            == reference.n_evaluated
        )


class TestSigkillResume:
    """A run killed by a real SIGKILL resumes bit-identically."""

    CHILD = textwrap.dedent(
        """
        import sys
        import numpy as np
        from repro.frontend import kernel
        from repro.search.api import run_search

        @kernel
        def rs_kernel(n: int, h: float, data: "f64[]") -> float:
            s = 0.0
            t = 0.0
            for i in range(n):
                t = data[i] * h + t * 0.5
                s = s + sqrt(t * t + h)
            return s

        points = []
        for seed in (5, 6):
            rng = np.random.default_rng(seed)
            points.append((32, 1.0 / 3.0, rng.uniform(0.1, 1.0, 32)))
        run_search(
            rs_kernel, points=points, threshold=1e-6,
            candidates=("t", "s", "h", "data"),
            strategies=("greedy", "delta", "anneal"),
            budget=12, seed=7, store=sys.argv[1],
        )
        """
    )

    def test_sigkill_then_resume(self, reference, tmp_path):
        script = tmp_path / "child.py"
        script.write_text(self.CHILD)
        store_dir = tmp_path / "store"
        env = dict(
            os.environ,
            PYTHONPATH=str(_SRC),
            REPRO_SEARCH_CRASH_AFTER="5",
        )
        proc = subprocess.run(
            [sys.executable, str(script), str(store_dir)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr
        store = RunStore(store_dir)
        runs = store.list_runs()
        assert len(runs) == 1 and not runs[0]["completed"]
        n_stored = len(store.load_records(runs[0]["run_id"]))
        assert 0 < n_stored < reference.n_evaluated
        resumed = run_search(
            rs_kernel, points=_points(), store=store, resume=True,
            **_KWARGS,
        )
        assert resumed.n_restored == n_stored
        assert _trace(resumed) == _trace(reference)
        assert _front(resumed) == _front(reference)


class TestWarmStart:
    def test_warm_start_estimator_memo(self):
        from repro.core.api import warm_start_estimator_memo
        from repro.core.models import TaylorModel

        first = warm_start_estimator_memo(
            [rs_kernel], models=(TaylorModel(),)
        )
        again = warm_start_estimator_memo(
            [rs_kernel], models=(TaylorModel(),)
        )
        assert first in (0, 1)  # may already be memoized by prior tests
        assert again == 0


PLAN = {
    "defaults": {"seed": 0},
    "entries": [
        {
            "scenario": "blackscholes",
            "budget": 10,
            "strategies": ["greedy", "delta"],
            "scenario_args": {"n_points": 2, "n_samples": 16},
        },
        {
            "scenario": "kmeans",
            "budget": 8,
            "strategies": ["greedy", "delta"],
            "scenario_args": {"size": 12, "n_workloads": 2},
        },
    ],
}


class TestOrchestrator:
    @pytest.fixture(scope="class")
    def plan_store(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("plan-store")
        orch = SearchOrchestrator.from_plan(PLAN, store=root)
        runs = orch.run()
        assert orch.ok, [r.error for r in runs]
        return root, runs

    def test_plan_runs_all_entries(self, plan_store):
        _, runs = plan_store
        assert [r.entry.scenario for r in runs] == [
            "blackscholes", "kmeans",
        ]
        assert all(len(r.result.front) > 0 for r in runs)
        assert all(not r.result.resumed for r in runs)

    def test_plan_resume_restores_everything(self, plan_store):
        root, runs = plan_store
        orch = SearchOrchestrator.from_plan(PLAN, store=root)
        resumed = orch.run()
        assert orch.ok
        for first, second in zip(runs, resumed):
            res = second.result
            assert res.resumed
            assert res.stats["run_store"]["computed"] == 0
            assert _front(res) == _front(first.result)
        report = orch.report()
        assert "blackscholes" in report and "kmeans" in report
        assert "restored" in report

    def test_report_and_to_dict(self, plan_store):
        root, _ = plan_store
        orch = SearchOrchestrator.from_plan(PLAN, store=root)
        orch.run()
        d = orch.to_dict()
        assert d["ok"] and len(d["runs"]) == 2
        assert d["runs"][0]["result"]["resumed"]

    def test_failed_entry_is_reported_not_fatal(self, tmp_path):
        plan = {
            "entries": [
                {
                    "scenario": "kmeans",
                    "scenario_args": {"size": 12, "n_workloads": 2},
                    "budget": 4,
                    "strategies": ["greedy"],
                },
                {
                    "scenario": "kmeans",
                    "scenario_args": {"no_such_arg": 1},
                },
            ]
        }
        orch = SearchOrchestrator.from_plan(plan, store=tmp_path)
        runs = orch.run()
        assert not orch.ok
        assert runs[0].ok and runs[1].status == "failed"
        assert "FAILED" in orch.report()

    def test_reserved_and_unknown_override_keys_rejected(self, tmp_path):
        # 'resume' belongs to the orchestrator, not a plan entry
        with pytest.raises(ValueError, match="unknown override keys"):
            SearchOrchestrator.from_plan(
                {"entries": [{"scenario": "kmeans", "resume": False}]},
                store=tmp_path,
            )
        # a typo'd key fails at plan load, not as a runtime entry error
        with pytest.raises(ValueError, match=r"\['budgets'\]"):
            SearchOrchestrator.from_plan(
                {"entries": [{"scenario": "kmeans", "budgets": 4}]},
                store=tmp_path,
            )
        with pytest.raises(ValueError, match="plan defaults"):
            SearchOrchestrator.from_plan(
                {
                    "defaults": {"store": "elsewhere"},
                    "entries": [{"scenario": "kmeans"}],
                },
                store=tmp_path,
            )

    def test_unknown_scenario_rejected(self, tmp_path):
        with pytest.raises(KeyError, match="unknown plan scenarios"):
            SearchOrchestrator.from_plan(
                {"entries": [{"scenario": "nope"}]}, store=tmp_path
            )

    def test_empty_plan_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no entries"):
            SearchOrchestrator.from_plan({"entries": []}, store=tmp_path)

    @pytest.mark.parametrize(
        "override",
        [
            {"budget": 0},
            {"threshold": -1},
            {"strategies": "greedy"},
            {"seed": "x"},
        ],
    )
    def test_bad_override_values_rejected_at_load(self, override):
        # the same knob checks as serve specs, at load time — not a
        # zero-budget search, or strategies ('g', 'r', 'e', ...)
        with pytest.raises(ConfigError):
            PlanEntry.from_dict({"scenario": "kmeans", **override})

    def test_over_all_apps_covers_every_scenario(self, tmp_path):
        orch = SearchOrchestrator.over_all_apps(tmp_path, budget=4)
        names = [e.scenario for e in orch.entries]
        assert names == sorted(names) and len(names) == 5

    def test_entry_roundtrip(self):
        entry = PlanEntry.from_dict(PLAN["entries"][0])
        assert entry.overrides["strategies"] == ("greedy", "delta")
        back = entry.to_dict()
        assert back["scenario"] == "blackscholes"
        assert back["strategies"] == ["greedy", "delta"]
        assert back["scenario_args"] == {"n_points": 2, "n_samples": 16}


class TestStoreCLI:
    def test_store_and_resume_roundtrip(self, tmp_path, capsys):
        store = tmp_path / "runs"
        args = [
            "search", "--kernel", "kmeans", "--budget", "4",
            "--strategies", "greedy", "--store", str(store),
        ]
        assert cli(args) == 0
        out1 = capsys.readouterr().out
        assert "run store: run=" in out1
        assert "restored=0" in out1
        assert cli(args + ["--resume"]) == 0
        out2 = capsys.readouterr().out
        assert "computed=0" in out2

    def test_plan_cli(self, tmp_path, capsys):
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps(
            {"entries": [PLAN["entries"][1]], "defaults": {"seed": 0}}
        ))
        store = tmp_path / "runs"
        args = ["plan", "--plan", str(plan_file), "--store", str(store)]
        assert cli(args) == 0
        assert "kmeans" in capsys.readouterr().out
        assert cli(args + ["--resume"]) == 0
        assert "restored" in capsys.readouterr().out

    def test_plan_cli_strategies_flag_applies(self, tmp_path, capsys):
        """Regression: --strategies used to be dropped in --plan mode."""
        entry = dict(PLAN["entries"][1])
        del entry["strategies"]
        plan_file = tmp_path / "plan.json"
        plan_file.write_text(json.dumps({"entries": [entry]}))
        store = tmp_path / "runs"
        assert cli([
            "plan", "--plan", str(plan_file), "--store", str(store),
            "--strategies", "greedy",
        ]) == 0
        capsys.readouterr()
        (manifest,) = RunStore(store).list_runs()
        assert manifest["key"]["strategies"] == ["greedy"]

    def test_plan_requires_store(self, capsys):
        with pytest.raises(SystemExit):
            cli(["plan", "--plan", "x.json"])
        capsys.readouterr()

    def test_resume_requires_store(self, capsys):
        with pytest.raises(SystemExit):
            cli(["search", "--kernel", "kmeans", "--resume"])
        capsys.readouterr()


class TestStoreListingRobustness:
    """list_runs / resolve_run_id against prefixes, half-written run
    directories, and a concurrent writer — the surfaces the job server
    polls while searches are being checkpointed."""

    @staticmethod
    def _manifest(run_id, created=0.0, completed=True):
        from repro.search.store import RUN_FORMAT, library_version

        return {
            "format": RUN_FORMAT,
            "run_id": run_id,
            "created": created,
            "completed": completed,
            "n_evaluations": 0,
            "label": "fabricated",
            "kernel": "k",
            "key": {"budget": 8},
            "library_version": library_version(),
        }

    def test_resolve_run_id_prefix_and_ambiguity(self, tmp_path):
        from repro.util.errors import UnknownNameError

        store = RunStore(tmp_path)
        id_a = "deadbeef" + "0" * 56
        id_b = "deadbe" + "ff" + "0" * 56
        store.save_run(self._manifest(id_a, created=1.0), [])
        store.save_run(self._manifest(id_b, created=2.0), [])

        assert store.resolve_run_id(id_a) == id_a
        assert store.resolve_run_id("deadbeef") == id_a
        assert store.resolve_run_id("deadbeff") == id_b
        with pytest.raises(UnknownNameError, match="ambiguous"):
            store.resolve_run_id("deadbe")
        with pytest.raises(UnknownNameError, match="no stored run"):
            store.resolve_run_id("f00f")

    def test_list_runs_skips_half_written_dirs(self, tmp_path):
        store = RunStore(tmp_path)
        good = "ab" * 32
        store.save_run(self._manifest(good), [])

        # the shapes a concurrent writer / crash can leave behind:
        (tmp_path / ("00" * 16)).mkdir()  # mkdir'd, nothing landed
        torn = tmp_path / ("11" * 16)
        torn.mkdir()
        (torn / "manifest.json").write_text('{"format":')  # torn JSON
        foreign = tmp_path / ("22" * 16)
        foreign.mkdir()
        (foreign / "manifest.json").write_text("[1, 2]")  # not a dict
        stale = tmp_path / ("33" * 16)
        stale.mkdir()
        (stale / "manifest.json").write_text('{"format": 999}')
        half = tmp_path / ("44" * 16)
        half.mkdir()
        (half / "records.pkl.tmp").write_bytes(b"partial")
        (tmp_path / "stray-file").write_text("not a run dir")

        runs = store.list_runs()
        assert [m["run_id"] for m in runs] == [good]
        assert store.resolve_run_id("abab") == good
        # and the polling surface degrades to exists=False, not a crash
        assert store.run_progress("00" * 32) == {
            "run_id": "00" * 32,
            "exists": False,
        }

    def test_list_runs_under_concurrent_writer(self, tmp_path):
        import threading

        store = RunStore(tmp_path)
        stop = threading.Event()
        errors = []

        def writer():
            i = 0
            try:
                while not stop.is_set():
                    run_id = f"{i:064x}"
                    run_dir = store.run_dir(run_id)
                    run_dir.mkdir(parents=True, exist_ok=True)
                    # a torn non-atomic write first, then the real
                    # manifest — the reader may observe either
                    (run_dir / "manifest.json").write_text('{"forma')
                    (run_dir / "manifest.json").write_text(
                        json.dumps(self._manifest(run_id, created=float(i)))
                    )
                    i += 1
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(300):
                for manifest in store.list_runs():
                    # every listed manifest is whole and well-formed
                    assert manifest["format"] is not None
                    assert len(str(manifest["run_id"])) == 64
        finally:
            stop.set()
            thread.join(30)
        assert not errors
        # once the writer is quiet, the listing is exact and sorted
        final = store.list_runs()
        assert [m["run_id"] for m in final] == sorted(
            (m["run_id"] for m in final),
            key=lambda r: int(r, 16),
            reverse=True,
        )
