"""Distributed execution tests: the lease claim protocol (exclusive
acquire, TTL steal, heartbeat renewal, torn-lease recovery), store
union-merge with verification and shard provenance, lease-aware
pruning, ambiguity listings, the worker fleet's bit-identical
equivalence to a serial orchestrator run (including under SIGKILL),
and the serve/CLI surfaces over all of it."""

import json
import multiprocessing
import os
import threading
import time
import warnings

import pytest

from repro import ConfigError, Session, SessionConfig, UnknownNameError, faults
from repro.cli import main as cli
from repro.codegen import compile as codegen_compile
from repro.codegen import native
from repro.core import api as core_api
from repro.frontend import registry as kernel_registry
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.dist import (
    LeaseLostError,
    LeaseManager,
    merge_stores,
    run_fleet,
)
from repro.dist.fleet import elect_front
from repro.search.orchestrator import PlanEntry, app_scenarios, shard_entries
from repro.search.store import RunStore


@pytest.fixture(autouse=True)
def _faults_disabled():
    faults.disable()
    yield
    faults.disable()


# -- leases -------------------------------------------------------------------


class TestLease:
    def test_acquire_is_exclusive_then_released(self, tmp_path):
        a = LeaseManager(tmp_path, owner="a", ttl_s=30.0)
        b = LeaseManager(tmp_path, owner="b", ttl_s=30.0)
        lease = a.acquire("deadbeef", meta={"entry": 0})
        assert lease is not None and lease.owner == "a"
        assert b.acquire("deadbeef") is None  # live holder elsewhere
        holder = a.holder("deadbeef")
        assert holder is not None and holder["owner"] == "a"
        assert a.active_keys() == ["deadbeef"]
        assert a.release(lease) is True
        assert b.acquire("deadbeef") is not None

    def test_renew_advances_deadline(self, tmp_path):
        mgr = LeaseManager(tmp_path, ttl_s=30.0)
        lease = mgr.acquire("cafe")
        before = lease.deadline
        time.sleep(0.01)
        mgr.renew(lease)
        assert lease.deadline > before
        assert lease.renewals == 1

    def test_steal_after_ttl_expiry(self, tmp_path):
        dead = LeaseManager(tmp_path, owner="dead", ttl_s=0.1)
        lease = dead.acquire("feed")
        assert lease is not None
        time.sleep(0.15)
        thief = LeaseManager(tmp_path, owner="thief", ttl_s=30.0)
        stolen = thief.acquire("feed")
        assert stolen is not None and stolen.owner == "thief"
        # the dead holder's next heartbeat detects the theft
        with pytest.raises(LeaseLostError):
            dead.renew(lease)
        # ...and its release must not strand the new holder
        assert dead.release(lease) is False
        assert thief.holder("feed")["owner"] == "thief"

    def test_corrupt_lease_is_stealable(self, tmp_path):
        (tmp_path / "beef.lease").write_bytes(b"\x00not json\xff")
        mgr = LeaseManager(tmp_path, owner="x", ttl_s=30.0)
        assert mgr.acquire("beef") is not None

    def test_torn_acquire_leaves_stealable_lease(self, tmp_path):
        # a torn fault at lease.acquire truncates the payload: the
        # writer believes it holds the lease, every reader sees garbage
        faults.enable(
            faults.FaultPlan(
                specs=(
                    faults.FaultSpec(
                        site="lease.acquire", kind="torn", nth=(1,)
                    ),
                )
            )
        )
        writer = LeaseManager(tmp_path, owner="writer", ttl_s=30.0)
        torn = writer.acquire("f00d")
        assert torn is not None  # the writer cannot tell
        faults.disable()
        reader = LeaseManager(tmp_path, owner="reader", ttl_s=30.0)
        assert reader.holder("f00d") is None  # unreadable == no holder
        stolen = reader.acquire("f00d")  # ...and stealable
        assert stolen is not None and stolen.owner == "reader"
        with pytest.raises(LeaseLostError):
            writer.renew(torn)

    def test_renew_fault_aborts_conservatively(self, tmp_path):
        mgr = LeaseManager(tmp_path, ttl_s=30.0)
        lease = mgr.acquire("abad")
        faults.enable(
            faults.FaultPlan(
                specs=(
                    faults.FaultSpec(
                        site="lease.renew", kind="oserror", nth=(1,)
                    ),
                )
            )
        )
        with pytest.raises(LeaseLostError):
            mgr.renew(lease)

    def test_sweep_expired(self, tmp_path):
        mgr = LeaseManager(tmp_path, ttl_s=0.1)
        mgr.acquire("aaaa")
        mgr.acquire("bbbb")
        time.sleep(0.15)
        live = LeaseManager(tmp_path, ttl_s=30.0)
        live.acquire("cccc")
        assert live.sweep_expired() == 2
        assert live.active_keys() == ["cccc"]

    def test_unsafe_keys_rejected(self, tmp_path):
        mgr = LeaseManager(tmp_path)
        for key in ("", "../escape", "a/b", ".hidden"):
            with pytest.raises(ConfigError, match="filesystem-safe"):
                mgr.acquire(key)

    def test_bad_ttl_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="ttl"):
            LeaseManager(tmp_path, ttl_s=0.0)


def _contend(directory, barrier, queue, owner):
    mgr = LeaseManager(directory, owner=owner, ttl_s=30.0)
    barrier.wait()
    lease = mgr.acquire("feedface")
    queue.put((owner, lease is not None))


class TestClaimContention:
    def test_exactly_one_of_n_processes_wins(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        n = 4
        barrier = ctx.Barrier(n)
        queue = ctx.Queue()
        procs = [
            ctx.Process(
                target=_contend,
                args=(str(tmp_path), barrier, queue, f"p{i}"),
            )
            for i in range(n)
        ]
        for p in procs:
            p.start()
        results = [queue.get(timeout=30) for _ in range(n)]
        for p in procs:
            p.join(timeout=30)
        winners = [owner for owner, won in results if won]
        assert len(winners) == 1  # exclusive acquire: one link lands
        # the losers moved on; the winner's lease is live on disk
        mgr = LeaseManager(tmp_path, ttl_s=30.0)
        assert mgr.holder("feedface")["owner"] == winners[0]


# -- store merge --------------------------------------------------------------

_FAST = dict(budget=3, strategies=("greedy",))


def _store_with_run(path, seed):
    store = RunStore(path)
    sess = Session(SessionConfig(seed=seed), store=store)
    sess.search("kmeans", **_FAST)
    return store


class TestStoreMerge:
    def test_union_import_and_idempotence(self, tmp_path):
        a = _store_with_run(tmp_path / "a", seed=0)
        b = _store_with_run(tmp_path / "b", seed=1)
        dest = RunStore(tmp_path / "merged")
        report = merge_stores(dest, [a, b])
        assert report.imported == 2 and report.conflicts == 0
        ids = {m["run_id"] for m in dest.list_runs()}
        assert ids == {
            m["run_id"] for s in (a, b) for m in s.list_runs()
        }
        # merged records are byte-for-byte the source records
        for rid in ids:
            src = a if a.load_manifest(rid) else b
            assert dest.load_records(rid) == src.load_records(rid)
        # merging again changes nothing
        again = dest.merge([a, b])
        assert again.imported == 0 and again.unchanged == 2

    def test_merged_manifest_carries_shard_provenance(self, tmp_path):
        a = _store_with_run(tmp_path / "a", seed=0)
        dest = RunStore(tmp_path / "merged")
        merge_stores(dest, [a])
        (manifest,) = dest.list_runs()
        (shard,) = manifest["shards"]
        assert shard["seed"] == 0
        assert shard["source"] == str(a.root)
        assert shard["host"] and shard["pid"]

    def test_completed_source_beats_partial_destination(self, tmp_path):
        src = _store_with_run(tmp_path / "src", seed=0)
        (manifest,) = src.list_runs()
        rid = manifest["run_id"]
        records = src.load_records(rid)
        assert len(records) >= 2
        dest = RunStore(tmp_path / "dest")
        partial = dict(manifest)
        partial["completed"] = False
        partial["n_evaluations"] = 1
        partial["front"] = None
        dest.save_run(partial, records[:1])
        report = merge_stores(dest, [src])
        assert report.updated == 1
        merged = dest.load_manifest(rid)
        assert merged["completed"]
        assert dest.load_records(rid) == records

    def test_longer_prefix_beats_shorter(self, tmp_path):
        full = _store_with_run(tmp_path / "full", seed=0)
        (manifest,) = full.list_runs()
        rid = manifest["run_id"]
        records = full.load_records(rid)
        partial = dict(manifest)
        partial["completed"] = False
        partial["front"] = None
        dest = RunStore(tmp_path / "dest")
        dest.save_run(dict(partial), records[:1])
        src = RunStore(tmp_path / "src")
        src.save_run(dict(partial), records[:2])
        report = merge_stores(dest, [src])
        assert report.updated == 1
        assert dest.load_records(rid) == records[:2]
        # the reverse direction is a no-op: shorter never wins
        back = merge_stores(src, [dest])
        assert back.updated == 0 and back.unchanged == 1

    def test_disagreeing_completed_runs_conflict(self, tmp_path):
        a = _store_with_run(tmp_path / "a", seed=0)
        (manifest,) = a.list_runs()
        rid = manifest["run_id"]
        records = a.load_records(rid)
        tampered = dict(manifest)
        tampered["n_evaluations"] = len(records) + 1
        tampered["front"] = []
        src = RunStore(tmp_path / "tampered")
        src.save_run(tampered, records + [dict(records[-1], index=len(records))])
        report = merge_stores(a, [src])
        assert report.conflicts == 1 and report.updated == 0
        # the destination was not clobbered
        assert a.load_manifest(rid)["n_evaluations"] == len(records)

    def test_corrupt_source_records_skipped(self, tmp_path):
        src = _store_with_run(tmp_path / "src", seed=0)
        (manifest,) = src.list_runs()
        rid = manifest["run_id"]
        src.run_dir(rid).joinpath("evals.pkl").write_bytes(b"\xde\xad")
        dest = RunStore(tmp_path / "dest")
        report = merge_stores(dest, [src])
        assert report.skipped_corrupt == 1 and report.imported == 0
        assert dest.list_runs() == []

    def test_merge_validation(self, tmp_path):
        store = RunStore(tmp_path / "s")
        with pytest.raises(ConfigError, match="at least one source"):
            merge_stores(store, [])
        with pytest.raises(ConfigError, match="is the destination"):
            merge_stores(store, [RunStore(tmp_path / "s")])


# -- lease-aware pruning and ambiguity listings -------------------------------


class TestStoreDistHygiene:
    def test_prune_spares_live_leased_runs(self, tmp_path):
        store = _store_with_run(tmp_path / "s", seed=0)
        (manifest,) = store.list_runs()
        rid = manifest["run_id"]
        partial = dict(manifest)
        partial["completed"] = False
        store.save_manifest(rid, partial)
        leases = LeaseManager(store.leases_dir(), ttl_s=30.0)
        lease = leases.acquire(rid)
        assert store.prune(incomplete=True, min_age_hours=0.0) == []
        leases.release(lease)
        pruned = store.prune(incomplete=True, min_age_hours=0.0)
        assert [m["run_id"] for m in pruned] == [rid]

    def test_prune_never_collects_infra_dirs(self, tmp_path):
        store = _store_with_run(tmp_path / "s", seed=0)
        LeaseManager(store.leases_dir(), ttl_s=30.0).acquire("aa")
        dist_dir = store.root / "_dist"
        dist_dir.mkdir()
        (dist_dir / "worker-0.json").write_text("{}")
        pruned = store.prune(incomplete=True, min_age_hours=0.0)
        assert pruned == []
        assert store.leases_dir().is_dir() and dist_dir.is_dir()

    def test_ambiguity_error_lists_shard_provenance(self, tmp_path):
        store = RunStore(tmp_path / "s")
        for rid, seed in ((f"aa{'1' * 62}", 3), (f"aa{'2' * 62}", 4)):
            manifest = store.new_manifest(
                rid, {"seed": seed}, kernel="k", label=f"seed{seed}"
            )
            store.save_manifest(rid, manifest)
        with pytest.raises(UnknownNameError) as exc:
            store.resolve_run_id("aa")
        message = str(exc.value)
        assert "ambiguous between 2 runs" in message
        assert "seed=3" in message and "seed=4" in message
        assert "in-flight" in message


# -- the worker fleet ---------------------------------------------------------

_FLEET_ENTRY = {"scenario": "kmeans", "scenario_args": {"size": 8}}
_FLEET_DEFAULTS = {"budget": 4, "strategies": ["greedy"]}


def _serial_reference(tmp_path, defaults, shards, seed=0):
    """Run the sharded plan serially; returns (store, manifests)."""
    cfg = SessionConfig(seed=seed)
    store = RunStore(tmp_path / "ref")
    sess = Session(cfg, store=store)
    sharded = shard_entries(
        [PlanEntry.from_dict(_FLEET_ENTRY)], shards, default_seed=seed
    )
    for entry in sharded:
        merged = dict(defaults)
        merged.update(entry.overrides)
        merged["strategies"] = tuple(merged["strategies"])
        scen = app_scenarios()[entry.scenario].search_scenario(
            **entry.scenario_args
        )
        scen.run(session=sess, store=store, **merged)
    return store, store.list_runs()


class TestFleet:
    def test_fleet_matches_serial_reference_bit_for_bit(self, tmp_path):
        cfg = SessionConfig(lease_ttl_s=5.0)
        fleet_store = RunStore(tmp_path / "fleet")
        result = run_fleet(
            [_FLEET_ENTRY],
            fleet_store,
            workers=2,
            shards=2,
            defaults=_FLEET_DEFAULTS,
            session_config=cfg,
        )
        assert result.completed, result.stats
        assert len(result.entries) == 2
        assert {e["seed"] for e in result.entries} == {0, 1}
        ref_store, ref_manifests = _serial_reference(
            tmp_path, _FLEET_DEFAULTS, shards=2
        )
        ref_ids = {m["run_id"] for m in ref_manifests}
        assert {m["run_id"] for m in fleet_store.list_runs()} == ref_ids
        # every shard run's evaluation history is bit-identical
        for rid in ref_ids:
            assert fleet_store.load_records(rid) == ref_store.load_records(
                rid
            )
        # ...and so is the elected winner front
        ref_front = elect_front(ref_manifests)
        assert [p.to_dict() for p in ref_front.points] == result.front
        # front provenance names the shard run that produced each point
        for point in result.front:
            assert point["provenance"]["run_id"] in ref_ids

    def test_sigkilled_worker_is_stolen_and_resumed(self, tmp_path):
        # worker 0 SIGKILLs itself after 2 computed candidates land
        # post-checkpoint; its lease expires and worker 1 resumes from
        # the checkpoint prefix.  The merged outcome must be
        # bit-identical to the uninterrupted serial reference.
        defaults = {"budget": 6, "strategies": ["greedy"]}
        cfg = SessionConfig(lease_ttl_s=1.0)
        fleet_store = RunStore(tmp_path / "fleet")
        result = run_fleet(
            [_FLEET_ENTRY],
            fleet_store,
            workers=2,
            shards=2,
            defaults=defaults,
            session_config=cfg,
            worker_env={0: {"REPRO_SEARCH_CRASH_AFTER": "2"}},
        )
        assert result.completed, result.stats
        assert result.stats["steals"] >= 1
        ref_store, ref_manifests = _serial_reference(
            tmp_path, defaults, shards=2
        )
        ref_ids = {m["run_id"] for m in ref_manifests}
        assert {m["run_id"] for m in fleet_store.list_runs()} == ref_ids
        for rid in ref_ids:
            assert fleet_store.load_records(rid) == ref_store.load_records(
                rid
            )
        ref_front = elect_front(ref_manifests)
        assert [p.to_dict() for p in ref_front.points] == result.front

    def test_session_fleet_facade(self, tmp_path):
        sess = Session(store=tmp_path / "runs")
        result = sess.fleet(
            ["kmeans"],
            defaults={"budget": 3, "strategies": ["greedy"]},
            workers=1,
        )
        assert result.completed
        assert result.front
        (manifest,) = RunStore(tmp_path / "runs").list_runs()
        assert manifest["completed"]

    def test_fleet_validation(self, tmp_path):
        store = RunStore(tmp_path / "s")
        with pytest.raises(ConfigError, match="workers"):
            run_fleet(["kmeans"], store, workers=0)
        with pytest.raises(ConfigError, match="no entries"):
            run_fleet([], store)
        with pytest.raises(UnknownNameError, match="kmeens"):
            run_fleet(["kmeens"], store)
        with pytest.raises(ConfigError, match="JSON-expressible"):
            run_fleet(
                ["kmeans"], store, defaults={"strategies": {"greedy"}}
            )


# -- serve integration --------------------------------------------------------


class TestServeFleet:
    def test_shard_fields_are_search_only_and_validated(self):
        from repro.serve.jobs import JobSpec

        with pytest.raises(ConfigError, match="shards"):
            JobSpec.from_dict(
                {"kind": "estimate", "kernel": "kmeans", "shards": 2}
            )
        with pytest.raises(ConfigError, match="shards"):
            JobSpec.from_dict(
                {"kind": "search", "kernel": "kmeans", "shards": 0}
            )
        with pytest.raises(ConfigError, match="fleet_workers"):
            JobSpec.from_dict(
                {"kind": "search", "kernel": "kmeans", "fleet_workers": -1}
            )
        spec = JobSpec.from_dict(
            {"kind": "search", "kernel": "kmeans", "shards": 2}
        )
        assert spec.shards == 2

    def test_budget_cap_covers_all_shards(self, tmp_path):
        from repro.serve.jobs import JobRegistry, JobSpec

        sess = Session(store=tmp_path / "runs")
        reg = JobRegistry(sess, workers=1, max_budget=8)
        try:
            with pytest.raises(ConfigError, match="exceeds the server cap"):
                reg.submit(
                    JobSpec.from_dict(
                        {
                            "kind": "search",
                            "kernel": "kmeans",
                            "budget": 3,
                            "shards": 4,
                        }
                    )
                )
            # the same per-shard budget fits unsharded
            job, created = reg.submit(
                JobSpec.from_dict(
                    {"kind": "search", "kernel": "kmeans", "budget": 3}
                )
            )
            assert created
        finally:
            reg.close()

    def test_sharded_search_requires_store(self):
        from repro.serve.jobs import JobRegistry, JobSpec

        reg = JobRegistry(Session(), workers=1)
        try:
            with pytest.raises(ConfigError, match="run store"):
                reg.submit(
                    JobSpec.from_dict(
                        {"kind": "search", "kernel": "kmeans", "shards": 2}
                    )
                )
        finally:
            reg.close()

    def test_sharded_search_job_end_to_end(self, tmp_path):
        from repro.serve.jobs import JobRegistry, JobSpec
        from repro.serve.metrics import ServiceMetrics

        sess = Session(store=tmp_path / "runs")
        reg = JobRegistry(sess, workers=1)
        metrics = ServiceMetrics(reg)
        try:
            job, _ = reg.submit(
                JobSpec.from_dict(
                    {
                        "kind": "search",
                        "kernel": "kmeans",
                        "budget": 3,
                        "strategies": ["greedy"],
                        "shards": 2,
                        "fleet_workers": 2,
                    }
                )
            )
            deadline = time.time() + 240
            while time.time() < deadline:
                done = reg.get(job.id)
                if done.state in ("completed", "failed"):
                    break
                time.sleep(0.1)
            assert done.state == "completed", done.error
            assert done.result["shards"] == 2
            assert len(done.result["entries"]) == 2
            assert all(e["completed"] for e in done.result["entries"])
            assert done.result["front"]
            snapshot = metrics.snapshot()
            assert snapshot["dist"]["repro_dist_fleet_runs_total"] >= 1
            assert (
                snapshot["dist"]["repro_dist_workers_spawned_total"] >= 2
            )
        finally:
            reg.close()


# -- CLI ----------------------------------------------------------------------


class TestDistCLI:
    def test_runs_merge_subcommand(self, tmp_path):
        a = _store_with_run(tmp_path / "a", seed=0)
        b = _store_with_run(tmp_path / "b", seed=1)
        dest = tmp_path / "merged"
        code = cli(
            ["runs", "--store", str(dest), "--merge", str(a.root),
             str(b.root)]
        )
        assert code == 0
        assert len(RunStore(dest).list_runs()) == 2

    def test_runs_merge_missing_source_exits_2(self, tmp_path):
        code = cli(
            ["runs", "--store", str(tmp_path / "dest"), "--merge",
             str(tmp_path / "nope")]
        )
        assert code == 2

    def test_dist_run_with_plan_file(self, tmp_path):
        plan = {
            "defaults": {"budget": 3, "strategies": ["greedy"]},
            "entries": [
                {"scenario": "kmeans", "scenario_args": {"size": 8}}
            ],
        }
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        store = tmp_path / "runs"
        code = cli(
            ["dist", "run", "--plan", str(plan_path), "--store",
             str(store), "--workers", "2", "--shards", "2", "--ttl", "5"]
        )
        assert code == 0
        manifests = RunStore(store).list_runs()
        assert len(manifests) == 2
        assert all(m["completed"] for m in manifests)

    def test_dist_run_requires_a_plan_source(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli(["dist", "run", "--store", str(tmp_path / "runs")])
        assert exc.value.code == 2
        assert "--plan FILE or --all" in capsys.readouterr().err

    def test_bare_dist_prints_help(self, capsys):
        assert cli(["dist"]) == 2


# -- fork safety --------------------------------------------------------------

#: every module-level lock a fleet fork can inherit held, read at call
#: time (the child must see its own re-created lock)
_FORK_LOCKS = {
    "estimator-memo": lambda: core_api._MEMO_LOCK,
    "config-kernel-cache": lambda: codegen_compile._CONFIG_KERNEL_LOCK,
    "native-build": lambda: native._BUILD_LOCK,
    "faults-state": lambda: faults._STATE_LOCK,
    "trace-state": lambda: obs_trace._STATE_LOCK,
    "kernel-registry": lambda: kernel_registry._REGISTRY_LOCK,
    "metrics-registry": lambda: obs_metrics.REGISTRY._lock,
    "metrics-instrument": lambda: core_api._MEMO_HITS._lock,
}


@pytest.mark.parametrize("name", sorted(_FORK_LOCKS))
def test_fork_child_does_not_inherit_a_held_lock(name):
    # serve can start a fleet from a job thread while a sibling job
    # thread holds one of these locks (the estimator memo's, for a
    # whole build); the forked worker must still be able to take it
    held, release = threading.Event(), threading.Event()

    def hold():
        with _FORK_LOCKS[name]():
            held.set()
            release.wait(10.0)

    holder = threading.Thread(target=hold)
    holder.start()
    try:
        assert held.wait(5.0)
        with warnings.catch_warnings():
            # Python >= 3.12 warns on any fork of a threaded process;
            # that fork is exactly the situation under test
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:  # child: always exit here, never back into pytest
            code = 1
            try:
                code = 0 if _FORK_LOCKS[name]().acquire(timeout=2.0) else 1
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
    finally:
        release.set()
        holder.join(10.0)
    assert not holder.is_alive()
    assert os.waitstatus_to_exitcode(status) == 0
