"""Robustness layer: fault injection, retries, atomic I/O, recovery.

Covers the PR-8 contracts end to end:

* fault plans are declarative, validated, JSON-round-trippable, and
  deterministic (same plan + same call sequence = same faults);
* the disabled fast path allocates nothing (tracemalloc-asserted);
* :mod:`repro.util.atomio` detects torn/corrupt payloads via the
  checksum frame, passes legacy unframed files through, and
  quarantines (never deletes) corrupt files;
* :mod:`repro.util.retry` retries only transient errnos, bounded by
  attempts *and* deadline, with uniform telemetry;
* run store / sweep cache / job journal degrade per contract under
  injected faults (recompute, quarantine-and-miss, skip-and-recover);
* the serve layer reports ``degraded`` health and adaptive
  ``Retry-After`` hints, and the watchdog fails/requeues wedged jobs.
"""

import errno
import json
import time
import tracemalloc

import pytest

from repro import faults
from repro.obs import metrics as obs_metrics
from repro.util import atomio
from repro.util.retry import (
    DEFAULT_IO_POLICY,
    RetryPolicy,
    is_transient,
    retry_call,
)
from repro.util.errors import ConfigError


@pytest.fixture(autouse=True)
def _faults_disabled():
    """Every test starts and ends with fault injection off."""
    faults.disable()
    yield
    faults.disable()


def _counter(name):
    return obs_metrics.REGISTRY.counter(name).value


# -- plans ---------------------------------------------------------------------


class TestFaultPlan:
    def test_spec_validation(self):
        with pytest.raises(ConfigError, match="kind"):
            faults.FaultSpec(site="store.write", kind="meteor", nth=(1,))
        with pytest.raises(ConfigError, match="never fire"):
            faults.FaultSpec(site="store.write", kind="oserror")
        with pytest.raises(ConfigError, match="1-based"):
            faults.FaultSpec(site="store.write", kind="oserror", nth=(0,))
        with pytest.raises(ConfigError, match="probability"):
            faults.FaultSpec(
                site="store.write", kind="oserror", probability=1.5
            )
        with pytest.raises(ConfigError, match="max_fires"):
            faults.FaultSpec(
                site="store.write", kind="oserror", nth=(1,), max_fires=0
            )

    def test_plan_roundtrip_inline_and_file(self, tmp_path):
        plan = faults.FaultPlan(
            seed=42,
            specs=(
                faults.FaultSpec(
                    site="store.write", kind="enospc", nth=(2, 5)
                ),
                faults.FaultSpec(
                    site="cache.read",
                    kind="oserror",
                    probability=0.25,
                    max_fires=3,
                ),
            ),
        )
        again = faults.FaultPlan.load(plan.to_json())
        assert again == plan
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        assert faults.FaultPlan.load(path) == plan
        assert plan.sites() == ["cache.read", "store.write"]

    def test_plan_rejects_garbage(self, tmp_path):
        with pytest.raises(ConfigError, match="not valid JSON"):
            faults.FaultPlan.load("{broken")
        with pytest.raises(ConfigError, match="cannot read"):
            faults.FaultPlan.load(tmp_path / "missing.json")
        with pytest.raises(ConfigError, match="unknown keys"):
            faults.FaultPlan.from_dict({"seed": 1, "bogus": []})
        with pytest.raises(ConfigError, match="unknown keys"):
            faults.FaultSpec.from_dict(
                {"site": "store.write", "kind": "oserror", "when": 3}
            )
        with pytest.raises(ConfigError, match="missing required"):
            faults.FaultSpec.from_dict({"site": "store.write"})
        with pytest.raises(ConfigError, match="missing required"):
            faults.FaultPlan.load('{"faults": [{"kind": "oserror"}]}')

    def test_nth_triggers_are_exact(self):
        state = faults.enable(
            faults.FaultPlan(
                specs=(
                    faults.FaultSpec(
                        site="store.write", kind="oserror", nth=(2,)
                    ),
                )
            )
        )
        assert faults.check("store.write") is None
        with pytest.raises(faults.InjectedFaultError) as exc:
            faults.check("store.write")
        assert exc.value.errno == errno.EIO
        assert exc.value.site == "store.write"
        assert faults.check("store.write") is None
        assert state.stats()["injected"] == 1
        assert state.stats()["calls"] == {"store.write": 3}

    def test_probability_is_seed_deterministic(self):
        def firing_pattern():
            state = faults.enable(
                faults.FaultPlan(
                    seed=7,
                    specs=(
                        faults.FaultSpec(
                            site="cache.read",
                            kind="torn",
                            probability=0.3,
                        ),
                    ),
                )
            )
            out = []
            for _ in range(50):
                out.append(faults.check("cache.read") is not None)
            return out, state.stats()["injected"]

        first, n1 = firing_pattern()
        second, n2 = firing_pattern()
        assert first == second and n1 == n2 > 0

    def test_max_fires_caps_firing(self):
        faults.enable(
            faults.FaultPlan(
                specs=(
                    faults.FaultSpec(
                        site="journal.append",
                        kind="torn",
                        nth=(1, 2, 3),
                        max_fires=2,
                    ),
                )
            )
        )
        fired = sum(
            faults.check("journal.append") is not None for _ in range(5)
        )
        assert fired == 2

    def test_enable_from_env_fails_fast(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "{not json")
        with pytest.raises(ConfigError):
            faults.enable_from_env()
        monkeypatch.setenv(
            "REPRO_FAULTS",
            '{"faults": [{"site": "store.write", "kind": "oserror", '
            '"nth": [1]}]}',
        )
        assert faults.enable_from_env() is not None
        assert faults.is_enabled()

    def test_disabled_check_allocates_nothing(self):
        """The NULL_SPAN discipline: with no plan active, a site probe
        must be one global read — no allocation anywhere in the faults
        module (the zero-overhead claim of the tentpole)."""
        import repro.faults as mod

        faults.disable()
        for _ in range(10):
            faults.check("store.write")  # warm any lazy interning
        tracemalloc.start()
        try:
            before = tracemalloc.take_snapshot()
            for _ in range(500):
                faults.check("store.write")
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        stats = after.filter_traces(
            (tracemalloc.Filter(True, mod.__file__),)
        ).compare_to(
            before.filter_traces(
                (tracemalloc.Filter(True, mod.__file__),)
            ),
            "lineno",
        )
        grown = [s for s in stats if s.size_diff > 0]
        assert not grown, f"disabled faults.check allocated: {grown}"


# -- atomio --------------------------------------------------------------------


class TestAtomio:
    def test_frame_roundtrip(self):
        data = b"payload \x00\xff bytes"
        assert atomio.unframe(atomio.frame(data)) == data

    def test_unframed_legacy_passthrough(self):
        blob = b'{"legacy": true}'
        assert atomio.unframe(blob) == blob

    def test_truncation_detected(self):
        framed = atomio.frame(b"x" * 100)
        with pytest.raises(
            atomio.CorruptPayloadError, match="truncated"
        ):
            atomio.unframe(framed[: len(framed) // 2])

    def test_header_tear_detected(self):
        torn = atomio.MAGIC + b"nonsense"
        with pytest.raises(
            atomio.CorruptPayloadError, match="torn frame header"
        ):
            atomio.unframe(torn)

    def test_bit_rot_detected(self):
        framed = bytearray(atomio.frame(b"sensitive-bytes"))
        framed[-1] ^= 0x01
        with pytest.raises(
            atomio.CorruptPayloadError, match="checksum mismatch"
        ):
            atomio.unframe(bytes(framed))

    def test_atomic_write_read_roundtrip(self, tmp_path):
        path = tmp_path / "blob.bin"
        atomio.atomic_write(path, b"abc", checksum=True, fsync=True)
        assert atomio.read_bytes(path, checked=True) == b"abc"
        # no temp files left behind
        assert list(tmp_path.glob("*.tmp")) == []

    def test_injected_torn_write_caught_on_read(self, tmp_path):
        faults.enable(
            faults.FaultPlan(
                specs=(
                    faults.FaultSpec(
                        site="store.write", kind="torn", nth=(1,)
                    ),
                )
            )
        )
        path = tmp_path / "torn.bin"
        # the torn write itself completes silently — that is the point
        atomio.atomic_write(
            path, b"y" * 64, checksum=True, site="store.write"
        )
        with pytest.raises(atomio.CorruptPayloadError):
            atomio.read_bytes(path, checked=True)

    def test_injected_transient_write_retried(self, tmp_path):
        faults.enable(
            faults.FaultPlan(
                specs=(
                    faults.FaultSpec(
                        site="store.write", kind="enospc", nth=(1, 2)
                    ),
                )
            )
        )
        retries_before = _counter("repro_retries_total")
        path = tmp_path / "retried.bin"
        atomio.atomic_write(
            path,
            b"ok",
            checksum=True,
            site="store.write",
            retry=DEFAULT_IO_POLICY,
        )
        assert atomio.read_bytes(path, checked=True) == b"ok"
        assert _counter("repro_retries_total") - retries_before == 2

    def test_quarantine_moves_not_deletes(self, tmp_path):
        before = _counter("repro_quarantined_total")
        a = tmp_path / "bad.pkl"
        a.write_bytes(b"junk-1")
        first = atomio.quarantine(a, "test")
        b = tmp_path / "bad.pkl"
        b.write_bytes(b"junk-2")
        second = atomio.quarantine(b, "test")
        assert not a.exists()
        assert first == tmp_path / atomio.QUARANTINE_DIR / "bad.pkl"
        assert second == tmp_path / atomio.QUARANTINE_DIR / "bad.pkl.1"
        assert first.read_bytes() == b"junk-1"
        assert second.read_bytes() == b"junk-2"
        assert _counter("repro_quarantined_total") - before == 2


# -- retry ---------------------------------------------------------------------


class TestRetry:
    def test_transient_classification(self):
        assert is_transient(OSError(errno.EIO, "io"))
        assert is_transient(OSError(errno.ENOSPC, "full"))
        assert is_transient(
            faults.InjectedFaultError(errno.ENOSPC, "store.write", "enospc")
        )
        assert not is_transient(OSError(errno.ENOENT, "missing"))
        assert not is_transient(ValueError("nope"))

    def test_retries_then_succeeds(self):
        sleeps = []
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise OSError(errno.EAGAIN, "busy")
            return "done"

        before = _counter("repro_retries_total")
        out = retry_call(flaky, op="test", sleep=sleeps.append)
        assert out == "done" and calls["n"] == 3
        assert len(sleeps) == 2
        policy = DEFAULT_IO_POLICY
        assert all(0 < s <= policy.cap_s for s in sleeps)
        assert _counter("repro_retries_total") - before == 2

    def test_non_transient_raises_immediately(self):
        calls = {"n": 0}

        def broken():
            calls["n"] += 1
            raise OSError(errno.EROFS, "read-only")

        with pytest.raises(OSError):
            retry_call(broken, sleep=lambda s: None)
        assert calls["n"] == 1

    def test_attempt_bound_and_exhausted_counter(self):
        calls = {"n": 0}

        def hopeless():
            calls["n"] += 1
            raise OSError(errno.EIO, "io")

        before = _counter("repro_retry_exhausted_total")
        policy = RetryPolicy(attempts=3, deadline_s=60.0)
        with pytest.raises(OSError):
            retry_call(hopeless, policy=policy, sleep=lambda s: None)
        assert calls["n"] == 3
        assert _counter("repro_retry_exhausted_total") - before == 1

    def test_deadline_bound(self):
        """A tiny wall-clock deadline stops the loop before the attempt
        budget: a retried op can never wedge its caller."""
        calls = {"n": 0}

        def hopeless():
            calls["n"] += 1
            raise OSError(errno.EIO, "io")

        policy = RetryPolicy(
            attempts=1000, base_s=0.2, cap_s=0.2, deadline_s=0.05
        )
        t0 = time.monotonic()
        with pytest.raises(OSError):
            retry_call(hopeless, policy=policy, sleep=lambda s: None)
        assert time.monotonic() - t0 < 1.0
        assert calls["n"] < 5


# -- store / cache degradation -------------------------------------------------


class TestStoreDegradation:
    def _store(self, tmp_path):
        from repro.search.store import RunStore

        return RunStore(tmp_path / "runs")

    def test_corrupt_checkpoint_quarantined_not_trusted(self, tmp_path):
        store = self._store(tmp_path)
        from repro.search.api import run_search
        from repro.apps import kmeans

        scen = kmeans.search_scenario(size=12, n_workloads=2)
        res = run_search(
            scen.kernel,
            points=scen.points,
            threshold=scen.threshold,
            budget=6,
            store=store,
            label="victim",
        )
        records_path = store._records_path(res.run_id)
        assert store.load_records(res.run_id)
        # torn page after the fact: checksum must catch it, quarantine
        # must preserve it, and the caller sees a from-scratch resume
        blob = records_path.read_bytes()
        records_path.write_bytes(blob[: len(blob) // 2])
        before = _counter("repro_quarantined_total")
        assert store.load_records(res.run_id) == []
        assert not records_path.exists()
        qdir = records_path.parent / atomio.QUARANTINE_DIR
        assert list(qdir.iterdir())
        assert _counter("repro_quarantined_total") - before == 1

    def test_checkpoint_write_absorbs_transient_faults(self, tmp_path):
        faults.enable(
            faults.FaultPlan(
                specs=(
                    faults.FaultSpec(
                        site="store.write",
                        kind="enospc",
                        nth=(1,),
                        max_fires=1,
                    ),
                )
            )
        )
        from repro.search.api import run_search
        from repro.apps import kmeans

        store = self._store(tmp_path)
        retries_before = _counter("repro_retries_total")
        scen = kmeans.search_scenario(size=12, n_workloads=2)
        res = run_search(
            scen.kernel,
            points=scen.points,
            threshold=scen.threshold,
            budget=6,
            store=store,
        )
        assert res.evaluations
        assert store.load_records(res.run_id)
        assert _counter("repro_retries_total") - retries_before >= 1


class TestCacheDegradation:
    def test_corrupt_entry_quarantined_and_recomputed(self, tmp_path):
        import numpy as np

        from repro import kernel
        from repro.sweep.cache import SweepCache
        from repro.sweep.engine import run_sweep

        @kernel
        def toy(x: float) -> float:
            return x * x + 1.0

        cache = SweepCache(directory=tmp_path / "cache")
        samples = {"x": [0.0, 1.0, 2.0, 3.0]}
        first = run_sweep(toy, samples, cache=cache)
        entries = list((tmp_path / "cache").glob("*.pkl"))
        assert len(entries) == 1
        entries[0].write_bytes(b"\x00garbage")
        before = _counter("repro_quarantined_total")
        # a fresh cache over the same directory: the corrupt entry must
        # be read from disk, quarantined, and recomputed transparently
        cache = SweepCache(directory=tmp_path / "cache")
        second = run_sweep(toy, samples, cache=cache)
        # the garbage moved to quarantine; the recompute re-put a
        # fresh, valid (framed) entry at the original path
        qdir = tmp_path / "cache" / atomio.QUARANTINE_DIR
        quarantined = list(qdir.iterdir())
        assert [p.read_bytes() for p in quarantined] == [b"\x00garbage"]
        assert entries[0].read_bytes().startswith(atomio.MAGIC)
        assert cache.corrupt_evictions >= 1
        assert _counter("repro_quarantined_total") - before == 1
        assert np.array_equal(
            np.asarray(first.total_error), np.asarray(second.total_error)
        )

    def test_write_failure_degrades_to_uncached(self, tmp_path):
        import numpy as np

        from repro import kernel
        from repro.sweep.cache import SweepCache
        from repro.sweep.engine import run_sweep

        @kernel
        def toy2(x: float) -> float:
            return x + 0.5

        # every attempt at the first disk put fails: the put is
        # abandoned (write_failures), the sweep result still returns
        attempts = DEFAULT_IO_POLICY.attempts
        faults.enable(
            faults.FaultPlan(
                specs=(
                    faults.FaultSpec(
                        site="cache.write",
                        kind="enospc",
                        nth=tuple(range(1, attempts + 1)),
                    ),
                )
            )
        )
        cache = SweepCache(directory=tmp_path / "cache")
        samples = {"x": [0.0, 1.0, 2.0]}
        rep = run_sweep(toy2, samples, cache=cache)
        assert rep.n == 3
        assert cache.write_failures == 1
        assert cache.cache_stats()["write_failures"] == 1
        assert list((tmp_path / "cache").glob("*.pkl")) == []


# -- journal recovery (satellite: truncated / checksum-mismatch) --------------


class TestJournalRecovery:
    def _journal_with_jobs(self, tmp_path):
        from repro.serve.jobs import Job, JobJournal, JobSpec, COMPLETED

        journal = JobJournal(tmp_path / "jobs")
        recs = {}
        for i, kernel_name in enumerate(("kmeans", "blackscholes")):
            spec = JobSpec(kind="estimate", kernel=kernel_name, point=i % 2)
            job = Job(spec=spec, id=spec.job_id, state=COMPLETED)
            job.result = {"kind": "estimate", "value": float(i)}
            journal.record(job)
            recs[job.id] = job
        return journal, recs

    def test_truncated_record_quarantined_on_load(self, tmp_path):
        journal, recs = self._journal_with_jobs(tmp_path)
        victim_id, survivor_id = sorted(recs)
        victim = journal.path_of(victim_id)
        blob = victim.read_bytes()
        victim.write_bytes(blob[: len(blob) // 2])
        before = _counter("repro_quarantined_total")
        loaded = journal.load()
        assert [r["id"] for r in loaded] == [survivor_id]
        assert not victim.exists()
        qdir = journal.directory / atomio.QUARANTINE_DIR
        assert list(qdir.iterdir())
        assert _counter("repro_quarantined_total") - before == 1
        # a fresh load is clean: the corrupt file cannot re-poison
        assert [r["id"] for r in journal.load()] == [survivor_id]

    def test_checksum_mismatch_quarantined_on_load(self, tmp_path):
        journal, recs = self._journal_with_jobs(tmp_path)
        victim_id, survivor_id = sorted(recs)
        victim = journal.path_of(victim_id)
        blob = bytearray(victim.read_bytes())
        blob[-2] ^= 0x20  # flip a payload bit under the checksum
        victim.write_bytes(bytes(blob))
        loaded = journal.load()
        assert [r["id"] for r in loaded] == [survivor_id]
        assert not victim.exists()

    def test_registry_recover_skips_corrupt_rehydrates_intact(
        self, tmp_path
    ):
        from repro.serve.jobs import JobJournal, JobRegistry
        from repro.session import Session

        journal, recs = self._journal_with_jobs(tmp_path)
        victim_id, survivor_id = sorted(recs)
        victim = journal.path_of(victim_id)
        victim.write_bytes(victim.read_bytes()[:40])
        sess = Session(store=tmp_path / "runs")
        registry = JobRegistry(
            sess, workers=1, journal=JobJournal(tmp_path / "jobs")
        )
        try:
            requeued = registry.recover()
            assert requeued == 0  # both records were terminal
            assert registry.get(survivor_id).state == "completed"
            assert registry.get(survivor_id).result is not None
            with pytest.raises(Exception):
                registry.get(victim_id)
        finally:
            registry.close()

    def test_legacy_unframed_record_still_loads(self, tmp_path):
        from repro.serve.jobs import JobJournal, JobSpec

        journal = JobJournal(tmp_path / "jobs")
        spec = JobSpec(kind="estimate", kernel="kmeans")
        rec = {
            "id": spec.job_id,
            "state": "completed",
            "spec": spec.to_dict(),
            "submitted": 1.0,
        }
        journal.path_of(spec.job_id).write_text(json.dumps(rec))
        assert [r["id"] for r in journal.load()] == [spec.job_id]


# -- serve robustness ----------------------------------------------------------


class TestServeRobustness:
    @pytest.fixture
    def registry(self, tmp_path):
        from repro.serve.jobs import JobRegistry
        from repro.session import Session

        sess = Session(store=tmp_path / "runs")
        reg = JobRegistry(sess, workers=2)
        yield reg
        reg.close()

    def test_adaptive_retry_after(self, registry, monkeypatch):
        import repro.serve.jobs as jobs_mod

        # no history: the 2 s prior, one queue wave
        class _Stub:
            def __init__(self, count, p50):
                self._snap = {"count": count, "p50": p50}

            def snapshot(self):
                return self._snap

        monkeypatch.setattr(jobs_mod, "_JOB_SECONDS", _Stub(0, 0.0))
        assert registry.retry_after_s() == 1
        # median 30 s jobs, empty queue, 2 workers → ceil(0.5 * 30)
        monkeypatch.setattr(jobs_mod, "_JOB_SECONDS", _Stub(10, 30.0))
        assert registry.retry_after_s() == 15
        # pathological median clamps at 60
        monkeypatch.setattr(jobs_mod, "_JOB_SECONDS", _Stub(10, 1e4))
        assert registry.retry_after_s() == 60

    def test_healthz_degrades_on_robustness_events(self, registry):
        from repro.serve.app import ServeApp
        from repro.serve.http import HttpRequest
        from repro.serve.metrics import ServiceMetrics

        metrics = ServiceMetrics(registry)
        app = ServeApp(registry, metrics)
        req = HttpRequest("GET", "/v1/healthz", {}, b"")
        status, payload, _ = app.handle(req)
        assert status == 200 and payload["status"] == "ok"
        # a quarantine on this server's watch flips health, stays 200
        obs_metrics.REGISTRY.counter("repro_quarantined_total").inc()
        status, payload, _ = app.handle(req)
        assert status == 200 and payload["status"] == "degraded"
        assert payload["degraded_events"] == {
            "repro_quarantined_total": 1
        }
        # absorbed retries do NOT degrade health
        metrics2 = ServiceMetrics(registry)
        obs_metrics.REGISTRY.counter("repro_retries_total").inc(5)
        assert metrics2.health()["status"] == "ok"
        # and /v1/metrics itemizes the robustness counters
        mreq = HttpRequest("GET", "/v1/metrics", {}, b"")
        status, payload, _ = ServeApp(registry, metrics).handle(mreq)
        assert status == 200
        assert payload["robustness"]["health"] == "degraded"
        assert (
            payload["robustness"]["counters"]["repro_quarantined_total"]
            == 1
        )

    def test_watchdog_fails_wedged_job(self, registry):
        from repro.serve.jobs import (
            FAILED,
            Job,
            JobSpec,
            RUNNING,
        )

        spec = JobSpec(kind="estimate", kernel="kmeans")
        job = Job(spec=spec, id=spec.job_id, state=RUNNING)
        job.started = time.time() - 100
        with registry._lock:
            registry._jobs[job.id] = job
            registry._deadlines[job.id] = time.time() - 50
        aborted = registry.watchdog_sweep(grace_s=1.0)
        assert aborted == 1
        assert job.state == FAILED and "watchdog" in job.error
        assert job.cancel_event.is_set()
        assert registry.counters["watchdog_aborts"] == 1
        # non-search kinds are not requeued
        assert registry.counters["watchdog_requeues"] == 0
        # the sweep is idempotent on finished jobs
        assert registry.watchdog_sweep(grace_s=1.0) == 0

    def test_watchdog_requeues_search_once(self, registry):
        from repro.serve.jobs import (
            COMPLETED,
            FINISHED,
            Job,
            JobSpec,
            RUNNING,
        )

        spec = JobSpec(
            kind="search",
            kernel="kmeans",
            budget=6,
            strategies=("greedy",),
        )
        job = Job(spec=spec, id=spec.job_id, state=RUNNING)
        job.started = time.time() - 100
        with registry._lock:
            registry._jobs[job.id] = job
            registry._deadlines[job.id] = time.time() - 50
        assert registry.watchdog_sweep(grace_s=1.0) == 1
        assert registry.counters["watchdog_requeues"] == 1
        # the id now points at the requeued incarnation
        requeued = registry.get(spec.job_id)
        assert requeued is not job
        deadline = time.monotonic() + 120
        while requeued.state not in FINISHED:
            assert time.monotonic() < deadline, "requeued job wedged"
            time.sleep(0.05)
        assert requeued.state == COMPLETED
        # a second wedge of the same id is NOT requeued again
        with registry._lock:
            requeued.state = RUNNING
            registry._deadlines[requeued.id] = time.time() - 50
        registry.watchdog_sweep(grace_s=1.0)
        assert registry.counters["watchdog_requeues"] == 1


# -- session wiring ------------------------------------------------------------


class TestSessionWiring:
    def test_config_validates_new_fields(self):
        from repro.session import SessionConfig

        cfg = SessionConfig(fault_plan='{"faults": []}', fsync=1)
        assert cfg.fsync is True
        with pytest.raises(ConfigError, match="fault_plan"):
            SessionConfig(fault_plan=123)
        # new fields round-trip and alter the fingerprint
        again = SessionConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert cfg.fingerprint() != SessionConfig().fingerprint()

    def test_session_enables_faults_from_config(self, tmp_path):
        from repro.session import Session, SessionConfig

        plan = faults.FaultPlan(
            seed=3,
            specs=(
                faults.FaultSpec(
                    site="cache.read", kind="oserror", nth=(1,)
                ),
            ),
        )
        assert not faults.is_enabled()
        Session(SessionConfig(fault_plan=plan.to_json()))
        assert faults.is_enabled()
        assert faults.current().plan == plan

    def test_session_rejects_malformed_plan(self):
        from repro.session import Session, SessionConfig

        with pytest.raises(ConfigError):
            Session(SessionConfig(fault_plan="{broken"))

    def test_session_threads_fsync_to_stores(self, tmp_path):
        from repro.session import Session, SessionConfig

        sess = Session(
            SessionConfig(fsync=True),
            cache=tmp_path / "cache",
            store=tmp_path / "runs",
        )
        assert sess.cache.fsync is True
        assert sess.store.fsync is True
