"""Deterministic chaos smoke: a seeded fault schedule, zero drift.

The robustness layer's contract is that faults change *timing and
telemetry, never results*: every injected failure is either absorbed
(retry, recompute, quarantine-and-miss) or surfaced as a
structured error — and an absorbed fault leaves the converged output
bit-identical to a fault-free run.  This smoke proves it in three
phases:

1. **Reference** — a fault-free search, fronts and stored records
   captured;
2. **Chaos search** — the same search under a seeded
   :class:`repro.faults.FaultPlan` (torn checkpoint write, ENOSPC
   bursts on the store) —
   asserted bit-identical to the reference, with nonzero
   ``repro_faults_injected_total`` and ``repro_retries_total``;
3. **Chaos serve** — an in-process serve round-trip (tune + search
   jobs through :meth:`ServeApp.handle`) with journal-append faults
   absorbed, then a restart over a journal with one torn record: the
   corrupt record is quarantined, recovery proceeds, and
   ``/v1/healthz`` reports ``degraded`` with the quarantine itemized.

Every wait is deadline-bounded — the smoke fails structurally, it
never hangs.  Run as a script (exit 0 = pass)::

    PYTHONPATH=src python benchmarks/chaos_smoke.py

or under pytest, which wraps the same flow in a test function.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path
from typing import List, Optional

_REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_REPO_ROOT / "src"))

SEARCH = {
    "kernel": "kmeans",
    "budget": 12,
    "strategies": ("greedy", "delta", "anneal"),
    "seed": 0,
}

#: the seeded fault schedule (kept declarative so a failure report can
#: name exactly what was injected)
CHAOS_PLAN = {
    "seed": 1234,
    "faults": [
        # a torn checkpoint early in the run: silently half-written,
        # self-healed by the next atomic whole-file checkpoint
        {"site": "store.write", "kind": "torn", "nth": [2]},
        # transient disk-full bursts, absorbed by the retry schedule
        {"site": "store.write", "kind": "enospc", "nth": [4, 7]},
    ],
}

SERVE_PLAN = {
    "seed": 1234,
    "faults": [
        # one transient journal failure, absorbed by the retry layer
        {"site": "journal.append", "kind": "enospc", "nth": [2]},
    ],
}


def _counter(name: str) -> int:
    from repro.obs import metrics as obs_metrics

    return obs_metrics.REGISTRY.counter(name).value


def _drain_registry(registry, timeout_s: float = 300.0) -> None:
    if not registry.drain(timeout_s):
        raise TimeoutError("job registry did not drain")


def _wait_result(app, job_id: str, timeout_s: float = 300.0) -> dict:
    """Poll ``GET /v1/jobs/{id}/result`` until terminal (bounded)."""
    from repro.serve.http import HttpRequest

    deadline = time.monotonic() + timeout_s
    while True:
        status, payload, _ = app.handle(
            HttpRequest("GET", f"/v1/jobs/{job_id}/result", {}, b"")
        )
        if status == 200:
            return payload["result"]
        if status != 202:
            raise AssertionError(
                f"job {job_id} failed: {status} {payload}"
            )
        if time.monotonic() > deadline:
            raise TimeoutError(f"job {job_id} still pending")
        time.sleep(0.05)


def run_smoke(verbose: bool = True) -> None:
    from repro import RunStore, Session, SessionConfig, faults

    def say(msg: str) -> None:
        if verbose:
            print(f"chaos-smoke: {msg}", flush=True)

    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)

        # ---- phase 1: fault-free reference -----------------------------
        faults.disable()
        ref_store = RunStore(tmp_path / "ref-runs")
        reference = Session(store=ref_store).search("kmeans", **{
            k: v for k, v in SEARCH.items() if k != "kernel"
        })
        ref_front = reference.to_dict()["front"]
        ref_records = ref_store.load_records(reference.run_id)
        assert ref_records, "reference produced no records"
        say(
            f"reference: {reference.n_evaluated} evaluations, "
            f"front size {len(ref_front)}"
        )

        # ---- phase 2: the same search under chaos ----------------------
        injected_before = _counter("repro_faults_injected_total")
        retries_before = _counter("repro_retries_total")
        chaos_store = RunStore(tmp_path / "chaos-runs")
        chaos_sess = Session(
            SessionConfig(fault_plan=json.dumps(CHAOS_PLAN)),
            store=chaos_store,
        )
        assert faults.is_enabled()
        chaos = chaos_sess.search("kmeans", **{
            k: v for k, v in SEARCH.items() if k != "kernel"
        })
        stats = faults.stats()
        faults.disable()

        assert chaos.run_id == reference.run_id
        assert chaos.to_dict()["front"] == ref_front, (
            "chaos front drifted from the fault-free reference"
        )
        assert chaos.n_evaluated == reference.n_evaluated
        chaos_records = chaos_store.load_records(chaos.run_id)
        assert chaos_records == ref_records, (
            "stored chaos records are not bit-identical to reference"
        )
        injected = _counter("repro_faults_injected_total") - injected_before
        retried = _counter("repro_retries_total") - retries_before
        assert injected > 0, "chaos run injected nothing"
        assert retried > 0, "no fault exercised the retry layer"
        assert stats["fired"]["store.write:enospc"] >= 1, stats
        assert stats["fired"]["store.write:torn"] >= 1, stats
        say(
            f"chaos search bit-identical: {injected} faults injected "
            f"({stats['fired']}), {retried} retries absorbed"
        )

        # ---- phase 3: serve round-trip under journal chaos --------------
        from repro.serve.app import ServeApp
        from repro.serve.http import HttpRequest
        from repro.serve.jobs import JobJournal, JobRegistry
        from repro.serve.metrics import ServiceMetrics

        serve_store = tmp_path / "serve-runs"
        journal_dir = tmp_path / "journal"
        session = Session(store=serve_store)
        registry = JobRegistry(
            session, workers=2, journal=JobJournal(journal_dir)
        )
        app = ServeApp(registry, ServiceMetrics(registry))
        faults.enable(faults.FaultPlan.load(json.dumps(SERVE_PLAN)))
        try:
            status, tune, _ = app.handle(HttpRequest(
                "POST", "/v1/jobs", {},
                json.dumps(
                    {"kind": "tune", "kernel": "kmeans",
                     "threshold": 1e-6}
                ).encode(),
            ))
            assert status == 201, (status, tune)
            status, srch, _ = app.handle(HttpRequest(
                "POST", "/v1/jobs", {},
                json.dumps(
                    {"kind": "search", "kernel": SEARCH["kernel"],
                     "budget": SEARCH["budget"],
                     "strategies": list(SEARCH["strategies"]),
                     "seed": SEARCH["seed"]}
                ).encode(),
            ))
            assert status == 201, (status, srch)
            assert srch["run_id"] == reference.run_id
            tune_result = _wait_result(app, tune["id"])
            assert tune_result["configuration"]
            search_result = _wait_result(app, srch["id"])
            assert search_result["front"] == ref_front, (
                "served chaos search drifted from reference"
            )
            serve_stats = faults.stats()
            assert serve_stats["fired"]["journal.append:enospc"] >= 1
            # absorbed journal faults do not degrade health
            status, health, _ = app.handle(
                HttpRequest("GET", "/v1/healthz", {}, b"")
            )
            assert status == 200 and health["status"] == "ok", health
            say(
                "serve round-trip OK under journal faults "
                f"({serve_stats['fired']}); health still 'ok'"
            )
        finally:
            faults.disable()
            _drain_registry(registry)
            registry.close()

        # ---- phase 3b: restart over a torn journal record ---------------
        victim = journal_dir / f"{srch['id']}.json"
        blob = victim.read_bytes()
        victim.write_bytes(blob[: len(blob) // 2])
        session2 = Session(store=serve_store)
        registry2 = JobRegistry(
            session2, workers=2, journal=JobJournal(journal_dir)
        )
        metrics2 = ServiceMetrics(registry2)  # baseline pre-recovery
        app2 = ServeApp(registry2, metrics2)
        try:
            registry2.recover()
            # the torn record was quarantined, not trusted or deleted
            qdir = journal_dir / "_quarantine"
            assert list(qdir.iterdir()), "torn record not quarantined"
            assert not victim.exists()
            # the intact tune record still answers without re-running
            status, payload, _ = app2.handle(HttpRequest(
                "GET", f"/v1/jobs/{tune['id']}/result", {}, b""
            ))
            assert status == 200, (status, payload)
            assert payload["result"] == tune_result
            # health is degraded, with the quarantine itemized
            status, health, _ = app2.handle(
                HttpRequest("GET", "/v1/healthz", {}, b"")
            )
            assert status == 200 and health["status"] == "degraded", (
                health
            )
            assert (
                health["degraded_events"]["repro_quarantined_total"] >= 1
            )
            status, metrics_payload, _ = app2.handle(
                HttpRequest("GET", "/v1/metrics", {}, b"")
            )
            rb = metrics_payload["robustness"]
            assert rb["health"] == "degraded"
            assert rb["counters"]["repro_quarantined_total"] >= 1
            say(
                "restart quarantined the torn journal record; "
                "health degraded with evidence: "
                f"{health['degraded_events']}"
            )
        finally:
            _drain_registry(registry2)
            registry2.close()


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress progress lines",
    )
    args = ap.parse_args(argv)
    run_smoke(verbose=not args.quiet)
    print("chaos-smoke: OK", flush=True)
    return 0


# -- pytest smoke version -----------------------------------------------------


def test_chaos_smoke():
    run_smoke(verbose=False)


if __name__ == "__main__":
    raise SystemExit(main())
