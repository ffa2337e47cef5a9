"""End-to-end observability smoke: traced search, traced serve, prom lint.

The CI-facing proof that the tracing layer tells the truth and stays
out of the way:

1. run ``python -m repro search --trace`` and the same search without
   ``--trace``; assert the trace file parses as valid span records
   (:func:`repro.obs.profile.load_trace`), every parent id resolves
   (spans nest), the per-phase self-times sum to the root span's
   duration within 10% of the traced wall-clock, and the search
   *result* is bit-identical with tracing on vs off, and that its work
   counters show one adjoint build per estimator build, no
   config-batch fallback and no native-engine fallback; a search of a
   kernel with loops (simpsons) must run its lane kernels natively;
2. start ``python -m repro serve --trace``, submit a tune job over
   HTTP, and assert the job's ``serve.job`` root span lands in the
   trace carrying the submission's ``X-Request-Id``;
3. fetch ``/v1/metrics?format=prom`` and lint it against the
   Prometheus text exposition format (every sample line is
   ``name[{labels}] value`` with a float-parseable value, every
   ``# TYPE`` names a known instrument type).

Run as a script (exit 0 = pass)::

    PYTHONPATH=src python benchmarks/trace_smoke.py

or under pytest, which wraps the same flow in test functions.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request
from pathlib import Path
from typing import Optional, Tuple

_REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.obs.profile import load_trace, summarize_records  # noqa: E402

_ENV = dict(os.environ, PYTHONPATH=str(_REPO_ROOT / "src"))


def _run_cli(*args: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=_ENV,
        timeout=300,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"repro {' '.join(args)} failed "
            f"({proc.returncode}):\n{proc.stderr}"
        )
    return proc.stdout


def _scrub(obj):
    if isinstance(obj, dict):
        return {
            k: _scrub(v) for k, v in obj.items() if k != "session_id"
        }
    if isinstance(obj, list):
        return [_scrub(v) for v in obj]
    return obj


def _comparable(payload: dict) -> str:
    payload = dict(payload)
    payload.pop("stats", None)
    payload.pop("profile", None)
    return json.dumps(_scrub(payload), sort_keys=True)


def check_traced_search(tmp_path: Path, say) -> None:
    trace_path = tmp_path / "search.trace.jsonl"
    traced_json = tmp_path / "traced.json"
    plain_json = tmp_path / "plain.json"
    args = ("search", "--kernel", "blackscholes", "--budget", "16")
    _run_cli(*args, "--trace", str(trace_path), "--json", str(traced_json))
    _run_cli(*args, "--json", str(plain_json))

    traced = json.loads(traced_json.read_text())
    plain = json.loads(plain_json.read_text())
    assert _comparable(traced) == _comparable(plain), (
        "tracing perturbed the search result"
    )
    assert traced.get("profile"), "traced run carries no profile"
    # deterministic work counters: one adjoint build per estimator
    # build (lanes derive every candidate's parameters from it), every
    # pool estimated on lanes, and no native-engine fallback (the
    # straight-line blackscholes kernels stay on the numpy path by
    # choice, which is no fallback)
    work = traced["stats"]["work"]
    assert work["config_batch_fallbacks"] == 0, work
    assert work["adjoint_builds"] == work["estimator_builds"] > 0, work
    assert work["native_fallbacks"] == 0, work
    # kernels with loops run every lane kernel call natively
    loop_json = tmp_path / "loop.json"
    _run_cli(
        "search", "--kernel", "simpsons", "--budget", "16",
        "--json", str(loop_json),
    )
    loop_work = json.loads(loop_json.read_text())["stats"]["work"]
    assert loop_work["native_fallbacks"] == 0, loop_work
    assert loop_work["native_lane_runs"] > 0, loop_work

    records = load_trace(trace_path)  # raises on malformed lines
    assert records, "trace file is empty"
    by_id = {r["span"]: r for r in records}
    dangling = [
        r["span"]
        for r in records
        if r["parent"] is not None and r["parent"] not in by_id
    ]
    assert not dangling, f"unresolvable parent ids: {dangling}"
    roots = [r for r in records if r["parent"] is None]
    assert roots, "no root spans"

    # per-phase self-times must sum to the root duration (within 10%
    # of the traced wall-clock — the tracer's accounting contract)
    summary = summarize_records(records)
    self_sum = sum(p["self_s"] for p in summary["phases"].values())
    total = summary["total_s"]
    assert total > 0
    assert abs(self_sum - total) <= 0.10 * total, (
        f"self-time sum {self_sum:.4f}s vs wall-clock {total:.4f}s"
    )
    names = {r["name"] for r in records}
    assert "search.run" in names and "search.batch" in names
    say(
        f"traced search ok: {len(records)} spans, "
        f"{len(summary['phases'])} phases, total {total:.3f}s, "
        f"self-sum {self_sum:.3f}s, results bit-identical"
    )


class _Client:
    def __init__(self, port: int) -> None:
        self.base = f"http://127.0.0.1:{port}"

    def json(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> Tuple[int, dict]:
        req = urllib.request.Request(
            self.base + path,
            data=None if body is None else json.dumps(body).encode(),
            method=method,
        )
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.loads(resp.read())

    def text(self, path: str) -> Tuple[str, str]:
        with urllib.request.urlopen(self.base + path, timeout=60) as resp:
            return resp.headers.get("Content-Type", ""), resp.read().decode()

    def wait_result(self, job_id: str, timeout: float = 180.0) -> dict:
        deadline = time.monotonic() + timeout
        while True:
            status, payload = self.json(
                "GET", f"/v1/jobs/{job_id}/result"
            )
            if status == 200:
                return payload
            if status != 202 or time.monotonic() > deadline:
                raise RuntimeError(f"job {job_id}: {status} {payload}")
            time.sleep(0.05)


def lint_prom(text: str) -> int:
    """Prometheus text-format lint; returns the number of samples."""
    samples = 0
    typed = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            assert parts[3] in (
                "counter", "gauge", "summary", "histogram", "untyped"
            ), f"line {lineno}: bad TYPE {line!r}"
            typed.add(parts[2])
            continue
        if line.startswith("#"):
            assert line.startswith("# HELP "), (
                f"line {lineno}: unknown comment {line!r}"
            )
            continue
        match = re.fullmatch(
            r'([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)', line
        )
        assert match, f"line {lineno}: unparseable sample {line!r}"
        float(match.group(3))  # value must be numeric
        samples += 1
    assert samples > 0, "no samples in prom output"
    assert typed, "no # TYPE comments in prom output"
    return samples


def check_traced_serve(tmp_path: Path, say) -> None:
    trace_path = tmp_path / "serve.trace.jsonl"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--store", str(tmp_path / "runs"), "--port", "0",
            "--workers", "1", "--trace", str(trace_path),
        ],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=_ENV,
    )
    try:
        banner = proc.stdout.readline()
        match = re.search(r"listening on http://[^:]+:(\d+)", banner)
        if match is None:
            raise RuntimeError(
                f"no banner: {banner!r}\n{proc.stderr.read()}"
            )
        client = _Client(int(match.group(1)))

        status, job = client.json(
            "POST", "/v1/jobs",
            {"kind": "tune", "kernel": "kmeans", "threshold": 1e-6},
        )
        assert status == 201, (status, job)
        request_id = job["request_id"]
        assert request_id, "submission carries no request id"
        result = client.wait_result(job["id"])
        assert result["result"]["configuration"] is not None

        content_type, prom = client.text("/v1/metrics?format=prom")
        assert content_type.startswith("text/plain"), content_type
        samples = lint_prom(prom)
        assert "repro_jobs_completed_total 1" in prom.splitlines()
        assert "repro_http_requests_total" in prom

        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)

    records = load_trace(trace_path)
    jobs = [r for r in records if r["name"] == "serve.job"]
    assert jobs, "no serve.job span in the serve trace"
    attrs = jobs[0].get("attrs", {})
    assert attrs.get("request_id") == request_id, (
        f"serve.job span not linked to the submission: {attrs}"
    )
    assert attrs.get("kind") == "tune"
    say(
        f"traced serve ok: {len(records)} spans, serve.job linked to "
        f"{request_id}, prom lint passed ({samples} samples)"
    )


def run_smoke(verbose: bool = True) -> None:
    def say(msg: str) -> None:
        if verbose:
            print(f"trace-smoke: {msg}", flush=True)

    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        check_traced_search(tmp_path, say)
        check_traced_serve(tmp_path, say)
    say("PASS")


# -- pytest wrappers ----------------------------------------------------------


def test_traced_search_smoke(tmp_path):
    check_traced_search(tmp_path, lambda msg: None)


def test_traced_serve_smoke(tmp_path):
    check_traced_serve(tmp_path, lambda msg: None)


if __name__ == "__main__":
    run_smoke()
    raise SystemExit(0)
