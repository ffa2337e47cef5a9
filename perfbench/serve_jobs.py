"""``serve-jobs``: one closed-loop client against ``python -m repro serve``.

Set-up starts a ``--workers 1`` server over a fresh store in the checkout
and warms it with one estimate, tune and analyze job per app, so the
estimator memo is full before timing.  One client then drives one
keep-alive connection: each op POSTs a job and polls its result at a
fixed short interval.  The mix is an even one of the four kinds of job
the serve front end handles differently, a quarter of the ops each: a
round is one estimate, one point-mode tune and one analyze job per app
(distinct seeded points, seeds and thresholds), in seeded order, and one
resubmission of an earlier spec per app, which the server must answer by
deduplication.  No record of real serve traffic fixes the shares; the
even mix lets no kind dominate by count.

An op's time is what the client waits: submit, polls and the sleeps
between them.  A dedupe returns before the spec is validated or
journalled, so ``op_p50_s`` and ``op_p90_s`` are taken over the ops that
create a job (estimate, tune and analyze in equal shares: the median
falls among the estimate and tune jobs, ``op_p90_s`` among the analyze
jobs); every kind's median is printed, and dedupes also count in
``serve.dedupe_ratio``.

Every op checks the HTTP statuses, that new specs create jobs and
resubmitted ones dedupe onto an identical result; after the run a seeded
sample of distinct jobs is recomputed on an in-process ``Session`` and
must match exactly.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from harness import (
    Op, TraceData, Workload, digest_json, peak_rss_mb_of, registry_counters,
)

KERNELS = ("arclength", "simpsons", "kmeans", "hpccg", "blackscholes")
#: seconds between result polls: short against the 3-20 ms jobs, so
#: that the latency of a job is not rounded up to a whole interval
POLL_S = 0.001
#: job kinds that create a job, each submitted once per app per round
KINDS = ("estimate", "tune", "analyze")
#: resubmissions of earlier specs per round: one per app, as many as
#: there are new jobs of each kind
DEDUPES = len(KERNELS)
#: distinct jobs per run re-run in process (on top of the first round's)
VERIFY_SAMPLE = 40
#: result keys that carry timing or session identity, not content
VOLATILE = ("wall_time", "provenance")

_PERF = Path(__file__).resolve().parent


def canonical(result: dict) -> str:
    return json.dumps(
        {k: v for k, v in result.items() if k not in VOLATILE},
        sort_keys=True,
    )


class Server:
    """One ``repro serve`` process and a keep-alive client connection."""

    def __init__(self, src: str, tmp: str, trace: Optional[str] = None):
        self.store = tempfile.mkdtemp(dir=tmp)
        env = dict(os.environ, PYTHONPATH=src)
        argv = ["serve", "--store", self.store, "--port", "0",
                "--workers", "1"]
        if trace is None:
            cmd = [sys.executable, "-m", "repro", *argv]
        else:
            cmd = [sys.executable, str(_PERF / "serve_shim.py"), src,
                   *argv, "--trace", trace]
        self._log = open(self.store + ".log", "wb")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self._log,
            text=True, env=env,
        )
        banner = self.proc.stdout.readline()
        match = re.search(r"listening on http://[^:]+:(\d+)", banner)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {banner!r}")
        self.conn = http.client.HTTPConnection(
            "127.0.0.1", int(match.group(1)), timeout=120
        )

    def request(
        self, method: str, path: str, body: Optional[dict] = None,
        request_id: Optional[str] = None,
    ) -> Tuple[int, object]:
        headers = {"Content-Type": "application/json"}
        if request_id is not None:
            headers["X-Request-Id"] = request_id
        self.conn.request(
            method, path,
            body=None if body is None else json.dumps(body),
            headers=headers,
        )
        resp = self.conn.getresponse()
        raw = resp.read()
        if resp.headers.get("Content-Type", "").startswith("application/json"):
            return resp.status, json.loads(raw)
        return resp.status, raw.decode("utf-8")

    def wait_result(self, job_id: str) -> Tuple[int, dict]:
        while True:
            status, payload = self.request("GET", f"/v1/jobs/{job_id}/result")
            if status != 202:
                return status, payload
            time.sleep(POLL_S)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=60)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        if hasattr(self, "conn"):
            self.conn.close()
        self._log.close()
        shutil.rmtree(self.store, ignore_errors=True)


class ServeJobs(Workload):
    name = "serve-jobs"
    rate = 5.0
    p50_kinds = KINDS

    def __init__(self, ctx) -> None:
        super().__init__(ctx)
        from repro.search.orchestrator import app_scenarios

        self.rng = random.Random(f"serve-jobs:{ctx.seed}")
        scenarios = app_scenarios()
        self.n_points = {
            k: len(scenarios[k].search_scenario().points) for k in KERNELS
        }
        self.server: Optional[Server] = None
        #: distinct specs submitted to the current server, in order
        self.history: List[dict] = []
        #: every distinct spec's result, by canonical spec
        self.results: Dict[str, dict] = {}
        self._unique = 0
        self._first_round: List[str] = []
        self._trace_file: Optional[str] = None
        #: server trace records written before the traced phase
        self._trace_skip = 0

    # -- set-up --------------------------------------------------------------
    def setup(self) -> None:
        self.server = Server(self.ctx.src, self.ctx.tmp)
        self._warm()

    def _warm(self) -> None:
        for kernel in KERNELS:
            for kind in ("estimate", "tune", "analyze"):
                status, job = self.server.request(
                    "POST", "/v1/jobs", {"kind": kind, "kernel": kernel},
                    request_id="warm",
                )
                if status not in (200, 201):
                    raise RuntimeError(f"warm-up submit failed: {job}")
                status, payload = self.server.wait_result(job["id"])
                if status != 200:
                    raise RuntimeError(f"warm-up job failed: {payload}")

    def teardown_setup(self) -> None:
        self.server.stop()
        self.server = None

    # -- rounds --------------------------------------------------------------
    def between_ops(self) -> None:
        """Nothing: like a closed-loop client, the next job follows at
        once, and overlaps the server's work left over from the last."""

    def _spec(self, kind: str, kernel: str) -> dict:
        spec = {"kind": kind, "kernel": kernel}
        if kind in ("estimate", "tune"):
            spec["point"] = self.rng.randrange(self.n_points[kernel])
        if kind == "estimate":
            self._unique += 1
            spec["seed"] = self._unique
        else:
            spec["threshold"] = 10.0 ** self.rng.uniform(-9.0, -4.0)
        return spec

    def round(self, index: int) -> List[Op]:
        distinct = [self._spec(kind, k) for k in KERNELS for kind in KINDS]
        self.rng.shuffle(distinct)
        ops: List[Op] = []
        for i, spec in enumerate(distinct):
            ops.append(self._op(f"r{index}/{spec['kind']}:{spec['kernel']}",
                                index, spec))
            # spread the resubmissions evenly behind the new jobs
            while len(ops) - i - 1 < DEDUPES * (i + 1) // len(distinct):
                ops.append(self._op(f"r{index}/dedupe{len(ops) - i - 1}",
                                    index, None))
        return ops

    def _op(self, key: str, index: int, spec: Optional[dict]) -> Op:
        dedupe = spec is None
        box: Dict[str, object] = {"spec": spec}

        def prepare() -> None:
            if dedupe and self.history:  # a spec submitted earlier
                box["spec"] = self.rng.choice(self.history)

        def run():
            from repro.obs import trace

            sp = box["spec"]
            if sp is None:
                raise RuntimeError("no earlier job to resubmit")
            with trace.span("serve.submit"):
                status, job = self.server.request(
                    "POST", "/v1/jobs", sp, request_id=f"op-{index}"
                )
            if status not in (200, 201):
                return {"status": status, "job": job}
            while True:
                with trace.span("serve.poll"):
                    final, payload = self.server.request(
                        "GET", f"/v1/jobs/{job['id']}/result"
                    )
                if final != 202:
                    break
                time.sleep(POLL_S)
            return {"status": status, "job": job, "final": final,
                    "payload": payload}

        def check(out) -> Optional[str]:
            sp = box["spec"]
            if out["status"] != (200 if dedupe else 201):
                return f"submit answered {out['status']}: {out['job']}"
            if out["job"].get("created") is not (not dedupe):
                return f"created={out['job'].get('created')} for {sp}"
            if out["final"] != 200:
                return f"result answered {out['final']}: {out['payload']}"
            result = out["payload"]["result"]
            # analyze results name the kernel function, not the app
            if result.get("kind") != sp["kind"] or (
                sp["kind"] != "analyze" and result["kernel"] != sp["kernel"]
            ):
                return f"result for the wrong job: {result}"
            key = json.dumps(sp, sort_keys=True)
            if dedupe:
                if canonical(result) != canonical(self.results[key]):
                    return "deduplicated result differs from the original"
            else:
                self.results[key] = result
                self.history.append(sp)
                if index == 0:
                    self._first_round.append(key)
            return None

        return Op(
            key=key, kind="dedupe" if dedupe else spec["kind"],
            run=run, check=check,
            digest=lambda out: digest_json(
                json.loads(canonical(out["payload"]["result"]))
            ),
            prepare=prepare,
        )

    # -- counters, memory ----------------------------------------------------
    def counters(self) -> Dict[str, float]:
        _, prom = self.server.request("GET", "/v1/metrics?format=prom")
        _, snap = self.server.request("GET", "/v1/metrics")
        out = registry_counters(prom)
        jobs = snap["jobs"]["counters"]
        out["jobs_submitted"] = jobs["submitted"]
        out["jobs_deduped"] = jobs["deduped"]
        return out

    def peak_rss_mb(self) -> float:
        return peak_rss_mb_of(self.server.proc.pid)

    def live_pids(self) -> List[int]:
        return [self.server.proc.pid]

    # -- traced phase --------------------------------------------------------
    def begin_trace(self) -> None:
        from repro.obs import trace
        from repro.obs.profile import load_trace

        self.server.stop()
        self.history = []  # the new server has none of these jobs
        self._trace_file = os.path.join(self.ctx.tmp, "serve.trace.jsonl")
        self.server = Server(self.ctx.src, self.ctx.tmp, self._trace_file)
        self._warm()
        self._trace_skip = len(load_trace(self._trace_file))
        self._client: List[dict] = []
        trace.enable(None).add_sink(self._client.append)

    def end_trace(self) -> TraceData:
        from layers import under_ops
        from repro.obs import trace
        from repro.obs.profile import load_trace

        trace.disable()
        self.server.stop()
        server = load_trace(self._trace_file)[self._trace_skip:]
        client = under_ops(self._client)

        def durations(records, name):
            return [r["dur_s"] for r in records if r["name"] == name]

        submits = durations(client, "serve.submit")
        polls = durations(client, "serve.poll")
        ops = durations(client, "bench.op")
        dedupes = sum(
            1 for r in client if r["name"] == "bench.op"
            and "/dedupe" in r.get("attrs", {}).get("key", "")
        )
        jobs = durations(server, "serve.job")
        extra = {
            "serve.submit_s": statistics.median(submits),
            "serve.poll_s": statistics.median(polls),
            "serve.polls_per_job": len(polls) / len(ops),
            "serve.dedupe_ratio": dedupes / len(ops),
            "serve.job_exec_s": statistics.median(jobs),
        }
        return TraceData(records=server, root="serve.job", extra=extra)

    # -- whole-run checks ----------------------------------------------------
    def finish(self) -> List[str]:
        """Recompute the first round's jobs and a seeded sample of the
        rest on an in-process ``Session``; results must match exactly."""
        from repro import Session

        keys = list(self._first_round)
        rest = sorted(set(self.results) - set(keys))
        keys += self.rng.sample(rest, min(VERIFY_SAMPLE, len(rest)))
        sess = Session()
        failures = []
        for key in keys:
            expected = json.loads(json.dumps(expected_result(
                sess, json.loads(key)
            )))
            if canonical(expected) != canonical(self.results[key]):
                failures.append(f"serve result differs in process: {key}")
        return failures

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()


def expected_result(sess, spec: dict) -> dict:
    """The result the server's job runner computes for ``spec``, made
    by the same ``Session`` calls in this process."""
    from repro.search.orchestrator import app_scenarios

    scen = app_scenarios()[spec["kernel"]].search_scenario()
    base = {"kind": spec["kind"], "kernel": spec["kernel"]}
    if spec["kind"] == "estimate":
        rep = sess.estimate_at(scen.kernel, scen.points[spec["point"]])
        return {**base, "point": spec["point"], "value": rep.value,
                "total_error": rep.total_error,
                "per_variable": dict(rep.per_variable)}
    if spec["kind"] == "tune":
        res = sess.tune(scen.kernel, spec["threshold"],
                        args=scen.points[spec["point"]])
        return {**base, "threshold": spec["threshold"],
                "mode": f"point {spec['point']}",
                "configuration": res.config.describe(),
                "demoted": list(res.demoted),
                "estimated_error": res.estimated_error,
                "ranking": [[v, e] for v, e in res.ranking]}
    report = sess.analyze(spec["kernel"], threshold=spec["threshold"])
    return {**base, **report.to_dict()}
