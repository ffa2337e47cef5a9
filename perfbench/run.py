"""End-to-end and per-layer benchmark of ``repro`` (CHEF-FP reproduction).

Run from the repository root::

    python3 perfbench/run.py --workload search-cold --seed 1 --seconds 20 --trace 0

Workloads (all single-process, closed-loop, one client):

* ``search-cold``   — cold ``Session.search`` over the five app scenarios;
* ``estimate-warm`` — generated adjoint code only: ``execute`` and sweeps
  over prebuilt estimators;
* ``serve-jobs``    — estimate/tune/analyze jobs against ``repro serve``.

Each run repeats the workload's set-up (median reported as ``setup_s``)
and then runs as many rounds of ops as fill ``--seconds`` at the
workload's nominal rate.  Times are wall-clock seconds; the CPU seconds of
the benchmark and its server are printed beside them (see ``harness.py``).

With ``--trace 0`` the result line carries the end-to-end metrics:
``setup_s``, ``wall_s`` (the timed phase: its ops' summed times),
``ops_per_s``, ``op_p50_s`` and ``peak_rss_mb`` (the server's, for
``serve-jobs``).

With ``--trace 1`` half the seconds run untraced and half run with span
tracing and the layer wrappers of ``layers.py``; the result line carries
the per-layer metrics, each per traced round unless it is a ratio, a rate
or a median.  The self times of the layer spans must account for the
traced time (the ``bench.op`` spans, or the server's ``serve.job`` spans)
but for at most ``UNATTRIBUTED_TOLERANCE`` of it.

Every op's result is checked (see each workload module); a failed check,
an exception or a non-2xx final status counts in ``failed``.  For the
default seed the first round's results must also match the digests in
``digests.json`` (``--write-digests`` records them after a deliberate
change of results).

The last line of standard output is the JSON result; the lines before it
are a human-readable report, including the op counts, ``op_p90_s`` where
at least 100 ops ran, ``fail_ratio``, the work counters and provenance.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
#: share of the traced time the layer spans may leave unaccounted for
UNATTRIBUTED_TOLERANCE = 0.15


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("search-cold", "estimate-warm", "serve-jobs"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny inputs, one round per phase (smoke test)")
    ap.add_argument("--write-digests", action="store_true",
                    help="record the first round's result digests for "
                         "this seed's scale in digests.json")
    return ap.parse_args(argv)


def load_workload(name: str, ctx):
    if name == "search-cold":
        from search_cold import SearchCold as cls
    elif name == "estimate-warm":
        from estimate_warm import EstimateWarm as cls
    else:
        from serve_jobs import ServeJobs as cls
    return cls(ctx)


def measure(wl, args) -> Dict[str, object]:
    """Set up, run the phases, and return everything measured."""
    from harness import cpu_seconds, run_phase

    # an untimed first set-up takes the process's one-off start-up costs
    wl.setup()
    reps = 2 if args.quick else wl.setup_reps
    setups, setup_cpu = [], []
    for _ in range(reps):
        wl.teardown_setup()
        gc.collect()  # no set-up pays for the garbage of the one before
        c0, t0 = cpu_seconds(), time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
        setup_cpu.append(cpu_seconds(wl.live_pids()) - c0)
    if not args.trace:
        untraced = run_phase(wl, wl.rounds_for(args.seconds, wl.min_rounds))
        rss = wl.peak_rss_mb()
        traced, tdata = None, None
    else:
        from repro.obs import trace

        half = wl.rounds_for(args.seconds / 2)
        untraced = run_phase(wl, half)
        rss = wl.peak_rss_mb()
        wl.begin_trace()
        traced = run_phase(wl, half, tracer=trace)
        tdata = wl.end_trace()
    late = wl.finish()
    return dict(setups=setups, setup_cpu=setup_cpu, untraced=untraced,
                rss=rss, traced=traced, tdata=tdata, late_failures=late,
                p50_kinds=wl.p50_kinds)


def end_to_end(m) -> Dict[str, Dict[str, object]]:
    from harness import median

    ph = m["untraced"]
    return {
        "setup_s": (median(m["setups"]), "s"),
        "wall_s": (ph.total(), "s"),
        "ops_per_s": (len(ph.samples) / ph.total(), "1/s"),
        "op_p50_s": (median(ph.latencies(m["p50_kinds"])), "s"),
        "peak_rss_mb": (m["rss"], "MB"),
    }


def per_layer(m) -> Dict[str, tuple]:
    from layers import ANALYSIS_PREFIX, self_times, split_writes

    ph, tdata = m["traced"], m["tdata"]
    rounds = ph.rounds
    records, writes = split_writes(tdata.records)
    st = self_times(records)
    c = ph.counters

    def calls(name):
        return st.get(name, {}).get("calls", 0) / rounds

    def self_s(name):
        return st.get(name, {}).get("self_s", 0.0) / rounds

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "ir.clone.calls": (calls("ir.clone"), "count"),
        "ir.clone.self_s": (self_s("ir.clone"), "s"),
        "core.build_adjoint.calls": (calls("core.build_adjoint"), "count"),
        "core.build_adjoint.self_s": (self_s("core.build_adjoint"), "s"),
        "opt.optimize.self_s": (self_s("opt.optimize"), "s"),
        "codegen.compile.calls": (calls("codegen.compile"), "count"),
        "codegen.compile.self_s": (self_s("codegen.compile"), "s"),
        "core.memo.hit_ratio": (ratio(
            c["memo_hits"], c["memo_hits"] + c["memo_misses"]), "ratio"),
        "codegen.lane_kernel.miss_ratio": (ratio(
            c["lane_kernel_misses"],
            c["lane_kernel_hits"] + c["lane_kernel_misses"]), "ratio"),
        "search.evaluations": (c["evaluations"] / rounds, "count"),
        "search.memo_hit_ratio": (ratio(
            c["search_memo_hits"],
            c["search_memo_hits"] + c["evaluations"]), "ratio"),
        "search.batch.self_s": (self_s("search.batch"), "s"),
        "tuning.validate.self_s": (self_s("tuning.validate"), "s"),
        "analysis.self_s": (sum(
            p["self_s"] for name, p in st.items()
            if name.startswith(ANALYSIS_PREFIX)) / rounds, "s"),
        "core.execute.calls": (calls("core.execute"), "count"),
        "core.execute.self_s": (self_s("core.execute"), "s"),
        "sweep.run.calls": (calls("sweep.run"), "count"),
        "sweep.run.self_s": (self_s("sweep.run"), "s"),
        "sweep.points_per_s": (ratio(
            c["sweep_points"],
            st.get("sweep.run", {}).get("total_s", 0.0)), "1/s"),
        "store.checkpoint.calls": (calls("store.checkpoint"), "count"),
        "store.checkpoint.self_s": (self_s("store.checkpoint"), "s"),
        "store.bytes_written": (writes["bytes"] / rounds, "bytes"),
        "serve.journal_writes": (
            writes.get("journal.append", 0) / rounds, "count"),
        "obs.trace_overhead_ratio": (
            ph.total() / m["untraced"].total(), "ratio"),
    }
    for name, unit in (("serve.submit_s", "s"), ("serve.poll_s", "s"),
                       ("serve.polls_per_job", "count"),
                       ("serve.dedupe_ratio", "ratio"),
                       ("serve.job_exec_s", "s")):
        out[name] = (tdata.extra.get(name, 0.0), unit)
    return out


def check_attribution(m) -> Optional[str]:
    """The layer spans' self times sum to the traced time, but for at
    most ``UNATTRIBUTED_TOLERANCE`` of it."""
    from layers import attribution

    tdata = m["tdata"]
    layers, total = attribution(tdata.records, tdata.root)
    gap = 1.0 - layers / total if total else 1.0
    print(f"attribution check: layer self times {layers:.4f} s of "
          f"{total:.4f} s in {tdata.root} spans, unattributed {gap:.2%} "
          f"(tolerance {UNATTRIBUTED_TOLERANCE:.0%})")
    if gap > UNATTRIBUTED_TOLERANCE:
        return (f"layer spans leave {gap:.2%} of the traced {tdata.root} "
                f"time unattributed")
    return None


def check_digests(name: str, args, digests: Dict[str, str]) -> List[str]:
    """Default seed only: the first round's digests equal the committed
    ones (or are recorded, with ``--write-digests``)."""
    if args.seed != DEFAULT_SEED:
        return []
    scale = "quick" if args.quick else "full"
    committed = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    if args.write_digests:
        committed.setdefault(name, {})[scale] = digests
        DIGESTS.write_text(json.dumps(committed, indent=1, sort_keys=True)
                           + "\n")
        return []
    want = committed.get(name, {}).get(scale)
    if want is None:
        return [f"no committed digests for {name}/{scale}"]
    return [f"{key}: digest {digests.get(key)} != committed {value}"
            for key, value in sorted(want.items())
            if digests.get(key) != value]


def report(name: str, args, m, failures: List[str]) -> None:
    """The human-readable lines before the JSON result."""
    import numpy

    from harness import median, p90

    ph = m["untraced"]
    print(f"workload {name}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  quick {args.quick}")
    print(f"provenance: cpus {os.cpu_count()}  python "
          f"{platform.python_version()}  numpy {numpy.__version__}  "
          f"platform {platform.platform()}")
    print("times are wall-clock; CPU seconds (benchmark + server) beside")
    print(f"setup_s samples: {[round(s, 4) for s in m['setups']]}  "
          f"CPU {[round(s, 4) for s in m['setup_cpu']]}")
    print(f"untraced: {ph.rounds} rounds, {len(ph.samples)} ops, wall_s "
          f"{ph.total():.4f} s, CPU {ph.total(cpu=True):.4f} s")
    cpu_by_kind = ph.by_kind(cpu=True)
    for kind, lat in sorted(ph.by_kind().items()):
        print(f"  {kind:<22} n={len(lat):<5} p50 {median(lat) * 1e3:9.3f} ms"
              f"  CPU p50 {median(cpu_by_kind[kind]) * 1e3:9.3f} ms")
    lat = ph.latencies(m["p50_kinds"])
    which = "all ops" if m["p50_kinds"] is None else "+".join(m["p50_kinds"])
    print(f"op_p50_s {median(lat):.6f} s  (over {len(lat)} ops: {which})")
    if len(lat) >= 100:
        print(f"op_p90_s {p90(lat):.6f} s  (over {len(lat)} ops: {which})")
    else:
        print(f"op_p90_s not reported: {len(lat)} ops < 100")
    attempted = ph.attempted + (m["traced"].attempted if m["traced"] else 0)
    print(f"fail_ratio {len(failures) / attempted:.6f}  "
          f"({len(failures)} of {attempted} ops)")
    for f in failures[:20]:
        print(f"  FAILED {f}")
    print("work counters, untraced: " + json.dumps(
        {k: int(v) for k, v in sorted(ph.counters.items())}))
    if m["traced"] is not None:
        from layers import shares_with_build_collapsed, split_writes

        records, writes = split_writes(m["tdata"].records)
        tr = m["traced"]
        print(f"traced: {tr.rounds} rounds, {len(tr.samples)} ops, wall_s "
              f"{tr.total():.4f} s, CPU {tr.total(cpu=True):.4f} s")
        print("work counters, traced: " + json.dumps(
            {k: int(v) for k, v in sorted(tr.counters.items())}))
        print("atomic writes by site: " + json.dumps(writes))
        shares = shares_with_build_collapsed(records)
        total = sum(shares.values()) or 1.0
        ranked = sorted(shares.items(), key=lambda kv: -kv[1])
        print("layer shares of the traced time (core.build_adjoint with "
              f"its children); largest: {ranked[0][0] if ranked else None}")
        for layer, secs in ranked:
            print(f"  {layer:<24} {secs:9.4f} s  {secs / total:6.1%}")


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program source not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro  # noqa: F401  (fail here, before any work, if broken)

    # one vCPU for the benchmark and its server: the run does not depend
    # on how the scheduler spreads them, or on the other cores' load
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    from harness import Context

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    ctx = Context(seed=args.seed, quick=args.quick, tmp=tmp, src=str(SRC))
    try:
        wl = load_workload(args.workload, ctx)
        try:
            m = measure(wl, args)
        finally:
            wl.close()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failures = list(m["untraced"].failures) + list(m["late_failures"])
    if m["traced"] is not None:
        failures += m["traced"].failures
        err = check_attribution(m)
        if err is not None:
            failures.append(err)
    failures += check_digests(
        args.workload, args, m["untraced"].first_digests
    )
    report(args.workload, args, m, failures)
    metrics = per_layer(m) if args.trace else end_to_end(m)
    attempted = m["untraced"].attempted + (
        m["traced"].attempted if m["traced"] else 0
    )
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": {
            k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
