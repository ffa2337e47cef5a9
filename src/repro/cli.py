"""The unified ``python -m repro`` command line.

One CLI over the whole workflow, each subcommand a thin shell around
one :class:`repro.session.Session` method:

======== ====================================================== =
command  what it does
======== ====================================================== =
estimate one-point FP error estimate of an app kernel
sweep    batched error estimate over the app's input distribution
tune     greedy / distribution-robust mixed-precision tuning
analyze  static precision analysis: ranges, sensitivity, kernel lint
search   cost-aware Pareto precision search (durable with --store)
plan     multi-scenario search plans through the orchestrator
runs     run-store management: list / compare / prune / diff
serve    long-lived HTTP/JSON job server over one shared session
trace    summarize a JSONL trace file into a per-phase profile
======== ====================================================== =

The five scenario operations (estimate, sweep, tune, analyze, search)
turn their flags into a :class:`~repro.session.ops.JobSpec` and run it
through :mod:`repro.session.ops`, the validation and dispatch the job
server uses too: ``--json`` writes the payload a serve job returns for
the same spec.

Examples::

    python -m repro estimate --kernel blackscholes
    python -m repro sweep --kernel simpsons --aggregate p95
    python -m repro tune --kernel blackscholes --threshold 1e-6 --robust
    python -m repro analyze simpsons --json
    python -m repro search --kernel kmeans --budget 32 --store runs/
    python -m repro search --kernel blackscholes --trace run.trace.jsonl
    python -m repro plan --all --store runs/ --resume
    python -m repro runs --store runs/ --compare
    python -m repro runs --store runs/ --prune --incomplete
    python -m repro serve --store runs/ --port 8321 --workers 2
    python -m repro trace --summarize run.trace.jsonl
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.util.errors import ConfigError, ReproError

_MODELS = ("taylor", "adapt")

#: spec knobs read from same-named flags (see :func:`_spec`)
_SPEC_FLAGS = ("threshold", "budget", "seed", "point", "robust", "aggregate")


def _print_scenarios() -> None:
    from repro.search.orchestrator import app_scenarios

    print("available scenarios:")
    for name, mod in sorted(app_scenarios().items()):
        scen = mod.search_scenario()
        print(
            f"  {name:14s} kernel={scen.kernel.ir.name:14s} "
            f"threshold={scen.threshold:g} "
            f"candidates={len(scen.candidates)}"
        )


def _strategies(args) -> Tuple[str, ...]:
    """The comma-separated ``--strategies`` flag as names."""
    return tuple(s for s in getattr(args, "strategies", "").split(",") if s)


def _session_for(args):
    from repro.session import Session, SessionConfig

    options: Dict[str, object] = {}
    if getattr(args, "demote_to", None) is not None:
        options["demote_to"] = args.demote_to
    config = SessionConfig(
        seed=getattr(args, "seed", 0),
        strategies=_strategies(args) or SessionConfig().strategies,
        fault_plan=getattr(args, "faults", None),
        **options,  # type: ignore[arg-type]
    )
    model = None  # taylor: each method's historical default
    if getattr(args, "model", None) == "adapt":
        from repro.core.models import AdaptModel

        model = AdaptModel()
    return Session(
        config,
        cache=getattr(args, "cache", None),
        store=getattr(args, "store", None),
        model=model,
    )


def _write_json(args, payload: Dict[str, object]) -> None:
    if getattr(args, "json", None) is not None:
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.json}")


# -- estimate / sweep / tune / analyze / search -------------------------------


def _spec(args):
    """The operation spec the subcommand's flags ask for."""
    from repro.session.ops import JobSpec

    knobs = {
        name: getattr(args, name)
        for name in _SPEC_FLAGS
        if getattr(args, name, None) is not None
    }
    if _strategies(args):
        knobs["strategies"] = _strategies(args)
    return JobSpec(args.command, args.kernel, **knobs)


def _print_contributions(per_variable: Dict[str, float], tag: str = "") -> None:
    print("  per-variable contributions:")
    for var, err in sorted(per_variable.items(), key=lambda kv: -abs(kv[1])):
        print(f"    delta[{var:>12s}]{tag} = {err:.6g}")


def _print_estimate(outcome, args) -> int:
    out = outcome.payload
    print(f"estimate({out['kernel']}) at validation point {out['point']}:")
    print(f"  value       = {out['value']:.17g}")
    print(f"  total error = {out['total_error']:.6g}")
    _print_contributions(out["per_variable"])
    return 0


def _print_sweep(outcome, args) -> int:
    out = outcome.payload
    print(
        f"sweep({out['kernel']}): N={out['n']} backend={out['backend']} "
        f"cached={out['from_cache']}"
    )
    print(f"  total error [{out['aggregate']}] = {out['total_error']:.6g}")
    _print_contributions(out["per_variable"], f" [{out['aggregate']}]")
    return 0


def _print_tune(outcome, args) -> int:
    out = outcome.payload
    print(f"tune({out['kernel']}): {out['mode']}, threshold {out['threshold']:g}")
    print(f"  configuration   = {out['configuration'] or '(uniform f64)'}")
    print(f"  estimated error = {out['estimated_error']:.6g}")
    print("  contribution ranking (ascending):")
    for var, err in out["ranking"]:
        mark = "demoted" if var in out["demoted"] else ""
        print(f"    {var:>14s}  {err:.6g}  {mark}")
    return 0


def _print_analyze(outcome, args) -> int:
    print(outcome.result.render())
    return 0


def _print_search(outcome, args) -> int:
    result, out = outcome.result, outcome.payload
    print(result.summary())
    _print_search_stats(out["stats"] or {})
    if out["profile"] is not None:
        from repro.obs.profile import format_summary

        print(f"trace profile ({args.trace}):")
        print(format_summary(out["profile"]))
    ok = len(result.front) > 0 and result.front.is_consistent()
    return 0 if ok else 1


def _print_search_stats(stats: Dict[str, object]) -> None:
    ev = stats.get("evaluator", {})
    if ev:
        mode = ev.get("pool_mode") or "off (per-candidate)"
        print(
            f"evaluator: computed={ev.get('computed')} "
            f"memo_hits={ev.get('memo_hits')} "
            f"config_batch={mode} "
            f"pool_runs={ev.get('pool_runs')} "
            f"pool_lanes={ev.get('pool_lanes')} "
            f"pool_fallbacks={ev.get('pool_fallbacks')}"
        )
    memo = stats.get("estimator_memo", {})
    if memo:
        print(
            f"estimator memo: entries={memo.get('entries')} "
            f"capacity={memo.get('capacity')}"
        )
    kern = stats.get("config_kernel_cache", {})
    if kern:
        print(
            f"kernel cache: entries={kern.get('entries')} "
            f"hits={kern.get('hits')} misses={kern.get('misses')} "
            f"unvectorizable={kern.get('unvectorizable')}"
        )
    sweep = stats.get("sweep_cache")
    if sweep is not None:
        print(
            f"sweep cache: hits={sweep.get('hits')} "
            f"misses={sweep.get('misses')} "
            f"evictions={sweep.get('evictions')} "
            f"disk_entries={sweep.get('disk_entries')} "
            f"disk_bytes={sweep.get('disk_bytes')}"
        )
    rs = stats.get("run_store")
    if rs is not None:
        print(
            f"run store: run={str(rs.get('run_id'))[:12]} "
            f"restored={rs.get('restored')} "
            f"computed={rs.get('computed')} "
            f"checkpoints={rs.get('checkpoints')} "
            f"[{rs.get('root')}]"
        )


_PRINTERS = {
    "estimate": _print_estimate,
    "sweep": _print_sweep,
    "tune": _print_tune,
    "analyze": _print_analyze,
    "search": _print_search,
}


def cmd_operation(args) -> int:
    """estimate / sweep / tune / analyze / search on one app scenario."""
    from repro.obs import trace as obs_trace
    from repro.session import ops

    resume = getattr(args, "resume", False)
    if resume and not args.store:
        args.parser.error("--resume requires --store")
    if args.list or not args.kernel:
        _print_scenarios()
        return 0 if args.list else 2
    spec = _spec(args)
    scen = ops.validate(spec)
    sess = _session_for(args)
    trace_path = getattr(args, "trace", None)
    if trace_path is not None:
        obs_trace.enable(trace_path)
    try:
        with obs_trace.span(f"cli.{spec.kind}", kernel=spec.kernel):
            outcome = ops.execute(sess, spec, scen, resume=resume)
    finally:
        if trace_path is not None:
            obs_trace.disable()
    if args.json == "-":
        # bare `analyze --json`: the payload is the output — keep
        # stdout pure JSON so it pipes into jq
        print(json.dumps(outcome.payload, indent=2))
        return 0
    code = _PRINTERS[spec.kind](outcome, args)
    _write_json(args, outcome.payload)
    return code


# -- plan ---------------------------------------------------------------------


def cmd_plan(args) -> int:
    if args.plan is None and not args.all:
        args.parser.error("plan requires --plan FILE or --all")
    if args.plan is not None and args.all:
        args.parser.error("--plan and --all are mutually exclusive")
    sess = _session_for(args)
    defaults: Dict[str, object] = {}
    if args.budget is not None:
        defaults["budget"] = args.budget
    if args.threshold is not None:
        defaults["threshold"] = args.threshold
    if args.plan is not None:
        orch = sess.plan(plan_file=args.plan, resume=args.resume)
        # CLI flags fill in whatever the plan's defaults leave unset
        # (plan-file defaults and per-entry overrides win)
        for key, value in defaults.items():
            orch.defaults.setdefault(key, value)
    else:
        orch = sess.plan(
            all_apps=True, resume=args.resume, defaults=defaults
        )
    orch.run()
    print(orch.report())
    _write_json(args, orch.to_dict())
    return 0 if orch.ok else 1


# -- runs ---------------------------------------------------------------------


def cmd_runs(args) -> int:
    from repro.search.store import RunStore
    from repro.session.runs import RunsView
    from repro.util.errors import ConfigError, StoreError

    if not args.prune and (
        args.max_age_days is not None
        or args.max_runs is not None
        or args.incomplete
        or args.dry_run
        or args.min_age_hours != 1.0
    ):
        args.parser.error(
            "--max-age-days/--max-runs/--incomplete/--dry-run/"
            "--min-age-hours require --prune"
        )
    if args.merge is None and not Path(args.store).is_dir():
        # RunStore() would mkdir — a read-only management command must
        # surface the typo'd path instead of materializing it
        # (--merge is the exception: merging into a fresh store is a
        # legitimate way to build one)
        print(
            f"error: run store {args.store!r} does not exist",
            file=sys.stderr,
        )
        return 2
    if args.merge is not None:
        missing = [s for s in args.merge if not Path(s).is_dir()]
        if missing:
            print(
                f"error: merge source store(s) do not exist: "
                f"{missing}",
                file=sys.stderr,
            )
            return 2
    view = RunsView(RunStore(args.store))
    try:
        if args.merge is not None:
            report = view.merge(args.merge)
            print(view.format_merge(report))
            _write_json(args, report.to_dict())
        elif args.diff is not None:
            diff = view.diff(*args.diff)
            print(view.format_diff(diff))
            _write_json(args, diff)
        elif args.prune:
            pruned = view.prune(
                max_age_days=args.max_age_days,
                max_runs=args.max_runs,
                incomplete=args.incomplete,
                dry_run=args.dry_run,
                min_age_hours=args.min_age_hours,
            )
            print(view.format_prune(pruned, dry_run=args.dry_run))
            _write_json(args, {"pruned": pruned})
        elif args.compare is not None:
            rows = view.compare(args.compare or None)
            print(view.format_compare(rows))
            _write_json(args, {"runs": rows})
        else:
            manifests = view.list()
            print(view.format_list(manifests))
            _write_json(args, {"runs": manifests})
    except (ConfigError, StoreError) as exc:
        # bad arguments (unknown/ambiguous run id, missing prune
        # criterion, diffing an incomplete run) — a usage error, not an
        # execution failure
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


# -- dist ---------------------------------------------------------------------


def cmd_dist(args) -> int:
    """Bare ``repro dist`` (no action): usage error."""
    args.parser.print_help()
    return 2


def cmd_dist_run(args) -> int:
    from repro.session import Session, SessionConfig

    if args.plan is None and not args.all:
        args.parser.error("dist run requires --plan FILE or --all")
    if args.plan is not None and args.all:
        args.parser.error("--plan and --all are mutually exclusive")
    config_kwargs: Dict[str, object] = {
        "seed": args.seed,
        "strategies": _strategies(args) or SessionConfig().strategies,
        "fault_plan": args.faults,
    }
    if args.ttl is not None:
        config_kwargs["lease_ttl_s"] = args.ttl
    sess = Session(
        SessionConfig(**config_kwargs),  # type: ignore[arg-type]
        cache=args.cache,
        store=args.store,
    )
    defaults: Dict[str, object] = {}
    if args.budget is not None:
        defaults["budget"] = args.budget
    if args.threshold is not None:
        defaults["threshold"] = args.threshold
    result = sess.fleet(
        plan_file=args.plan,
        all_apps=args.all,
        defaults=defaults,
        workers=args.workers,
        shards=args.shards,
        deadline_s=args.deadline,
    )
    print(result.report())
    _write_json(args, result.to_dict())
    return 0 if result.completed else 1


# -- serve --------------------------------------------------------------------


def cmd_serve(args) -> int:
    from repro.obs import trace as obs_trace
    from repro.serve import run_server
    from repro.session import Session, SessionConfig

    if args.trace is not None:
        # server-lifetime tracing: every job execution appends its
        # serve.job (and nested) spans to this file
        obs_trace.enable(args.trace)
    config = SessionConfig(
        seed=args.seed,
        strategies=_strategies(args) or SessionConfig().strategies,
        fault_plan=getattr(args, "faults", None),
    )
    session = Session(config, cache=args.cache, store=args.store)
    try:
        run_server(
            session,
            host=args.host,
            port=args.port,
            workers=args.workers,
            max_queue=args.max_queue,
            max_budget=args.max_budget,
            default_timeout_s=args.timeout,
            resume=args.resume,
            drain_timeout_s=args.drain_timeout,
        )
    finally:
        if args.trace is not None:
            obs_trace.disable()
    return 0


# -- trace --------------------------------------------------------------------


def cmd_trace(args) -> int:
    from repro.obs.profile import (
        format_summary,
        load_trace,
        summarize_records,
    )

    try:
        records = load_trace(args.summarize)
    except OSError as exc:
        print(f"error: cannot read trace: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # load_trace names the offending line — the validation exit
        # the CI trace-smoke job keys on
        print(f"error: {exc}", file=sys.stderr)
        return 1
    summary = summarize_records(records)
    print(f"trace: {args.summarize}")
    print(format_summary(summary))
    _write_json(args, summary)
    return 0


# -- parser -------------------------------------------------------------------


def _add_kernel_flags(sp, with_point: bool = False) -> None:
    sp.add_argument(
        "--kernel", help="app scenario to target (see --list)"
    )
    sp.add_argument(
        "--list", action="store_true",
        help="list available app scenarios",
    )
    if with_point:
        sp.add_argument(
            "--point", type=int, default=0,
            help="validation point index (default 0)",
        )
    sp.add_argument(
        "--cache", default=None,
        help="sweep result cache directory (content-addressed)",
    )
    sp.add_argument(
        "--json", type=Path, default=None,
        help="write the full result as JSON to this path",
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "CHEF-FP reproduction: floating-point error estimation, "
            "input sweeps, mixed-precision tuning, Pareto precision "
            "search, and run management — one session-backed CLI"
        ),
    )
    from repro.search.store import library_version

    ap.add_argument(
        "--version", action="version",
        version=f"repro {library_version()}",
    )
    sub = ap.add_subparsers(dest="command", metavar="command")

    # estimate
    sp = sub.add_parser(
        "estimate",
        help="one-point FP error estimate of an app kernel",
    )
    _add_kernel_flags(sp, with_point=True)
    sp.add_argument(
        "--model", choices=_MODELS, default="taylor",
        help="error model (default: taylor, Eq. 1)",
    )
    sp.set_defaults(func=cmd_operation, parser=sp)

    # sweep
    sp = sub.add_parser(
        "sweep",
        help="batched error estimate over the app's input sweep",
    )
    _add_kernel_flags(sp)
    sp.add_argument(
        "--model", choices=_MODELS, default="taylor",
        help="error model (default: taylor, Eq. 1)",
    )
    sp.add_argument(
        "--aggregate", default=None,
        help="batch-axis aggregation: max|mean|p95|... (default max)",
    )
    sp.set_defaults(func=cmd_operation, parser=sp)

    # tune
    sp = sub.add_parser(
        "tune",
        help="greedy / distribution-robust mixed-precision tuning",
    )
    _add_kernel_flags(sp)
    sp.add_argument(
        "--point", type=int, default=None,
        help="point mode: validation point index (default 0)",
    )
    sp.add_argument(
        "--threshold", type=float, default=None,
        help="error threshold (default: scenario)",
    )
    sp.add_argument(
        "--robust", action="store_true",
        help="aggregate contributions over the scenario input sweep "
             "instead of tuning from one point",
    )
    sp.add_argument(
        "--aggregate", default=None,
        help="robust-mode aggregation (default max = worst case)",
    )
    sp.set_defaults(func=cmd_operation, parser=sp)

    # analyze
    sp = sub.add_parser(
        "analyze",
        help="static precision analysis: value ranges, sensitivity "
             "bounds, and kernel lint (RA1xx/RA2xx)",
    )
    sp.add_argument(
        "kernel", nargs="?", default=None,
        help="app scenario to analyze (see --list)",
    )
    sp.add_argument(
        "--list", action="store_true",
        help="list available app scenarios",
    )
    sp.add_argument(
        "--threshold", type=float, default=None,
        help="error budget for estimate-based pinning "
             "(default: scenario threshold)",
    )
    sp.add_argument(
        "--demote-to", dest="demote_to", choices=("f16", "f32"),
        default=None,
        help="demotion target the feasibility checks test against "
             "(default f32)",
    )
    sp.add_argument(
        "--json", nargs="?", const="-", default=None, metavar="PATH",
        help="emit the full report as JSON — to PATH, or to stdout "
             "when no path is given",
    )
    sp.set_defaults(func=cmd_operation, parser=sp)

    # search
    sp = sub.add_parser(
        "search",
        help="cost-aware Pareto precision search over app kernels",
    )
    _add_kernel_flags(sp)
    sp.add_argument(
        "--budget", type=int, default=None,
        help="max computed candidate evaluations (default: scenario)",
    )
    sp.add_argument(
        "--strategies", default="",
        help="comma-separated strategy names (default: greedy,delta,"
             "anneal)",
    )
    sp.add_argument(
        "--threshold", type=float, default=None,
        help="error threshold override (default: scenario)",
    )
    sp.add_argument(
        "--seed", type=int, default=0, help="strategy RNG seed"
    )
    sp.add_argument(
        "--store", default=None,
        help="persistent run-store directory (checkpointed, resumable "
             "runs; content-addressed by the search parameters)",
    )
    sp.add_argument(
        "--resume", action="store_true",
        help="resume matching runs from --store (bit-identical to an "
             "uninterrupted run)",
    )
    sp.add_argument(
        "--trace", type=Path, default=None,
        help="append span records (JSONL) to this trace file and "
             "print the per-phase profile (see the trace subcommand)",
    )
    sp.add_argument(
        "--faults", default=None,
        help="fault-injection plan (inline JSON or a file path) — "
             "deterministic chaos testing; see README failure "
             "semantics",
    )
    sp.set_defaults(func=cmd_operation, parser=sp)

    # plan
    sp = sub.add_parser(
        "plan",
        help="multi-scenario search plans through the orchestrator",
    )
    sp.add_argument(
        "--plan", type=Path, default=None,
        help="JSON plan file (entries + defaults)",
    )
    sp.add_argument(
        "--all", action="store_true",
        help="orchestrate every app scenario as one plan",
    )
    sp.add_argument("--store", required=True, help="run-store directory")
    sp.add_argument(
        "--resume", action="store_true", default=True,
        help="resume entries from the store (default)",
    )
    sp.add_argument(
        "--no-resume", dest="resume", action="store_false",
        help="recompute entries even when stored runs exist",
    )
    sp.add_argument("--budget", type=int, default=None)
    sp.add_argument("--threshold", type=float, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--strategies", default="")
    sp.add_argument("--cache", default=None)
    sp.add_argument("--json", type=Path, default=None)
    sp.set_defaults(func=cmd_plan, parser=sp)

    # runs
    sp = sub.add_parser(
        "runs",
        help="run-store management: list / compare / prune / diff",
    )
    sp.add_argument("--store", required=True, help="run-store directory")
    action = sp.add_mutually_exclusive_group()
    action.add_argument(
        "--list", action="store_true",
        help="list stored runs (default)",
    )
    action.add_argument(
        "--compare", nargs="*", metavar="RUN", default=None,
        help="compare stored runs (all, or the given run-id prefixes)",
    )
    action.add_argument(
        "--prune", action="store_true",
        help="garbage-collect runs (set at least one criterion)",
    )
    action.add_argument(
        "--diff", nargs=2, metavar=("RUN_A", "RUN_B"), default=None,
        help="diff the Pareto fronts of two stored runs",
    )
    action.add_argument(
        "--merge", nargs="+", metavar="SRC", default=None,
        help="union-merge runs from the given source store(s) into "
             "--store (dedup by content-addressed run id; records are "
             "checksum-verified; merged manifests gain shard "
             "provenance)",
    )
    sp.add_argument(
        "--max-age-days", type=float, default=None,
        help="prune: drop runs older than this many days",
    )
    sp.add_argument(
        "--max-runs", type=int, default=None,
        help="prune: keep only the newest N runs",
    )
    sp.add_argument(
        "--incomplete", action="store_true",
        help="prune: drop runs that never completed (runs touched "
             "within --min-age-hours are presumed live and skipped)",
    )
    sp.add_argument(
        "--min-age-hours", type=float, default=1.0,
        help="prune --incomplete: protect runs modified more "
             "recently than this (default 1.0; 0 disables)",
    )
    sp.add_argument(
        "--dry-run", action="store_true",
        help="prune: report without deleting",
    )
    sp.add_argument("--json", type=Path, default=None)
    sp.set_defaults(func=cmd_runs, parser=sp)

    # dist
    sp = sub.add_parser(
        "dist",
        help="distributed sharded search: lease-claiming worker fleet",
    )
    dist_sub = sp.add_subparsers(dest="dist_cmd", metavar="ACTION")
    sp.set_defaults(func=cmd_dist, parser=sp)
    dp = dist_sub.add_parser(
        "run",
        help="execute a (sharded) plan with N claiming worker "
             "processes over one shared run store",
    )
    dp.add_argument(
        "--plan", type=Path, default=None,
        help="JSON plan file (entries + defaults)",
    )
    dp.add_argument(
        "--all", action="store_true",
        help="run every app scenario as one plan",
    )
    dp.add_argument("--store", required=True, help="run-store directory")
    dp.add_argument(
        "--workers", type=int, default=2,
        help="worker processes claiming entries (default 2)",
    )
    dp.add_argument(
        "--shards", type=int, default=1,
        help="expand each entry into N seed-varied shard runs "
             "(default 1: no sharding)",
    )
    dp.add_argument(
        "--ttl", type=float, default=None,
        help="lease time-to-live in seconds before a silent worker's "
             "entry can be stolen (default 30)",
    )
    dp.add_argument(
        "--deadline", type=float, default=None,
        help="fleet wall-clock budget in seconds (default: unbounded)",
    )
    dp.add_argument("--budget", type=int, default=None)
    dp.add_argument("--threshold", type=float, default=None)
    dp.add_argument("--seed", type=int, default=0)
    dp.add_argument(
        "--strategies", default="",
        help="session default strategy line-up (comma-separated)",
    )
    dp.add_argument("--cache", default=None)
    dp.add_argument(
        "--faults", default=None,
        help="fault-injection plan enabled inside every worker "
             "(inline JSON or a file path)",
    )
    dp.add_argument("--json", type=Path, default=None)
    dp.set_defaults(func=cmd_dist_run, parser=dp)

    # serve
    sp = sub.add_parser(
        "serve",
        help="long-lived HTTP/JSON job server over one shared session",
    )
    sp.add_argument(
        "--store", required=True,
        help="run-store directory (anchors durable runs and the job "
             "journal — required: a server must survive restarts)",
    )
    sp.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    sp.add_argument(
        "--port", type=int, default=0,
        help="bind port (default 0: pick a free port, printed on start)",
    )
    sp.add_argument(
        "--workers", type=int, default=2,
        help="concurrent job executions (default 2)",
    )
    sp.add_argument(
        "--max-queue", type=int, default=16,
        help="pending jobs accepted before 429 backpressure "
             "(default 16)",
    )
    sp.add_argument(
        "--max-budget", type=int, default=None,
        help="server-wide cap on a search job's evaluation budget",
    )
    sp.add_argument(
        "--timeout", type=float, default=None,
        help="default per-job wall-clock deadline in seconds",
    )
    sp.add_argument(
        "--no-resume", dest="resume", action="store_false",
        default=True,
        help="do not requeue unfinished jobs from a previous server "
             "life",
    )
    sp.add_argument(
        "--drain-timeout", type=float, default=30.0,
        help="seconds to wait for in-flight jobs on SIGTERM "
             "(default 30)",
    )
    sp.add_argument(
        "--cache", default=None,
        help="sweep result cache directory (content-addressed)",
    )
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument(
        "--strategies", default="",
        help="session default strategy line-up (comma-separated)",
    )
    sp.add_argument(
        "--trace", type=Path, default=None,
        help="append span records (JSONL) for every job execution to "
             "this trace file",
    )
    sp.add_argument(
        "--faults", default=None,
        help="fault-injection plan (inline JSON or a file path) — "
             "deterministic chaos testing of the serve stack",
    )
    sp.set_defaults(func=cmd_serve, parser=sp)

    # trace
    sp = sub.add_parser(
        "trace",
        help="summarize a JSONL trace file into a per-phase profile",
    )
    sp.add_argument(
        "--summarize", type=Path, required=True, metavar="TRACE",
        help="trace file written by --trace (search/serve) to "
             "validate and aggregate",
    )
    sp.add_argument(
        "--json", type=Path, default=None,
        help="write the summary as JSON to this path",
    )
    sp.set_defaults(func=cmd_trace, parser=sp)

    return ap


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "func", None) is None:
        ap.print_help()
        return 2
    try:
        return args.func(args)
    except ConfigError as exc:
        # invalid option/argument values — a usage error (exit 2, like
        # argparse), not an execution failure
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader went away (`... | head`); die quietly like a
        # well-behaved unix tool
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
