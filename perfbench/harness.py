"""The measurement loop shared by every workload.

A workload hands the harness a sequence of **rounds**; a round is a fixed
list of ops, each prepared (untimed), run (timed) and checked (untimed).
A run is many small closed-loop samples; reported latencies are medians
and phase times are sums.  The number of rounds is fixed by ``--seconds``
and the workload's nominal rate (rounds per second), not by the clock:
every run of a seed does the same work, and state that grows with the
work done (the server's job registry, for one) is the same size in every
run.

Every op is timed on the wall clock (``time.perf_counter``): the time a
client waits for the result, blocking included (I/O, sleeps, lock waits,
the hand-off to a server's worker thread).  The CPU time the op costs
this process, its finished children and the live server, if any, is
recorded beside it and printed as a cross-check: a wall-clock change
with no CPU change is waiting, or host noise.

``wall_s`` is the time of the timed phase: the sum of its ops' times,
i.e. what a single client waits on the program for the run's fixed work.
``ops_per_s`` is ops over ``wall_s``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from layers import OP_SPAN


@dataclass
class Op:
    """One timed operation and the checks on its result."""

    #: stable identity of the op's inputs (the digest key)
    key: str
    #: op type, for the per-kind latency table
    kind: str
    run: Callable[[], object]
    #: returns ``None`` when the result is correct, else the reason
    check: Callable[[object], Optional[str]]
    #: content digest of the result (compared across seeds/rounds)
    digest: Callable[[object], str]
    prepare: Optional[Callable[[], None]] = None
    cleanup: Optional[Callable[[], None]] = None


@dataclass
class Phase:
    """What one run of rounds measured."""

    #: per op: (round, kind, wall-clock seconds, CPU seconds)
    samples: List[Tuple[int, str, float, float]] = field(
        default_factory=list
    )
    rounds: int = 0
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: digests of the first round's ops, by op key
    first_digests: Dict[str, str] = field(default_factory=dict)
    #: program-owned work counters over the phase
    counters: Dict[str, float] = field(default_factory=dict)

    def total(self, cpu: bool = False) -> float:
        """Summed op time: wall-clock, or CPU with ``cpu``."""
        return sum(s[3 if cpu else 2] for s in self.samples)

    def latencies(
        self, kinds: Optional[Tuple[str, ...]] = None
    ) -> List[float]:
        """Wall-clock op times, of the ``kinds`` given or of every op."""
        return [s[2] for s in self.samples
                if kinds is None or s[1] in kinds]

    def by_kind(self, cpu: bool = False) -> Dict[str, List[float]]:
        out: Dict[str, List[float]] = {}
        for s in self.samples:
            out.setdefault(s[1], []).append(s[3 if cpu else 2])
        return out


def cpu_seconds(pids=()) -> float:
    """CPU seconds used so far by this process, its waited-for children
    and the live processes ``pids`` (Linux per-process CPU clocks)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = time.process_time() + children.ru_utime + children.ru_stime
    for pid in pids:
        # MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)
        total += time.clock_gettime(((~pid) << 3) | 2)
    return total


def digest_json(obj: object) -> str:
    """sha256 of a canonical JSON rendering (floats by ``repr``)."""
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


def counter_delta(
    after: Dict[str, float], before: Dict[str, float]
) -> Dict[str, float]:
    return {k: after[k] - before.get(k, 0) for k in after}


def run_phase(workload, rounds: int, tracer=None) -> Phase:
    """Run ``rounds`` rounds of the workload.

    With ``tracer`` (the ``repro.obs.trace`` module, tracing enabled),
    each op runs inside a root ``bench.op`` span."""
    ph = Phase()
    start_counters = workload.counters()
    while ph.rounds < rounds:
        ops = workload.round(workload.next_round_index())
        for op in ops:
            if op.prepare is not None:
                op.prepare()
            workload.between_ops()
            ph.attempted += 1
            error: Optional[str] = None
            result = None
            pids = workload.live_pids()
            c0 = cpu_seconds(pids)
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    with tracer.span(OP_SPAN, key=op.key):
                        result = op.run()
                else:
                    result = op.run()
            except Exception as exc:  # noqa: BLE001 - counted as failed op
                error = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            ph.samples.append(
                (ph.rounds, op.kind, dt, cpu_seconds(pids) - c0)
            )
            if error is None:
                try:
                    error = op.check(result)
                    if error is None and ph.rounds == 0:
                        ph.first_digests[op.key] = op.digest(result)
                except Exception as exc:  # noqa: BLE001 - broken result
                    error = f"check raised {type(exc).__name__}: {exc}"
            if op.cleanup is not None:
                op.cleanup()
            if error is not None:
                ph.failures.append(f"{op.key}: {error}")
        ph.rounds += 1
    ph.counters = counter_delta(workload.counters(), start_counters)
    return ph


def median(values: List[float]) -> float:
    return statistics.median(values) if values else math.nan


def p90(values: List[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def peak_rss_mb_self() -> float:
    """Peak resident set of this process (Linux ``VmHWM``), in MB."""
    return peak_rss_mb_of("self")


def peak_rss_mb_of(pid) -> float:
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


@dataclass
class Context:
    """Run parameters every workload sees."""

    seed: int
    #: tiny inputs and fixed round counts (the smoke test)
    quick: bool
    #: scratch directory inside the checkout, removed after the run
    tmp: str
    #: the program's source root (``src``), for subprocesses
    src: str


#: work counter -> registry instrument (Prometheus sample name)
COUNTERS = {
    "estimator_builds": "repro_estimate_build_seconds_count",
    "memo_hits": "repro_memo_hits_total",
    "memo_misses": "repro_memo_misses_total",
    "lane_kernel_hits": "repro_config_kernel_hits_total",
    "lane_kernel_misses": "repro_config_kernel_misses_total",
    "evaluations": "repro_search_evaluations_total",
    "search_memo_hits": "repro_search_memo_hits_total",
    "checkpoint_writes": "repro_search_checkpoints_total",
    "sweep_points": "repro_sweep_points_total",
}


def registry_counters(prom: Optional[str] = None) -> Dict[str, float]:
    """Program-owned work counters from the metrics registry, read from
    its Prometheus rendering: this process's registry, or the text a
    server's ``/v1/metrics?format=prom`` returned."""
    if prom is None:
        from repro.obs.metrics import REGISTRY

        prom = REGISTRY.render_prom()
    samples: Dict[str, float] = {}
    for line in prom.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            samples[name] = float(value)
    return {k: samples.get(v, 0.0) for k, v in COUNTERS.items()}


@dataclass
class TraceData:
    """What a traced phase left behind, for the per-layer metrics."""

    #: span records of the program's layers: this process's records
    #: inside ``bench.op`` spans, or the server's trace file
    records: List[dict]
    #: the root span of ``records`` whose time the layer spans must
    #: account for (``bench.op``, or the server's ``serve.job``)
    root: str = OP_SPAN
    #: workload-specific per-layer values (the ``serve.*`` metrics)
    extra: Dict[str, float] = field(default_factory=dict)


class Workload:
    """Base of the three workloads: set-up, rounds of ops, counters."""

    name = ""
    #: set-ups per run; ``setup_s`` is their median
    setup_reps = 7
    #: rounds per second of ``--seconds``: sized so that the timed phase
    #: takes about ``--seconds`` or less on a 2-vCPU x86-64 VM
    rate = 1.0
    #: rounds an untraced phase runs at least
    min_rounds = 1
    #: op kinds whose latencies make ``op_p50_s``/``op_p90_s`` (all if
    #: ``None``)
    p50_kinds: Optional[Tuple[str, ...]] = None

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self._next_round = 0

    def rounds_for(self, seconds: float, min_rounds: int = 1) -> int:
        """Rounds that fill ``seconds`` at the nominal rate."""
        if self.ctx.quick:
            return 1
        return max(min_rounds, round(seconds * self.rate))

    def next_round_index(self) -> int:
        i = self._next_round
        self._next_round += 1
        return i

    def setup(self) -> None:  # timed
        raise NotImplementedError

    def between_ops(self) -> None:
        """Runs, untimed, before every op: a full collection, so that no
        op pays for collecting the garbage of the ones before (a fresh
        CLI process would not have it)."""
        gc.collect()

    def teardown_setup(self) -> None:
        """Undo a set-up before the next repetition (untimed)."""

    def round(self, index: int) -> List[Op]:
        raise NotImplementedError

    def counters(self) -> Dict[str, float]:
        return registry_counters()

    def peak_rss_mb(self) -> float:
        return peak_rss_mb_self()

    def live_pids(self) -> List[int]:
        """Running child processes that do the workload's work."""
        return []

    def begin_trace(self) -> None:
        from layers import Layers
        from repro.obs import trace

        self._layers = Layers()
        self._layers.install()
        self._records: List[dict] = []
        trace.enable(None).add_sink(self._records.append)

    def end_trace(self) -> TraceData:
        from layers import under_ops
        from repro.obs import trace

        trace.disable()
        self._layers.uninstall()
        return TraceData(records=under_ops(self._records))

    def finish(self) -> List[str]:
        """Checks that need the whole run; returns failure reasons."""
        return []

    def close(self) -> None:
        """Release everything (always called)."""
