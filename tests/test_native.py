"""The native lane engine: exactness, replay, fallback, safe builds.

The C lane interpreter (``repro.codegen.native`` + ``lanevm.c``) must
return, lane for lane and bit for bit, what the numpy config-lane and
input-sweep batch paths return — and where the numpy path raises, the
native call must replay there and raise the same way.  Its one-lane
loop must return what the generated Python behind
``ErrorEstimator.execute`` returns, value and Python type, and replay
there where Python raises.  Only kernels with a loop take the native
engine; machines without a compiler keep the numpy or Python path for
them, counted as fallbacks.  Builds are content-addressed and safe
under concurrent processes and forks.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import threading
import time
import warnings
from math import exp, floor, log, sin, sqrt  # noqa: F401 - DSL intrinsics
from pathlib import Path

import numpy as np
import pytest

from repro.codegen import native
from repro.codegen.compile import clear_config_kernel_cache, config_lane_kernel
from repro.frontend.registry import kernel as register_kernel
from repro.ir.types import DType
from repro.tuning.config import PrecisionConfig
from tests.conftest import assert_reports_identical

SRC = Path(__file__).resolve().parents[1] / "src"


@register_kernel
def nv_store(x: float) -> float:
    y = x
    return y


@register_kernel
def nv_log(x: float) -> float:
    return log(x)


@register_kernel
def nv_sin(x: float) -> float:
    return sin(x)


@register_kernel
def nv_exp(x: float) -> float:
    return exp(x)


@register_kernel
def nv_div(x: float, y: float) -> float:
    return x / y


@register_kernel
def nv_mixed(n: int, x: float) -> float:
    s = 0.0
    for i in range(n):
        if x > 0.5:
            s = s + x * i
        else:
            s = s - x // 0.25 + i % 3
    return s


@register_kernel
def nv_noreturn(x: float) -> float:
    y = x * 2.0
    z = y + 1.0  # noqa: F841 - dead store, still charged


def _counts():
    return native.NATIVE_RUNS.value, native.NATIVE_FALLBACKS.value


def _numpy_call(kernel, pool, *args):
    with np.errstate(all="ignore"):
        return kernel.raw(*args, pool.selectors, pool.charges, pool.consts)


def _bits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


@pytest.fixture
def lanes(monkeypatch):
    """A native-capable machine, a cold kernel cache, and every kernel
    on the native engine (straight-line ones included)."""
    if native.library() is None:
        pytest.skip("no C compiler for the native lane engine")
    monkeypatch.setattr(native, "worth_lowering", lambda fn: True)
    clear_config_kernel_cache()
    yield
    clear_config_kernel_cache()


# --------------------------------------------------------------------------
# Rounding: direct double -> half, never via float
# --------------------------------------------------------------------------


class TestRounding:
    def test_double_to_half_edges_match_numpy(self, lanes):
        tie = 1.0 + 2.0 ** -11  # halfway between two halves
        xs = np.array([
            tie + 2.0 ** -40,  # via float this rounds to the tie, then down
            -(tie + 2.0 ** -40),
            tie,
            1.0 + 3 * 2.0 ** -11,
            2048.0 + 1.0 + 2.0 ** -30,
            2.0 ** -24 * 1.5 + 2.0 ** -50,  # subnormal halves
            2.0 ** -25 + 2.0 ** -60,
            2.0 ** -25,
            65504.0,
            np.nextafter(65520.0, 0.0),
            65520.0,
            -65520.0,
            1e300,
            0.0,
            -0.0,
            np.inf,
        ])
        with np.errstate(over="ignore"):  # 1e300 overflows on purpose
            via_float = xs.astype(np.float32).astype(np.float16)
            direct = xs.astype(np.float16)
            single = xs.astype(np.float32).astype(np.float64)
        assert not np.array_equal(via_float, direct)  # the case is live
        kern = config_lane_kernel(nv_store.ir, batched={"x"})
        pool = kern.lower([
            PrecisionConfig.demote(["y"], to=DType.F16),
            PrecisionConfig.demote(["y"], to=DType.F32),
            PrecisionConfig(),
        ])
        runs, _ = _counts()
        out = np.broadcast_to(kern(pool, xs), (3, len(xs)))
        assert _counts()[0] == runs + 1
        assert np.array_equal(_bits(out[0]), _bits(direct.astype(np.float64)))
        assert np.array_equal(_bits(out[1]), _bits(single))
        assert np.array_equal(_bits(out[2]), _bits(xs))


# --------------------------------------------------------------------------
# Replay: where Python raises, the numpy path decides
# --------------------------------------------------------------------------


def _outcome(fn):
    try:
        return "ok", fn()
    except Exception as exc:  # noqa: BLE001 - the outcome is the point
        return type(exc).__name__, str(exc)


class TestReplay:
    @pytest.mark.parametrize(
        "kern_fn,arg",
        [
            (nv_log, 0.0),
            (nv_sin, math.inf),
            (nv_exp, 1000.0),
            (nv_log, -1.0),
        ],
        ids=["log(0)", "sin(inf)", "exp(1000)", "log(-1)"],
    )
    def test_math_errors_replay_on_numpy(self, lanes, kern_fn, arg):
        for batched in (set(), {"x"}):
            kern = config_lane_kernel(kern_fn.ir, batched=batched)
            pool = kern.lower([PrecisionConfig(), PrecisionConfig()])
            x = np.array([1.0, arg]) if batched else arg
            runs, fallbacks = _counts()
            got = _outcome(lambda: kern(pool, x))
            want = _outcome(lambda: _numpy_call(kern, pool, x))
            assert got[0] == want[0] != "ok"
            assert got[1] == want[1]
            assert _counts() == (runs, fallbacks + 1)

    def test_zero_divisor_replays(self, lanes):
        kern = config_lane_kernel(nv_div.ir)
        pool = kern.lower([PrecisionConfig(), PrecisionConfig()])
        got = _outcome(lambda: kern(pool, 1.0, 0.0))
        want = _outcome(lambda: _numpy_call(kern, pool, 1.0, 0.0))
        assert got[0] == want[0] == "ZeroDivisionError"
        # lane-varying divisors divide like numpy: IEEE inf, no raise
        kern = config_lane_kernel(nv_div.ir, batched={"x", "y"})
        pool = kern.lower([PrecisionConfig(), PrecisionConfig.demote(["y"])])
        xs, ys = np.array([1.0, -1.0, 0.0]), np.array([0.0, 0.0, 0.0])
        runs, _ = _counts()
        out = kern(pool, xs, ys)
        assert _counts()[0] == runs + 1
        want = _numpy_call(kern, pool, xs, ys)
        assert np.array_equal(
            _bits(np.broadcast_to(out, (2, 3))),
            _bits(np.broadcast_to(want, (2, 3))),
        )

    def test_int_loops_floor_div_and_mod_match(self, lanes):
        pool_cfgs = [
            PrecisionConfig(),
            PrecisionConfig.demote(["s"], to=DType.F16),
            PrecisionConfig.demote(["x", "s"]),
        ]
        for batched, x in (
            (set(), 0.3),
            ({"x"}, np.array([0.3, 0.7, -1.25, 0.5])),
        ):
            kern = config_lane_kernel(nv_mixed.ir, batched=batched)
            pool = kern.lower(pool_cfgs)
            runs, fallbacks = _counts()
            out = kern(pool, 7, x)
            assert _counts() == (runs + 1, fallbacks)
            want = _numpy_call(kern, pool, 7, x)
            shape = np.broadcast_shapes(np.shape(out), np.shape(want))
            assert np.array_equal(
                _bits(np.broadcast_to(out, shape)),
                _bits(np.broadcast_to(want, shape)),
            )


def test_implicit_return_keeps_the_cycle_count(lanes):
    kern = config_lane_kernel(nv_noreturn.ir, batched={"x"}, counting=True)
    pool = kern.lower(
        [PrecisionConfig(), PrecisionConfig.demote(["y"], to=DType.F16)]
    )
    xs = np.array([1.0, 2.0, 3.0])
    runs, fallbacks = _counts()
    value, cost = kern(pool, xs)
    assert _counts() == (runs + 1, fallbacks)
    want_value, want_cost = _numpy_call(kern, pool, xs)
    assert value is None and want_value is None
    assert np.array_equal(
        np.broadcast_to(cost, (2, 3)), np.broadcast_to(want_cost, (2, 3))
    )


# --------------------------------------------------------------------------
# Engine choice: only kernels with a loop run natively
# --------------------------------------------------------------------------


def test_straight_line_kernels_stay_on_numpy_uncounted():
    from repro.apps import blackscholes as bs
    from repro.core.api import cached_error_estimator, clear_estimator_memo

    if native.library() is None:
        pytest.skip("no C compiler for the native lane engine")
    clear_config_kernel_cache()
    straight = config_lane_kernel(nv_store.ir, batched={"x"})
    looped = config_lane_kernel(nv_mixed.ir, batched={"x"})
    assert not straight.native_engine and straight.native is None
    assert looped.native_engine and looped.native is not None
    before = _counts()
    straight(straight.lower([PrecisionConfig()]), np.array([0.1, 0.2]))
    clear_estimator_memo()
    est = cached_error_estimator(bs.bs_price)
    rep = est.execute_batch(
        np.linspace(25.0, 150.0, 5), 100.0, 0.05, 0.3, 0.5, 0
    )
    clear_estimator_memo()
    clear_config_kernel_cache()
    assert rep.backend == "vectorized"
    assert _counts() == before  # neither native runs nor fallbacks


# --------------------------------------------------------------------------
# No compiler: the numpy path, counted
# --------------------------------------------------------------------------


def test_without_a_compiler_results_are_identical_and_counted(
    lanes, monkeypatch
):
    xs = np.linspace(-2.0, 2.0, 9)
    cfgs = [PrecisionConfig(), PrecisionConfig.demote(["s"], to=DType.F16)]
    kern = config_lane_kernel(nv_mixed.ir, batched={"x"})
    assert kern.native is not None
    with_native = kern(kern.lower(cfgs), 5, xs)

    clear_config_kernel_cache()
    monkeypatch.setattr(native, "_compiler", lambda: None)
    monkeypatch.setattr(native, "_LIB", None)
    monkeypatch.setattr(native, "_LIB_FAILED", False)
    kern = config_lane_kernel(nv_mixed.ir, batched={"x"})
    assert kern.native is None
    runs, fallbacks = _counts()
    without = kern(kern.lower(cfgs), 5, xs)
    assert _counts() == (runs, fallbacks + 1)
    assert np.array_equal(
        _bits(np.broadcast_to(with_native, (2, 9))),
        _bits(np.broadcast_to(without, (2, 9))),
    )


@pytest.mark.parametrize("app", ["simpsons", "blackscholes"])
def test_sweep_batches_run_natively_and_match_numpy(lanes, monkeypatch, app):
    from repro.apps import blackscholes as bs
    from repro.apps import simpsons
    from repro.core.api import cached_error_estimator, clear_estimator_memo
    from repro.core.models import AdaptModel

    if app == "simpsons":
        kern, args = simpsons.simpson, (40, 0.0, np.linspace(1.5, 3.1, 17))
    else:
        kern = bs.bs_price
        args = (
            np.linspace(25.0, 150.0, 17), 100.0, 0.05,
            np.linspace(0.05, 0.65, 17), 0.5, 0,
        )

    def report():
        clear_estimator_memo()
        est = cached_error_estimator(kern, model=AdaptModel())
        return est.execute_batch(*args)

    runs, fallbacks = _counts()
    fast = report()
    assert _counts() == (runs + 1, fallbacks)
    monkeypatch.setattr(native, "_compiler", lambda: None)
    monkeypatch.setattr(native, "_LIB", None)
    monkeypatch.setattr(native, "_LIB_FAILED", False)
    slow = report()
    clear_estimator_memo()
    assert _counts() == (runs + 1, fallbacks + 1)
    assert fast.backend == slow.backend == "vectorized"
    assert_reports_identical(fast, slow)


# --------------------------------------------------------------------------
# Safe builds: concurrent processes, fork under a held build lock
# --------------------------------------------------------------------------

_LOAD = (
    "import sys; sys.path.insert(0, sys.argv[1])\n"
    "from repro.codegen import native\n"
    "lib = native.library()\n"
    "print(lib._name if lib is not None else 'none')\n"
)


def test_two_processes_build_one_library(tmp_path):
    if native.library() is None:
        pytest.skip("this machine cannot build the lane interpreter")
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path))
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _LOAD, str(SRC)],
            env=env, stdout=subprocess.PIPE, text=True,
        )
        for _ in range(2)
    ]
    paths = [p.communicate(timeout=300)[0].strip() for p in procs]
    assert all(p.returncode == 0 for p in procs)
    assert paths[0] == paths[1] != "none"
    built = sorted((tmp_path / "repro").iterdir())
    assert [p.name for p in built] == [Path(paths[0]).name]  # no temp left


def test_fork_while_the_build_lock_is_held(lanes):
    held, release = threading.Event(), threading.Event()

    def hold() -> None:
        with native._BUILD_LOCK:
            held.set()
            release.wait(30)

    t = threading.Thread(target=hold)
    t.start()
    held.wait(30)
    try:
        with warnings.catch_warnings():
            # forking a threaded process is the scenario under test
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
        if pid == 0:  # pragma: no cover - child
            code = 1
            try:
                native._LIB = None  # force library() through the lock
                kern = config_lane_kernel(nv_store.ir, batched={"x"})
                pool = kern.lower([PrecisionConfig.demote(["y"])])
                runs = native.NATIVE_RUNS.value
                kern(pool, np.array([0.1, 0.2]))
                code = 0 if native.NATIVE_RUNS.value == runs + 1 else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                pytest.fail("child deadlocked on the inherited build lock")
            time.sleep(0.05)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
    finally:
        release.set()
        t.join()


# --------------------------------------------------------------------------
# The scalar engine: ErrorEstimator.execute from its second call
# --------------------------------------------------------------------------


@register_kernel
def ns_sqrt(n: int, x: float) -> float:
    s = 0.0
    for i in range(n):
        s = s + sqrt(x)
    return s


@register_kernel
def ns_div(n: int, x: float) -> float:
    s = 0.0
    for i in range(n):
        s = s + 1.0 / x
    return s


@register_kernel
def ns_exp(n: int, x: float) -> float:
    s = 0.0
    for i in range(n):
        s = s + exp(x)
    return s


@register_kernel
def ns_big(n: int, x: float) -> float:
    s = 0.0
    for i in range(3):
        m = n * n + 1
        s = s + x * (m - n * n)  # exact in Python ints, 0 in doubles
    return s


@register_kernel
def ns_floor(n: int, x: float) -> float:
    s = 0.0
    for i in range(n):
        s = floor(x * i)
    return s


@register_kernel
def ns_max(n: int, x: float) -> float:
    s = 0.0
    for i in range(n):
        s = fmax(i, x)  # noqa: F821 - DSL intrinsic
    return s


@register_kernel
def ns_ints(n: int, a: "i64[]", x: float) -> float:
    s = 0.0
    for i in range(n):
        a[i] = a[i] + 1
        s = s + x * a[i]
    return s


@register_kernel
def ns_marks(n: int, a: "i64[]", x: float) -> float:
    s = 0.0
    for i in range(n):
        s = s + x
    a[0] = 7  # never read back: the adjoint keeps the store
    return s


@pytest.fixture
def scalar_engine():
    """A native-capable machine; estimators are built fresh per test."""
    if native.library() is None:
        pytest.skip("no C compiler for the native scalar engine")


def _app_args(app):
    from repro.apps import blackscholes, hpccg, kmeans

    return {
        "arclength": lambda: (300, math.pi / 300 * 0.8),
        "simpsons": lambda: (300, 0.1, 3.0),
        "kmeans": lambda: kmeans.make_workload(40, seed=7),
        "hpccg": lambda: hpccg.make_workload(2, max_iter=6),
        "blackscholes": lambda: blackscholes.make_workload(60, seed=7),
    }[app]()


def _assert_identical(a, b):
    """Equal bit for bit and type for type, recursively."""
    assert type(a) is type(b), (a, b)
    if isinstance(a, dict):
        assert list(a) == list(b)
        for k in a:
            _assert_identical(a[k], b[k])
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            _assert_identical(x, y)
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    elif isinstance(a, float):
        assert _bits(a) == _bits(b)
    else:
        assert a == b


def _report_fields(rep):
    return [
        getattr(rep, f)
        for f in ("value", "total_error", "per_variable", "gradients", "traces")
        if hasattr(rep, f)
    ]


def _python_then_native(make, args, counted=(1, 0)):
    """The first call of a fresh estimator (the Python path) and its
    second (the scalar engine), each on its own copy of ``args``:
    ``(python, native)`` as (report, args) pairs."""
    est = make()

    def copy():
        return tuple(
            a.copy() if isinstance(a, np.ndarray) else a for a in args
        )

    first = copy()
    python = est.execute(*first)
    runs, fallbacks = _counts()
    second = copy()
    nat = est.execute(*second)
    assert _counts() == (runs + counted[0], fallbacks + counted[1])
    return (python, first), (nat, second)


class TestScalarEngine:
    @pytest.mark.parametrize(
        "app", ["arclength", "simpsons", "kmeans", "hpccg", "blackscholes"]
    )
    def test_apps_match_the_python_path(self, scalar_engine, app):
        from repro.apps import ALL_APPS
        from repro.core.api import ErrorEstimator

        kern = ALL_APPS[app].INSTRUMENTED
        args = _app_args(app)
        (py, py_args), (nat, nat_args) = _python_then_native(
            lambda: ErrorEstimator(kern), args
        )
        _assert_identical(_report_fields(py), _report_fields(nat))
        # arrays are written in place alike: hpccg's forward sweep
        # overwrites x, r, p and Ap, and its reverse sweep pops every
        # element back
        _assert_identical(list(py_args), list(nat_args))
        _assert_identical(list(nat_args), list(args))

    def test_gradient_matches_the_python_path(self, scalar_engine):
        import repro
        from repro.apps import kmeans

        args = _app_args("kmeans")
        (py, _), (nat, _) = _python_then_native(
            lambda: repro.gradient(kmeans.INSTRUMENTED), args
        )
        _assert_identical(_report_fields(py), _report_fields(nat))

    @pytest.mark.parametrize(
        "kern,x,exc",
        [
            (ns_sqrt, -1.0, "ValueError"),
            (ns_div, 0.0, "ZeroDivisionError"),
            (ns_exp, 1000.0, "OverflowError"),
        ],
        ids=["sqrt(-1)", "x/0.0", "exp(1000)"],
    )
    def test_raising_calls_replay_in_python(
        self, scalar_engine, kern, x, exc
    ):
        from repro.core.api import ErrorEstimator

        want = _outcome(lambda: ErrorEstimator(kern).execute(3, x))
        est = ErrorEstimator(kern)
        est.execute(3, 0.5)
        runs, fallbacks = _counts()
        got = _outcome(lambda: est.execute(3, x))
        assert got == want and got[0] == exc
        assert _counts() == (runs, fallbacks + 1)

    def test_an_int_past_2_53_replays(self, scalar_engine):
        from repro.core.api import ErrorEstimator

        (py, _), (nat, _) = _python_then_native(
            lambda: ErrorEstimator(ns_big), (2 ** 30, 1.5), counted=(0, 1)
        )
        assert py.value == 4.5  # doubles would have lost the + 1
        _assert_identical(_report_fields(py), _report_fields(nat))

    @pytest.mark.parametrize(
        "kern,args,kind",
        [
            (ns_floor, (3, 2.5), int),
            (ns_max, (3, 1.5), int),  # max(2, 1.5) keeps the int
            (ns_max, (3, 2.5), float),
        ],
        ids=["floor", "max(int,float)", "max(int,float)->float"],
    )
    def test_python_types_are_kept(self, scalar_engine, kern, args, kind):
        from repro.core.api import ErrorEstimator

        (py, _), (nat, _) = _python_then_native(
            lambda: ErrorEstimator(kern), args
        )
        assert type(nat.value) is kind
        _assert_identical(_report_fields(py), _report_fields(nat))

    def test_unmarshalled_arguments_stay_in_python(self, scalar_engine):
        from repro.core.api import ErrorEstimator

        # a numpy scalar computes with numpy's types in Python, and a
        # list is mutated in place there: both stay on the Python path
        for args in (
            (5, np.float64(0.25)),
            (2, [1, 2], 0.5),
        ):
            kern = ns_div if len(args) == 2 else ns_ints
            (py, _), (nat, _) = _python_then_native(
                lambda: ErrorEstimator(kern), args, counted=(0, 1)
            )
            _assert_identical(_report_fields(py), _report_fields(nat))

    def test_changed_int_arrays_are_written_back_by_python(
        self, scalar_engine
    ):
        from repro.core.api import ErrorEstimator

        args = (2, np.array([1, 2, 3], dtype=np.int64), 0.5)
        # the reverse sweep pops a[i] back: natively, with the array
        # unchanged at the end
        (py, py_args), (nat, nat_args) = _python_then_native(
            lambda: ErrorEstimator(ns_ints), args
        )
        _assert_identical(list(py_args), list(nat_args))
        _assert_identical(_report_fields(py), _report_fields(nat))
        # an int array left changed is written back by Python, which
        # converts the values like numpy's item assignment does
        (py, py_args), (nat, nat_args) = _python_then_native(
            lambda: ErrorEstimator(ns_marks), args, counted=(0, 1)
        )
        assert nat_args[1].tolist() == [7, 2, 3]
        _assert_identical(list(py_args), list(nat_args))
        _assert_identical(_report_fields(py), _report_fields(nat))
        # Python writes every array back, so a read-only one raises
        # there even unchanged: such calls stay in Python
        est = ErrorEstimator(ns_ints)
        frozen = args[1].copy()
        frozen.flags.writeable = False
        want = _outcome(lambda: est.execute(2, frozen, 0.5))
        runs, fallbacks = _counts()
        assert _outcome(lambda: est.execute(2, frozen, 0.5)) == want
        assert want[0] == "ValueError"
        assert _counts() == (runs, fallbacks + 1)

    def test_without_a_compiler_results_are_identical(
        self, scalar_engine, monkeypatch
    ):
        from repro.apps import hpccg
        from repro.core.api import ErrorEstimator

        args = _app_args("hpccg")
        _, (nat, nat_args) = _python_then_native(
            lambda: ErrorEstimator(hpccg.INSTRUMENTED), args
        )
        monkeypatch.setattr(native, "_compiler", lambda: None)
        monkeypatch.setattr(native, "_LIB", None)
        monkeypatch.setattr(native, "_LIB_FAILED", False)
        _, (py, py_args) = _python_then_native(
            lambda: ErrorEstimator(hpccg.INSTRUMENTED), args, counted=(0, 1)
        )
        _assert_identical(_report_fields(py), _report_fields(nat))
        _assert_identical(list(py_args), list(nat_args))


class TestScalarCounters:
    """Which ``execute`` calls count, and as what."""

    def test_a_single_execute_counts_nothing(self):
        from repro.apps import arclength
        from repro.core.api import ErrorEstimator

        est = ErrorEstimator(arclength.INSTRUMENTED)
        before = _counts()
        est.execute(*arclength.make_workload(50))
        assert _counts() == before

    def test_a_second_estimate_at_runs_natively(self, scalar_engine):
        from repro import Session
        from repro.apps import arclength
        from repro.core.api import clear_estimator_memo

        clear_estimator_memo()
        sess = Session()
        args = arclength.make_workload(50)
        first = sess.estimate_at(arclength.INSTRUMENTED, args)
        runs, fallbacks = _counts()
        second = sess.estimate_at(arclength.INSTRUMENTED, args)
        clear_estimator_memo()
        assert _counts() == (runs + 1, fallbacks)
        _assert_identical(_report_fields(first), _report_fields(second))

    def test_traces_count_as_fallbacks(self, scalar_engine):
        from repro.core.api import ErrorEstimator

        est = ErrorEstimator(ns_div, track=["s"])
        est.execute(3, 0.5)
        runs, fallbacks = _counts()
        rep = est.execute(3, 0.5)
        assert rep.traces["s"]
        assert _counts() == (runs, fallbacks + 1)

    def test_straight_line_adjoints_count_nothing(self, scalar_engine):
        from repro.core.api import ErrorEstimator

        est = ErrorEstimator(nv_div)
        before = _counts()
        for _ in range(3):
            est.execute(1.0, 3.0)
        assert _counts() == before


def test_measure_chef_counts_the_native_tapes(scalar_engine):
    from repro.apps import arclength
    from repro.experiments.measure import measure_chef

    runs = native.NATIVE_RUNS.value
    m = measure_chef(arclength.INSTRUMENTED, arclength.make_workload(2000))
    # lowered before the clock: the timed and the measured run are native
    assert native.NATIVE_RUNS.value == runs + 2
    assert m.peak_bytes >= 2000 * 8  # at least one pushed double per step
