"""The native lane engine: exactness, replay, fallback, safe builds.

The C lane interpreter (``repro.codegen.native`` + ``lanevm.c``) must
return, lane for lane and bit for bit, what the numpy config-lane and
input-sweep batch paths return — and where the numpy path raises, the
native call must replay there and raise the same way.  Only kernels
with a loop take the native engine; machines without a compiler keep
the numpy path for them, counted as fallbacks.  Builds are content-addressed and
safe under concurrent processes and forks.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import threading
import time
import warnings
from math import exp, log, sin  # noqa: F401 - resolve the DSL intrinsics
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
