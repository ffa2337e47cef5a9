"""Shared pytest fixtures and helpers."""

from __future__ import annotations

import json

import numpy as np
import pytest

#: result keys that carry timing or session identity, not content
VOLATILE = ("wall_time", "provenance")


def finite_diff(f, args, i, eps=1e-6):
    """Central finite difference of ``f`` w.r.t. scalar argument ``i``."""
    lo = list(args)
    hi = list(args)
    lo[i] -= eps
    hi[i] += eps
    return (f(*hi) - f(*lo)) / (2 * eps)


def finite_diff_array(f, args, i, j, eps=1e-6):
    """Central finite difference w.r.t. element ``j`` of array arg ``i``."""
    lo = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
    hi = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
    lo[i][j] -= eps
    hi[i][j] += eps
    return (f(*hi) - f(*lo)) / (2 * eps)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def result_content(payload):
    """A result payload without its :data:`VOLATILE` keys."""
    return {k: v for k, v in payload.items() if k not in VOLATILE}


def assert_reports_identical(a, b):
    """Two sweep reports' ``to_dict()`` forms are equal bit for bit."""

    def same(x, y):
        if isinstance(x, dict):
            assert x.keys() == y.keys()
            for k in x:
                same(x[k], y[k])
        elif isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.shape == y.shape
            assert x.tobytes() == y.tobytes()
        else:
            assert x == y

    same(a.to_dict(), b.to_dict())


def search_fingerprint(res):
    """A search's front and history (estimated-error axis included) and
    its run id."""

    def cands(cs):
        return [(c.key, c.error, c.estimated_error, c.cycles) for c in cs]

    return cands(res.front.points), cands(res.evaluations), res.run_id


@pytest.fixture
def serve_payload():
    """``serve_payload(raw)``: the result content a job server computes
    for the spec ``raw``, on an in-process registry."""
    from repro.serve import JobRegistry, JobSpec
    from repro.session import Session

    def run(raw):
        reg = JobRegistry(Session(), workers=1)
        try:
            job, _ = reg.submit(JobSpec.from_dict(raw))
            job.future.result(timeout=120)
            assert job.state == "completed", job.error
            return result_content(json.loads(json.dumps(job.result)))
        finally:
            reg.close()

    return run


@pytest.fixture(params=["native", "numpy"])
def lane_engine(request, monkeypatch):
    """Run config-lane kernels on the C interpreter (straight-line
    kernels included, which normally stay on the numpy path), or with
    the compiler taken away so every call takes the numpy path.  Kernel
    and estimator caches are cleared around the test so neither engine's
    kernels leak into the other's."""
    from repro.codegen import native
    from repro.codegen.compile import clear_config_kernel_cache
    from repro.core.api import clear_estimator_memo

    if request.param == "numpy":
        monkeypatch.setattr(native, "_compiler", lambda: None)
        monkeypatch.setattr(native, "_LIB", None)
        monkeypatch.setattr(native, "_LIB_FAILED", False)
    elif native.library() is None:
        pytest.skip("no C compiler for the native lane engine")
    monkeypatch.setattr(native, "worth_lowering", lambda fn: True)
    clear_config_kernel_cache()
    clear_estimator_memo()
    before = (native.NATIVE_RUNS.value, native.NATIVE_FALLBACKS.value)
    yield request.param
    runs = native.NATIVE_RUNS.value - before[0]
    fallbacks = native.NATIVE_FALLBACKS.value - before[1]
    clear_config_kernel_cache()
    clear_estimator_memo()
    # every lane call ran on the engine under test
    if request.param == "numpy":
        assert runs == 0 and fallbacks > 0
    else:
        assert runs > 0 and fallbacks == 0
