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
