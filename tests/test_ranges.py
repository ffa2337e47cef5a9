"""The compiled range analysis against its tree-walking oracle.

``repro.analyze.ranges`` lowers the IR to closures over ``(lo, hi)``
pairs; ``tests/range_oracle.py`` keeps the node-by-node interpreter it
replaced.  The two must produce the same :class:`RangeResult`: every
bound's value, sign of zero and int/float type, the events in order
with their sites and details, trip and execution counts and the
widening flag.  Below that: the transfer rules both engines share,
pinned on one-statement kernels, and a soundness check of the ranges
against the values the reference interpreter actually stores.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import pytest

from repro.analyze import ranges as R
from repro.analyze.ranges import (
    Interval,
    analyze_ranges,
    derive_domains,
    eval_expr_range,
)
from repro.apps import ALL_APPS
from repro.core.api import ErrorEstimator
from repro.interp.interpreter import Interpreter
from repro.ir import builder as b
from repro.ir import nodes as N
from repro.ir.types import ArrayType, DType, ScalarType
from repro.ir.visitor import iter_stmt_exprs
from repro.search.orchestrator import app_scenarios
from tests.range_oracle import oracle_expr_range, oracle_ranges

APPS = ("simpsons", "arclength", "kmeans", "blackscholes", "hpccg")
INF = math.inf


def _bound(x):
    """A bound as its type and exact spelling (``-0.0``, ``inf``, ints)."""
    return type(x).__name__, repr(x)


def _fingerprint(rr):
    return {
        "ranges": [
            (v, _bound(iv.lo), _bound(iv.hi)) for v, iv in rr.ranges.items()
        ],
        "events": [
            (e.kind, e.stmt, e.loc, e.var, repr(e.detail)) for e in rr.events
        ],
        "trips": [(i, _bound(t)) for i, t in rr.trips.items()],
        "exec_counts": [(i, _bound(c)) for i, c in rr.exec_counts.items()],
        "widened": rr.widened,
    }


def assert_same_result(fn, domains):
    """Both engines on ``fn``; returns the compiled engine's result."""
    got = analyze_ranges(fn, domains)
    want = oracle_ranges(fn, domains)
    assert _fingerprint(got) == _fingerprint(want)
    return got


@functools.lru_cache(maxsize=None)
def _scenario(app):
    return app_scenarios()[app].search_scenario()


def _scenario_domains(app):
    scen = _scenario(app)
    return derive_domains(
        scen.kernel.ir,
        points=scen.points,
        samples=scen.samples,
        fixed=scen.fixed,
    )


@functools.lru_cache(maxsize=None)
def _adjoint(app):
    return ErrorEstimator(_scenario(app).kernel).adjoint_ir


# -- differential: compiled engine vs oracle ---------------------------------


class TestOracleDifferential:
    @pytest.mark.parametrize("app", APPS)
    def test_app_scenario_domains(self, app):
        fn = _scenario(app).kernel.ir
        rr = assert_same_result(fn, _scenario_domains(app))
        assert not rr.widened

    @pytest.mark.parametrize("app", APPS)
    def test_app_unconstrained(self, app):
        assert_same_result(_scenario(app).kernel.ir, {})

    @pytest.mark.parametrize("app", APPS)
    def test_instrumented_kernel(self, app):
        fn = ALL_APPS[app].INSTRUMENTED.ir
        assert_same_result(fn, {})
        # scenario domains apply by parameter name
        assert_same_result(fn, _scenario_domains(app))

    @pytest.mark.parametrize("app", ("arclength", "simpsons", "blackscholes"))
    def test_adjoint(self, app):
        fn = _adjoint(app)
        rr = assert_same_result(fn, {})
        assert rr.events
        assert_same_result(fn, _scenario_domains(app))

    @pytest.mark.parametrize("app", ("kmeans", "hpccg"))
    def test_adjoint_widening(self, app, monkeypatch):
        """Past the step budget every loop widens; at the default budget
        these adjoints take seconds, so the budget is lowered."""
        monkeypatch.setattr(R, "STEP_BUDGET", 2000)
        rr = assert_same_result(_adjoint(app), {})
        assert rr.widened

    @pytest.mark.parametrize("app", APPS)
    def test_expression_ranges(self, app):
        """The sensitivity analysis's entry, on every statement
        expression under the kernel's summary ranges."""
        fn = _scenario(app).kernel.ir
        rr = analyze_ranges(fn, _scenario_domains(app))
        from repro.analyze.dataflow import index_statements

        exprs = [e for s in index_statements(fn) for e in iter_stmt_exprs(s)]
        assert exprs
        for e in exprs:
            got = eval_expr_range(e, rr.ranges)
            want = oracle_expr_range(e, rr.ranges)
            assert (_bound(got.lo), _bound(got.hi)) == (
                _bound(want.lo), _bound(want.hi)
            )

    def test_control_flow_rules(self):
        """``while`` (its trailing condition check is attributed to the
        body's last statement), ``if`` joins with a branch-local
        declaration, a zero-trip loop, ``break`` and an unbounded
        ``for``."""
        x, z = b.name("x"), b.name("z")
        body = [
            b.decl("acc", DType.F64, b.const(0.0)),
            N.While(
                b.binop(">", b.div(b.name("x"), b.name("z")), b.const(1.0)),
                [
                    N.If(
                        b.binop("<", b.name("x"), b.const(0.0)),
                        [N.Break()],
                        [],
                    ),
                    b.assign(b.name("x"), b.sub(x, b.const(1.0))),
                    b.assign(b.name("acc"), b.add(b.name("acc"), b.name("x"))),
                ],
            ),
            N.If(
                b.binop(">", b.name("acc"), b.const(2.0)),
                [b.decl("t", DType.F64, b.mul(b.name("acc"), z))],
                [b.assign(b.name("acc"), b.neg(b.name("acc")))],
            ),
            b.for_range(
                "i", b.const(5), b.const(5),
                [b.decl("dead", DType.F64, b.div(z, b.sub(x, z)))],
            ),
            b.for_range(
                "j", b.const(0), b.name("n", DType.I64),
                [b.assign(b.name("acc"), b.mul(b.name("acc"), b.const(1.5)))],
            ),
            N.Return(b.name("acc")),
        ]
        fn = _fn(["x", "z", "n"], body)
        for doms in (
            {"x": Interval(3.0, 9.0), "z": Interval(-1.0, 2.0)},
            {"x": Interval(3.0, 9.0), "z": Interval(0.5, 2.0),
             "n": Interval(0.0, 4.0)},
            {},
        ):
            rr = assert_same_result(fn, doms)
            assert rr.trips

    def test_widened_bound_reaches_the_summary(self):
        """A bound widened at the loop cap stays in the variable's
        range even when the re-run after widening clamps it again."""
        xs = b.name("x")
        fn = _fn(
            ["c"],
            [
                b.decl("x", DType.F64, b.const(0.0)),
                N.While(
                    b.binop("<", b.name("c"), b.const(1.0)),
                    [b.assign(xs, b.call(
                        "fmin", [b.add(xs, b.const(0.1)), b.const(5.0)]
                    ))],
                ),
                N.Return(xs),
            ],
        )
        rr = assert_same_result(fn, {})
        assert _pair(rr.ranges["x"]) == (0.0, INF)


# -- transfer rules shared by both engines ------------------------------------


def _fn(params, body):
    return N.Function(
        name="rule",
        params=[N.Param(p, ScalarType(DType.F64)) for p in params],
        body=body,
        ret_dtype=DType.F64,
    )


def _rule(expr, **domains):
    """``y = expr`` under ``domains``: the range of ``y`` and the events,
    identical on both engines."""
    fn = _fn(
        sorted(domains),
        [b.decl("y", DType.F64, expr), N.Return(b.name("y"))],
    )
    rr = assert_same_result(
        fn, {k: Interval(*v) for k, v in domains.items()}
    )
    return rr.ranges["y"], rr.events


def _pair(iv):
    return (iv.lo, iv.hi)


x, z = b.name("x"), b.name("z")


class TestTransferRules:
    def test_inf_minus_inf_is_top(self):
        iv, _ = _rule(b.sub(x, z), x=(INF, INF), z=(INF, INF))
        assert _pair(iv) == (-INF, INF)
        iv, _ = _rule(b.add(x, z), x=(INF, INF), z=(-INF, -INF))
        assert _pair(iv) == (-INF, INF)
        # TOP, not a NaN bound, flows on: fmax(TOP, 1) is [1, inf]
        for nan_sum in (b.add(x, z), b.sub(x, x)):
            iv, _ = _rule(
                b.call("fmax", [nan_sum, b.const(1.0)]),
                x=(INF, INF), z=(-INF, -INF),
            )
            assert _pair(iv) == (1.0, INF)

    def test_zero_times_inf_contributes_zero(self):
        iv, _ = _rule(b.mul(x, z), x=(0.0, 0.0), z=(1.0, INF))
        assert _pair(iv) == (0.0, 0.0)
        iv, _ = _rule(b.mul(x, z), x=(0.0, 2.0), z=(1.0, INF))
        assert _pair(iv) == (0.0, INF)
        iv, _ = _rule(b.mul(x, z), x=(0.0, 0.0), z=(-INF, INF))
        assert _pair(iv) == (0.0, 0.0)

    def test_division_by_zero_interval(self):
        iv, events = _rule(b.div(x, z), x=(1.0, 2.0), z=(-1.0, 1.0))
        assert _pair(iv) == (-INF, INF)
        (ev,) = events
        assert (ev.kind, ev.var) == ("div_blowup", "y")
        assert ev.detail == {
            "divisor": {"lo": -1.0, "hi": 1.0},
            "numerator": {"lo": 1.0, "hi": 2.0},
            "contains_zero": True,
        }

    def test_division_hugging_zero(self):
        iv, events = _rule(b.div(x, z), x=(1.0, 2.0), z=(1e-12, 1.0))
        assert _pair(iv) == (1.0, 2e12)
        (ev,) = events
        assert ev.kind == "div_blowup"
        assert ev.detail["contains_zero"] is False
        _, events = _rule(b.div(x, z), x=(1.0, 2.0), z=(0.5, INF))
        assert events == []

    def test_floor_of_infinite_bounds(self):
        iv, _ = _rule(b.call("floor", [x]), x=(1.5, INF))
        assert iv.lo == 1 and type(iv.lo) is int
        assert iv.hi == INF
        iv, _ = _rule(b.call("ceil", [x]), x=(-INF, -2.5))
        assert iv.lo == -INF
        assert iv.hi == -2 and type(iv.hi) is int

    def test_floordiv_keeps_int_bounds(self):
        iv, _ = _rule(b.binop("//", x, z), x=(-INF, 7.0), z=(2.0, 2.0))
        assert iv.lo == -INF
        assert iv.hi == 3 and type(iv.hi) is int
        iv, _ = _rule(b.binop("//", x, z), x=(-7.0, 7.0), z=(2.0, 4.0))
        assert (_bound(iv.lo), _bound(iv.hi)) == (
            ("int", "-4"), ("int", "3")
        )
        iv, _ = _rule(b.binop("//", x, z), x=(1.0, 2.0), z=(-1.0, 1.0))
        assert _pair(iv) == (-INF, INF)

    def test_sqrt_domain(self):
        iv, events = _rule(b.call("sqrt", [x]), x=(-4.0, 9.0))
        assert _pair(iv) == (0.0, 3.0)
        (ev,) = events
        assert (ev.kind, ev.detail["fn"]) == ("domain", "sqrt")
        assert ev.detail["arg"] == {"lo": -4.0, "hi": 9.0}
        iv, events = _rule(b.call("sqrt", [x]), x=(-4.0, -1.0))
        assert _pair(iv) == (0.0, 0.0) and len(events) == 1
        _, events = _rule(b.call("sqrt", [x]), x=(0.0, 1.0))
        assert events == []

    def test_log_domain(self):
        iv, events = _rule(b.call("log", [x]), x=(0.0, math.e))
        assert _pair(iv) == (-INF, 1.0)
        (ev,) = events
        assert (ev.kind, ev.detail["fn"]) == ("domain", "log")
        iv, events = _rule(b.call("fast_log2", [x]), x=(-INF, -1.0))
        assert _pair(iv) == (-INF, -INF)
        assert events[0].detail["fn"] == "fast_log2"

    @pytest.mark.parametrize(
        "zd, want",
        [
            ((2.0, 5.0), (0.0, 5.0)),
            ((-5.0, -2.0), (-5.0, 0.0)),
            ((-3.0, 5.0), (-5.0, 5.0)),
            ((-6.0, 5.0), (-6.0, 6.0)),
        ],
    )
    def test_mod_signs(self, zd, want):
        iv, _ = _rule(b.binop("%", x, z), x=(-10.0, 10.0), z=zd)
        assert _pair(iv) == want

    def test_ties_keep_first_operand(self):
        iv, _ = _rule(b.call("fmax", [x, z]), x=(-0.0, 1.0), z=(0.0, 1.0))
        assert _bound(iv.lo) == ("float", "-0.0")
        iv, _ = _rule(b.call("fmin", [x, z]), x=(0.0, 1.0), z=(-0.0, 1.0))
        assert _bound(iv.lo) == ("float", "0.0")

    def test_cancellation(self):
        _, events = _rule(b.sub(x, z), x=(1.0, 2.0), z=(1.5, 3.0))
        (ev,) = events
        assert ev.kind == "cancellation"
        assert ev.detail["magnitude"] == 3.0
        # literals shift, disjoint or opposite-signed ranges cannot cancel
        assert _rule(b.sub(x, b.const(1.0)), x=(1.0, 2.0))[1] == []
        assert _rule(b.sub(x, z), x=(1.0, 2.0), z=(3.0, 4.0))[1] == []
        assert _rule(b.sub(x, z), x=(-1.0, 0.0), z=(0.0, 1.0))[1] == []
        # ranges that only touch have no overlap to cancel
        assert _rule(b.sub(x, z), x=(1.0, 2.0), z=(2.0, 3.0))[1] == []

    def test_joins_keep_first_bound_on_ties(self):
        """A variable's summary, an array store and an ``if`` join keep
        the bound seen first when a later one ties with it (``-0.0`` vs
        ``0.0``, an int vs an equal float)."""
        w = b.name("w")
        fn = _fn(
            ["x", "z", "w", "a"],
            [
                b.assign(b.index("a", b.const(0)), z),
                b.decl("v", DType.F64, b.index("a", b.const(0))),
                b.decl("y", DType.F64, x),
                b.assign(b.name("y"), z),
                b.decl("k", DType.F64, b.call("floor", [w])),
                b.assign(b.name("k"), b.const(3.0)),
                b.for_range("i", b.const(-0.0), b.const(3), []),
                b.for_range("i", b.const(0.0), b.const(5), []),
                N.If(
                    b.binop("<", x, z),
                    [b.assign(b.name("y"), x)],
                    [b.assign(b.name("y"), z)],
                ),
                b.decl("u", DType.F64, b.name("y")),
                N.Return(b.name("u")),
            ],
        )
        rr = assert_same_result(fn, {
            "x": Interval(-0.0, 1.0),
            "z": Interval(0.0, 2.0),
            "w": Interval(3.0, 3.5),
            "a": Interval(-0.0, 1.0),
        })
        assert _bound(rr.ranges["v"].lo) == ("float", "-0.0")
        assert _bound(rr.ranges["i"].lo) == ("float", "-0.0")
        assert _bound(rr.ranges["y"].lo) == ("float", "-0.0")
        assert _bound(rr.ranges["u"].lo) == ("float", "-0.0")
        assert _bound(rr.ranges["k"].lo) == ("int", "3")

    def test_index_expressions_raise_events(self):
        """An index's value is discarded, its hazards are not."""
        fn = N.Function(
            name="rule",
            params=[
                N.Param("a", ArrayType(DType.F64)),
                N.Param("x", ScalarType(DType.F64)),
                N.Param("z", ScalarType(DType.F64)),
            ],
            body=[
                b.assign(b.index("a", b.div(x, z)), x),
                b.decl("y", DType.F64, b.index("a", b.call("sqrt", [z]))),
                N.Return(b.name("y")),
            ],
            ret_dtype=DType.F64,
        )
        rr = assert_same_result(
            fn, {"x": Interval(1.0, 2.0), "z": Interval(-1.0, 1.0)}
        )
        assert [(e.kind, e.stmt, e.var) for e in rr.events] == [
            ("div_blowup", 0, None), ("domain", 1, "y"),
        ]

    def test_step_budget_widens_a_bounded_loop(self, monkeypatch):
        """Running out of steps mid-loop widens what is still changing,
        even where the trip count is known."""
        monkeypatch.setattr(R, "STEP_BUDGET", 50)
        fn = _fn(
            ["x"],
            [
                b.decl("acc", DType.F64, b.const(1.0)),
                b.for_range(
                    "i", b.const(0), b.const(100),
                    [b.assign(
                        b.name("acc"), b.mul(b.name("acc"), b.const(1.5))
                    )],
                ),
                N.Return(b.name("acc")),
            ],
        )
        rr = assert_same_result(fn, {})
        assert rr.widened
        assert _pair(rr.ranges["acc"]) == (1.0, INF)

    def test_events_dedupe_per_site(self):
        fn = _fn(
            ["x", "z"],
            [
                b.for_range(
                    "i", b.const(0), b.const(3),
                    [b.decl("q", DType.F64, b.div(x, z))],
                ),
                b.decl("r", DType.F64, b.div(x, z)),
                N.Return(b.name("r")),
            ],
        )
        rr = assert_same_result(
            fn, {"x": Interval(1.0, 2.0), "z": Interval(-1.0, 1.0)}
        )
        assert [(e.stmt, e.var) for e in rr.events] == [(1, "q"), (2, "r")]


# -- soundness against observed values ----------------------------------------


class _Stores(dict):
    """An interpreter environment recording every scalar it stores."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.seen.append((key, value))


class _RecordingInterpreter(Interpreter):
    """The reference interpreter, noting each stored scalar (parameters
    and loop variables included) and array element."""

    def __init__(self, fn):
        super().__init__(fn)
        self.env = _Stores()
        self.elements = []

    def _exec_stmt(self, s):
        super()._exec_stmt(s)
        if isinstance(s, N.Assign) and isinstance(s.target, N.Index):
            i = int(self._eval(s.target.index))
            self.elements.append(
                (s.target.base, self.env[s.target.base][i])
            )

    def observed(self):
        for var, value in self.env.seen + self.elements:
            if isinstance(value, np.ndarray):
                for v in value.ravel().tolist():
                    yield var, v
            else:
                yield var, float(value)


def _scenario_inputs(scen):
    """The scenario's validation points, then one input per row of its
    swept samples (the remaining arguments from the first point)."""
    yield from scen.points
    names = [p.name for p in scen.kernel.ir.params]
    samples = scen.samples or {}
    for k in range(min((len(v) for v in samples.values()), default=0)):
        args = list(scen.points[0])
        for name, values in samples.items():
            args[names.index(name)] = float(values[k])
        for name, value in (scen.fixed or {}).items():
            args[names.index(name)] = value
        yield args


@pytest.mark.parametrize("app", APPS)
def test_ranges_sound_on_scenario_points(app):
    """Every value the scenario's inputs store lies in its variable's
    range.  A value outside is an unsound analysis, not a tolerance
    to add."""
    scen = _scenario(app)
    fn = scen.kernel.ir
    rr = analyze_ranges(fn, _scenario_domains(app))
    n = 0
    for args in _scenario_inputs(scen):
        interp = _RecordingInterpreter(fn)
        interp.run([np.array(a) if isinstance(a, np.ndarray) else a
                    for a in args])
        for var, v in interp.observed():
            iv = rr.ranges[var]
            assert iv.lo <= v <= iv.hi, (var, v, iv)
            n += 1
    assert n > 0
