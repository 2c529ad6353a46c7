"""solve's one loop at m = 1: its scalar lane against its array lane.

At m = 1 methods._solve_iterative runs on numpy scalars through
methods._scalar_lane; the reference is the same solve with
methods._array_lane, the (1,)-array lane that serves m >= 2, in its place.
Both see the same counting copy of the problem, so every field of the
traces, ASIS's y-trace included, and every exception must agree bit for
bit.
"""
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adimsolve import methods
from adimsolve.adimensional import AdimensionalPolynomial
from adimsolve.divdiff import DividedDifference, scalar_dd
from adimsolve.experiments import halley_h
from adimsolve.methods import (ASIS, Bisection, DampedFirstOrder,
                               DampedSteffensen, FixedSlope, HFamily, Newton,
                               Secant, Steffensen, StoppingCriteria, solve)
from adimsolve.problems import (DomainError, LinearScaling, Problem,
                                SingularOperatorError, apply_scaling,
                                builtin_problem, factor_nonsingular, lu_solve,
                                solve_linear, solve_scalar)

INTEGRAL = DividedDifference("integral")
SHAPE = (ValueError, "evaluator output has wrong dimension")
VALUE = (DomainError, "domain failure: non-finite value of F")
POINT = (DomainError, "non-finite input point")
STOP = StoppingCriteria()
TIGHT = StoppingCriteria(step_tol=0.0, residual_tol=0.0, max_iter=30)


class DuckStart:
    """A method that is no class of methods: a start returning a step on
    (1,) arrays, here a damped fixed-slope step."""

    def __init__(self, c, out=None):
        self.c, self.out = c, out

    def start(self, problem, x0, trace):
        if self.out is not None:
            return lambda x, fx: self.out
        return lambda x, fx: x - self.c * fx


METHODS = [
    pytest.param(FixedSlope(c=0.5), id="fixed-slope"),
    pytest.param(DampedFirstOrder(lam=0.8), id="damped-first-order"),
    pytest.param(DampedFirstOrder(lam=25.0), id="damped-first-order-warns"),
    pytest.param(Newton(), id="newton"),
    pytest.param(Secant(x_prev=0.1), id="secant"),
    pytest.param(Steffensen(), id="steffensen"),
    pytest.param(Steffensen(INTEGRAL), id="steffensen-integral"),
    pytest.param(DampedSteffensen(lam=1.0), id="damped-steffensen"),
    pytest.param(DampedSteffensen(lam=0.5, dd=INTEGRAL),
                 id="damped-steffensen-integral"),
    pytest.param(HFamily(h=lambda L: 1.0), id="h-family-newton"),
    pytest.param(HFamily(h=halley_h), id="halley"),
    pytest.param(ASIS(), id="asis"),
    pytest.param(ASIS(INTEGRAL), id="asis-integral"),
    pytest.param(DuckStart(c=0.3), id="duck-start"),
    pytest.param(Bisection(0.0, 3.0), id="bisection"),
]


def array_loop(problem, method, x0, stop):
    """solve with the array loop at m = 1, ASIS's y-space run included."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(methods, "_scalar_lane", methods._array_lane)
        return outcome(problem, method, x0, stop)


def outcome(problem, method, x0, stop):
    """The trace of a solve, or the class and message of what it raised."""
    try:
        return solve(problem, method, x0, stop)
    except Exception as exc:
        return type(exc), str(exc)


def floats_bits(values):
    return np.array(values, dtype=float).tobytes()


def assert_same_trace(got, ref):
    if not isinstance(ref, methods.IterationTrace):
        assert got == ref
        return
    assert got.status == ref.status
    assert len(got.iterates) == len(ref.iterates)
    for x, r in zip(got.iterates, ref.iterates):
        assert (type(x), x.dtype, x.shape) == (type(r), r.dtype, r.shape)
        assert x.tobytes() == r.tobytes()      # -0.0 counts
    assert floats_bits(got.residual_norms) == floats_bits(ref.residual_norms)
    assert floats_bits(got.step_norms) == floats_bits(ref.step_norms)
    assert (list(map(type, got.residual_norms + got.step_norms))
            == list(map(type, ref.residual_norms + ref.step_norms)))
    assert (got.n_evals, got.n_jac_evals) == (ref.n_evals, ref.n_jac_evals)
    assert got.used_fd_jacobian == ref.used_fd_jacobian
    assert got.warnings == ref.warnings
    assert (got.adimensional is None) == (ref.adimensional is None)
    if ref.adimensional is not None:
        assert_same_trace(got.adimensional, ref.adimensional)


def assert_as_array_loop(problem, method, x0, stop=STOP):
    got = outcome(problem, method, x0, stop)
    assert_same_trace(got, array_loop(problem, method, x0, stop))
    return got


def adim_poly():
    return AdimensionalPolynomial(a=0.4, b=0.6).as_problem()


class TestAgainstTheArrayLoop:
    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("name,x0", [
        ("f1", 0.0), ("f1", 2.5), ("f1", -0.0), ("f2", 0.0), ("f2", 1.5),
        ("f1-max", 0.0), ("f2-max", 0.3), ("poly", 0.0), ("poly", 1.2),
    ])
    @pytest.mark.parametrize("stop", [STOP, TIGHT], ids=["default", "tight"])
    def test_every_method_on_the_paper_problems(self, method, name, x0, stop):
        problem = {"f1": builtin_problem("f1"), "f2": builtin_problem("f2"),
                   "f1-max": builtin_problem("f1", norm="max"),
                   "f2-max": builtin_problem("f2", norm="max"),
                   "poly": adim_poly()}[name]
        assert_as_array_loop(problem, method, x0, stop)

    def test_the_crawl(self, f2):
        # example2's classic Steffensen on f2: 3715 steps
        trace = assert_as_array_loop(f2, Steffensen(), 0.0,
                                     StoppingCriteria(max_iter=5000))
        assert trace.n_steps == 3715

    def test_asis_keeps_its_y_trace(self, f1):
        trace = assert_as_array_loop(f1, ASIS(), 0.0)
        assert trace.adimensional is not None
        assert trace.adimensional.n_steps > 0

    @settings(max_examples=40, deadline=None)
    @given(u=st.floats(-150.0, 150.0), v=st.floats(-150.0, 150.0),
           method=st.sampled_from([Newton(), Steffensen(), ASIS(),
                                   Steffensen(INTEGRAL),
                                   DampedSteffensen(lam=1.0)]))
    def test_f1_under_any_scaling(self, u, v, method):
        p = apply_scaling(builtin_problem("f1"), LinearScaling(10.0 ** u,
                                                               10.0 ** v))
        assert_as_array_loop(p, method, 0.0)


class TestEdgeCases:
    @pytest.mark.parametrize("method", [Steffensen(), DampedSteffensen(4.0)])
    def test_a_non_finite_value_at_a_steffensen_node(self, method):
        # from 0.5 the nodes 0.5 + log(0.5) and 0.5 + 4 log(0.5)/2 are
        # negative: log there is NaN
        with np.errstate(invalid="ignore"):
            trace = assert_as_array_loop(
                Problem(f=np.log, jacobian=lambda x: 1.0 / x), method, 0.5)
        assert trace.status == "domain-failure"

    @pytest.mark.parametrize("slope", [0.0, -0.0, 1e-310, -5e-324, 1e-307,
                                       1e308, -1e308, 2.0 ** 1022])
    def test_newton_slopes_the_1x1_decision_sees(self, slope):
        p = Problem(f=lambda x: x - 3.0, jacobian=lambda x: slope)
        assert_as_array_loop(p, Newton(), 0.0, TIGHT)

    @pytest.mark.parametrize("f", [
        lambda x: 7.0 + 0.0 * x,                           # slope 0
        lambda x: 1.0 if x < 0.5 else 1e308,               # slope above 2^1022
        lambda x: 1e308 if x < 1.0 else -1e308,            # slope -inf
    ])
    def test_steffensen_slopes_the_1x1_decision_sees(self, f):
        assert_as_array_loop(Problem(f=f, jacobian=lambda x: 1.0),
                             Steffensen(), 0.0, TIGHT)

    def test_coincident_nodes_take_the_derivative(self):
        # |F(x)| < 1e-14 |x|: every node coincides with x, so each step
        # calls F' in place of F at the node
        p = Problem(f=lambda x: 1e-15 * (x - 3.0),
                    jacobian=lambda x: 1e-15)
        trace = assert_as_array_loop(p, Steffensen(), 0.0, TIGHT)
        assert trace.n_jac_evals == trace.n_steps
        assert trace.n_evals == trace.n_steps + 1

    @pytest.mark.parametrize("wrap", [
        pytest.param(float, id="python-float"),
        pytest.param(lambda v: [v], id="list"),
        pytest.param(np.array, id="0-d"),
        pytest.param(lambda v: np.array([v]), id="(1,)"),
        pytest.param(np.float32, id="float32"),
        pytest.param(lambda v: np.array([v, v]), id="wrong-shape"),
        pytest.param(lambda v: [[v]], id="(1, 1)"),
    ])
    @pytest.mark.parametrize("method", [Newton(), Steffensen(), ASIS(),
                                        Secant(x_prev=0.2)])
    def test_what_f_returns(self, wrap, method, f1):
        p = Problem(f=lambda x: wrap(f1.f(x)), jacobian=f1.jacobian)
        got = assert_as_array_loop(p, method, 0.0)
        if not isinstance(got, methods.IterationTrace):
            assert got == (ValueError, "evaluator output has wrong dimension")

    @pytest.mark.parametrize("out", [np.zeros(2), np.zeros((1, 1))])
    def test_a_wrong_shaped_step_raises(self, f1, out):
        got = assert_as_array_loop(f1, DuckStart(c=0.0, out=out), 0.0)
        assert got[0] is ValueError
        assert "expected point of dimension 1" in got[1]

    def test_a_wrong_shaped_x0_raises(self, f1):
        got = assert_as_array_loop(f1, Newton(), [0.0, 1.0])
        assert got[0] is ValueError

    def test_an_error_of_f_is_raised(self):
        def f(x):
            raise ZeroDivisionError("boom")

        got = assert_as_array_loop(Problem(f=f, jacobian=lambda x: 1.0),
                                   Steffensen(), 0.0)
        assert got == (ZeroDivisionError, "boom")

    @pytest.mark.parametrize("method,x0,stop,status", [
        (FixedSlope(c=-0.5), 2.0, STOP, "diverged"),
        (FixedSlope(c=0.5), 0.0, StoppingCriteria(max_iter=3), "max-iter"),
        (Newton(), 0.0, STOP, "converged-by-residual"),
        (FixedSlope(c=0.5), 0.0, StoppingCriteria(
            step_tol=1e-6, residual_tol=0.0, max_iter=200), "converged-by-step"),
    ])
    def test_every_status(self, f1, method, x0, stop, status):
        assert assert_as_array_loop(f1, method, x0, stop).status == status

    def test_divergence_by_norm(self):
        # x -> x + 1e11 tanh(x): |x| passes 1e12 while |F(x)| stays below 1
        p = Problem(f=lambda x: -np.tanh(x),
                    jacobian=lambda x: np.tanh(x) ** 2 - 1.0)
        trace = assert_as_array_loop(p, FixedSlope(c=1e11), 1.0)
        assert trace.status == "diverged"
        assert abs(trace.x_final[0]) > methods.DIVERGENCE_NORM
        assert max(trace.residual_norms) <= 1.0

    def test_h_family_domain_failure(self, f1):
        p = Problem(f=f1.f, jacobian=f1.jacobian, d2f=lambda x: np.inf)
        trace = assert_as_array_loop(p, HFamily(halley_h), 0.0)
        assert trace.status == "domain-failure"

    def test_a_singular_damping_scale(self):
        p = Problem(f=lambda x: x * x - 4.0, jacobian=lambda x: 2.0 * x)
        trace = assert_as_array_loop(p, DampedSteffensen(lam=1.0), 0.0)
        assert trace.status == "singular-operator"


class TestOneScalarEvaluation:
    @pytest.mark.parametrize("method", [
        Newton(), Steffensen(), Steffensen(INTEGRAL), Secant(x_prev=0.1),
        DampedSteffensen(lam=1.0), FixedSlope(c=0.5), HFamily(halley_h),
        ASIS(), DuckStart(c=0.3)])
    def test_f_receives_a_numpy_float64(self, f1, method):
        seen = set()

        def f(x):
            seen.add(type(x))
            return f1.f(x)

        trace = solve(Problem(f=f, jacobian=f1.jacobian, d2f=f1.d2f),
                      method, 0.0, STOP)
        assert trace.n_evals > 1
        assert seen == {np.float64}

    def test_a_division_by_zero_in_f_is_a_domain_failure(self):
        # a Python float argument would make 1/x raise ZeroDivisionError
        trace = solve(Problem(f=lambda x: 1.0 / x - 1.0,
                              jacobian=lambda x: -1.0 / (x * x)),
                      Steffensen(), 0.0, STOP)
        assert trace.status == "domain-failure"

    @pytest.mark.parametrize("f,t,error", [
        (lambda x: np.exp(x - 1.0) - 1.0, 0.25, None),
        (lambda x: float(np.exp(x)), -0.0, None),
        (lambda x: [x], 2.0, None),
        (lambda x: np.array(x), 2.0, None),
        (lambda x: np.array([x]), 2.0, None),
        (lambda x: np.float32(x), 1.0 / 3.0, None),
        (lambda x: np.array([x, x]), 1.0, SHAPE),
        (lambda x: [[x]], 1.0, SHAPE),
        (lambda x: np.array([np.nan, np.nan]), 1.0, SHAPE),  # shape first
        (lambda x: np.inf, 1.0, VALUE),
        (lambda x: np.nan, 1.0, VALUE),
        (lambda x: x, np.inf, POINT),
        (lambda x: x, np.nan, POINT),
        (lambda x: 1.0 / x, 0.0, VALUE),      # inf, not ZeroDivisionError
        (lambda x: np.log(x), -1.0, VALUE),
    ])
    def test_evaluate_and_value_agree(self, f, t, error):
        p = Problem(f=f)
        calls = [lambda: p.evaluate([t])[0], lambda: p._value(np.float64(t)),
                 lambda: p._value(t)]
        with np.errstate(divide="ignore", invalid="ignore"):
            for call in calls:
                if error is not None:
                    with pytest.raises(error[0], match=error[1]):
                        call()
                    continue
                got = call()
                assert type(got) is np.float64
                want = np.asarray(f(np.float64(t)), dtype=float).reshape(1)
                assert np.array([got]).tobytes() == want.tobytes()

    def test_scalar_dd_hands_f_a_numpy_float64(self, f1):
        seen = set()

        def f(x):
            seen.add(type(x))
            return f1.f(x)

        scalar_dd(Problem(f=f, jacobian=f1.jacobian), 0.0, 0.6)
        assert seen == {np.float64}

    def test_a_non_finite_point_is_rejected_before_f_runs(self):
        def f(x):
            raise AssertionError("F ran")

        with pytest.raises(DomainError, match="non-finite input point"):
            Problem(f=f)._value(np.inf)


class TestOneScalarDecision:
    @pytest.mark.parametrize("h", [
        1.0, -3.0, 0.0, -0.0, 5e-324, 1e-310, sys.float_info.min,
        -sys.float_info.min, 1.0 / sys.float_info.min, 2.0 ** 1022, 1e308,
        sys.float_info.max, np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("b", [1.0, -0.0, 1e308, 5e-324])
    def test_solve_scalar_is_lapacks(self, h, b):
        # the reference is LAPACK's decision and value for [[h]] x = [b]
        def run(fn):
            try:
                return np.asarray(fn(), dtype=float).reshape(1).tobytes()
            except SingularOperatorError as exc:
                return type(exc), str(exc)

        ref = run(lambda: lu_solve(factor_nonsingular(np.array([[h]])),
                                   np.array([b])))
        assert run(lambda: solve_scalar(h, b)) == ref
        assert run(lambda: solve_linear(np.array([[h]]), np.array([b]))) == ref
        if not isinstance(ref, tuple):
            assert type(solve_scalar(h, b)) is float

    def test_the_lane_is_silent_on_overflow(self):
        with np.errstate(all="raise"):
            assert solve_scalar(1e-300, 1e300) == math.inf
