import csv
import dataclasses
import gc
import io
import math
import sys
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adimsolve import adimensional, methods
from adimsolve.adimensional import adimensionalize
from adimsolve.divdiff import DividedDifference
from adimsolve.experiments import _log10_error_table, halley_h
from adimsolve.methods import (ASIS, Bisection, DampedFirstOrder,
                               DampedSteffensen, FixedSlope, HFamily,
                               IterationTrace, Newton, Secant, Steffensen,
                               StoppingCriteria, asis_solve, h_family_step,
                               json_text,
                               damped_steffensen_step, logarithmic_convexity,
                               newton_step, secant_step, solve,
                               steffensen_step)
from adimsolve.problems import (DomainError, LinearScaling, Problem,
                                SingularOperatorError, apply_scaling,
                                builtin_problem, euclidean_norm,
                                solve_linear)

from conftest import (assert_euclidean_norm, h_equation_problem,
                      linear_problem, moved, random_quadratic_problem,
                      recording, spelled_out_g)

E = math.e
STOP = StoppingCriteria(step_tol=0.0, residual_tol=1e-14, max_iter=100)


def quad_problem():
    return Problem(f=lambda x: x * x - 4.0, jacobian=lambda x: 2.0 * x,
                   d2f=lambda x: 2.0, dimension=1, name="t^2-4")


def atan_problem():
    return Problem(f=lambda x: np.arctan(x),
                   jacobian=lambda x: 1.0 / (1.0 + x * x),
                   dimension=1, name="atan")


class TestSingleSteps:
    def test_newton_on_quadratic(self):
        assert newton_step(quad_problem(), 3.0)[0] == pytest.approx(13.0 / 6.0,
                                                                    rel=1e-15)

    def test_newton_on_f1_from_zero(self, f1):
        # 0 - (e^-1 - 1)/e^-1 = e - 1
        assert newton_step(f1, 0.0)[0] == pytest.approx(E - 1.0, rel=1e-15)

    def test_secant_on_quadratic(self):
        # nodes 1 and 3: quotient 4, step 3 - 5/4
        assert secant_step(quad_problem(), 1.0, 3.0,
                           DividedDifference("componentwise"))[0] == 1.75

    def test_steffensen_on_quadratic(self):
        # node 3 + 5 = 8, quotient 11, step 3 - 5/11
        assert steffensen_step(quad_problem(), 3.0)[0] == pytest.approx(
            28.0 / 11.0, rel=1e-15)

    def test_steffensen_linear_one_step(self):
        p = linear_problem(np.array([[2.0, 0.0], [0.0, 0.5]]), b=[2.0, 1.0])
        x1 = steffensen_step(p, [5.0, -3.0])
        assert np.allclose(x1, [1.0, 2.0], atol=1e-12)

    def test_logarithmic_convexity_f1(self, f1):
        assert logarithmic_convexity(f1, 0.0) == pytest.approx(1.0 - E,
                                                               rel=1e-14)

    def test_h_family_newton_case(self, f1):
        x = 0.3
        assert h_family_step(f1, x, lambda L: 1.0)[0] == pytest.approx(
            newton_step(f1, x)[0], rel=1e-15)

    def test_h_family_halley_on_quadratic(self):
        # L = 5/18, h = 36/31, step 3 - (36/31)(5/6) = 63/31
        x1 = h_family_step(quad_problem(), 3.0, lambda L: 1.0 / (1.0 - L / 2.0))
        assert x1[0] == pytest.approx(63.0 / 31.0, rel=1e-15)

    def test_a_vanishing_derivative_is_singular(self):
        # f = x^2 - 4 at x = 0: L_f and the h-family step are undefined
        p = quad_problem()
        with pytest.raises(SingularOperatorError, match="f'\\(x\\) = 0"):
            logarithmic_convexity(p, 0.0)
        with pytest.raises(SingularOperatorError, match="f'\\(x\\) = 0"):
            h_family_step(p, 0.0, halley_h)
        trace = solve(p, HFamily(h=halley_h), 0.0, STOP)
        assert trace.status == "singular-operator"
        assert trace.n_steps == 0

    def test_the_h_family_is_scalar_only(self, example3):
        with pytest.raises(ValueError, match="logarithmic_convexity is scalar-only"):
            logarithmic_convexity(example3, [0.5, 0.5])
        with pytest.raises(ValueError, match="h_family_step is scalar-only"):
            h_family_step(example3, [0.5, 0.5], halley_h)

    def test_halley_is_third_order(self):
        p = quad_problem()
        x = 2.5
        for _ in range(3):
            x = h_family_step(p, x, lambda L: 1.0 / (1.0 - L / 2.0))[0]
        assert abs(x - 2.0) < 1e-15


class TestSolveDriver:
    @pytest.mark.parametrize("method", [
        Newton(), Steffensen(), DampedSteffensen(lam=1.0),
        HFamily(h=lambda L: 1.0 / (1.0 - L / 2.0)), Secant(x_prev=0.1),
    ])
    def test_converges_on_f1(self, f1, method):
        trace = solve(f1, method, 0.5, STOP)
        assert trace.status.startswith("converged")
        assert abs(trace.x_final[0] - 1.0) < 1e-10

    def test_a_step_below_step_tol_stops_the_run(self, f1):
        stop = StoppingCriteria(step_tol=1e-6, residual_tol=0.0, max_iter=200)
        trace = solve(f1, FixedSlope(c=0.5), 0.5, stop)
        assert trace.status == "converged-by-step"
        assert trace.n_steps == 20
        assert trace.step_norms[-1] <= 1e-6 < trace.step_norms[-2]

    def test_a_non_finite_second_derivative_is_a_domain_failure(self, f1):
        # L = inf made halley_h(L) = -0.0: a zero step read as convergence
        p = Problem(f=f1.f, jacobian=f1.jacobian, d2f=lambda x: np.inf)
        trace = solve(p, HFamily(halley_h), 0.0, STOP)
        assert trace.status == "domain-failure"

    @pytest.mark.parametrize("method", [ASIS(), Newton(), Steffensen()])
    def test_a_value_error_of_f_is_raised(self, method):
        def f(x):
            raise ValueError("boom")

        p = Problem(f=f, jacobian=lambda x: 1.0)
        with pytest.raises(ValueError, match="boom"):
            solve(p, method, 0.0, STOP)

    def test_newton_on_example3(self, example3):
        trace = solve(example3, Newton(), [0.0, 0.0], STOP)
        assert trace.status.startswith("converged")
        assert np.allclose(trace.x_final, [1.0, -1.0], atol=1e-10)

    def test_steffensen_on_example3(self, example3):
        trace = solve(example3, Steffensen(), [0.0, 0.0],
                      StoppingCriteria(step_tol=0.0, residual_tol=1e-13,
                                       max_iter=200))
        assert trace.status.startswith("converged")
        assert np.allclose(trace.x_final, [1.0, -1.0], atol=1e-9)

    def test_fixed_slope_linear_convergence(self, f1):
        # x - c f(x) with c = 1/f'(x0): contraction near the root
        c = 1.0 / f1.jac(0.9)[0, 0]
        trace = solve(f1, FixedSlope(c=c), 0.9,
                      StoppingCriteria(1e-14, 1e-14, 500))
        assert trace.status.startswith("converged")
        assert abs(trace.x_final[0] - 1.0) < 1e-8

    def test_damped_first_order(self, f1):
        trace = solve(f1, DampedFirstOrder(lam=0.8), 0.5,
                      StoppingCriteria(1e-14, 1e-14, 500))
        assert trace.status.startswith("converged")
        assert abs(trace.x_final[0] - 1.0) < 1e-8

    def test_damping_contract_warning(self, f1):
        # lam far outside (0, 2) relative slope ratio
        trace = solve(f1, DampedFirstOrder(lam=25.0), 0.5,
                      StoppingCriteria(1e-14, 1e-14, 20))
        assert any("damping contract" in w for w in trace.warnings)

    @pytest.mark.parametrize("f,jac", [
        (np.log, lambda x: 1.0 / x),                    # F(x0) = -inf
        (np.sqrt, lambda x: 0.5 / np.sqrt(x)),          # F(x0) = 0, F'(x0) = inf
    ])
    def test_damped_first_order_domain_failure_at_x0(self, f, jac):
        with np.errstate(divide="ignore"):
            trace = solve(Problem(f=f, jacobian=jac), DampedFirstOrder(lam=0.5),
                          0.0, StoppingCriteria())
        assert trace.status == "domain-failure"
        assert trace.n_steps == 0
        assert trace.n_evals == 1

    def test_singular_damping_scale_at_x0(self):
        # F'(0) = 0 for x^2 - 4: the damped node is undefined before a step
        trace = solve(quad_problem(), DampedSteffensen(lam=1.0), 0.0, STOP)
        assert trace.status == "singular-operator"
        assert [list(x) for x in trace.iterates] == [[0.0]]
        assert trace.residual_norms == [4.0]
        assert trace.step_norms == []

    def test_domain_failure_at_x0_records_nan(self):
        with np.errstate(invalid="ignore"):
            trace = solve(Problem(f=np.log, jacobian=lambda x: 1.0 / x),
                          Newton(), -1.0, STOP)
        assert trace.status == "domain-failure"
        assert [list(x) for x in trace.iterates] == [[-1.0]]
        assert np.isnan(trace.residual_norms[0])

    def test_non_finite_first_jacobian_keeps_the_residual(self):
        # F(0) = 0 is finite, F'(0) is not: ||F(x0)|| stays on the trace
        with np.errstate(divide="ignore"):
            trace = solve(Problem(f=np.sqrt, jacobian=lambda x: 0.5 / np.sqrt(x)),
                          DampedFirstOrder(lam=0.5), 0.0, StoppingCriteria())
        assert trace.status == "domain-failure"
        assert trace.residual_norms == [0.0]

    @pytest.mark.parametrize("method, what", [
        (Bisection(lo=0.0, hi=1.0), "bisection"),
        (HFamily(h=lambda L: 1.0 / (1.0 - 0.5 * L)), "the h-family step"),
    ])
    def test_scalar_only_method_on_a_vector_problem(self, example3, method, what):
        p, calls = recording(example3)
        trace = solve(p, method, [0.0, 0.0], StoppingCriteria())
        assert trace.status == "domain-failure"
        assert trace.warnings == [f"{what} is scalar-only"]
        assert trace.n_evals == len(calls["f"]) == 0
        assert trace.iterates == []

    def test_an_overflowing_jacobian_is_a_domain_failure(self, example3):
        # k c F'(0) leaves the double range in numpy's product; pytest runs
        # with error::RuntimeWarning, so a warning out of solve would raise
        p = apply_scaling(example3, LinearScaling(1e150, 1e158))
        trace = solve(p, Newton(), [0.0, 0.0], StoppingCriteria())
        assert trace.status == "domain-failure"

    def test_a_step_that_updates_x_in_place(self, example3):
        # the loop hands a step a copy of x: an in-place update reads as
        # the same step returning a new array, and x0 is left as it was
        class Duck:
            def __init__(self, step):
                self.start = lambda problem, x0, trace: step

        def in_place(x, fx):
            x -= 0.1 * fx
            return x

        x0 = np.array([0.5, 0.5])
        got = solve(example3, Duck(in_place), x0, STOP)
        ref = solve(example3, Duck(lambda x, fx: x - 0.1 * fx), x0, STOP)
        assert x0.tolist() == [0.5, 0.5]
        assert got.n_steps == ref.n_steps > 1
        assert got.status == ref.status
        assert [x.tobytes() for x in got.iterates] == [x.tobytes()
                                                       for x in ref.iterates]
        assert got.residual_norms == ref.residual_norms
        assert got.step_norms == ref.step_norms
        assert 0.0 not in got.step_norms
        listed = solve(example3, Duck(lambda x, fx: list(x - 0.1 * fx)), x0,
                       STOP)
        assert {x.shape for x in listed.iterates} == {(2,)}
        assert listed.step_norms == ref.step_norms

    def test_h_family_needs_its_h(self):
        # without h a run would fail inside the loop, calling None
        with pytest.raises(TypeError):
            HFamily()

    @pytest.mark.parametrize("m", [1, 3])
    def test_overflowing_steffensen_node(self, m):
        # the node x0 + F(x0) overflows in its first component, so the
        # telescope's points, the node among them, are rejected before any
        # F call; only F(x0) is counted
        x0 = np.zeros(m)
        x0[0] = 1.5e308
        p, calls = recording(Problem(f=lambda x: np.full(m, 1.5e308) + 0.0 * x,
                                     dimension=m))
        with np.errstate(over="ignore"):
            trace = solve(p, Steffensen(), x0, StoppingCriteria())
        assert trace.status == "domain-failure"
        assert trace.n_evals == len(calls["f"]) == 1
        assert trace.n_steps == 0

    def test_newton_divergence_detected(self):
        trace = solve(atan_problem(), Newton(), 2.0,
                      StoppingCriteria(0.0, 1e-15, 200))
        assert trace.status == "diverged"

    def test_singular_operator_status(self):
        trace = solve(quad_problem(), Newton(), 0.0, STOP)
        assert trace.status == "singular-operator"

    def test_max_iter_status(self, f1):
        trace = solve(f1, Newton(), 0.5,
                      StoppingCriteria(step_tol=0.0, residual_tol=0.0,
                                       max_iter=3))
        assert trace.status == "max-iter"
        assert trace.n_steps == 3

    @pytest.mark.parametrize("problem,method", [
        (problem, method) for problem in ("f1", "example3")
        for method in ("fixed-slope", "damped-first-order", "newton", "secant",
                       "steffensen", "steffensen-integral",
                       "damped-steffensen", "h-family")
        if problem == "f1" or method != "h-family"])  # the h-family is scalar
    def test_solve_matches_single_steps(self, problem, method):
        p = builtin_problem(problem)
        x0 = np.full(p.dimension, 0.6 if p.dimension == 1 else 0.5)
        x_prev = [x0 - 0.1]
        integral = DividedDifference("integral")
        J0 = p.jac(x0)
        halley = lambda L: 1.0 / (1.0 - L / 2.0)

        def secant(x):
            x_new = secant_step(p, x_prev[0], x)
            x_prev[0] = x
            return x_new

        described, plain = {
            "fixed-slope": (FixedSlope(c=0.05),
                            lambda x: x - 0.05 * p.evaluate(x)),
            "damped-first-order": (
                DampedFirstOrder(lam=0.8),
                lambda x: x - 0.8 * solve_linear(J0, p.evaluate(x))),
            "newton": (Newton(), lambda x: newton_step(p, x)),
            "secant": (Secant(x_prev=x0 - 0.1), secant),
            "steffensen": (Steffensen(), lambda x: steffensen_step(p, x)),
            "steffensen-integral": (Steffensen(dd=integral),
                                    lambda x: steffensen_step(p, x, integral)),
            "damped-steffensen": (
                DampedSteffensen(lam=0.7),
                lambda x: damped_steffensen_step(p, x, 0.7, x0)),
            "h-family": (HFamily(h=halley),
                         lambda x: h_family_step(p, x, halley)),
        }[method]
        trace = solve(p, described, x0, StoppingCriteria(0.0, 1e-14, 8))
        assert trace.n_steps >= 3
        x = x0
        for x_next in trace.iterates[1:]:
            x = plain(x)
            assert np.array_equal(x, x_next)

    def test_evaluation_counts(self):
        for name, x0 in (("f1", 0.5), ("example3", [0.0, 0.0])):
            p, calls = recording(builtin_problem(name))
            trace = solve(p, Newton(), x0, STOP)
            # one residual at x0 plus one residual per step; each step
            # reuses the residual's F(x)
            assert trace.n_evals == len(calls["f"]) == 1 + trace.n_steps
            assert trace.n_jac_evals == len(calls["jac"]) == trace.n_steps
            assert not trace.used_fd_jacobian

    def test_fd_jacobian_flag(self):
        p = Problem(f=lambda x: x * x - 4.0, dimension=1)
        trace = solve(p, Newton(), 3.0, STOP)
        assert trace.used_fd_jacobian
        assert trace.status.startswith("converged")


class TestEvaluationBudget:
    """Exact F and Jacobian counts per solve: each point is evaluated once."""

    FOUR_STEPS = StoppingCriteria(step_tol=0.0, residual_tol=0.0, max_iter=4)

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_steffensen_costs_m_plus_1_per_step(self, m):
        p, calls = recording(random_quadratic_problem(np.random.default_rng(m), m))
        trace = solve(p, Steffensen(), np.zeros(m), self.FOUR_STEPS)
        assert trace.n_steps == 4
        assert trace.n_evals == len(calls["f"]) == 1 + (m + 1) * trace.n_steps
        assert trace.n_jac_evals == len(calls["jac"]) == 0
        assert len({x.tobytes() for x in calls["f"]}) == len(calls["f"])

    @pytest.mark.parametrize("x0", [[0.5], [0.0, 0.0]])
    def test_damped_steffensen_takes_one_jacobian_per_solve(self, f1,
                                                            example3, x0):
        p, calls = recording(f1 if len(x0) == 1 else example3)
        # stop before F(x) falls below 1e-14 |x|, where coincident nodes
        # would take Jacobian columns in the telescope
        trace = solve(p, DampedSteffensen(lam=0.7), x0,
                      StoppingCriteria(step_tol=0.0, residual_tol=1e-10))
        assert trace.status.startswith("converged")
        assert trace.n_steps > 1
        assert trace.n_jac_evals == len(calls["jac"]) == 1
        assert all(np.array_equal(x, x0) for x in calls["jac"])

    def test_secant_reuses_both_known_values(self, example3):
        m = 2
        p, calls = recording(example3)
        trace = solve(p, Secant(x_prev=[0.4, 0.4]), [0.5, 0.5], STOP)
        assert trace.status.startswith("converged")
        # F(x_prev) once, then m - 1 telescope points and the residual a step
        assert trace.n_evals == len(calls["f"]) == 2 + m * trace.n_steps
        assert len({x.tobytes() for x in calls["f"]}) == len(calls["f"])

    def test_halley_costs_one_f_per_step(self, f1):
        p, calls = recording(f1)
        trace = solve(p, HFamily(h=lambda L: 1.0 / (1.0 - L / 2.0)), 0.5, STOP)
        assert trace.n_evals == len(calls["f"]) == 1 + trace.n_steps
        assert trace.n_jac_evals == trace.n_steps

    def test_integral_steffensen_calls_no_f_prime_at_a_non_finite_node(self):
        # f1 scaled by k = 1e308 from -1e308: the node x + F(x) is -inf, so
        # every quadrature node is -inf or NaN and F' is judged at none
        p, calls = recording(apply_scaling(builtin_problem("f1"),
                                           LinearScaling(c=1.0, k=1e308)))
        trace = solve(p, Steffensen(DividedDifference("integral")), -1e308,
                      StoppingCriteria())
        assert trace.status == "domain-failure"
        assert trace.n_jac_evals == len(calls["jac"]) == 0

    def test_known_value_gives_the_same_step(self, f1, example3):
        h = lambda L: 1.0 / (1.0 - L / 2.0)
        for p, x in ((f1, np.array([0.4])), (example3, np.array([0.3, -0.2]))):
            fx = p.evaluate(x)
            steps = [lambda **kw: newton_step(p, x, **kw),
                     lambda **kw: steffensen_step(p, x, **kw),
                     lambda **kw: damped_steffensen_step(p, x, 0.5, **kw),
                     lambda **kw: secant_step(p, x - 0.1, x, **kw)]
            if p.dimension == 1:
                steps.append(lambda **kw: h_family_step(p, x, h, **kw))
            for step in steps:
                assert np.array_equal(step(fx=fx), step())


class TestBisection:
    def test_finds_root(self):
        trace = solve(quad_problem(), Bisection(lo=0.0, hi=3.0), None,
                      StoppingCriteria(step_tol=1e-12, residual_tol=1e-12,
                                       max_iter=200))
        assert trace.status.startswith("converged")
        assert abs(trace.x_final[0] - 2.0) < 1e-10

    def test_first_midpoint(self):
        trace = solve(quad_problem(), Bisection(lo=0.0, hi=3.0), None,
                      StoppingCriteria(0.0, 0.0, 2))
        assert trace.iterates[0][0] == 1.5
        assert trace.iterates[1][0] == 2.25

    def test_halving_steps(self):
        trace = solve(quad_problem(), Bisection(lo=0.0, hi=4.0), None,
                      StoppingCriteria(0.0, 0.0, 10))
        steps = trace.step_norms
        for s, s_next in zip(steps, steps[1:]):
            assert s_next == pytest.approx(s / 2.0)

    def test_bad_bracket(self):
        trace = solve(quad_problem(), Bisection(lo=3.0, hi=5.0), None, STOP)
        assert trace.status == "domain-failure"
        assert trace.iterates == [] and trace.n_steps == 0
        with pytest.raises(ValueError, match="no iterate.*domain-failure"):
            trace.x_final

    @pytest.mark.parametrize("lo, hi", [(2.0, 3.0), (0.0, 2.0)])
    def test_root_at_a_bracket_end(self, lo, hi):
        # F = 0 at one end: the bracket shrinks to it, and the first
        # midpoint is the root
        trace = solve(quad_problem(), Bisection(lo=lo, hi=hi), None, STOP)
        assert trace.status == "converged-by-residual"
        assert [x[0] for x in trace.iterates] == [2.0, 2.0]
        assert trace.residual_norms == [0.0, 0.0] and trace.n_evals == 4

    def test_converged_by_step(self):
        trace = solve(quad_problem(), Bisection(lo=0.0, hi=3.0), None,
                      StoppingCriteria(step_tol=0.1, residual_tol=0.0))
        assert trace.status == "converged-by-step"
        assert trace.step_norms == [0.75, 0.375, 0.1875, 0.09375]
        assert trace.x_final[0] == 1.96875

    def test_non_finite_value_at_a_bracket_end(self):
        with np.errstate(divide="ignore"):
            trace = solve(Problem(f=lambda x: np.log(x) + 1.0),
                          Bisection(lo=0.0, hi=2.0), None, StoppingCriteria())
        assert trace.status == "domain-failure"
        assert trace.iterates == []
        assert trace.n_evals == 1

    def test_non_finite_value_at_a_midpoint(self):
        p = Problem(f=lambda x: np.nan if x == 0.75 else x - 0.6)
        trace = solve(p, Bisection(lo=0.0, hi=2.0), None, StoppingCriteria())
        assert trace.status == "domain-failure"
        assert [x[0] for x in trace.iterates] == [1.0, 0.5]
        assert trace.n_evals == 5


def reference_rows(trace):
    """The rows IterationTrace.to_csv writes, one numpy scalar at a time."""
    rows = []
    for n, x in enumerate(trace.iterates):
        step = "" if n == 0 else repr(float(trace.step_norms[n - 1]))
        rows.append([n] + [repr(float(v)) for v in x]
                    + [repr(float(trace.residual_norms[n])), step])
    return rows


def reference_csv(trace):
    """IterationTrace.to_csv through csv.writer."""
    m = len(trace.iterates[0]) if trace.iterates else 0
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["n"] + [f"x{i}" for i in range(m)] + ["res_norm", "step_norm"])
    w.writerows(reference_rows(trace))
    return buf.getvalue()


def reference_log10_table(errs):
    """experiments._log10_error_table, one numpy scalar at a time."""
    rows = []
    for n in range(max(len(e) for e in errs.values())):
        rows.append([str(n)] + [repr(math.log10(max(e[n], 1e-300)))
                           if n < len(e) else "" for e in errs.values()])
    return ["n"] + [f"log10_err_{tag}" for tag in errs], rows


class TestTraceSerialization:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_rows_errors_and_log_table_are_the_per_row_codes(self, m):
        rng = np.random.default_rng(40 + m)
        n = 30
        scales = 10.0 ** rng.uniform(-200.0, 200.0, (n, m))
        trace = IterationTrace(
            iterates=list(rng.standard_normal((n, m)) * scales),
            residual_norms=[float("nan")] + rng.uniform(0.0, 1.0, n - 1).tolist(),
            step_norms=list(rng.uniform(0.0, 1.0, n - 1)))
        trace.iterates[3] = np.zeros(m)
        root = trace.iterates[3] if m == 1 else rng.standard_normal(m)
        assert trace.to_csv() == reference_csv(trace)
        assert trace.to_csv().count("\n") == n + 1
        errors = trace.errors(root)
        assert errors.dtype == np.float64 and errors.shape == (n,)
        for e, x in zip(errors.tolist(), trace.iterates):
            assert_euclidean_norm(e, x - root)
        errs = {"long": errors, "short": errors[:7],
                "nan": np.array([0.5, np.nan, 0.0])}
        assert _log10_error_table(errs) == reference_log10_table(errs)

    def test_empty_trace(self):
        trace = IterationTrace()
        assert trace.to_csv() == reference_csv(trace)
        assert trace.to_csv() == "n,res_norm,step_norm\n"
        errors = trace.errors([1.0, 2.0])
        assert errors.shape == (0,) and errors.dtype == np.float64
        assert trace.errors(5.0).shape == (0,)

    def test_errors_take_the_root_as_a_point_of_the_iterates(self):
        # a root of another dimension raised nothing: at m = 1 a 2-vector
        # broadcast to 2-norms (4.12, 3.61), at m = 2 a scalar measured
        # the distance to (1, 1)
        one = IterationTrace(iterates=[np.array([1.0]), np.array([2.0])])
        with pytest.raises(ValueError, match="dimension 1, got shape"):
            one.errors([0.0, 5.0])
        two = IterationTrace(iterates=[np.array([1.0, 3.0])])
        with pytest.raises(ValueError, match="dimension 2, got shape"):
            two.errors(1.0)
        assert one.errors(3).tolist() == [2.0, 1.0]
        assert one.errors([0.5]).tolist() == [0.5, 1.5]
        assert two.errors(np.array([1.0, 1.0])).tolist() == [2.0]

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize("n", [0, 1, 5])
    def test_csv_is_the_csv_writers(self, m, n):
        # nan, +-inf, -0.0 and a subnormal, cycled through the iterates,
        # residuals and steps; n = 0 is the empty trace, n = 1 a trace
        # with no step
        cells = iter(8 * [math.nan, math.inf, -math.inf, -0.0, 5e-324,
                          1.5, -2.25e300])
        take = lambda k: [next(cells) for _ in range(k)]
        trace = IterationTrace(
            iterates=[np.array(take(m)) for _ in range(n)],
            residual_norms=take(n), step_norms=take(max(n - 1, 0)))
        assert trace.to_csv() == reference_csv(trace)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_crawl_length_columns_are_the_per_row_codes(self, m):
        # example2's crawl writes ~3700 rows; here 4200, with nan, +-inf,
        # -0.0, a subnormal and 1e+-300 in every column and int-valued
        # iterates among float ones
        rng = np.random.default_rng(70 + m)
        n = 4200
        special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 1e-300]
        X = rng.standard_normal((n, m)) * 10.0 ** rng.uniform(-300, 300, (n, m))
        res = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.uniform(-300, 300, n)
        steps = rng.uniform(0.0, 1.0, n - 1)
        for i, v in enumerate(special):
            X[17 * i + 5] = v
            X[11 * i + 3, -1] = v
            res[13 * i + 1] = v
            steps[19 * i + 2] = v
        iterates = list(X)
        for i in range(0, n, 97):
            iterates[i] = rng.integers(-10**6, 10**6, m)
        trace = IterationTrace(
            iterates=iterates,
            residual_norms=[float("nan")] + res[1:].tolist(),
            step_norms=[np.float64(s) for s in steps])
        assert trace.iterates[97].dtype.kind == "i"
        text = trace.to_csv()
        assert text == reference_csv(trace)
        assert text.splitlines()[98].split(",")[1].endswith(".0")

        root = rng.standard_normal(m)
        errors = trace.errors(root)
        want = np.array([euclidean_norm(np.asarray(x, dtype=float) - root)
                         for x in trace.iterates])
        assert errors.dtype == np.float64 and errors.shape == (n,)
        assert np.array_equal(np.isnan(errors), np.isnan(want))
        assert errors[~np.isnan(errors)].tobytes() == want[~np.isnan(want)].tobytes()

        column = np.array(special + [0.0, 0.25, 3.0])
        for errs in ({"crawl": errors, "short": errors[:9],
                      "special": column, "empty": np.array([])},
                     {"crawl": errors, "short": errors[:n // 2]},
                     {"empty": np.array([]), "none": np.zeros(0)}):
            assert _log10_error_table(errs) == reference_log10_table(errs)

    def test_csv_shape_and_header(self, example3):
        trace = solve(example3, Newton(), [0.0, 0.0], STOP)
        lines = trace.to_csv().splitlines()
        assert lines[0] == "n,x0,x1,res_norm,step_norm"
        assert len(lines) == len(trace.iterates) + 1
        first = lines[1].split(",")
        assert first[0] == "0" and first[-1] == ""

    def test_csv_deterministic(self, f1):
        a = solve(f1, Steffensen(), 0.25, STOP).to_csv()
        b = solve(f1, Steffensen(), 0.25, STOP).to_csv()
        assert a == b

    def test_csv_round_trips_floats(self, f1):
        trace = solve(f1, Newton(), 0.25, STOP)
        row = trace.to_csv().splitlines()[2].split(",")
        assert float(row[1]) == trace.iterates[1][0]
        assert float(row[2]) == trace.residual_norms[1]

    def test_json_fields(self, f1):
        import json
        trace = solve(f1, Newton(), 0.25, STOP)
        obj = json.loads(trace.to_json())
        assert obj["status"] == trace.status
        assert obj["iterates"][0] == [0.25]
        assert len(obj["step_norms"]) == trace.n_steps

    def test_json_text_writes_non_finite_floats_as_null(self):
        import json
        finite = {"b": [1.5, np.float64(0.1)], "a": (2, "x", None, True)}
        assert json_text(finite, indent=2, sort_keys=True) == \
            json.dumps(finite, indent=2, sort_keys=True)
        obj = {"s": math.nan, "t": [1.0, (-math.inf, np.float64(math.inf))]}
        assert json_text(obj) == '{"s": null, "t": [1.0, [null, null]]}'


class TestAsis:
    def test_converges_on_f1(self, f1):
        trace = solve(f1, ASIS(), 0.0, STOP)
        assert trace.status.startswith("converged")
        assert abs(trace.x_final[0] - 1.0) < 1e-12

    def test_scale_invariance_f1_vs_f2(self, f1, f2):
        # f2(x) = f1(2x): identical adimensional iterates, x halved
        stop = StoppingCriteria(step_tol=0.0, residual_tol=1e-13, max_iter=50)
        t1 = solve(f1, ASIS(), 0.0, stop)
        t2 = solve(f2, ASIS(), 0.0, stop)
        y1 = np.array([y[0] for y in t1.adimensional.iterates])
        y2 = np.array([y[0] for y in t2.adimensional.iterates])
        n = min(len(y1), len(y2))
        assert np.allclose(y1[:n], y2[:n], atol=1e-13)
        x1 = np.array([x[0] for x in t1.iterates])
        x2 = np.array([x[0] for x in t2.iterates])
        assert np.allclose(x2[:n], x1[:n] / 2.0, atol=1e-13)

    def test_form_normalization(self, example3):
        form = adimensionalize(example3, [0.0, 0.0])
        g = form.g
        assert g.vector_norm(g.evaluate(form.y0)) == pytest.approx(1.0,
                                                                   abs=1e-12)

    def test_back_transform_consistency(self, example3):
        trace = solve(example3, ASIS(), [0.0, 0.0], STOP)
        form = adimensionalize(example3, [0.0, 0.0])
        for y, x in zip(trace.adimensional.iterates, trace.iterates):
            assert np.allclose(form.to_original(y), x, atol=1e-13)

    def test_converges_on_example3(self, example3):
        stop = StoppingCriteria(step_tol=0.0, residual_tol=1e-13, max_iter=200)
        trace = solve(example3, ASIS(), [0.0, 0.0], stop)
        assert trace.status.startswith("converged")
        assert np.allclose(trace.x_final, [1.0, -1.0], atol=1e-8)

    @pytest.mark.parametrize("name, x0, n_calls", [
        ("f1", 0.0, 15),
        ("example3", [0.0, 0.0], 26),
        ("f1", 0.5, 12),
        ("example3", [0.3, -0.2], 23),
    ])
    def test_each_point_is_evaluated_once(self, name, x0, n_calls):
        # the form's F(x0) and 2m difference points, then at most m + 1 per
        # step on G: G(y0) is the form's F(x0), and the back-transform
        # reuses the F(x) behind each G(y)
        p, calls = recording(builtin_problem(name))
        trace = solve(p, ASIS(), x0, StoppingCriteria())
        assert len(calls["f"]) == trace.n_evals == n_calls
        assert len({x.tobytes() for x in calls["f"]}) == n_calls
        # the y-space trace counts G's calls, G(y0) among them
        n_form = 2 * p.dimension + 1
        assert trace.adimensional.n_evals == n_calls - n_form + 1
        form = adimensionalize(p, x0)
        assert trace.residual_norms[0] == p.vector_norm(form.f_c)

    @pytest.mark.parametrize("dd", ["componentwise", "integral"])
    @pytest.mark.parametrize("name, x0", [("f1", [0.0]),
                                          ("example3", [0.3, -0.7])])
    def test_back_transform_is_that_of_evaluating_every_iterate(self, dd, name,
                                                                x0):
        p = builtin_problem(name)
        trace = solve(p, ASIS(DividedDifference(dd)), x0, STOP)
        form = adimensionalize(p, x0)
        xs = [form.to_original(y) for y in trace.adimensional.iterates]
        assert all(np.array_equal(a, b) for a, b in zip(trace.iterates, xs))
        assert trace.residual_norms == [
            p.vector_norm(p.evaluate(x)) for x in xs]
        assert trace.step_norms == [
            p.vector_norm(b - a) for a, b in zip(xs, xs[1:])]

    def test_a_failure_in_the_first_step_keeps_the_residual_at_y0(self, f1):
        # F fails from its 4th call on: after the form's 2m + 1 = 3 calls,
        # at the first Steffensen node, since G(y0) is the form's F(x0)
        n_calls = [0]

        def f(x):
            n_calls[0] += 1
            return np.nan if n_calls[0] > 3 else f1.f(x)

        p = Problem(f=f, jacobian=f1.jacobian)
        trace = solve(p, ASIS(), 0.0, STOP)
        assert n_calls[0] == trace.n_evals == 4
        assert trace.status == trace.adimensional.status == "domain-failure"
        form = adimensionalize(f1, 0.0)
        assert trace.residual_norms == [f1.vector_norm(form.f_c)]
        assert np.array_equal(trace.iterates, [form.to_original(form.y0)])
        assert trace.adimensional.n_evals == 2   # G(y0) and the failed node

    @pytest.mark.parametrize("k", [1.0, 1e160, 1e-170])
    def test_converges_whatever_the_value_scale(self, f1, k):
        # ||F(x0)|| squared overflows at k = 1e160 and underflows at
        # k = 1e-170; sigma is still the norm, and the run is k = 1's
        p = apply_scaling(f1, LinearScaling(c=1.0, k=k))
        trace = solve(p, ASIS(), 0.0, StoppingCriteria(residual_tol=1e-10))
        assert trace.status == "converged-by-residual"
        assert trace.n_steps == 6
        assert abs(trace.x_final[0] - 1.0) < 1e-10

    @pytest.mark.parametrize("p, x0", [
        (builtin_problem("f1"), [0.0]),
        (builtin_problem("zigzag", b=0.1), [0.1, 1.0]),
        (builtin_problem("example3"), [0.3, -0.7])])
    def test_the_first_iterate_is_the_callers_x0(self, p, x0):
        # y0 = 0 maps back to x0 + 0, bit for bit the caller's x0
        trace = solve(p, ASIS(), x0, STOP)
        assert trace.iterates[0].tobytes() == np.array(x0).tobytes()

    @pytest.mark.parametrize("name, x0, root, n_steps", [
        ("f1", [0.0], [1.0], 6), ("example3", [0.0, 0.0], [1.0, -1.0], 7)])
    def test_converges_far_from_the_origin(self, name, x0, root, n_steps):
        # moved by 1e6 and started at the moved x0, the run is the unmoved
        # one's: y is centred at x0, so Steffensen in y never works on
        # numbers of size 1e6
        t = 1e6
        p = moved(builtin_problem(name), t)
        trace = solve(p, ASIS(), np.array(x0) + t,
                      StoppingCriteria(0.0, 1e-15, 100))
        assert trace.status == "converged-by-residual"
        assert trace.n_steps == n_steps
        assert np.allclose(trace.x_final, np.array(root) + t,
                           rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("name, x0, n_lu_solves", [
        ("f1", 0.0, 14), ("example3", [0.0, 0.0], 9)])
    def test_each_point_is_mapped_to_x_once(self, monkeypatch, name, x0,
                                            n_lu_solves):
        # one solve for W = T^-1, one for the seed y0 and one per G call
        # made on one point: at m = 1 both of a step's, since the scalar
        # lane has no stack; above, each step's new iterate, its telescope
        # mapped by one product with W.  The back-transform reads the x
        # that G mapped
        n_calls = [0]
        real = adimensional.lu_solve

        def counting(*args, **kwargs):
            n_calls[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(adimensional, "lu_solve", counting)
        p, calls = recording(builtin_problem(name))
        trace = solve(p, ASIS(), x0, StoppingCriteria())
        m = p.dimension
        assert len(calls["jac"]) == 1
        assert n_calls[0] == 2 + trace.n_steps * (2 if m == 1 else 1)
        assert n_calls[0] == n_lu_solves

    @pytest.mark.parametrize("dd", ["componentwise", "integral"])
    @pytest.mark.parametrize("p, x0, min_iterates", [
        (builtin_problem("f1"), [0.0], 3),
        (builtin_problem("f1"), 2.5, 3),
        (builtin_problem("example3"), [0.0, 0.0], 3),
        (builtin_problem("example3"), [0.3, -0.7], 3),
        (builtin_problem("zigzag", b=0.1), [0.1, 1.0], 2),
        (apply_scaling(h_equation_problem(10, 0.78), LinearScaling(1.3, 0.7)),
         np.ones(10) / 1.3, 3),
        (apply_scaling(h_equation_problem(100, 0.99), LinearScaling(1.3, 0.7)),
         np.ones(100) / 1.3, 3),
    ])
    def test_traces_are_those_of_the_spelled_out_g(self, dd, p, x0,
                                                   min_iterates):
        # the reference runs Steffensen on spelled_out_g, G written out in
        # the test: a point alone mapped to x by its own solve, a stack by
        # X = x0 + Y W^T, F called on each row; zigzag's form is solved by
        # its first step
        rec, calls = recording(p)
        trace = solve(rec, ASIS(DividedDifference(dd)), x0, STOP)
        form = adimensionalize(p, x0)
        ref = solve(spelled_out_g(form), Steffensen(DividedDifference(dd)),
                    form.y0, STOP)
        xs = [form.to_original(y) for y in ref.iterates]
        got = trace.adimensional
        assert trace.status == got.status == ref.status
        assert len(got.iterates) == len(trace.iterates) == len(ref.iterates)
        assert len(ref.iterates) >= min_iterates
        for a, b in ((got.iterates, ref.iterates), (trace.iterates, xs)):
            assert all(u.tobytes() == v.tobytes() for u, v in zip(a, b))
        assert got.residual_norms == ref.residual_norms
        assert got.step_norms == ref.step_norms
        assert trace.residual_norms == [p.vector_norm(p.evaluate(x))
                                        for x in xs]
        assert trace.step_norms == [p.vector_norm(b - a)
                                    for a, b in zip(xs, xs[1:])]
        assert trace.warnings == got.warnings == ref.warnings == []
        assert (got.used_fd_jacobian, got.adimensional) == (
            ref.used_fd_jacobian, None)
        # G's calls are the reference's; solve counts the form's setup too,
        # whose F(x0) is G(y0)
        assert (got.n_evals, got.n_jac_evals) == (ref.n_evals, ref.n_jac_evals)
        assert (trace.n_evals, trace.n_jac_evals) == (len(calls["f"]),
                                                      len(calls["jac"]))
        assert trace.n_evals == ref.n_evals + 2 * p.dimension

    def test_a_failure_inside_gs_stack_counts_every_row(self):
        # F fails at the first telescope point (its 6th call, after the
        # setup's 2m + 1 = 5): the stack evaluates its second row before
        # its finiteness test, and both traces count both
        n_calls = [0]

        def f(x):
            n_calls[0] += 1
            if n_calls[0] == 6:
                return np.array([np.nan, 0.0])
            return np.array([x[0] - 1.0 + x[0] ** 3,
                             x[1] - 2.0 + 0.1 * x[0] * x[1]])

        p = Problem(f=f, jacobian=lambda x: np.array(
            [[1.0 + 3.0 * x[0] ** 2, 0.0], [0.1 * x[1], 1.0 + 0.1 * x[0]]]),
            dimension=2)
        trace = solve(p, ASIS(), [0.0, 0.0], STOP)
        assert trace.status == "domain-failure"
        assert trace.n_evals == n_calls[0] == 7
        assert trace.adimensional.n_evals == 7 - 2 * 2

    def test_the_form_is_freed_without_the_garbage_collector(self,
                                                             monkeypatch):
        # G refers to its form and the form not to G, and the trace keeps
        # neither: no reference cycle keeps T and its factors alive after
        # a solve
        forms = []

        def keeping(*args):
            form = adimensionalize(*args)
            forms.append(weakref.ref(form))
            return form

        monkeypatch.setattr(methods, "adimensionalize", keeping)
        gc.disable()
        try:
            trace = solve(h_equation_problem(10, 0.78), ASIS(), np.ones(10),
                          STOP)
            assert trace.status == "converged-by-residual"
            assert len(forms) == 1 and forms[0]() is None
        finally:
            gc.enable()

    def test_solve_on_the_forms_g_counts_its_stacks(self):
        # solve's count of G's calls takes each row of a componentwise
        # telescope's stack as one call: the F calls G made, as many as
        # G's per-point evaluation would have made
        m = 10
        p, calls = recording(apply_scaling(h_equation_problem(m, 0.78),
                                           LinearScaling(1.3, 0.7)))
        form = adimensionalize(p, np.ones(m) / 1.3)
        g = form.g
        method = Steffensen(DividedDifference("componentwise"))
        n_form = len(calls["f"])
        trace = solve(g, method, form.y0, STOP)
        assert trace.status == "converged-by-residual"
        assert trace.n_evals == len(calls["f"]) - n_form
        ref = solve(spelled_out_g(form), method, form.y0, STOP)
        alone = solve(Problem(f=lambda y: g.f(y), jacobian=g.jacobian,
                              dimension=m), method, form.y0, STOP)
        assert (trace.n_evals == ref.n_evals == alone.n_evals
                > trace.n_steps * m)
        assert all(np.array_equal(a, b)
                   for a, b in zip(trace.iterates, ref.iterates))

    def test_a_step_costs_m_plus_one_f_calls_and_one_solve(self,
                                                           monkeypatch):
        # H-equation at m = 100: the setup's 2m + 1 F calls and one solve
        # for W = T^-1, the seed y0's solve, then per step the m telescope
        # points of one stack, mapped to x by one product with W, and the
        # new iterate, mapped by its own solve
        m = 100
        n_solves = [0]
        real = adimensional.lu_solve

        def counting(*args, **kwargs):
            n_solves[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(adimensional, "lu_solve", counting)
        # stopped before G(y) underflows the node shift, where columns of
        # the telescope go dead and take the Jacobian's
        stop = StoppingCriteria(step_tol=0.0, residual_tol=1e-10)
        p, calls = recording(h_equation_problem(m, 0.78))
        trace = solve(p, ASIS(), np.ones(m), stop)
        n = trace.n_steps
        assert trace.status == "converged-by-residual" and n == 3
        assert len(calls["f"]) == trace.n_evals == 2 * m + 1 + n * (m + 1)
        assert trace.adimensional.n_evals == 1 + n * (m + 1)
        assert n_solves[0] == 2 + n


class TestScaledStacks:
    """Solves on a scaled H-equation, whose stacks pass through
    apply_scaling, against the same problem behind a plain one-point
    function: the same runs, and counts of one call per point."""

    STOP = StoppingCriteria(step_tol=0.0, residual_tol=1e-10, max_iter=50)
    SCALING = LinearScaling(c=1.3, k=0.7)

    @pytest.mark.parametrize("m", [10, 100])
    @pytest.mark.parametrize("method", [
        Steffensen(), Steffensen(DividedDifference("integral")), ASIS()],
        ids=["componentwise", "integral", "asis"])
    def test_runs_are_those_of_one_call_per_point(self, m, method):
        p = apply_scaling(h_equation_problem(m, 0.78), self.SCALING)
        plain = dataclasses.replace(p, f=lambda x: p.f(x))
        x0 = np.ones(m) / self.SCALING.c
        got, want = (solve(q, method, x0, self.STOP) for q in (p, plain))
        assert got.status == want.status == "converged-by-residual"
        assert (got.n_evals, got.n_jac_evals) == (want.n_evals, want.n_jac_evals)
        for name in ("iterates", "residual_norms", "step_norms"):
            assert np.array_equal(getattr(got, name), getattr(want, name))

    @pytest.mark.parametrize("nested", [False, True])
    @pytest.mark.parametrize("method", [Steffensen(), ASIS()],
                             ids=["componentwise", "asis"])
    def test_n_evals_counts_each_stack_row_once(self, method, nested):
        rec, calls = recording(h_equation_problem(10, 0.78))
        p = apply_scaling(rec, self.SCALING)
        if nested:
            p = apply_scaling(p, LinearScaling(c=-0.6, k=2.5))
        x0 = np.ones(10) / (self.SCALING.c * (-0.6 if nested else 1.0))
        trace = solve(p, method, x0, self.STOP)
        assert trace.status == "converged-by-residual"
        assert trace.n_evals == len(calls["f"])
        assert trace.n_jac_evals == len(calls["jac"])


class TestAsisThroughSolve:
    def test_a_run_enters_solve_once(self, monkeypatch, f1):
        # ASIS steps in solve's own loop: no solve on G nested inside
        entered = []
        real = methods.solve

        def counting(*args):
            entered.append(args[1])
            return real(*args)

        monkeypatch.setattr(methods, "solve", counting)
        trace = methods.solve(f1, ASIS(), 0.0, STOP)
        assert trace.status == "converged-by-residual"
        assert trace.adimensional.n_steps == trace.n_steps > 0
        assert entered == [ASIS()]

    def test_the_package_root_runs_asis_through_solve(self):
        import adimsolve
        assert not hasattr(adimsolve, "asis_solve")
        assert not hasattr(adimsolve, "AsisResult")

    def test_other_methods_have_no_adimensional_trace(self, f1):
        for method in (Newton(), Steffensen(), Bisection(lo=0.0, hi=2.0)):
            assert solve(f1, method, 0.5, STOP).adimensional is None

    def test_f1_counts_every_call(self, f1):
        trace = solve(f1, ASIS(), 0.0, StoppingCriteria())
        assert trace.status == "converged-by-residual"
        assert (trace.n_evals, trace.n_jac_evals) == (15, 1)
        # the y-space trace counts G's calls: G(y0) and m + 1 per step
        assert (trace.adimensional.n_evals,
                trace.adimensional.n_jac_evals) == (13, 0)

    def test_a_rejected_form_is_a_status(self, f1):
        # F' 10% off: G'(y0) = -1/1.1
        p = Problem(f=f1.f, jacobian=lambda x: 1.1 * f1.jacobian(x))
        trace = solve(p, ASIS(), 0.0, STOP)
        assert trace.status == "form-rejected"
        assert trace.warnings[0].startswith(
            "adimensional form violates G'(y0) = -I")
        assert trace.iterates[0].tobytes() == np.array([0.0]).tobytes()
        assert (trace.n_evals, trace.n_jac_evals) == (3, 1)
        assert trace.adimensional is None

    def test_a_form_missing_the_unit_value_is_a_status(self):
        # F(x0) = (5e-324, 5e-324) rounds its norm to sigma = 5e-324, so
        # ||G(y0)|| = sqrt(2)
        p = linear_problem(1e-300 * np.eye(2), b=[-5e-324, -5e-324])
        trace = solve(p, ASIS(), [0.0, 0.0], STOP)
        assert trace.status == "form-rejected"
        assert trace.warnings == ["adimensional form violates "
                                  "||G(y0)|| = 1: residual 4.142e-01"]
        assert trace.adimensional is None

    def test_the_stop_is_relative_to_the_residual_at_x0(self, f1):
        # residual_tol bounds ||G(y)|| = ||F(x)||/sigma: f1 scaled by 1e6
        # stops at the step it stops at unscaled, with ||F(x)|| far above
        # residual_tol
        stop = StoppingCriteria(step_tol=0.0, residual_tol=1e-8)
        base = solve(f1, ASIS(), 0.0, stop)
        scaled = solve(apply_scaling(f1, LinearScaling(1.0, 1e6)), ASIS(),
                       0.0, stop)
        assert (scaled.status, scaled.n_steps) == (base.status, base.n_steps)
        assert scaled.status == "converged-by-residual"
        sigma = scaled.residual_norms[0]
        assert stop.residual_tol < scaled.residual_norms[-1]
        assert scaled.residual_norms[-1] <= sigma * stop.residual_tol
        assert (base.residual_norms[-1]
                <= base.residual_norms[0] * stop.residual_tol)

    def test_at_the_root_the_run_has_converged(self, f1):
        trace = solve(f1, ASIS(), 1.0, STOP)
        assert trace.status == "converged-by-residual"
        assert np.array_equal(trace.iterates, [[1.0]])
        assert trace.residual_norms == [0.0]
        assert trace.step_norms == []
        assert trace.n_evals == 1
        assert trace.adimensional is None

    def test_a_singular_derivative_is_a_status(self):
        p = linear_problem(np.diag([1.0, 1e-15]), b=[1.0, 1.0])
        trace = solve(p, ASIS(), [0.0, 0.0], STOP)
        assert trace.status == "singular-operator"
        assert trace.n_steps == 0
        assert trace.adimensional is None

    @pytest.mark.parametrize("p, x0", [
        (Problem(f=lambda x: x, jacobian=lambda x: 1.0), 5e-324),
        (apply_scaling(builtin_problem("example3"),
                       LinearScaling(1e150, 1e158)), [0.0, 0.0]),
        (Problem(f=np.log, jacobian=lambda x: 1.0 / x), 0.0)])
    def test_a_domain_failure_in_the_setup_is_a_status(self, p, x0):
        trace = solve(p, ASIS(), x0, STOP)
        assert trace.status == "domain-failure"
        assert trace.adimensional is None


class TestAsisSolve:
    """asis_solve, which the benchmark calls: solve's ASIS run, with a
    rejected form raised and G's counts reported as the x-trace's."""

    def test_a_rejected_form_raises(self, f1):
        p = Problem(f=f1.f, jacobian=lambda x: 1.1 * f1.jacobian(x))
        with pytest.raises(ValueError,
                           match=r"^adimensional form violates G'\(y0\) = -I"):
            asis_solve(p, 0.0, STOP)

    def test_the_x_trace_reports_gs_counts(self, f1):
        res = asis_solve(f1, 0.0, StoppingCriteria())
        trace = solve(f1, ASIS(), 0.0, StoppingCriteria())
        assert res.y_trace is res.x_trace.adimensional
        assert (res.x_trace.n_evals, res.x_trace.n_jac_evals) == (
            res.y_trace.n_evals, res.y_trace.n_jac_evals) == (13, 0)
        assert np.array_equal(res.x_trace.iterates, trace.iterates)
        assert res.x_trace.residual_norms == trace.residual_norms


INVARIANCE_STOP = StoppingCriteria(step_tol=0.0, residual_tol=1e-10,
                                   max_iter=100)


def run_asis(p, x0):
    trace = solve(p, ASIS(), x0, INVARIANCE_STOP)
    return trace, trace.adimensional.iterates


def run_steffensen(p, x0):
    return solve(p, Steffensen(), x0, INVARIANCE_STOP), None


def invariance_mismatches(run, p, x0, root, c, k):
    """How the run on x -> k F(c x) from x0/c differs from the run on F
    from x0, where the paper's claim says it must not: status and step
    count, the adimensional iterates (sign(k) y, to 1e-13), and the
    x-errors (divided by |c|, to rounding)."""
    x0, root = np.atleast_1d(x0), np.atleast_1d(root)
    base, y_base = run(p, x0)
    scaled, y_scaled = run(apply_scaling(p, LinearScaling(c, k)), x0 / c)
    found = []
    if (scaled.status, scaled.n_steps) != (base.status, base.n_steps):
        found.append(f"status {scaled.status} in {scaled.n_steps} steps, "
                     f"unscaled {base.status} in {base.n_steps}")
        return found
    if y_base is not None:
        dev = max(float(np.max(np.abs(ys - math.copysign(1.0, k) * yb)))
                  for ys, yb in zip(y_scaled, y_base))
        if not dev <= 1e-13:
            found.append(f"y-iterates off by {dev:.3g}")
    e_base = base.errors(root)
    e_scaled = scaled.errors(root / c) * abs(c)
    if not np.allclose(e_scaled, e_base, rtol=1e-12, atol=1e-13):
        found.append(f"x-errors off by {np.max(np.abs(e_scaled - e_base)):.3g}")
    return found


def scaled_jacobian_is_normal(p, x0, u, v):
    """Whether the scaled problem's own F'(x0/c) = k c F'(x0) has its
    nonzero entries in the normal range of a double, 10^(u + v) |F'(x0)|.
    Outside, the problem is not representable: its Jacobian overflows (f1
    at u + v > 308.7) or loses digits as a subnormal (below -307.2), and
    no double-precision solver sees the scaled problem at all."""
    J = np.abs(p.jac(x0))
    lo, hi = math.log10(J[J > 0.0].min()), math.log10(J.max())
    return (math.log10(sys.float_info.min) < u + v + lo
            and u + v + hi < math.log10(sys.float_info.max))


class TestScaleInvariance:
    """The paper's claim: ASIS's run is unchanged by x -> k F(c x)."""

    @pytest.mark.parametrize("name, x0, root", [
        ("f1", 0.0, 1.0), ("example3", [0.0, 0.0], [1.0, -1.0])])
    @given(u=st.floats(-150.0, 150.0), v=st.floats(-170.0, 160.0),
           sc=st.sampled_from([-1.0, 1.0]), sk=st.sampled_from([-1.0, 1.0]))
    @settings(max_examples=150, deadline=None)
    def test_asis_runs_are_scale_invariant(self, name, x0, root, u, v, sc, sk):
        p = builtin_problem(name)
        assume(scaled_jacobian_is_normal(p, x0, u, v))
        c, k = sc * 10.0 ** u, sk * 10.0 ** v
        assert invariance_mismatches(run_asis, p, x0, root, c, k) == []

    def test_beyond_the_normal_range_the_problem_fails_not_asis(self, f1):
        # k c F'(0) = 1e310 e^-1: the scaled problem's own Jacobian is inf
        p = apply_scaling(f1, LinearScaling(c=1e150, k=1e160))
        assert not scaled_jacobian_is_normal(f1, 0.0, 150.0, 160.0)
        with pytest.raises(DomainError):
            p.jac(0.0)

    def test_classic_steffensen_is_not(self, f1):
        # f2(x) = f1(2x): Steffensen's node x + F(x) mixes units
        found = invariance_mismatches(run_steffensen, f1, 0.0, 1.0, 2.0, 1.0)
        assert found and found[0].startswith("status max-iter")
        assert invariance_mismatches(run_asis, f1, 0.0, 1.0, 2.0, 1.0) == []


class TestTranslationInvariance:
    """The form about x0 does not see where x's origin is."""

    @pytest.mark.parametrize("name, x0, root", [
        ("f1", [0.0], [1.0]), ("example3", [0.0, 0.0], [1.0, -1.0])])
    @given(u=st.floats(0.0, 10.0), sign=st.sampled_from([-1.0, 1.0]))
    @settings(max_examples=150, deadline=None)
    def test_asis_finds_the_moved_root(self, name, x0, root, u, sign):
        # step counts are not asserted: the moved problem rounds its own
        # values, which moves them by a few steps
        t = sign * 10.0 ** u
        p = builtin_problem(name)
        base = solve(p, ASIS(), x0, INVARIANCE_STOP)
        res = solve(moved(p, t), ASIS(), np.array(x0) + t, INVARIANCE_STOP)
        assert res.status == base.status
        err = np.abs(res.x_final - t - np.array(root))
        assert np.all(err <= 1e-9 + 4.0 * np.finfo(float).eps * abs(t))


class TestStoppingCriteria:
    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            StoppingCriteria(step_tol=-1.0)

    @pytest.mark.parametrize("field", ["step_tol", "residual_tol"])
    def test_nan_tolerance_rejected(self, field):
        # a NaN residual_tol stopped nothing: every run went to max-iter
        with pytest.raises(ValueError, match="tolerances must be nonnegative"):
            StoppingCriteria(**{field: float("nan")})

    def test_zero_max_iter_rejected(self):
        with pytest.raises(ValueError):
            StoppingCriteria(max_iter=0)
