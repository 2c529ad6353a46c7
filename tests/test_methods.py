import dataclasses
import gc
import math
import sys
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adimsolve import adimensional
from adimsolve.adimensional import adimensionalize
from adimsolve.divdiff import DividedDifference
from adimsolve.experiments import _log10_error_table, halley_h
from adimsolve.methods import (ASIS, Bisection, DampedFirstOrder,
                               DampedSteffensen, FixedSlope, HFamily,
                               IterationTrace, Newton, Secant, Steffensen,
                               StoppingCriteria, asis_solve, h_family_step,
                               damped_steffensen_step, logarithmic_convexity,
                               newton_step, secant_step, solve,
                               steffensen_step)
from adimsolve.problems import (DomainError, LinearScaling, Problem,
                                SingularOperatorError, apply_scaling,
                                builtin_problem, solve_linear)

from conftest import (assert_euclidean_norm, h_equation_problem,
                      linear_problem, moved, random_quadratic_problem,
                      recording)

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
    """IterationTrace.to_rows, one numpy scalar at a time."""
    rows = []
    for n, x in enumerate(trace.iterates):
        step = "" if n == 0 else repr(float(trace.step_norms[n - 1]))
        rows.append([n] + [repr(float(v)) for v in x]
                    + [repr(float(trace.residual_norms[n])), step])
    return rows


def reference_log10_table(errs):
    """experiments._log10_error_table, one numpy scalar at a time."""
    rows = []
    for n in range(max(len(e) for e in errs.values())):
        rows.append([n] + [repr(math.log10(max(e[n], 1e-300)))
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
        assert trace.to_rows() == reference_rows(trace)
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
        assert trace.to_rows() == []
        assert trace.to_csv() == "n,res_norm,step_norm\n"
        errors = trace.errors([1.0, 2.0])
        assert errors.shape == (0,) and errors.dtype == np.float64

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


class TestAsis:
    def test_converges_on_f1(self, f1):
        res = asis_solve(f1, 0.0, STOP)
        assert res.x_trace.status.startswith("converged")
        assert abs(res.x_trace.x_final[0] - 1.0) < 1e-12

    def test_scale_invariance_f1_vs_f2(self, f1, f2):
        # f2(x) = f1(2x): identical adimensional iterates, x halved
        stop = StoppingCriteria(step_tol=0.0, residual_tol=1e-13, max_iter=50)
        r1 = asis_solve(f1, 0.0, stop)
        r2 = asis_solve(f2, 0.0, stop)
        y1 = np.array([y[0] for y in r1.y_trace.iterates])
        y2 = np.array([y[0] for y in r2.y_trace.iterates])
        n = min(len(y1), len(y2))
        assert np.allclose(y1[:n], y2[:n], atol=1e-13)
        x1 = np.array([x[0] for x in r1.x_trace.iterates])
        x2 = np.array([x[0] for x in r2.x_trace.iterates])
        assert np.allclose(x2[:n], x1[:n] / 2.0, atol=1e-13)

    def test_form_normalization(self, example3):
        res = asis_solve(example3, [0.0, 0.0], STOP)
        g = res.form.g
        assert g.vector_norm(g.evaluate(res.form.y0)) == pytest.approx(1.0,
                                                                       abs=1e-12)

    def test_back_transform_consistency(self, example3):
        res = asis_solve(example3, [0.0, 0.0], STOP)
        for y, x in zip(res.y_trace.iterates, res.x_trace.iterates):
            assert np.allclose(res.form.to_original(y), x, atol=1e-13)

    def test_converges_on_example3(self, example3):
        stop = StoppingCriteria(step_tol=0.0, residual_tol=1e-13, max_iter=200)
        res = asis_solve(example3, [0.0, 0.0], stop)
        assert res.x_trace.status.startswith("converged")
        assert np.allclose(res.x_trace.x_final, [1.0, -1.0], atol=1e-8)

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
        res = asis_solve(p, x0, StoppingCriteria())
        assert len(calls["f"]) == n_calls
        assert len({x.tobytes() for x in calls["f"]}) == n_calls
        # the reported count is still that of G's calls, G(y0) among them
        n_form = 2 * p.dimension + 1
        assert res.x_trace.n_evals == res.y_trace.n_evals == n_calls - n_form + 1
        assert res.x_trace.residual_norms[0] == p.vector_norm(res.form.f_c)

    @pytest.mark.parametrize("dd", ["componentwise", "integral"])
    @pytest.mark.parametrize("name, x0", [("f1", [0.0]),
                                          ("example3", [0.3, -0.7])])
    def test_back_transform_is_that_of_evaluating_every_iterate(self, dd, name,
                                                                x0):
        p = builtin_problem(name)
        res = asis_solve(p, x0, STOP, DividedDifference(dd))
        xs = [res.form.to_original(y) for y in res.y_trace.iterates]
        assert all(np.array_equal(a, b)
                   for a, b in zip(res.x_trace.iterates, xs))
        assert res.x_trace.residual_norms == [
            p.vector_norm(p.evaluate(x)) for x in xs]
        assert res.x_trace.step_norms == [
            p.vector_norm(b - a) for a, b in zip(xs, xs[1:])]

    def test_a_failure_in_the_first_step_keeps_the_residual_at_y0(self, f1):
        # F fails from its 4th call on: after the form's 2m + 1 = 3 calls,
        # at the first Steffensen node, since G(y0) is the form's F(x0)
        n_calls = [0]

        def f(x):
            n_calls[0] += 1
            return np.nan if n_calls[0] > 3 else f1.f(x)

        p = Problem(f=f, jacobian=f1.jacobian)
        res = asis_solve(p, 0.0, STOP)
        assert n_calls[0] == 4
        assert res.x_trace.status == "domain-failure"
        assert res.x_trace.residual_norms == [p.vector_norm(res.form.f_c)]
        assert np.array_equal(res.x_trace.iterates,
                              [res.form.to_original(res.form.y0)])
        assert res.x_trace.n_evals == 2     # G(y0) and the failed node

    @pytest.mark.parametrize("k", [1.0, 1e160, 1e-170])
    def test_converges_whatever_the_value_scale(self, f1, k):
        # ||F(x0)|| squared overflows at k = 1e160 and underflows at
        # k = 1e-170; sigma is still the norm, and the run is k = 1's
        p = apply_scaling(f1, LinearScaling(c=1.0, k=k))
        res = asis_solve(p, 0.0, StoppingCriteria(residual_tol=1e-10))
        assert res.x_trace.status == "converged-by-residual"
        assert res.x_trace.n_steps == 6
        assert abs(res.x_trace.x_final[0] - 1.0) < 1e-10

    @pytest.mark.parametrize("p, x0", [
        (builtin_problem("f1"), [0.0]),
        (builtin_problem("zigzag", b=0.1), [0.1, 1.0]),
        (builtin_problem("example3"), [0.3, -0.7])])
    def test_the_first_iterate_is_the_callers_x0(self, p, x0):
        # y0 = 0 maps back to x0 + 0, bit for bit the caller's x0
        res = asis_solve(p, x0, STOP)
        assert res.x_trace.iterates[0].tobytes() == np.array(x0).tobytes()

    @pytest.mark.parametrize("name, x0, root, n_steps", [
        ("f1", [0.0], [1.0], 6), ("example3", [0.0, 0.0], [1.0, -1.0], 7)])
    def test_converges_far_from_the_origin(self, name, x0, root, n_steps):
        # moved by 1e6 and started at the moved x0, the run is the unmoved
        # one's: y is centred at x0, so Steffensen in y never works on
        # numbers of size 1e6
        t = 1e6
        p = moved(builtin_problem(name), t)
        res = asis_solve(p, np.array(x0) + t, StoppingCriteria(0.0, 1e-15, 100))
        assert res.x_trace.status == "converged-by-residual"
        assert res.x_trace.n_steps == n_steps
        assert np.allclose(res.x_trace.x_final, np.array(root) + t,
                           rtol=0.0, atol=1e-9)

    @pytest.mark.parametrize("name, x0, n_lu_solves", [
        ("f1", 0.0, 14), ("example3", [0.0, 0.0], 23)])
    def test_each_point_is_mapped_to_x_once(self, monkeypatch, name, x0,
                                            n_lu_solves):
        # one solve for the check's directions, one for the seed y0 and one
        # per G call after G(y0): F - 2m + J in all; the back-transform
        # reads the x that G mapped
        n_calls = [0]
        real = adimensional.lu_solve

        def counting(*args, **kwargs):
            n_calls[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(adimensional, "lu_solve", counting)
        p, calls = recording(builtin_problem(name))
        asis_solve(p, x0, StoppingCriteria())
        m = p.dimension
        assert n_calls[0] == len(calls["f"]) - 2 * m + len(calls["jac"])
        assert n_calls[0] == n_lu_solves

    def test_a_non_finite_t_is_a_domain_failure(self):
        # F(x) = x from the least subnormal: sigma = 5e-324, T = -inf
        p = Problem(f=lambda x: x, jacobian=lambda x: 1.0)
        with pytest.raises(DomainError, match="non-finite T"):
            asis_solve(p, 5e-324, StoppingCriteria())

    def test_the_setup_runs_with_numpys_warnings_off(self, example3):
        # k c F'(x0) overflows in the Jacobian of the form's setup; with
        # pytest's error::RuntimeWarning a warning would escape instead
        p = apply_scaling(example3, LinearScaling(1e150, 1e158))
        with pytest.raises(DomainError, match="non-finite Jacobian"):
            asis_solve(p, [0.0, 0.0], StoppingCriteria())

    @pytest.mark.parametrize("dd", ["componentwise", "integral"])
    @pytest.mark.parametrize("p, x0", [
        (builtin_problem("f1"), [0.0]),
        (builtin_problem("example3"), [0.3, -0.7]),
        (apply_scaling(h_equation_problem(10, 0.78), LinearScaling(1.3, 0.7)),
         np.ones(10) / 1.3),
        (apply_scaling(h_equation_problem(100, 0.99), LinearScaling(1.3, 0.7)),
         np.ones(100) / 1.3),
    ])
    def test_traces_are_those_of_mapping_each_point_alone(self, dd, p, x0):
        # the reference runs Steffensen on a plain Problem over the form's
        # one-point G, a function without a stack of its own, so every row
        # of a stack is mapped to x by its own solve and evaluated by its
        # own call
        method = Steffensen(DividedDifference(dd))
        res = asis_solve(p, x0, STOP, method.dd)
        g = res.form.g
        ref = solve(Problem(f=lambda y: g.f(y), jacobian=g.jacobian,
                            dimension=g.dimension, norm=g.norm),
                    method, res.form.y0, STOP)
        xs = [res.form.to_original(y) for y in ref.iterates]
        assert res.y_trace.status == ref.status
        assert len(res.y_trace.iterates) == len(ref.iterates) > 2
        for a, b in ((res.y_trace.iterates, ref.iterates),
                     (res.x_trace.iterates, xs)):
            assert all(np.array_equal(u, v) for u, v in zip(a, b))
        assert res.y_trace.residual_norms == ref.residual_norms
        assert res.y_trace.step_norms == ref.step_norms
        assert res.x_trace.residual_norms == [p.vector_norm(p.evaluate(x))
                                              for x in xs]
        assert (res.x_trace.n_evals, res.y_trace.n_evals) == (ref.n_evals,) * 2
        assert res.y_trace.n_jac_evals == ref.n_jac_evals

    def test_a_failure_inside_gs_stack_counts_every_row(self):
        # F fails at the first telescope point (its 6th call, after the
        # setup's 2m + 1 = 5): the stack evaluates its second row before
        # its finiteness test, and both entry points count both
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
        res = asis_solve(p, [0.0, 0.0], STOP)
        assert res.x_trace.status == "domain-failure"
        assert n_calls[0] == 7
        assert res.x_trace.n_evals == res.y_trace.n_evals == 7 - 2 * 2
        n_calls[0] = 0
        trace = solve(p, ASIS(), [0.0, 0.0], STOP)
        assert trace.status == "domain-failure"
        assert trace.n_evals == n_calls[0] == 7

    def test_the_form_is_freed_without_the_garbage_collector(self):
        # G refers to its form and the form not to G: no reference cycle
        # keeps T and its factors alive after a solve
        gc.disable()
        try:
            res = asis_solve(h_equation_problem(10, 0.78), np.ones(10), STOP)
            form = weakref.ref(res.form)
            del res
            assert form() is None
        finally:
            gc.enable()

    def test_solve_on_the_forms_g_counts_its_stacks(self):
        # solve's count of G's calls takes each row of a componentwise
        # telescope's stack as one call, as G's per-point evaluation would
        # have taken it
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
        ref = solve(Problem(f=lambda y: g.f(y), jacobian=g.jacobian,
                            dimension=m), method, form.y0, STOP)
        assert trace.n_evals == ref.n_evals > trace.n_steps * m
        assert all(np.array_equal(a, b)
                   for a, b in zip(trace.iterates, ref.iterates))

    def test_a_step_costs_m_plus_one_f_calls_and_solves(self, monkeypatch):
        # H-equation at m = 100: the setup's 2m + 1 F calls, then per step
        # the m telescope points of one stack and the new iterate, each
        # mapped to x by one solve
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
        res = asis_solve(p, np.ones(m), stop)
        n = res.x_trace.n_steps
        assert res.x_trace.status == "converged-by-residual" and n == 3
        assert len(calls["f"]) == 2 * m + 1 + n * (m + 1)
        assert res.x_trace.n_evals == res.y_trace.n_evals == 1 + n * (m + 1)
        assert n_solves[0] == 2 + n * (m + 1)
        trace = solve(p, ASIS(), np.ones(m), stop)
        assert trace.n_evals == 2 * m + 1 + n * (m + 1)


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
    @pytest.mark.parametrize("dd", ["componentwise", "integral"])
    @pytest.mark.parametrize("problem, x0", [
        (builtin_problem("f1"), 0.0), (builtin_problem("f1"), 2.5),
        (builtin_problem("example3"), [0.0, 0.0]),
        (builtin_problem("zigzag", b=0.1), [0.1, 1.0])])
    def test_the_trace_is_asis_solves(self, dd, problem, x0):
        p, calls = recording(problem)
        method = ASIS(DividedDifference(dd))
        trace = solve(p, method, x0, STOP)
        n_f, n_jac = len(calls["f"]), len(calls["jac"])
        ref = asis_solve(p, x0, STOP, method.dd).x_trace
        assert trace.status == ref.status
        assert len(trace.iterates) == len(ref.iterates)
        assert all(np.array_equal(a, b)
                   for a, b in zip(trace.iterates, ref.iterates))
        assert trace.residual_norms == ref.residual_norms
        assert trace.step_norms == ref.step_norms
        assert trace.warnings == ref.warnings
        # solve counts the form's setup too
        assert (trace.n_evals, trace.n_jac_evals) == (n_f, n_jac)
        assert trace.n_evals == ref.n_evals + 2 * p.dimension

    def test_f1_counts_every_call(self, f1):
        trace = solve(f1, ASIS(), 0.0, StoppingCriteria())
        assert trace.status == "converged-by-residual"
        assert (trace.n_evals, trace.n_jac_evals) == (15, 1)

    def test_a_rejected_form_is_a_status(self, f1):
        # F' 10% off: G'(y0) = -1/1.1
        p = Problem(f=f1.f, jacobian=lambda x: 1.1 * f1.jacobian(x))
        trace = solve(p, ASIS(), 0.0, STOP)
        assert trace.status == "form-rejected"
        assert trace.warnings[0].startswith(
            "adimensional form violates G'(y0) = -I")
        assert trace.iterates[0].tobytes() == np.array([0.0]).tobytes()
        assert (trace.n_evals, trace.n_jac_evals) == (3, 1)

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

    def test_a_singular_derivative_is_a_status(self):
        p = linear_problem(np.diag([1.0, 1e-15]), b=[1.0, 1.0])
        trace = solve(p, ASIS(), [0.0, 0.0], STOP)
        assert trace.status == "singular-operator"
        assert trace.n_steps == 0

    @pytest.mark.parametrize("p, x0", [
        (Problem(f=lambda x: x, jacobian=lambda x: 1.0), 5e-324),
        (apply_scaling(builtin_problem("example3"),
                       LinearScaling(1e150, 1e158)), [0.0, 0.0]),
        (Problem(f=np.log, jacobian=lambda x: 1.0 / x), 0.0)])
    def test_a_domain_failure_in_the_setup_is_a_status(self, p, x0):
        assert solve(p, ASIS(), x0, STOP).status == "domain-failure"


INVARIANCE_STOP = StoppingCriteria(step_tol=0.0, residual_tol=1e-10,
                                   max_iter=100)


def run_asis(p, x0):
    res = asis_solve(p, x0, INVARIANCE_STOP)
    return res.x_trace, res.y_trace.iterates


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
        base = asis_solve(p, x0, INVARIANCE_STOP).x_trace
        res = asis_solve(moved(p, t), np.array(x0) + t, INVARIANCE_STOP).x_trace
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
