import math

import numpy as np
import pytest

from adimsolve.divdiff import DividedDifference
from adimsolve.methods import (ASIS, Bisection, DampedFirstOrder,
                               DampedSteffensen, FixedSlope, HFamily, Newton,
                               Secant, Steffensen, StoppingCriteria,
                               asis_solve, h_family_step,
                               damped_steffensen_step, logarithmic_convexity,
                               newton_step, secant_step, solve,
                               steffensen_step)
from adimsolve.problems import (Problem, SingularOperatorError,
                                builtin_problem, solve_linear)

from conftest import linear_problem, random_quadratic_problem, recording

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
                           DividedDifference("scalar"))[0] == 1.75

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
        (Steffensen(dd=DividedDifference("scalar")),
         "the scalar divided difference"),
        (DampedSteffensen(lam=0.5, dd=DividedDifference("scalar")),
         "the scalar divided difference"),
    ])
    def test_scalar_only_method_on_a_vector_problem(self, example3, method, what):
        p, calls = recording(example3)
        trace = solve(p, method, [0.0, 0.0], StoppingCriteria())
        assert trace.status == "domain-failure"
        assert trace.warnings == [f"{what} is scalar-only"]
        assert trace.n_evals == len(calls["f"]) == 0
        assert trace.iterates == []

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


class TestTraceSerialization:
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

    def test_each_point_is_evaluated_once(self, example3):
        # 2m + 2 = 6 for the form, then 1 + (m + 1) per step on G; the
        # back-transform reuses the F(x) behind each G(y).  x0,
        # x_c = T^-1 T x0 and G(y0) share the point (0, 0)
        p, calls = recording(example3)
        res = asis_solve(p, [0.0, 0.0], StoppingCriteria())
        n = res.y_trace.n_steps
        assert n == 7
        assert len(calls["f"]) == 6 + 1 + 3 * n == 28
        assert len(np.unique(np.array(calls["f"]), axis=0)) == 26
        # the reported count is still that of the solve on G
        assert res.x_trace.n_evals == res.y_trace.n_evals == 1 + 3 * n

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

    def test_a_failure_of_g_at_y0_leaves_a_nan_residual(self, f1):
        # F fails from its 5th call on: after the form's 2m + 2 = 4 calls,
        # at G(y0) in the solve
        n_calls = [0]

        def f(x):
            n_calls[0] += 1
            return np.nan if n_calls[0] > 4 else f1.f(x)

        p = Problem(f=f, jacobian=f1.jacobian)
        res = asis_solve(p, 0.0, STOP)
        assert res.x_trace.status == "domain-failure"
        assert np.isnan(res.x_trace.residual_norms[0])
        assert np.array_equal(res.x_trace.iterates,
                              [res.form.to_original(res.form.y0)])


class TestStoppingCriteria:
    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            StoppingCriteria(step_tol=-1.0)

    def test_zero_max_iter_rejected(self):
        with pytest.raises(ValueError):
            StoppingCriteria(max_iter=0)
