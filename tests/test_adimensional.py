import dataclasses
import math
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from adimsolve import adimensional, problems
from adimsolve.adimensional import (AdimensionalPolynomial,
                                    adimensional_polynomial, adimensionalize,
                                    check_normalization)
from adimsolve.divdiff import componentwise_dd
from adimsolve.problems import (AlreadyAtRootError, DomainError,
                                LinearScaling, Problem,
                                SingularOperatorError, apply_scaling,
                                builtin_problem)

from conftest import (h_equation_problem, linear_problem, moved,
                      random_quadratic_problem, recording, spelled_out_g,
                      spelled_out_stack)

E = math.e


class TestAdimensionalize:
    def test_scalar_form_f1(self, f1):
        # at x0 = 0: sigma = 1 - e^-1, T = -e^-1/sigma
        form = adimensionalize(f1, 0.0)
        sigma = 1.0 - 1.0 / E
        assert form.sigma == pytest.approx(sigma, rel=1e-15)
        assert form.T[0, 0] == pytest.approx(-1.0 / (E * sigma), rel=1e-14)
        assert form.y0[0] == 0.0

    def test_normalization_conditions(self, example3):
        form = adimensionalize(example3, [0.0, 0.0])
        report = check_normalization(form)
        assert report["value_residual"] <= 1e-12
        assert report["derivative_residual"] <= 1e-8

    def test_round_trip_transform(self, example3):
        form = adimensionalize(example3, [0.3, -0.7])
        x = np.array([1.4, 0.2])
        assert np.allclose(form.to_original(form.to_adimensional(x)), x,
                           atol=1e-13)

    def test_g_vanishes_at_transformed_root(self, f1):
        form = adimensionalize(f1, 0.0)
        y_root = form.to_adimensional([1.0])
        assert abs(form.g.evaluate(y_root)[0]) < 1e-14

    def test_invariant_under_rescaling(self, f1):
        # G built from k*F(c x) at x0/c coincides with G built from F at x0
        form = adimensionalize(f1, 0.0)
        for c, k in ((2.0, 1.0), (0.5, 7.0), (-3.0, 0.2)):
            scaled = apply_scaling(f1, LinearScaling(c=c, k=k))
            form_s = adimensionalize(scaled, 0.0)
            for y in (-0.5, 0.0, 0.4, 0.9):
                assert form_s.g.evaluate([y])[0] == pytest.approx(
                    form.g.evaluate([y])[0], rel=1e-12, abs=1e-13)

    def test_invariant_under_matrix_change_of_values(self, example3):
        # left-multiplying F by a fixed matrix changes F but not ||G(y0)||
        A = np.array([[2.0, 1.0], [0.0, 3.0]])
        base = example3
        p = builtin_problem("example3")
        mixed = p.__class__(f=lambda v: A @ np.asarray(base.f(v), dtype=float),
                            jacobian=lambda v: A @ np.asarray(base.jacobian(v),
                                                              dtype=float),
                            dimension=2, name="mixed")
        form = adimensionalize(mixed, [0.0, 0.0])
        report = check_normalization(form)
        assert report["value_residual"] <= 1e-12
        assert report["derivative_residual"] <= 1e-8

    def test_invariant_under_translation(self, f1):
        # G built from F(x - t) at x0 + t is G built from F at x0, up to
        # the rounding of x0 + t + T^-1 y
        form = adimensionalize(f1, 0.0)
        for t in (1.0, -1e3, 1e6):
            form_t = adimensionalize(moved(f1, t), t)
            for y in (-0.5, 0.0, 0.4, 0.9):
                assert form_t.g.evaluate([y])[0] == pytest.approx(
                    form.g.evaluate([y])[0], rel=0.0,
                    abs=1e-15 + 8.0 * np.finfo(float).eps * abs(t))

    def test_already_at_root(self, f1):
        with pytest.raises(AlreadyAtRootError):
            adimensionalize(f1, 1.0)

    @pytest.mark.parametrize("k", [1e-170, 1e160])
    def test_sigma_is_the_norm_at_any_value_scale(self, f1, k):
        # ||F(x0)||^2 underflows at 1e-170 and overflows at 1e160
        form = adimensionalize(apply_scaling(f1, LinearScaling(1.0, k)), 0.0)
        assert form.sigma == pytest.approx(k * (1.0 - math.exp(-1.0)),
                                           rel=1e-15)
        assert form.T[0, 0] == pytest.approx(-1.0 / (math.e - 1.0), rel=1e-15)

    def test_singular_derivative(self):
        p = linear_problem(np.array([[1.0, 1.0], [1.0, 1.0]]), b=[1.0, 0.0])
        with pytest.raises(SingularOperatorError):
            adimensionalize(p, [0.0, 0.0])

    def test_derivative_is_gated_by_the_step_operators_test(self):
        # T is judged by factor_nonsingular's gecon floor of 1e-14, as every
        # step operator is
        p = linear_problem(np.diag([1.0, 1e-15]), b=[1.0, 1.0])
        with pytest.raises(SingularOperatorError,
                           match=r"singular linear operator \(rcond < 1e-14\)"):
            adimensionalize(p, [0.0, 0.0])
        form = adimensionalize(linear_problem(np.diag([1.0, 1e-13]),
                                              b=[1.0, 1.0]), [0.0, 0.0])
        assert form.T[1, 1] == -1e-13 / math.sqrt(2.0)

    @pytest.mark.parametrize("problem, x0", [
        (builtin_problem("f1"), [0.0]),
        (builtin_problem("example3"), [0.3, -0.7]),
        (h_equation_problem(10, 0.78), np.ones(10)),
        (h_equation_problem(100, 0.78), np.ones(100)),
    ])
    def test_t_factors_are_those_of_scipy_lu_factor(self, problem, x0):
        form = adimensionalize(problem, x0)
        lu, piv = scipy.linalg.lu_factor(form.T)
        assert np.array_equal(form._lu[0], lu)
        assert np.array_equal(form._lu[1], piv)

    def test_analytic_g_jacobian_minus_identity(self, example3):
        form = adimensionalize(example3, [0.0, 0.0])
        Jg = form.g.jac(form.y0)
        assert np.allclose(Jg, -np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("m", [1, 3])
    def test_analytic_g_jacobian_away_from_y0(self, m):
        # a non-symmetric F' tells F'(x) T^-1 from its transposes
        p = random_quadratic_problem(np.random.default_rng(m), m)
        form = adimensionalize(p, np.zeros(m))
        y = form.y0 + 0.1
        x = form.to_original(y)
        expected = p.jac(x) @ np.linalg.inv(form.T) / form.sigma
        assert np.allclose(form.g.jac(y), expected, rtol=1e-12, atol=0.0)


    @pytest.mark.parametrize("problem, x0", [
        (builtin_problem("f1"), [0.0]),
        (builtin_problem("example3"), [0.3, -0.7]),
        (random_quadratic_problem(np.random.default_rng(3), 3), np.zeros(3)),
    ])
    def test_g_values_are_those_of_scipy_lu_solve(self, problem, x0):
        # G solves with LAPACK getrs on T's factors, as scipy's lu_solve does
        form = adimensionalize(problem, x0)
        for shift in (0.0, 0.05, -0.3):
            y = form.y0 + shift
            x = form.x0 + scipy.linalg.lu_solve(form._lu, y)
            assert np.array_equal(form.to_original(y), x)
            assert np.array_equal(form.g.evaluate(y),
                                  problem.evaluate(x) / form.sigma)
            Jg = scipy.linalg.lu_solve(form._lu, problem.jac(x).T, trans=1).T
            assert np.array_equal(form.g.jac(y), Jg / form.sigma)

    def test_the_solve_is_the_librarys_one_lu_solve(self):
        assert adimensional.lu_solve is problems.lu_solve

    def test_g_jac_at_a_non_finite_point_fails_in_f_prime(self, f1):
        # only to_original checks its y; G' judges F' at x = x0 + T^-1 y
        form = adimensionalize(f1, 0.0)
        with pytest.raises(DomainError, match="non-finite input point"):
            form.g.jac([np.nan])

    def test_g_jac_where_x_is_minus_inf_fails_in_f_prime(self, f1):
        # y = inf maps to x = -inf, where f1' = exp(x - 1) reads 0.0
        form = adimensionalize(f1, 0.0)
        with pytest.raises(DomainError, match="non-finite input point"):
            form.g.jac([np.inf])

    def test_back_transform_rejects_a_non_finite_point(self, example3):
        form = adimensionalize(example3, [0.0, 0.0])
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            form.to_original([np.nan, 0.0])

    @pytest.mark.parametrize("m", [10, 100])
    def test_h_equation_form_is_accepted(self, m):
        # the G'(y0) check's own difference step keeps its rounding noise
        # far below the 1e-8 tolerance (fd_jacobian's 1e-7 left ~1.3e-8 at
        # m = 100 and rejected this form)
        form = adimensionalize(h_equation_problem(m, 0.78), np.ones(m))
        assert check_normalization(form)["derivative_residual"] < 1e-9

    @pytest.mark.parametrize("shift", [100.0, 1000.0])
    def test_translated_form_is_accepted(self, shift):
        # f1 moved by `shift`, from x0 = shift: the form is centred at x0,
        # so y0 is 0 whatever the shift
        p = Problem(f=lambda x: np.exp(x - 1.0 - shift) - 1.0,
                    jacobian=lambda x: np.exp(x - 1.0 - shift))
        form = adimensionalize(p, shift)
        assert form.y0[0] == 0.0
        assert check_normalization(form)["derivative_residual"] < 1e-9

    @pytest.mark.parametrize("shift", [1e4, 1e5, 1e6])
    def test_translated_form_is_accepted_where_x0_rounds_the_step(self, shift):
        # x0 +- D rounds by an ulp of the shift, ~1e-7 (1e4) to ~1e-5 (1e6)
        # of the step, which a quotient over the nominal 2h turns into a
        # residual of 2.7e-8, 2.4e-7 and 1.9e-6; the check divides by the
        # step x0 +- D actually represents
        p = Problem(f=lambda x: np.exp(x - 1.0 - shift) - 1.0,
                    jacobian=lambda x: np.exp(x - 1.0 - shift))
        report = check_normalization(adimensionalize(p, shift))
        assert report["derivative_residual"] < 1e-9
        assert report["value_residual"] <= 1e-15

    @pytest.mark.parametrize("x0", [0.0, 0.5])
    def test_sigma_off_by_1e_9_is_rejected(self, f1, x0):
        # sigma off by 1e-9 relative puts ||G(y0)|| = ||F(x0)||/sigma 1e-9
        # below 1
        form = adimensionalize(f1, x0)
        off = dataclasses.replace(form, sigma=form.sigma * (1.0 + 1e-9))
        residual = check_normalization(off)["value_residual"]
        assert adimensional.NORMALIZATION_TOL < residual < 1.1e-9

    @pytest.mark.parametrize("m, x0", [(1, 0.0), (1, 0.5), (3, None),
                                       (10, None)])
    def test_form_evaluates_each_point_once_and_one_jacobian(self, m, x0):
        # F(x0), which also gives ||G(y0)||, and 2m difference points
        p, calls = recording(h_equation_problem(m, 0.78) if m > 1
                             else builtin_problem("f1"))
        form = adimensionalize(p, np.ones(m) if x0 is None else x0)
        assert len(calls["f"]) == 2 * m + 1
        assert len({x.tobytes() for x in calls["f"]}) == len(calls["f"])
        assert len(calls["jac"]) == 1
        assert calls["f"][0].tobytes() == form.x0.tobytes()
        assert np.array_equal(form.f_c, p.evaluate(form.x0))

    def test_lu_solve_calls_do_not_grow_with_m(self, monkeypatch):
        n_calls = {"lu_solve": 0}
        real = adimensional.lu_solve

        def counting(*args, **kwargs):
            n_calls["lu_solve"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(adimensional, "lu_solve", counting)
        per_m = []
        for m in (2, 3, 10, 30):
            n_calls["lu_solve"] = 0
            adimensionalize(h_equation_problem(m, 0.78), np.ones(m))
            per_m.append(n_calls["lu_solve"])
        # W = T^-1, one solve; the check's m directions are h W
        assert per_m == [1, 1, 1, 1]

    @pytest.mark.parametrize("m", [10, 100])
    def test_jacobian_off_by_1e_7_in_one_entry_is_rejected(self, m):
        p = h_equation_problem(m, 0.78)
        E = np.zeros((m, m))
        E[m // 2, 0] = 1e-7
        wrong = dataclasses.replace(p, jacobian=lambda x: p.jacobian(x) + E)
        with pytest.raises(ValueError, match=r"violates G'\(y0\) = -I"):
            adimensionalize(wrong, np.ones(m))

    def test_jacobian_wrong_off_the_start_direction_is_rejected(self):
        # F(x) = x - b with Jacobian I + E, ||E|| = 5e-8 along (1, -1, 0) and
        # only 7.5e-9 along (1, 1, 1): a power iteration started at
        # (1, 1, 1)/sqrt 3 read ||G'(y0) + I|| as 7.5e-9 and accepted it
        V = np.column_stack([np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0),
                             np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0),
                             np.array([1.0, 1.0, -2.0]) / math.sqrt(6.0)])
        Q = np.linalg.qr(np.random.default_rng(4).standard_normal((3, 3)))[0]
        E = 5e-8 * Q @ np.diag([1.0, 0.15, 0.1]) @ V.T
        b = np.array([1.0, 2.0, 3.0])
        p = Problem(f=lambda x: x - b, jacobian=lambda x: np.eye(3) + E,
                    dimension=3)
        with pytest.raises(ValueError,
                           match=r"violates G'\(y0\) = -I: residual 5\.0"):
            adimensionalize(p, np.zeros(3))

    @pytest.mark.parametrize("eps, accepted", [(5e-9, True), (2e-8, False)])
    def test_a_rank_one_jacobian_error_is_judged_at_the_tolerance(self, eps,
                                                                  accepted):
        # F(x) = x - b with Jacobian I + eps u v^T, u and v orthogonal unit
        # vectors: R = G'(y0) + I = eps u v^T, whose Frobenius norm is its
        # largest singular value, so the pre-test decides at the tolerance
        # itself
        u = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0)
        v = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
        b = np.array([1.0, 2.0, 3.0])
        p = Problem(f=lambda x: x - b,
                    jacobian=lambda x: np.eye(3) + eps * np.outer(u, v),
                    dimension=3)
        if accepted:
            form = adimensionalize(p, np.zeros(3))
            assert check_normalization(form)["derivative_residual"] == \
                pytest.approx(eps, rel=1e-6)
        else:
            with pytest.raises(ValueError,
                               match=r"violates G'\(y0\) = -I: residual 2\.000e-08"):
                adimensionalize(p, np.zeros(3))

    @pytest.mark.parametrize("norm, n_norms", [("euclidean", 0), ("max", 1)])
    def test_an_accepted_form_takes_no_svd(self, monkeypatch, norm, n_norms):
        # ||R||_2 <= ||R||_F: a Frobenius norm within the tolerance accepts
        # the form; the max norm keeps its row sum
        calls = []
        real = Problem.operator_norm

        def counting(self, A):
            calls.append(A.shape)
            return real(self, A)

        monkeypatch.setattr(Problem, "operator_norm", counting)
        p = dataclasses.replace(h_equation_problem(10, 0.78), norm=norm)
        adimensionalize(p, np.ones(10))
        assert len(calls) == n_norms

    def test_a_subnormal_residual_misses_the_unit_value(self):
        # F(x0) = (5e-324, 5e-324): its norm, sqrt(2) * 5e-324, rounds to
        # sigma = 5e-324, so ||F(x0)/sigma|| = sqrt(2)
        p = linear_problem(1e-300 * np.eye(2), b=[-5e-324, -5e-324])
        with pytest.raises(ValueError, match=r"^adimensional form violates "
                           r"\|\|G\(y0\)\|\| = 1: residual 4\.142e-01$"):
            adimensionalize(p, [0.0, 0.0])

    def test_a_rejection_quotes_the_exact_norm(self):
        # F(x) = x - b with Jacobian I + E, E's singular values 5e-8 and
        # 2.5e-8: R ~ E, whose Frobenius norm, 5.59e-8, fails the pre-test;
        # the message quotes the largest singular value
        Q = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))[0]
        V = np.linalg.qr(np.random.default_rng(6).standard_normal((3, 3)))[0]
        E = Q @ np.diag([5e-8, 2.5e-8, 0.0]) @ V.T
        b = np.array([1.0, 2.0, 3.0])
        p = Problem(f=lambda x: x - b, jacobian=lambda x: np.eye(3) + E,
                    dimension=3)
        with pytest.raises(ValueError,
                           match=r"violates G'\(y0\) = -I: residual 5\.000e-08$"):
            adimensionalize(p, np.zeros(3))


def stack_telescope(m, dead):
    """The telescope of points z_k = (y[:k], x[k:]) between two points near
    y0 = 0 of an m-dimensional form, columns `dead` coincident."""
    rng = np.random.default_rng(m)
    x, y = rng.uniform(-0.1, 0.1, m), rng.uniform(-0.1, 0.1, m)
    y[dead] = x[dead]
    return np.where(np.tri(m + 1, m, -1, dtype=bool), y, x)


class TestGStack:
    """G's stack: the rows mapped to x by one product with W = T^-1, F one
    stack; the reference, spelled_out_stack, writes the product out."""

    @pytest.mark.parametrize("m", [2, 10, 100])
    @pytest.mark.parametrize("dead", [[], [0], [1, -1]])
    def test_stack_is_the_spelled_out_product(self, m, dead):
        form = adimensionalize(h_equation_problem(m, 0.78), np.ones(m))
        assert form.g.f is form
        Y = stack_telescope(m, dead)
        GY = np.empty_like(Y)
        form.g._evaluate_stack(Y, GY)
        assert np.array_equal(GY, spelled_out_stack(form, Y))

    def test_w_is_the_solve_of_the_identity(self):
        # W = T^-1 from T's factors by one getrs, as scipy's lu_solve
        form = adimensionalize(h_equation_problem(10, 0.78), np.ones(10))
        assert np.array_equal(form.W,
                              scipy.linalg.lu_solve(form._lu, np.eye(10)))

    @pytest.mark.parametrize("m", [2, 10, 100])
    @pytest.mark.parametrize("kappa", [None, 1e6])
    def test_rows_agree_with_solving_each_point_alone(self, m, kappa):
        # the product's rows and the one-column solves are two roundings of
        # T^-1 y, each within a small multiple of kappa(T) eps of it
        # (Higham, Accuracy and Stability of Numerical Algorithms, ch. 3
        # and 14), so within m kappa(T) eps of each other.  The H-equation's
        # T has kappa ~1.5; the linear map's was built with kappa = 1e6
        if kappa is None:
            form = adimensionalize(h_equation_problem(m, 0.78), np.ones(m))
        else:
            rng = np.random.default_rng(m)
            U = np.linalg.qr(rng.standard_normal((m, m)))[0]
            V = np.linalg.qr(rng.standard_normal((m, m)))[0]
            A = U @ np.diag(np.geomspace(1.0, 1.0 / kappa, m)) @ V.T
            form = adimensionalize(linear_problem(A, rng.standard_normal(m)),
                                   np.zeros(m))
        bound = m * np.linalg.cond(form.T) * np.finfo(float).eps
        Y = stack_telescope(m, [])
        for y, x in zip(Y, form.x0 + Y @ form.W.T):
            alone = form.to_original(y)
            assert (np.linalg.norm(x - alone)
                    <= bound * np.linalg.norm(alone - form.x0))

    @pytest.mark.parametrize("x0, bad_y, message", [
        (1e-10, lambda form: [np.nan, 0.0], "non-finite input point"),
        # sigma ~ 1.4e-10, so F(x)/sigma overflows where F(x) is finite
        (1e-10, lambda form: form.to_adimensional([700.0, 0.5]),
         "domain failure: non-finite value of F"),
        # T^-1 ~ -1.4 I: a finite y maps to x = -inf
        (5.0, lambda form: [sys.float_info.max, 0.0], "non-finite input point"),
    ])
    def test_a_failing_row_raises_the_per_row_message(self, x0, bad_y,
                                                      message):
        p = Problem(f=np.expm1, jacobian=lambda x: np.diag(np.exp(x)),
                    dimension=2)
        form = adimensionalize(p, np.full(2, x0))
        Y = np.array([form.y0 + 0.01, bad_y(form)])
        with np.errstate(over="ignore"):
            with pytest.raises(DomainError) as per_row:
                for y in Y:
                    form.g.evaluate(y)
            with pytest.raises(DomainError) as stacked:
                form.g._evaluate_stack(Y, np.empty_like(Y))
        assert str(per_row.value) == str(stacked.value) == message

    def test_one_operator_is_one_f_stack(self, monkeypatch):
        m = 10
        p, calls = recording(h_equation_problem(m, 0.78))
        form = adimensionalize(p, np.ones(m))
        stacks = []
        real = Problem._evaluate_stack

        def counting(self, Z, FZ):
            stacks.append((self, len(Z)))
            return real(self, Z, FZ)

        monkeypatch.setattr(Problem, "_evaluate_stack", counting)
        n_f = len(calls["f"])
        Z = stack_telescope(m, [])
        g = form.g
        componentwise_dd(g, Z[0], Z[-1])
        assert [(s is g, s is p, n) for s, n in stacks] == [
            (True, False, m + 1), (False, True, m + 1)]
        assert len(calls["f"]) - n_f == m + 1

    @pytest.mark.parametrize("m", [2, 10])
    def test_a_scaled_g_is_scaled_in_its_stacks_too(self, m):
        # apply_scaling replaces G's f by y -> k G(c y), whose stack hands
        # the rows times c to G's stack: the bits of the spelled-out G's
        form = adimensionalize(h_equation_problem(m, 0.78), np.ones(m))
        s = LinearScaling(c=1.5, k=-3.0)
        scaled = apply_scaling(form.g, s)
        Z = stack_telescope(m, [])
        A = componentwise_dd(scaled, Z[0], Z[-1])
        assert np.array_equal(
            A, componentwise_dd(apply_scaling(spelled_out_g(form), s),
                                Z[0], Z[-1]))
        assert not np.array_equal(A, componentwise_dd(form.g, Z[0], Z[-1]))

    def test_a_copy_with_another_sigma_has_its_own_g(self):
        form = adimensionalize(h_equation_problem(10, 0.78), np.ones(10))
        off = dataclasses.replace(form, sigma=2.0 * form.sigma)
        Y = stack_telescope(10, [])
        GY, GY_off = np.empty_like(Y), np.empty_like(Y)
        form.g._evaluate_stack(Y, GY)
        off.g._evaluate_stack(Y, GY_off)
        assert off.g.f is off
        assert np.array_equal(GY_off, GY / 2.0)
        assert np.array_equal(GY_off, spelled_out_stack(off, Y))


class TestAdimensionalPolynomial:
    def test_quadratic_values(self):
        q = AdimensionalPolynomial(a=0.5)
        assert q(0.0) == 1.0
        assert q(2.0) == 0.0  # double root at s = 1/a = 2
        assert q.derivative(0.0) == -1.0
        assert q.second_derivative(1.3) == 0.5

    def test_cubic_values(self):
        q = AdimensionalPolynomial(a=0.4, b=0.6)
        s = 1.5
        assert q(s) == pytest.approx(0.1 * s ** 3 + 0.2 * s ** 2 - s + 1.0)
        assert q.derivative(s) == pytest.approx(0.3 * s ** 2 + 0.4 * s - 1.0)
        assert q.second_derivative(s) == pytest.approx(0.6 * s + 0.4)

    @pytest.mark.parametrize("a, b", [(0.3, 0.0), (0.5, 0.7), (1e10, 1e20)])
    def test_normalized_at_zero(self, a, b):
        q = AdimensionalPolynomial(a=a, b=b)
        assert q(0.0) == 1.0
        assert q.derivative(0.0) == -1.0

    def test_as_problem(self):
        q = AdimensionalPolynomial(a=0.5)
        p = q.as_problem()
        assert p.evaluate(2.0)[0] == 0.0
        assert p.jac(0.0)[0, 0] == -1.0
        assert p.second_derivative(0.0) == 0.5

    def test_negative_coefficients_rejected(self):
        with pytest.raises(ValueError):
            AdimensionalPolynomial(a=-0.1)

    @pytest.mark.parametrize("a, b", [(float("nan"), 0.0), (0.1, float("nan")),
                                      (float("inf"), 0.1), (0.1, float("inf"))])
    def test_nan_coefficients_rejected(self, a, b):
        # AdimensionalPolynomial(a=inf, b=0.1)(0.0) read nan
        with pytest.raises(ValueError, match="a and b must be nonnegative"):
            AdimensionalPolynomial(a=a, b=b)

    @given(k2=st.floats(0.01, 5.0), B=st.floats(0.01, 5.0),
           eta=st.floats(0.01, 5.0), lam=st.floats(0.1, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_a_invariant_under_eta_B_tradeoff(self, k2, B, eta, lam):
        # (K2, B, eta) and (K2*lam, B/lam, eta) describe the same polynomial
        q1 = adimensional_polynomial(k2, B, eta)
        q2 = adimensional_polynomial(k2 * lam, B / lam, eta)
        assert q2.a == pytest.approx(q1.a, rel=1e-12)

    def test_cubic_coefficient(self):
        q = adimensional_polynomial(k2=2.0, B=0.5, eta=0.3, k3=4.0)
        assert q.a == pytest.approx(2.0 * 0.5 * 0.3)
        assert q.b == pytest.approx(4.0 * 0.5 * 0.09)
        assert q.b == 4.0 * 0.5 * 0.3 * 0.3
        # without K3 the polynomial is the quadratic
        assert adimensional_polynomial(k2=2.0, B=0.5, eta=0.3).b == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            adimensional_polynomial(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            adimensional_polynomial(-1.0, 1.0, 1.0)

    @pytest.mark.parametrize("k2, B, eta, k3, message", [
        (1.0, float("nan"), 1.0, None, "B and eta must be positive"),
        (1.0, 1.0, float("nan"), None, "B and eta must be positive"),
        (float("nan"), 1.0, 1.0, None, "k2 must be nonnegative"),
        (1.0, 1.0, 1.0, float("nan"), "k3 must be nonnegative"),
    ])
    def test_nan_inputs_rejected(self, k2, B, eta, k3, message):
        with pytest.raises(ValueError, match=message):
            adimensional_polynomial(k2, B, eta, k3)
