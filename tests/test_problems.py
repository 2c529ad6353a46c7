import dataclasses
import math
import re
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dgetrs, dlange

from adimsolve.adimensional import adimensionalize
from adimsolve.methods import IterationTrace
from adimsolve.problems import (DOT_CHUNK, AlreadyAtRootError, DomainError,
                                LinearScaling, Problem,
                                SingularOperatorError, apply_scaling,
                                as_matrix, as_point, as_vector,
                                builtin_problem,
                                euclidean_norm, factor_nonsingular,
                                kantorovich_data, lu_solve, sample_k2,
                                scalar_norm, solve_linear)

from conftest import (assert_euclidean_norm, fresh_python, h_equation_kernel,
                      h_equation_problem, linear_problem, quadratic_problem,
                      random_quadratic_problem, recording,
                      spelled_out_stack)

E = math.e
# Kantorovich threshold for f1: a = 1/2 exactly when K2 = 1
X0_THRESHOLD = 1.0 - math.log((1.0 + math.sqrt(3.0)) / 2.0)
DBL_MAX, DBL_MIN = sys.float_info.max, sys.float_info.min


def outcome(fn):
    """fn()'s result as bytes, or its exception's type and message; any
    warning raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            r = fn()
        except (DomainError, SingularOperatorError, ValueError) as exc:
            return type(exc), str(exc)
    assert type(r) is np.ndarray and r.dtype == np.float64
    return r.shape, r.tobytes()


def reference_evaluate(p, x):
    """Problem.evaluate with array checks at every dimension."""
    x = as_point(x, p.dimension)
    if not np.isfinite(x).all():
        raise DomainError("non-finite input point")
    fx = np.atleast_1d(np.asarray(p.f(x if p.dimension > 1 else x[0]),
                                  dtype=float))
    if fx.shape != (p.dimension,):
        raise ValueError("evaluator output has wrong dimension")
    if not np.isfinite(fx).all():
        raise DomainError("domain failure: non-finite value of F")
    return fx


class TestEvaluate:
    def test_f1_at_root(self, f1):
        assert f1.evaluate(1.0)[0] == 0.0

    def test_f1_at_zero(self, f1):
        assert f1.evaluate(0.0)[0] == pytest.approx(1.0 / E - 1.0, abs=1e-15)

    def test_linear_map_zero(self):
        p = builtin_problem("zigzag", b=0.3)
        assert np.all(p.evaluate([0.0, 0.0]) == 0.0)

    def test_dimension_mismatch(self, example3):
        with pytest.raises(ValueError):
            example3.evaluate([1.0])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("where, message", [
        ("x", "non-finite input point"),
        ("F", "domain failure: non-finite value of F"),
        ("J", "domain failure: non-finite Jacobian"),
    ])
    def test_non_finite_values_raise_domain_error(self, where, message, m, bad):
        poisoned = np.ones(m)
        poisoned[-1] = bad
        p = Problem(f=lambda x: poisoned if where == "F" else np.ones(m),
                    jacobian=lambda x: (np.diag(poisoned) if where == "J"
                                        else np.eye(m)),
                    dimension=m)
        x = poisoned if where == "x" else np.ones(m)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            p.jac(x) if where == "J" else p.evaluate(x)

    @pytest.mark.parametrize("x", [0.5, -0.0, DBL_MAX, np.inf, -np.inf,
                                   np.nan])
    @pytest.mark.parametrize("value", [
        lambda t: 2.0 * t,                  # np.float64
        lambda t: 3.0, lambda t: 3, lambda t: np.float32(2.5),
        lambda t: np.array(3.0), lambda t: [3.0], lambda t: np.array([t]),
        lambda t: t * np.inf, lambda t: np.nan, lambda t: [np.inf],
        lambda t: np.array([1.0, 2.0]), lambda t: np.array([np.nan, 1.0]),
        lambda t: np.array([[3.0]]), lambda t: [],
    ])
    def test_scalar_lane_is_the_array_path(self, x, value):
        seen = []

        def f(t):
            seen.append(type(t))
            return value(t)

        p = Problem(f=f)
        with np.errstate(invalid="ignore", over="ignore"):  # in the values
            assert outcome(lambda: p.evaluate(x)) == \
                outcome(lambda: reference_evaluate(p, x))
        assert seen in ([], [np.float64, np.float64])


class TestEvaluateStack:
    """Problem._evaluate_stack: evaluate's checks, once per stack."""

    @staticmethod
    def stack_and_rows(p, Z):
        """(error or FZ of the stack, error or values of evaluate row by row)"""
        def run(fn):
            try:
                return fn()
            except (DomainError, ValueError) as exc:
                return exc
        FZ = np.empty_like(Z)
        return (run(lambda: (p._evaluate_stack(Z, FZ), FZ)[1]),
                run(lambda: np.array([p.evaluate(z) for z in Z])))

    @pytest.mark.parametrize("m", [1, 3])
    def test_values_are_evaluates_bit_for_bit(self, m):
        p = random_quadratic_problem(np.random.default_rng(m), m)
        Z = np.random.default_rng(10 + m).uniform(-2.0, 2.0, (5, m))
        FZ, rows = self.stack_and_rows(p, Z)
        assert np.array_equal(FZ, rows)

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("where, error, message", [
        ("row", DomainError, "non-finite input point"),
        ("output", DomainError, "domain failure: non-finite value of F"),
        ("shape", ValueError, "evaluator output has wrong dimension"),
    ])
    def test_raises_evaluates_error(self, where, error, message, m):
        Z = np.ones((4, m))
        Z[2, -1] = 2.0              # the point the poison is tied to
        bad = Z[2].copy()

        def f(x):
            x = np.atleast_1d(x)
            if not np.array_equal(x, bad):
                return np.ones(m)
            return np.full(m, np.nan) if where == "output" else np.ones(m + 1)

        p = Problem(f=f, dimension=m)
        if where == "row":
            Z[2, -1] = np.inf
        got, rows = self.stack_and_rows(p, Z)
        for exc in (got, rows):
            assert type(exc) is error
            assert str(exc) == message


def scaled_problem(m, which):
    """A scaled problem, its start and the reference of its stack: of a
    plain F, of a form's G, or of a scaled F scaled again; F is f1 at
    m = 1, the H-equation (c = 0.78) above.  The reference calls the
    scaled f on each row, and for G hands the rows times c to G's stack
    spelled out (the form maps a stack by one product) and multiplies by
    k."""
    if m == 1:
        p, x0 = builtin_problem("f1"), np.zeros(1)
    else:
        p, x0 = h_equation_problem(m, 0.78), np.ones(m)
    s1, s2 = LinearScaling(c=1.3, k=-0.7), LinearScaling(c=-0.6, k=2.5)
    if which == "form":
        form = adimensionalize(p, x0)
        return (apply_scaling(form.g, s1), form.y0,
                lambda Z: s1.k * spelled_out_stack(form, Z * s1.c))
    if which == "nested":
        q, start = apply_scaling(apply_scaling(p, s1), s2), x0 / (s1.c * s2.c)
    else:
        q, start = apply_scaling(p, s1), x0 / s1.c
    return q, start, lambda Z: np.array(
        [as_vector(q.f(z if m > 1 else z[0])) for z in Z])


def one_call_per_point(p):
    """p behind a plain function of one point: its stacks go row by row."""
    return dataclasses.replace(p, f=lambda x: p.f(x))


class TestScaledStack:
    """apply_scaling's evaluate_stack: the rows times c to F's stack or F,
    then times k, the bits and errors of calling the scaled f per row
    where F has no stack of its own."""

    @pytest.mark.parametrize("m", [1, 2, 10, 100])
    @pytest.mark.parametrize("which", ["plain", "form", "nested"])
    def test_stack_is_the_scaled_map_row_by_row(self, m, which):
        q, start, reference = scaled_problem(m, which)
        Z = start + np.random.default_rng(m).uniform(-0.1, 0.1, (m + 1, m))
        FZ = np.empty_like(Z)
        q.f.evaluate_stack(Z, FZ)
        assert np.array_equal(FZ, reference(Z))

    def test_a_base_with_a_stack_gets_the_whole_stack(self):
        seen = []

        def f(x):
            raise AssertionError("F called on one point")

        def evaluate_stack(Z, FZ):
            seen.append(Z.copy())
            FZ[:] = Z

        f.evaluate_stack = evaluate_stack
        q = apply_scaling(Problem(f=f, dimension=3), LinearScaling(2.0, 3.0))
        Z, FZ = np.arange(12.0).reshape(4, 3), np.empty((4, 3))
        q._evaluate_stack(Z, FZ)
        assert len(seen) == 1 and np.array_equal(seen[0], 2.0 * Z)
        assert np.array_equal(FZ, 6.0 * Z)

    @pytest.mark.parametrize("m", [1, 3])
    @pytest.mark.parametrize("s, returns, error, message", [
        (LinearScaling(1e300, 1.0), "x", DomainError,
         "domain failure: non-finite value of F"),        # Z c overflows
        (LinearScaling(1.0, 1e300), "x", DomainError,
         "domain failure: non-finite value of F"),        # k F overflows
        (LinearScaling(2.0, 3.0), "shape", ValueError,
         "evaluator output has wrong dimension"),
    ])
    def test_errors_are_the_row_paths(self, m, s, returns, error, message):
        def f(x):
            return x if returns == "x" else np.ones(m + 1)

        q = apply_scaling(Problem(f=f, dimension=m), s)
        Z = np.full((4, m), 1e10)
        got = []
        for p in (q, one_call_per_point(q)):
            with np.errstate(over="ignore"):
                with pytest.raises(error) as exc:
                    p._evaluate_stack(Z, np.empty_like(Z))
            got.append(str(exc.value))
        assert got == [message, message]


class TestAsPoint:
    @pytest.mark.parametrize("x, m", [
        ([0.5, -2.0], 2),
        (0.25, 1),
        (np.array([1, -3, 7]), 3),
        (np.array([0.1, 2.5], dtype=np.float32), 2),
        (np.array([0.1, 2.5]), 2),
        (np.array(0.75), 1),
        (np.arange(6.0)[::2], 3),
        (np.array([1.5, -0.5], dtype=">f8"), 2),
    ])
    def test_same_values_dtype_and_aliasing_as_asarray(self, x, m):
        reference = np.atleast_1d(np.asarray(x, dtype=float))
        out = as_point(x, m)
        assert out.dtype == np.float64 and out.shape == (m,)
        assert np.array_equal(out, reference)
        if isinstance(x, np.ndarray):
            assert (out is x) == (reference is x)
            assert np.shares_memory(out, x) == np.shares_memory(reference, x)

    def test_float64_point_is_returned_as_it_is(self):
        x = np.array([0.1, 2.5])
        assert as_point(x, 2) is x

    @pytest.mark.parametrize("x", [[1.0, 2.0, 3.0], [[1.0, 2.0]], 1.0])
    def test_wrong_shape_raises(self, x):
        with pytest.raises(ValueError, match="expected point of dimension 2"):
            as_point(x, 2)


class TestAsMatrix:
    @pytest.mark.parametrize("a", [
        [[1.0, 2.0], [3.0, 4.0]],
        [0.5, -2.0],
        0.25,
        3,
        np.float32(1.5),
        np.array([[1, -3], [7, 2]]),
        np.array([[0.1, 2.5], [1.0, 0.0]], dtype=np.float32),
        np.array([[0.1, 2.5], [1.0, 0.0]]),
        np.array(0.75),
        np.array([0.1, 2.5]),
        np.arange(12.0).reshape(3, 4)[:, ::2],
        np.arange(6.0)[::2],
        np.arange(4.0).reshape(2, 2).T,
        np.array([[1.5, -0.5], [2.0, 1.0]], dtype=">f8"),
    ])
    def test_same_values_dtype_and_aliasing_as_atleast_2d(self, a):
        reference = np.atleast_2d(np.asarray(a, dtype=float))
        out = as_matrix(a)
        assert out.dtype == np.float64 and out.shape == reference.shape
        assert np.array_equal(out, reference)
        assert out.strides == reference.strides
        if isinstance(a, np.ndarray):
            assert (out is a) == (reference is a)
            assert np.shares_memory(out, a) == np.shares_memory(reference, a)

    def test_float64_matrix_is_returned_as_it_is(self):
        a = np.eye(3)
        assert as_matrix(a) is a

    def test_jacobian_and_scaled_maps_return_the_converted_values(self):
        # float32 and scalar Jacobians, and lists from F, come back as float64
        p = Problem(f=lambda v: [v[0] - 1.0, v[1]],
                    jacobian=lambda v: np.eye(2, dtype=np.float32), dimension=2)
        assert p.jac([0.0, 0.0]).dtype == np.float64
        s = apply_scaling(p, LinearScaling(c=2.0, k=3.0))
        assert np.array_equal(s.f(np.array([1.0, 1.0])), [3.0, 6.0])
        assert np.array_equal(s.jacobian(np.zeros(2)), 6.0 * np.eye(2))
        f1s = apply_scaling(builtin_problem("f1"), LinearScaling(c=2.0, k=3.0))
        assert f1s.jac(0.5)[0, 0] == 6.0


def reference_fd_jacobian(p, x):
    """Central differences one column at a time, each point x +- h_j e_j a
    copy of x with coordinate j moved, evaluated by its own Problem.evaluate
    call."""
    x = as_point(x, p.dimension)
    J = np.empty((p.dimension, p.dimension))
    for j in range(p.dimension):
        h = max(1e-7, 1e-7 * abs(x[j]))
        xp = x.copy(); xp[j] += h
        xm = x.copy(); xm[j] -= h
        J[:, j] = (p.evaluate(xp) - p.evaluate(xm)) / (2.0 * h)
    return J


def signed_problem(m):
    """A random quadratic plus copysign(0.5, x): F tells -0.0 from +0.0."""
    q = random_quadratic_problem(np.random.default_rng(30 + m), m)
    if m == 1:
        return Problem(f=lambda t: q.f(t) + math.copysign(0.5, t))
    return Problem(f=lambda x: q.f(x) + np.copysign(0.5, x), dimension=m)


class TestJacobian:
    def test_example3_origin(self, example3):
        J = example3.jac([0.0, 0.0])
        assert np.allclose(J, np.diag([-6.0, 2.0]))

    def test_f1_at_zero(self, f1):
        assert f1.jac(0.0)[0, 0] == pytest.approx(1.0 / E, rel=1e-15)

    def test_linear_map(self):
        A = np.array([[2.0, -1.0], [0.5, 3.0]])
        p = linear_problem(A)
        for x in ([0.0, 0.0], [1.0, -2.0], [10.0, 3.0]):
            assert np.allclose(p.jac(x), A)

    @pytest.mark.parametrize("name,x", [
        ("f1", [0.3]), ("f2", [0.7]), ("example3", [0.2, -0.4]),
    ])
    def test_finite_differences_match_analytic(self, name, x):
        p = builtin_problem(name)
        J = p.jac(x)
        Jfd = p.fd_jacobian(np.asarray(x))
        assert np.allclose(Jfd, J, rtol=1e-5, atol=1e-7)

    def test_an_analytic_jacobian_of_the_wrong_shape_is_rejected(self):
        p = Problem(f=lambda v: v, jacobian=lambda v: np.eye(3), dimension=2)
        with pytest.raises(ValueError, match="Jacobian has wrong shape"):
            p.jac([0.0, 0.0])

    @pytest.mark.parametrize("analytic", [True, False])
    @pytest.mark.parametrize("name, x", [
        ("f1", [-np.inf]), ("f1", [np.nan]), ("example3", [0.5, np.inf])])
    def test_a_non_finite_point_is_a_domain_error(self, name, x, analytic):
        # f1' = exp(x - 1) reads 0.0 at -inf: no F' is judged at such a point
        p = builtin_problem(name)
        p, calls = recording(p if analytic else dataclasses.replace(p, jacobian=None))
        with pytest.raises(DomainError, match="^non-finite input point$"):
            p.jac(x)
        assert not calls["jac"] and not calls["f"]

    @pytest.mark.parametrize("analytic", [True, False])
    def test_a_stack_is_checked_before_any_f_prime_call(self, analytic):
        p = builtin_problem("example3")
        p, calls = recording(p if analytic else dataclasses.replace(p, jacobian=None))
        X = np.array([[0.3, -0.2], [0.1, 0.4], [-np.inf, 0.0]])
        with pytest.raises(DomainError, match="^non-finite input point$"):
            p._jac_stack(X, np.empty((3, 2, 2)))
        assert not calls["jac"] and not calls["f"]

    @pytest.mark.parametrize("m", [1, 2, 10])
    def test_fd_jacobian_is_the_per_column_loop_bit_for_bit(self, m):
        # a -0.0 coordinate stays -0.0 in every point that does not move it,
        # and F here tells it from +0.0
        rng = np.random.default_rng(40 + m)
        x = rng.uniform(-2.0, 2.0, m)
        x[-1] = 3e5                 # a step relative to |x_j|
        x[0] = -0.0
        p = signed_problem(m)
        rec, calls = recording(p)
        ref, ref_calls = recording(p)
        J = rec.fd_jacobian(x)
        want = reference_fd_jacobian(ref, x)
        assert J.flags.c_contiguous
        assert J.tobytes() == want.tobytes()
        assert [z.tobytes() for z in calls["f"]] == \
            [z.tobytes() for z in ref_calls["f"]]


class TestSecondDerivative:
    def test_is_scalar_only(self, example3):
        with pytest.raises(ValueError, match="second_derivative is scalar-only"):
            example3.second_derivative([0.5, 0.5])

    def test_finite_differences_of_f_prime_without_d2f(self, f1):
        p = dataclasses.replace(f1, d2f=None)
        for x in (-0.5, 0.0, 1.0, 2.5):
            assert p.second_derivative(x) == pytest.approx(math.exp(x - 1.0),
                                                           rel=1e-8)

    def test_scaled_d2f_is_k_c_squared_f_second(self, f1):
        k, c = 3.0, -0.5
        scaled = apply_scaling(f1, LinearScaling(c=c, k=k))
        for x in (-1.0, 0.0, 0.7, 4.0):
            assert scaled.second_derivative(x) == pytest.approx(
                k * c * c * math.exp(c * x - 1.0), rel=1e-15)

    @pytest.mark.parametrize("p", [
        Problem(f=np.exp, jacobian=np.exp, d2f=lambda x: np.inf),
        Problem(f=np.exp, jacobian=np.exp, d2f=lambda x: np.nan),
        # f' jumps by 2e308 across 0: the difference quotient overflows
        Problem(f=lambda x: 1e308 * abs(x),
                jacobian=lambda x: math.copysign(1e308, x)),
    ])
    def test_a_non_finite_value_is_a_domain_error(self, p):
        with pytest.raises(DomainError, match="non-finite second derivative"):
            p.second_derivative(0.0)

    @pytest.mark.parametrize("d2f", [True, False])
    @pytest.mark.parametrize("x", [-np.inf, np.inf, np.nan])
    def test_a_non_finite_point_is_a_domain_error(self, f1, d2f, x):
        # f1'' = exp(x - 1) reads 0.0 at -inf: d2f is judged at finite points
        p = f1 if d2f else dataclasses.replace(f1, d2f=None)
        with pytest.raises(DomainError, match="^non-finite input point$"):
            p.second_derivative([x])


class TestScaling:
    def test_f1_doubled_is_f2(self, f1, f2):
        scaled = apply_scaling(f1, LinearScaling(c=2.0, k=1.0))
        for x in np.linspace(-1.0, 1.5, 11):
            assert scaled.evaluate(x)[0] == pytest.approx(f2.evaluate(x)[0],
                                                          rel=1e-14, abs=1e-15)
        assert scaled.evaluate(0.5)[0] == 0.0

    def test_identity_scaling(self, f1):
        same = apply_scaling(f1, LinearScaling(1.0, 1.0))
        for x in (-0.5, 0.0, 1.0, 2.0):
            assert same.evaluate(x)[0] == f1.evaluate(x)[0]

    def test_value_scaling_keeps_roots(self, f1):
        scaled = apply_scaling(f1, LinearScaling(c=1.0, k=3.0))
        assert scaled.evaluate(1.0)[0] == 0.0

    def test_round_trip(self, example3):
        s = LinearScaling(c=-1.7, k=0.4)
        back = apply_scaling(apply_scaling(example3, s), s.inverse())
        for x in ([0.0, 0.0], [0.5, -0.3], [1.0, -1.0]):
            orig = example3.evaluate(x)
            again = back.evaluate(x)
            assert np.allclose(again, orig, rtol=1e-15, atol=1e-16)

    def test_jacobian_transform(self, f1):
        s = LinearScaling(c=2.0, k=5.0)
        scaled = apply_scaling(f1, s)
        x = 0.3
        assert scaled.jac(x)[0, 0] == pytest.approx(
            10.0 * f1.jac(2.0 * x)[0, 0], rel=1e-14)

    def test_jacobian_survives_an_overflowing_k_c(self, f1):
        # k c = 3.2e308 overflows, k (c f1'(0)) = 1.16e308 does not
        k, c = -1e160, -10.0 ** 148.5
        J = apply_scaling(f1, LinearScaling(c, k)).jac([0.0])
        assert J[0, 0] == k * (c * math.exp(-1.0))
        assert math.isfinite(J[0, 0])

    def test_jacobian_keeps_its_bits_past_a_subnormal_k_c(self):
        # k c = 1e-310 is subnormal: formed first it drops bits of the
        # normal 1e-110
        k, c = 1e-300, 1e-10
        p = Problem(f=lambda x: 1e200 * x, jacobian=lambda x: 1e200)
        J = apply_scaling(p, LinearScaling(c, k)).jac([0.0])
        assert J[0, 0] == k * (c * 1e200)
        assert J[0, 0] != (k * c) * 1e200

    def test_second_derivative_survives_an_overflowing_k_c(self, f1):
        # k c c = 1e320 overflows, k c c f1''(-200) = 5.1e232 does not
        k, c, x = 1e300, 1e10, -2e-8
        d2 = apply_scaling(f1, LinearScaling(c, k)).second_derivative(x)
        assert d2 == k * (c * (c * math.exp(x * c - 1.0)))
        assert math.isfinite(d2)

    def test_a_normal_prefix_keeps_the_bits_of_the_prefix_first(self, example3):
        # the scalar prefix formed first, as golden files were written
        k, c = -0.7, 1.3
        x = np.array([0.3, -0.7])
        scaled = apply_scaling(example3, LinearScaling(c, k))
        assert np.array_equal(scaled.jac(x), (k * c) * example3.jac(x * c))
        p = Problem(f=np.exp, jacobian=np.exp, d2f=np.exp)
        scaled = apply_scaling(p, LinearScaling(c, k))
        assert scaled.second_derivative(0.2) == k * c * c * math.exp(0.2 * c)

    def test_zero_factor_rejected(self):
        with pytest.raises(ValueError):
            LinearScaling(0.0, 1.0)

    @pytest.mark.parametrize("c, k", [
        (np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, -np.inf)])
    def test_non_finite_factor_rejected(self, c, k):
        with pytest.raises(ValueError,
                           match="scaling factors must be finite and nonzero"):
            LinearScaling(c, k)


class TestDefinitions:
    def test_a_dimension_below_one_is_rejected(self):
        with pytest.raises(ValueError, match="dimension must be a positive integer"):
            Problem(f=lambda x: x, dimension=0)

    def test_an_unknown_norm_is_rejected(self):
        with pytest.raises(ValueError, match="unknown norm 'taxicab'"):
            Problem(f=lambda x: x, norm="taxicab")

    def test_zigzag_needs_a_positive_b(self):
        with pytest.raises(ValueError, match="b must be positive"):
            builtin_problem("zigzag", b=0.0)

    def test_an_unknown_builtin_problem_is_rejected(self):
        with pytest.raises(ValueError, match="unknown problem 'nope'; choices: "):
            builtin_problem("nope")


class TestKantorovichData:
    def test_an_unknown_mode_is_rejected(self, f1):
        with pytest.raises(ValueError, match="unknown mode 'halley'"):
            kantorovich_data(f1, 0.0, mode="halley")

    @pytest.mark.parametrize("k2", [-1.0, float("nan")])
    def test_a_negative_or_nan_k2_is_rejected(self, f1, k2):
        # a NaN K2 would make every a = K2 B eta NaN
        with pytest.raises(ValueError, match="k2 must be nonnegative"):
            kantorovich_data(f1, 0.0, k2=k2)

    def test_threshold_gives_a_half(self, f1):
        data = kantorovich_data(f1, X0_THRESHOLD, mode="newton", k2=1.0)
        assert data.a == pytest.approx(0.5, abs=1e-12)

    def test_linear_problem_a_zero(self):
        p = linear_problem(np.array([[2.0, 0.3], [0.1, 1.5]]), b=[1.0, 1.0])
        data = kantorovich_data(p, [0.0, 0.0], mode="newton")
        assert data.a == 0.0
        assert data.k2 == 0.0

    def test_brute_force_oracle(self, f1):
        # independent computation of B and eta by dense inversion
        x0 = 0.9
        fp = math.exp(x0 - 1.0)
        B_oracle = 1.0 / fp
        eta_oracle = abs((math.exp(x0 - 1.0) - 1.0) / fp)
        k2 = math.exp(0.0)
        data = kantorovich_data(f1, x0, mode="newton", k2=k2)
        assert data.B == pytest.approx(B_oracle, abs=1e-12)
        assert data.eta == pytest.approx(eta_oracle, abs=1e-12)
        assert data.a == pytest.approx(k2 * B_oracle * eta_oracle, abs=1e-12)

    def test_asis_mode_eta(self, f1):
        x0 = 0.9
        d_newton = kantorovich_data(f1, x0, mode="newton", k2=1.0)
        d_asis = kantorovich_data(f1, x0, mode="asis", k2=1.0)
        # scalar case: |f/f'| = |1/f'| * |f| so the two etas coincide
        assert d_asis.eta == pytest.approx(d_newton.eta, rel=1e-12)

    def test_already_at_root(self, f1):
        with pytest.raises(AlreadyAtRootError):
            kantorovich_data(f1, 1.0, k2=1.0)

    def test_a_tiny_residual_is_not_a_root(self):
        # F(x0) = (1e-300, 1e-300): its squares underflow, its norm does not
        p = linear_problem(np.eye(2), b=[-1e-300, -1e-300])
        for mode in ("newton", "asis"):
            d = kantorovich_data(p, [0.0, 0.0], mode=mode)
            assert d.B == 1.0
            assert d.eta == pytest.approx(math.sqrt(2.0) * 1e-300, rel=1e-15)

    def test_singular_derivative(self):
        p = linear_problem(np.array([[1.0, 0.0], [0.0, 0.0]]), b=[1.0, 0.0])
        with pytest.raises(SingularOperatorError):
            kantorovich_data(p, [0.0, 0.0])

    def test_sampled_k2_close_to_true_bound(self, f1):
        # f1'' = exp(x-1) so the sampled bound over B(0.9, R) is about
        # exp(0.9 + R - 1)
        x0 = 0.9
        data = kantorovich_data(f1, x0, mode="newton")
        eta = data.eta
        expected = math.exp(x0 + 2.0 * eta - 1.0)
        assert data.k2 == pytest.approx(expected, rel=1e-2)

    @pytest.mark.parametrize("mode", ["newton", "asis"])
    @pytest.mark.parametrize("problem, x0", [
        (builtin_problem("f1"), [0.9]),
        (builtin_problem("example3"), [0.2, -0.4]),
        (h_equation_problem(10, 0.78), np.ones(10))])
    def test_b_and_eta_are_scipys(self, problem, x0, mode):
        # B and eta from scipy's factor and solve of F'(x0), bit for bit
        x0 = np.asarray(x0, dtype=float)
        lu = scipy.linalg.lu_factor(problem.jac(x0))
        fx0 = problem.evaluate(x0)
        B = problem.operator_norm(scipy.linalg.lu_solve(lu, np.eye(len(x0))))
        if mode == "newton":
            eta = problem.vector_norm(scipy.linalg.lu_solve(lu, fx0))
        else:
            eta = B * problem.vector_norm(fx0)
        data = kantorovich_data(problem, x0, mode=mode, k2=1.0)
        assert (data.B, data.eta) == (B, eta)

    @given(c=st.floats(0.1, 10.0), k=st.floats(0.1, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_a_is_scale_invariant(self, c, k):
        f1 = builtin_problem("f1")
        x0 = 0.8
        k2 = math.exp(x0 - 1.0 + 0.5)  # explicit local bound
        base = kantorovich_data(f1, x0, mode="newton", k2=k2)
        scaled_p = apply_scaling(f1, LinearScaling(c=c, k=k))
        data = kantorovich_data(scaled_p, x0 / c, mode="newton",
                                k2=k * c * c * k2)
        assert data.a == pytest.approx(base.a, abs=1e-10)


def k2_sample_points(x0, radius, n_samples=24):
    """sample_k2's points as a loop: the center, the 2m axis points at the
    full radius and the seeded cloud."""
    m = len(x0)
    pts = [x0]
    for j in range(m):
        e = np.zeros(m); e[j] = radius
        pts.append(x0 + e)
        pts.append(x0 - e)
    rng = np.random.default_rng(20240817)
    for _ in range(n_samples):
        u = rng.standard_normal(m)
        u /= max(np.linalg.norm(u), 1e-30)
        pts.append(x0 + radius * rng.uniform(0.0, 1.0) * u)
    return pts


def central_slabs(problem, x, delta=1e-5):
    """The tensor D[j] = F''(x)[e_j] as central differences of F' at x."""
    m = problem.dimension
    D = np.empty((m, m, m))
    for j in range(m):
        e = np.zeros(m); e[j] = delta
        D[j] = (problem.jac(x + e) - problem.jac(x - e)) / (2.0 * delta)
    return D


def reference_sample_k2(problem, x0, radius):
    """The per-slice K2 proxy as a loop: at each sample point, the largest
    operator norm of one axis's Jacobian variation F''(x)[e_j], each taken
    exactly (LAPACK's 2-norm).  It is a lower bound on the norm of F''(x),
    and on sample_k2's bound."""
    best = 0.0
    for x in k2_sample_points(as_point(x0, problem.dimension), radius):
        for D in central_slabs(problem, x):
            if problem.norm == "max":
                best = max(best, float(np.max(np.sum(np.abs(D), axis=1))))
            else:
                best = max(best, float(np.linalg.norm(D, 2)))
    return best


def central_frobenius_k2(problem, x0, radius):
    """sample_k2's Euclidean bound with central slabs at each sample point
    itself: the largest ||D||_F, 2m Jacobians a point."""
    return max(float(np.linalg.norm(central_slabs(problem, x)))
               for x in k2_sample_points(as_point(x0, problem.dimension),
                                         radius))


def h_equation_second_derivative(m, c, x):
    """The tensor H[i, j, k] = d^2 F_i / dx_j dx_k of h_equation_problem(m, c)
    at x: -2 A_ij A_ik / (1 - (A x)_i)^3."""
    A = h_equation_kernel(m, c)
    s = 1.0 - A @ x
    return -2.0 * A[:, :, None] * A[:, None, :] / (s ** 3)[:, None, None]


def brute_force_bilinear_norm(H, starts=6, sweeps=100):
    """sup ||H[u, v]||_2 over unit u and v, H[u, v]_i = sum_jk H[i,j,k] u_j v_k,
    by alternating maximization (each half-step is a top singular vector)
    from several random starts: a lower bound that meets the norm at the
    best local maximum."""
    m = H.shape[1]
    rng = np.random.default_rng(5)
    best = 0.0
    for _ in range(starts):
        u = rng.standard_normal(m)
        u /= np.linalg.norm(u)
        for _ in range(sweeps):
            v = np.linalg.svd(np.einsum("ijk,j->ik", H, u))[2][0]
            _, s, vt = np.linalg.svd(np.einsum("ijk,k->ij", H, v))
            u = vt[0]
        best = max(best, s[0])
    return best


class TestSampleK2:
    @pytest.mark.parametrize("norm", ["euclidean", "max"])
    @pytest.mark.parametrize("m", [1, 2, 8])
    def test_bounds_the_per_slice_loop_from_above(self, m, norm):
        # the closed-form tensor bound is at least the largest per-axis
        # slice norm, and is that norm at m = 1
        rng = np.random.default_rng(100 + m)
        p = dataclasses.replace(random_quadratic_problem(rng, m), norm=norm)
        x0 = rng.uniform(-0.5, 0.5, m)
        k2 = sample_k2(p, x0, 0.7)
        old = reference_sample_k2(p, x0, 0.7)
        assert old > 0.0
        assert k2 >= old * (1.0 - 1e-13)
        if m == 1:
            assert k2 == old

    @pytest.mark.parametrize("norm", ["euclidean", "max"])
    @pytest.mark.parametrize("m", [1, 2, 8])
    def test_quadratic_map_gets_the_norm_bound_of_its_constant_tensor(self, m, norm):
        # F''(x)[u, v]_i = 2 u^T Q_i v everywhere, so D[j, i, k] = 2 Q[i, j, k]
        rng = np.random.default_rng(200 + m)
        A = rng.uniform(-1.0, 1.0, (m, m)) + 2.0 * np.eye(m)
        Q = rng.uniform(-0.5, 0.5, (m, m, m))
        Q = (Q + np.swapaxes(Q, 1, 2)) / 2.0
        p = dataclasses.replace(
            quadratic_problem(A, Q, rng.uniform(-0.5, 0.5, m)), norm=norm)
        if norm == "max":
            expected = np.abs(2.0 * Q).sum(axis=(1, 2)).max()
        else:
            expected = np.linalg.norm(2.0 * Q)
        k2 = sample_k2(p, rng.uniform(-0.5, 0.5, m), 0.7)
        assert k2 == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("m", [8, 16])
    def test_h_equation_k2_bounds_the_true_norm_at_x0(self, m):
        # the earlier per-axis proxy, max_j ||F''[e_j]||, read 0.055 at
        # m = 16, below this norm (0.090)
        x0 = np.ones(m)
        p = h_equation_problem(m, 0.9)
        true_norm = brute_force_bilinear_norm(
            h_equation_second_derivative(m, 0.9, x0))
        assert true_norm > 0.0
        assert kantorovich_data(p, x0).k2 >= true_norm

    def test_wrong_jacobian_shape_at_a_sample_point(self):
        # right shape at x0 = (0.5, 0), 3x3 at the axis point (1.5, 0)
        p = Problem(f=lambda x: np.array([x[0] ** 2, x[1]]),
                    jacobian=lambda x: (np.array([[2.0 * x[0], 0.0],
                                                  [0.0, 1.0]])
                                        if x[0] < 1.0 else np.eye(3)),
                    dimension=2)
        with pytest.raises(ValueError, match="Jacobian has wrong shape"):
            sample_k2(p, [0.5, 0.0], 1.0)

    @pytest.mark.parametrize("m", [1, 2, 8])
    def test_m_plus_one_jacobians_at_each_sample_point(self, m):
        # each point's stack is the point itself, then x + delta e_j
        rng = np.random.default_rng(300 + m)
        p, calls = recording(random_quadratic_problem(rng, m))
        x0 = rng.uniform(-0.5, 0.5, m)
        sample_k2(p, x0, 0.7)
        assert len(calls["jac"]) == (2 * m + 25) * (m + 1)
        X = np.array(calls["jac"][:m + 1])
        assert np.array_equal(X[0], x0)
        assert np.array_equal(X[1:] - x0, np.diag(np.diag(X[1:] - x0)))
        np.testing.assert_allclose(np.diag(X[1:] - x0), 1e-5, rtol=1e-9)

    @pytest.mark.parametrize("c", [0.5, 0.9])
    @pytest.mark.parametrize("m", [8, 16, 24])
    def test_forward_slabs_match_central_slabs_on_the_h_equation(self, m, c):
        # each forward slab is the central one at x + (delta/2) e_j
        p, x0 = h_equation_problem(m, c), np.ones(m)
        radius = 2.0 * kantorovich_data(p, x0, k2=1.0).eta
        assert sample_k2(p, x0, radius) == pytest.approx(
            central_frobenius_k2(p, x0, radius), rel=1e-5)

    @pytest.mark.parametrize("norm", ["euclidean", "max"])
    def test_finite_difference_jacobian(self, norm):
        p = builtin_problem("example3", norm=norm)
        fd = dataclasses.replace(p, jacobian=None)
        k2 = sample_k2(fd, [0.3, -0.7], 0.5)
        assert np.isfinite(k2)
        assert k2 == pytest.approx(sample_k2(p, [0.3, -0.7], 0.5), rel=1e-4)

    def test_non_finite_jacobian_at_a_sample_point(self):
        # finite at x0 = (0.5, 0), NaN at the axis point (-0.5, 0)
        p = Problem(f=lambda x: np.array([2.0 * np.sqrt(x[0]), x[1]]),
                    jacobian=lambda x: np.array([[1.0 / np.sqrt(x[0]), 0.0],
                                                 [0.0, 1.0]]),
                    dimension=2)
        with np.errstate(invalid="ignore"):
            with pytest.raises(DomainError):
                sample_k2(p, [0.5, 0.0], 1.0)


class TestNorms:
    def test_euclidean_operator_norm_matches_svd(self):
        rng = np.random.default_rng(7)
        p = Problem(f=lambda x: x, dimension=4)
        for _ in range(10):
            A = rng.standard_normal((4, 4))
            assert p.operator_norm(A) == pytest.approx(
                np.linalg.norm(A, 2), rel=1e-14)
            assert isinstance(p.operator_norm(A), float)

    @pytest.mark.parametrize("A, norm", [
        # A^T A (1, 1) = 0: a power iteration from (1, 1)/sqrt 2 vanishes
        ([[1.0, -1.0], [1.0, -1.0]], 2.0),
        # (1, 1)/sqrt 2 and (1, 1, 1)/sqrt 3 are singular vectors of the
        # smaller singular value 1: a power iteration started there reads 1
        ([[1.5, -0.5], [-0.5, 1.5]], 2.0),
        ([[5.5, -4.5, 0.0], [-4.5, 5.5, 0.0], [0.0, 0.0, 1.0]], 10.0),
        (np.zeros((3, 3)), 0.0),
    ])
    def test_euclidean_operator_norm_whatever_the_start_vector(self, A, norm):
        p = Problem(f=lambda x: x, dimension=len(A))
        assert p.operator_norm(A) == pytest.approx(norm, rel=1e-14)

    @given(m=st.integers(2, 24), log_c=st.floats(-12.0, 12.0),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_euclidean_operator_norm_scales_with_the_matrix(self, m, log_c,
                                                            seed):
        # a stopping rule absolute below norm 1 read the same matrix 9e-10
        # low at scale 1 and 19% low at scale 1e-6
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((m, m))
        c = 10.0 ** log_c
        p = Problem(f=lambda x: x, dimension=m)
        assert p.operator_norm(c * A) == pytest.approx(
            c * p.operator_norm(A), rel=1e-14)

    def test_euclidean_operator_norm_at_the_ends_of_the_range(self):
        # (1e300 A)^T (1e300 A) overflows and (1e-300 A)^T (1e-300 A)
        # underflows; the singular values do neither
        p = Problem(f=lambda x: x, dimension=2)
        A = np.array([[3.0, 0.0], [0.0, 4.0]])
        for c in (1e-300, 1e300):
            assert p.operator_norm(c * A) == pytest.approx(4.0 * c, rel=1e-15)

    def test_max_norm_row_sum(self):
        p = builtin_problem("example3", norm="max")
        A = np.array([[1.0, -2.0], [3.0, 0.5]])
        assert p.operator_norm(A) == 3.5
        assert isinstance(p.operator_norm(A), float)

    @pytest.mark.parametrize("s", [1e160, 1e-300, -1e200, 1e-170])
    def test_euclidean_norm_is_scale_free(self, s):
        # the squares overflow or underflow; numpy reads inf or 0
        p = Problem(f=lambda x: x, dimension=2)
        v = np.array([s, s])
        assert euclidean_norm(v) == pytest.approx(math.sqrt(2.0) * abs(s),
                                                  rel=1e-15)
        assert p.vector_norm(v) == euclidean_norm(v)
        assert euclidean_norm(np.array([s])) == abs(s)

    def test_a_norm_beyond_the_range_is_inf_without_a_warning(self):
        assert euclidean_norm(np.array([DBL_MAX, DBL_MAX])) == np.inf
        assert euclidean_norm(np.array([DBL_MAX, 1.0])) == DBL_MAX

    @pytest.mark.parametrize("m", [1, 2, 10, 400])
    def test_euclidean_norms_match_numpy_bit_for_bit(self, m):
        rng = np.random.default_rng(m)
        p = Problem(f=lambda x: x, dimension=m)
        spread = 10.0 ** rng.uniform(-150.0, 150.0, m)
        # at 1e160 the squares overflow and at 1e-160 they underflow, and
        # numpy reads inf, or a 4th digit off; there the norm is scaled
        for scale in (1e-160, 1e-150, 1.0, 1e150, 1e160):
            for v in (scale * rng.standard_normal(m),
                      scale * rng.standard_normal(2 * m)[::2],
                      rng.standard_normal(m) * spread):
                assert_euclidean_norm(p.vector_norm(v), v)
                assert_euclidean_norm(euclidean_norm(v), v)
        iterates = [rng.standard_normal(m) * s for s in (1e-150, 1.0, 1e150)]
        root = rng.standard_normal(m)
        errors = IterationTrace(iterates=iterates).errors(root)
        assert np.array_equal(errors,
                              [np.linalg.norm(x - root) for x in iterates])

    def test_a_long_norm_does_not_depend_on_the_blas_threads(self):
        # sample_k2's slab at m = 24 has 24^3 = 13824 elements, more than
        # the 10000 above which OpenBLAS splits one ddot among its threads
        code = ("import numpy as np\n"
                "from adimsolve.problems import euclidean_norm\n"
                "print([euclidean_norm(np.random.default_rng(s)"
                ".standard_normal(24 ** 3)).hex() for s in range(8)])")
        one, two = (fresh_python(code, OPENBLAS_NUM_THREADS=n)
                    for n in ("1", "2"))
        assert one == two

    @pytest.mark.parametrize("n", [8192, 8193, 13824, 40000])
    def test_long_norms_sum_their_pieces(self, n):
        # up to DOT_CHUNK elements numpy's bits; above, within an ulp or
        # two of the exactly rounded sum of squares, at every scale
        v = np.random.default_rng(n).standard_normal(n)
        if n <= DOT_CHUNK:
            assert euclidean_norm(v) == np.linalg.norm(v)
        assert euclidean_norm(v) == pytest.approx(
            math.sqrt(math.fsum(v * v)), rel=4e-16)
        for s in (1e-160, 1e160):
            assert euclidean_norm(s * v) == pytest.approx(
                s * euclidean_norm(v), rel=1e-15)

    def test_pieces_whose_sum_overflows_are_scaled(self):
        # each piece's sum of squares is finite, their sum is not, and
        # scaled by max|v| the squares are ones, summed exactly
        n = 2 * DOT_CHUNK + 1
        v = np.full(n, 0.9 * math.sqrt(DBL_MAX / DOT_CHUNK))
        assert np.isfinite(np.vdot(v[:DOT_CHUNK], v[:DOT_CHUNK]))
        assert euclidean_norm(v) == math.sqrt(n) * v[0]

    def test_one_element_is_ddots_square_root(self):
        # sqrt(s*s), what ddot of one element computes, to the bit and its
        # sign where s*s is normal, and |s|, the scale-free norm, where it
        # overflows or underflows: for a one-element array and for
        # scalar_norm of a float, a np.float64 and an int alike
        rng = np.random.default_rng(3)
        root_min, root_max = math.sqrt(DBL_MIN), math.sqrt(DBL_MAX)
        values = [0.0, -0.0, 1e-170, -1e-170, 1e200, 5e-324, -2.5e-310,
                  DBL_MIN, DBL_MAX, -DBL_MAX, np.inf, -np.inf, np.nan]
        for r in (root_min, root_max):
            for t in (r, math.nextafter(r, 0.0), math.nextafter(r, np.inf)):
                values += [t, -t, math.nextafter(t, 0.0),
                           math.nextafter(t, np.inf)]
        values += (rng.standard_normal(200)
                   * 10.0 ** rng.uniform(-300.0, 300.0, 200)).tolist()
        for s in values:
            ss = s * s
            want = math.sqrt(ss) if DBL_MIN <= ss <= DBL_MAX else abs(s)
            for got in (euclidean_norm(np.array([s])),
                        euclidean_norm(np.array([[s]])),
                        euclidean_norm(np.array([s, 1.0])[::2]),
                        scalar_norm(s), scalar_norm(np.float64(s)),
                        *([scalar_norm(int(s))] if s.is_integer() else [])):
                assert type(got) is float
                assert (got.hex() == want.hex()
                        or math.isnan(got) and math.isnan(s))
        # the neighbours of sqrt(DBL_MIN) and sqrt(DBL_MAX) straddle the
        # normal range of s*s
        below = math.nextafter(root_min, 0.0)
        above = math.nextafter(root_max, np.inf)
        assert below * below < DBL_MIN <= root_min * root_min
        assert root_max * root_max <= DBL_MAX < above * above

    def test_scalar_norm_is_the_square_root_of_the_square_bit_for_bit(self):
        # in binary64 with round-to-nearest sqrt(RN(s*s)) = |s| wherever
        # s*s is normal: 10^6 random bit patterns there as Python floats,
        # the first 2 10^5 as np.float64 and the integral ones as int
        rng = np.random.default_rng(2718)
        s = rng.integers(0, 2**64, 2_200_000, dtype=np.uint64).view(np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            ss = s * s
        s = s[(DBL_MIN <= ss) & (ss <= DBL_MAX)]
        assert s.size >= 10**6
        floats = s.tolist()
        want = np.array([math.sqrt(t * t) for t in floats])
        assert np.array(list(map(scalar_norm, floats))).tobytes() == want.tobytes()
        assert (np.array(list(map(scalar_norm, s[:200_000]))).tobytes()
                == want[:200_000].tobytes())
        ints = [int(t) for t in floats if abs(t) >= 2.0**53]
        assert len(ints) > 10**5
        assert all(scalar_norm(i) == math.sqrt(float(i) * float(i))
                   for i in ints)

    def test_euclidean_operator_norm_of_a_column_a_row_and_a_scalar(self):
        # the one-column matrix [[3], [4]] has norm 5, not |A[0, 0]|
        p = Problem(f=lambda x: x)
        assert p.operator_norm(np.array([[3.0], [4.0]])) == 5.0
        assert p.operator_norm(np.array([[3.0, 4.0]])) == pytest.approx(5.0)
        assert p.operator_norm(np.array([[-2.5]])) == 2.5
        assert p.operator_norm(-2.5) == 2.5

    def test_vector_norms(self):
        p_e = builtin_problem("example3")
        p_m = builtin_problem("example3", norm="max")
        v = [3.0, -4.0]
        assert p_e.vector_norm(v) == 5.0
        assert p_m.vector_norm(v) == 4.0


class TestLuSolve:
    @pytest.mark.parametrize("trans", [0, 1])
    @pytest.mark.parametrize("m", [1, 2, 10, 100])
    def test_bits_are_scipys(self, m, trans):
        rng = np.random.default_rng(m)
        A = rng.standard_normal((m, m)) + m * np.eye(m)
        lu = factor_nonsingular(A)
        for b in (rng.standard_normal(m), rng.standard_normal((m, m))):
            got = lu_solve(lu, b, trans=trans)
            ref = scipy.linalg.lu_solve(lu, b, trans=trans)
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()


class TestSolveLinear:
    def test_matches_numpy_solve(self):
        rng = np.random.default_rng(11)
        for m in (1, 2, 5, 30):
            A = rng.standard_normal((m, m)) + m * np.eye(m)
            b = rng.standard_normal(m)
            assert np.allclose(solve_linear(A, b), np.linalg.solve(A, b),
                               rtol=1e-12, atol=1e-14)

    def test_scalar_systems_match_numpy_bit_for_bit(self):
        for a, b in ((3.0, 1.0), (-0.7, 2.5), (1e-9, 1e-3)):
            assert solve_linear([[a]], [b])[0] == np.linalg.solve([[a]], [b])[0]

    @pytest.mark.parametrize("A", [
        [[0.0]],
        [[1.0, 2.0], [2.0, 4.0]],          # exactly singular: zero pivot
        [[1.0, 0.0], [0.0, 1e-17]],        # estimate below the 1e-14 floor
        [[DBL_MAX, 0.0], [0.0, 1.0]],      # estimate 5.6e-309
        [[1e-320]],                        # estimate 0
    ])
    def test_singular_operators_raise(self, A):
        with pytest.raises(SingularOperatorError):
            solve_linear(A, np.ones(len(A)))

    @pytest.mark.parametrize("A", [
        [[DBL_MAX]],
        [[-DBL_MAX]],
        [[DBL_MAX, 0.0], [0.0, DBL_MAX / 2.0]],
    ])
    def test_huge_well_conditioned_operators_solve(self, A):
        # gecon's estimate for a 1x1 h near DBL_MAX overflows to inf and it
        # flags info 1; the operator is perfectly conditioned
        A = np.array(A)
        x = solve_linear(A, np.ones(len(A)))
        assert x == pytest.approx(1.0 / np.diag(A), rel=1e-15)

    @pytest.mark.parametrize("m", [1, 2, 3, 9, 24, 100])
    def test_gate_norm_is_numpys_one_norm_on_c_ordered_operators(self, m):
        # factor_nonsingular hands LAPACK lange's ||A||_1 to gecon; on the
        # C-ordered matrices the package builds it is numpy's value
        rng = np.random.default_rng(m)
        for _ in range(20):
            A = rng.standard_normal((m, m)) * 10.0 ** rng.uniform(-8.0, 8.0, (m, m))
            assert dlange("1", A) == np.abs(A).sum(axis=0).max()

    def test_scalar_lane_is_the_lapack_path(self):
        def lapack(h, b):
            lu, piv = factor_nonsingular(np.array([[h]]))
            return dgetrs(lu, piv, np.array([b]))[0]

        below = np.nextafter(DBL_MIN, 0.0)
        hs = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, below, -below,
              DBL_MIN, -DBL_MIN, 1e-300, 1e300, 1.0 / DBL_MIN,
              np.nextafter(1.0 / DBL_MIN, np.inf), 1.7976931348623151e+308,
              DBL_MAX, -DBL_MAX, np.inf, -np.inf, np.nan]
        bs = [1.0, -3.5, 0.0, -0.0, 5e-324, 1e300, DBL_MAX, np.inf, np.nan]
        pairs = [(h, b) for h in hs for b in bs]
        rng = np.random.default_rng(17)
        signs = rng.choice([-1.0, 1.0], (2000, 2))
        mags = 10.0 ** rng.uniform(-300.0, 300.0, (2000, 2))
        pairs += (signs * mags * rng.uniform(1.0, 10.0, (2000, 2))).tolist()
        for h, b in pairs:
            got = outcome(lambda: solve_linear([[h]], [b]))
            assert got == outcome(lambda: lapack(h, b)), (h, b)
            if not DBL_MIN <= abs(h) <= DBL_MAX:    # 0, subnormal, inf, nan
                assert got[0] is SingularOperatorError

    def test_ill_conditioned_above_the_floor_solves(self):
        x = solve_linear([[1.0, 0.0], [0.0, 1e-10]], [1.0, 1e-10])
        assert np.allclose(x, [1.0, 1.0], rtol=1e-12)
