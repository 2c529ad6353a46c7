import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adimsolve.divdiff import (DividedDifference, componentwise_dd,
                               gauss_legendre_01, integral_dd, scalar_dd,
                               verify_interpolatory)
from adimsolve.problems import Problem

from conftest import linear_problem, random_quadratic_problem, recording

# frozen oracle: (f1(0) - f1(e^-1 - 1)) / (0 - (e^-1 - 1))
F1_DD_ORACLE = 0.2726772679855246


def reference_componentwise_dd(problem, x, y, fx=None, fy=None):
    """The telescope on numpy scalars, every point built by concatenation."""
    m = problem.dimension
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    fz = [fx] + [None] * (m - 1) + [fy]
    H = np.empty((m, m))
    for j in range(m):
        if abs(y[j] - x[j]) < 1e-14 * max(1.0, abs(x[j])):
            H[:, j] = problem.jac(x)[:, j]
            continue
        for k in (j, j + 1):
            if fz[k] is None:
                fz[k] = problem.evaluate(np.concatenate([y[:k], x[k:]]))
        H[:, j] = (fz[j + 1] - fz[j]) / (y[j] - x[j])
    return H


def reference_integral_dd(problem, x, y, q):
    """The quadrature with the Gauss-Legendre rule computed on every call."""
    m = problem.dimension
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    nodes, weights = np.polynomial.legendre.leggauss(q)
    H = np.zeros((m, m))
    for t, wi in zip(0.5 * (nodes + 1.0), 0.5 * weights):
        H += wi * problem.jac(x + t * (y - x))
    return H


def quad_problem():
    return Problem(f=lambda x: x * x - 4.0, jacobian=lambda x: 2.0 * x,
                   dimension=1, name="t^2-4")


class TestScalar:
    def test_quadratic_exact(self):
        # divided difference of t^2 - 4 over [1, 3] is 1 + 3
        assert scalar_dd(quad_problem(), 1.0, 3.0) == 4.0

    def test_f1_frozen_value(self, f1):
        y = math.exp(-1.0) - 1.0
        assert scalar_dd(f1, 0.0, y) == pytest.approx(F1_DD_ORACLE, abs=1e-15)

    def test_coincident_falls_back_to_derivative(self, f1):
        assert scalar_dd(f1, 0.4, 0.4) == f1.jac(0.4)[0, 0]
        assert scalar_dd(f1, 0.4, 0.4 + 1e-16) == f1.jac(0.4)[0, 0]

    def test_symmetry(self, f1):
        assert scalar_dd(f1, 0.1, 0.9) == pytest.approx(
            scalar_dd(f1, 0.9, 0.1), rel=1e-15)

    def test_rejects_vector_problem(self, example3):
        with pytest.raises(ValueError):
            scalar_dd(example3, 0.0, 1.0)


class TestComponentwise:
    def test_linear_map_recovers_matrix(self):
        A = np.array([[3.0, -1.0, 0.5], [0.2, 2.0, 1.0], [-0.7, 0.0, 4.0]])
        p = linear_problem(A)
        H = componentwise_dd(p, [1.0, 2.0, -1.0], [0.5, -0.3, 2.0])
        assert np.allclose(H, A, rtol=1e-13, atol=1e-13)

    def test_interpolatory_on_example3(self, example3):
        x = np.array([0.8, -0.6])
        y = np.array([1.3, -1.2])
        H = componentwise_dd(example3, x, y)
        assert verify_interpolatory(H, example3, x, y) < 1e-13

    def test_partially_coincident_nodes(self, example3):
        x = np.array([0.8, -0.6])
        y = np.array([0.8, -1.2])  # first coordinate unchanged
        H = componentwise_dd(example3, x, y)
        assert np.allclose(H[:, 0], example3.jac(x)[:, 0])
        assert verify_interpolatory(H, example3, x, y) < 1e-13

    def test_all_coincident_gives_jacobian(self, example3):
        x = np.array([0.8, -0.6])
        H = componentwise_dd(example3, x, x.copy())
        assert np.allclose(H, example3.jac(x))

    def test_each_telescope_point_evaluated_once(self):
        m = 5
        p, calls = recording(random_quadratic_problem(np.random.default_rng(4), m))
        x = np.linspace(0.1, 0.5, m)
        y = x + np.linspace(0.3, -0.2, m)
        H = componentwise_dd(p, x, y)
        assert len(calls["f"]) == m + 1
        assert len({z.tobytes() for z in calls["f"]}) == m + 1
        assert not calls["jac"]
        # with both endpoint values known only the m - 1 inner points remain
        fx, fy = p.evaluate(x), p.evaluate(y)
        calls["f"].clear()
        H_known = componentwise_dd(p, x, y, fx=fx, fy=fy)
        assert len(calls["f"]) == m - 1
        inner = {z.tobytes() for z in calls["f"]}
        assert len(inner) == m - 1
        assert x.tobytes() not in inner and y.tobytes() not in inner
        assert np.array_equal(H_known, H)

    @pytest.mark.parametrize("m", [1, 2, 5])
    def test_matches_the_numpy_scalar_telescope_bit_for_bit(self, m):
        rng = np.random.default_rng(20 + m)
        p = random_quadratic_problem(rng, m)
        for trial in range(12):
            x = rng.uniform(-2.0, 2.0, m)
            y = rng.uniform(-2.0, 2.0, m)
            if trial % 3 == 0:
                y[0] = x[0]     # a coincident column takes the Jacobian's
            fx, fy = (p.evaluate(x), p.evaluate(y)) if trial % 2 else (None, None)
            assert np.array_equal(componentwise_dd(p, x, y, fx, fy),
                                  reference_componentwise_dd(p, x, y, fx, fy))

    def test_scalar_case_matches_scalar_dd(self, f1):
        H = componentwise_dd(f1, [0.0], [0.6])
        assert H[0, 0] == pytest.approx(scalar_dd(f1, 0.0, 0.6), rel=1e-15)

    @given(seed=st.integers(0, 10_000), m=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_interpolatory_identity_random_quadratics(self, seed, m):
        rng = np.random.default_rng(seed)
        p = random_quadratic_problem(rng, m)
        x = rng.uniform(-2.0, 2.0, m)
        y = rng.uniform(-2.0, 2.0, m)
        if m == 1:
            x, y = x[0], y[0]
        H = componentwise_dd(p, x, y)
        assert verify_interpolatory(H, p, x, y) < 1e-10


class TestIntegral:
    def test_exact_for_quadratic_map(self):
        # two-node Gauss rule integrates the affine Jacobian exactly
        rng = np.random.default_rng(3)
        p = random_quadratic_problem(rng, 3)
        x = rng.uniform(-1.0, 1.0, 3)
        y = rng.uniform(-1.0, 1.0, 3)
        H = integral_dd(p, x, y, q=2)
        assert verify_interpolatory(H, p, x, y) < 1e-13

    def test_symmetric_in_arguments(self, example3):
        x = np.array([0.4, -0.9])
        y = np.array([1.1, 0.2])
        assert np.allclose(integral_dd(example3, x, y),
                           integral_dd(example3, y, x), rtol=1e-13, atol=1e-14)

    def test_scalar_f1_matches_true_quotient(self, f1):
        # integral of f1' over [0, 0.6] equals the true divided difference
        H = integral_dd(f1, [0.0], [0.6])
        assert H[0, 0] == pytest.approx(scalar_dd(f1, 0.0, 0.6), rel=1e-12)

    def test_coincident_gives_jacobian(self, example3):
        x = np.array([0.8, -0.6])
        H = integral_dd(example3, x, x.copy())
        assert np.allclose(H, example3.jac(x), rtol=1e-13)

    @pytest.mark.parametrize("m", [1, 3, 10])
    @pytest.mark.parametrize("q", [2, 3, 8, 16])
    def test_cached_rule_matches_leggauss_per_call_bit_for_bit(self, m, q):
        rng = np.random.default_rng(10 * m + q)
        p = random_quadratic_problem(rng, m)
        x = rng.uniform(-1.0, 1.0, m)
        y = rng.uniform(-1.0, 1.0, m)
        for _ in range(2):  # the second call takes the rule from the cache
            assert np.array_equal(integral_dd(p, x, y, q),
                                  reference_integral_dd(p, x, y, q))

    def test_cached_rule_cannot_be_changed_by_a_caller(self):
        theta, w = gauss_legendre_01(8)
        assert isinstance(theta, tuple) and isinstance(w, tuple)
        with pytest.raises(TypeError):
            theta[0] = 0.0
        assert gauss_legendre_01(8) == (theta, w)
        nodes, weights = np.polynomial.legendre.leggauss(8)
        assert theta == tuple(0.5 * (nodes + 1.0))
        assert w == tuple(0.5 * weights)


class TestDispatcher:
    def test_variant_selection(self, f1, example3):
        assert DividedDifference("scalar")(f1, 0.0, 0.6)[0, 0] == \
            pytest.approx(scalar_dd(f1, 0.0, 0.6))
        x, y = np.array([0.8, -0.6]), np.array([1.3, -1.2])
        assert np.allclose(DividedDifference("componentwise")(example3, x, y),
                           componentwise_dd(example3, x, y))
        assert np.allclose(DividedDifference("integral", quad_nodes=6)(example3, x, y),
                           integral_dd(example3, x, y, 6))

    def test_known_values_pass_through_every_variant(self, f1, example3):
        for p, x, y in ((f1, [0.3], [0.9]),
                        (example3, [0.8, -0.6], [1.3, -1.2])):
            fx, fy = p.evaluate(x), p.evaluate(y)
            for variant in ("scalar", "componentwise", "integral"):
                if variant == "scalar" and p.dimension > 1:
                    continue
                dd = DividedDifference(variant)
                rec, calls = recording(p)
                H = dd(rec, x, y, fx=fx, fy=fy)
                assert np.array_equal(H, dd(p, x, y))
                inner = p.dimension - 1 if variant == "componentwise" else 0
                assert len(calls["f"]) == inner

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            DividedDifference("secant-table")

    def test_too_few_quad_nodes(self):
        with pytest.raises(ValueError):
            DividedDifference("integral", quad_nodes=1)
