import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adimsolve import divdiff
from adimsolve.divdiff import (DividedDifference, componentwise_dd,
                               gauss_legendre_01, integral_dd, scalar_dd,
                               verify_interpolatory)
from adimsolve.problems import DomainError, Problem

from conftest import (h_equation_problem, linear_problem,
                      random_quadratic_problem, recording)

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
    """The quadrature with the Gauss-Legendre rule computed on every call
    and each node's Jacobian taken by its own Problem.jac call."""
    m = problem.dimension
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    nodes, weights = np.polynomial.legendre.leggauss(q)
    H = np.zeros((m, m))
    for t, wi in zip(0.5 * (nodes + 1.0), 0.5 * weights):
        H += wi * problem.jac(x + t * (y - x))
    return H


def atan_problem():
    """atan(t) + t/2: F and F' finite at every finite t, so any two nodes
    have a quotient."""
    return Problem(f=lambda t: math.atan(t) + 0.5 * t,
                   jacobian=lambda t: 0.5 + (1.0 / math.hypot(1.0, t)) ** 2,
                   dimension=1, name="atan(t)+t/2")


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

    @pytest.mark.parametrize("m", [10, 100])
    @pytest.mark.parametrize("where", ["none", "first", "middle", "last", "all three"])
    def test_h_equation_matches_the_reference_bit_for_bit(self, m, where):
        p, calls = recording(h_equation_problem(m, 0.9))
        rng = np.random.default_rng(m)
        x = 1.0 + rng.uniform(0.0, 0.5, m)
        dead = {"none": [], "first": [0], "middle": [m // 2], "last": [m - 1],
                "all three": [0, m // 2, m - 1]}[where]
        for known in (False, True):
            y = x + rng.uniform(-0.1, 0.1, m)
            y[dead] = x[dead]
            fx, fy = (p.evaluate(x), p.evaluate(y)) if known else (None, None)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                calls["f"].clear()
                H = componentwise_dd(p, x, y, fx, fy)
                n_calls = len(calls["f"])
                assert np.array_equal(H, reference_componentwise_dd(p, x, y, fx, fy))
            # the reference's points, as many times (a dead column j inside
            # makes z_j and z_j+1 one point, and both are used)
            points = [z.tobytes() for z in calls["f"]]
            assert sorted(points[:n_calls]) == sorted(points[n_calls:])

    @given(u=st.floats(-300.0, 300.0), v=st.floats(-300.0, 300.0),
           sx=st.sampled_from([-1.0, 1.0]), sy=st.sampled_from([-1.0, 1.0]),
           known=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_scalar_case_matches_scalar_dd(self, u, v, sx, sy, known):
        # at m = 1 the general telescope is the scalar quotient, bit for
        # bit, with the same F and F' calls in the same order, at nodes
        # across +-300 decades
        x, y = sx * 10.0 ** u, sy * 10.0 ** v
        self._assert_scalar_dd(atan_problem(), x, y, known)

    @pytest.mark.parametrize("x, y", [
        (0.4, 0.4), (0.4, 0.4 + 1e-16), (-0.0, 0.0), (0.0, 1e-15),
        (1e300, 1e300 * (1.0 + 1e-15)), (-1e-300, 1e-300), (7.0, 7.0 - 6e-14)])
    @pytest.mark.parametrize("known", [False, True])
    def test_scalar_case_matches_scalar_dd_on_coincident_nodes(self, x, y, known):
        self._assert_scalar_dd(atan_problem(), x, y, known)

    @staticmethod
    def _assert_scalar_dd(p, x, y, known):
        # the general telescope, and the operator DividedDifference gives
        fx, fy = (p.evaluate(x), p.evaluate(y)) if known else (None, None)
        ref, ref_calls = recording(p)
        h = scalar_dd(ref, x, y, *((fx[0], fy[0]) if known else (None, None)))
        for op in (componentwise_dd, DividedDifference()):
            rec, calls = recording(p)
            H = op(rec, [x], [y], fx, fy)
            assert H.shape == (1, 1)
            assert H.tobytes() == np.float64(h).tobytes()
            for kind in ("f", "jac"):
                assert [z.tobytes() for z in calls[kind]] == \
                    [z.tobytes() for z in ref_calls[kind]]

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

    @pytest.mark.parametrize("m", [1, 3])
    def test_node_jacobians_are_one_checked_stack(self, m):
        p, calls = recording(random_quadratic_problem(np.random.default_rng(m), m))
        x, y = np.zeros(m), np.linspace(0.5, 1.0, m)
        integral_dd(p, x, y, q=4)
        theta, _ = gauss_legendre_01(4)
        assert np.array_equal(np.array(calls["jac"]),
                              [x + t * (y - x) for t in theta])
        assert not calls["f"]
        poisoned = dataclasses.replace(
            p, jacobian=lambda v: np.full((m, m), np.nan))
        with pytest.raises(DomainError, match="^domain failure: non-finite Jacobian$"):
            integral_dd(poisoned, x, y, q=4)

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
        x, y = np.array([0.8, -0.6]), np.array([1.3, -1.2])
        assert np.allclose(DividedDifference("componentwise")(example3, x, y),
                           componentwise_dd(example3, x, y))
        assert np.allclose(DividedDifference("integral", quad_nodes=6)(example3, x, y),
                           integral_dd(example3, x, y, 6))

    def test_known_values_pass_through_every_variant(self, f1, example3):
        for p, x, y in ((f1, [0.3], [0.9]),
                        (example3, [0.8, -0.6], [1.3, -1.2])):
            fx, fy = p.evaluate(x), p.evaluate(y)
            for variant in ("componentwise", "integral"):
                dd = DividedDifference(variant)
                rec, calls = recording(p)
                H = dd(rec, x, y, fx=fx, fy=fy)
                assert np.array_equal(H, dd(p, x, y))
                inner = p.dimension - 1 if variant == "componentwise" else 0
                assert len(calls["f"]) == inner

    def test_componentwise_at_m_1_calls_the_module_scalar_dd(self, f1, monkeypatch):
        # a wrapper put on divdiff.scalar_dd (as a tracer does) sees every
        # m = 1 operator once, and componentwise_dd none
        seen = []
        monkeypatch.setattr(divdiff, "scalar_dd",
                            lambda *args: seen.append(args) or 0.25)
        monkeypatch.setattr(divdiff, "componentwise_dd", None)
        H = DividedDifference()(f1, [0.3], [0.9])
        assert H.tolist() == [[0.25]] and len(seen) == 1

    @pytest.mark.parametrize("variant", ["secant-table", "scalar"])
    def test_unknown_variant(self, variant):
        # at m = 1 the componentwise operator is the scalar quotient
        with pytest.raises(ValueError):
            DividedDifference(variant)

    def test_too_few_quad_nodes(self):
        with pytest.raises(ValueError):
            DividedDifference("integral", quad_nodes=1)
