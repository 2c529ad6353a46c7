import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dlange

from adimsolve.methods import IterationTrace
from adimsolve.problems import (AlreadyAtRootError, DomainError,
                                LinearScaling, Problem,
                                SingularOperatorError, apply_scaling,
                                as_matrix, as_point, builtin_problem,
                                euclidean_norm,
                                kantorovich_data, sample_k2, solve_linear,
                                spectral_norm)

from conftest import (h_equation_kernel, h_equation_problem, linear_problem,
                      quadratic_problem, random_quadratic_problem)

E = math.e
# Kantorovich threshold for f1: a = 1/2 exactly when K2 = 1
X0_THRESHOLD = 1.0 - math.log((1.0 + math.sqrt(3.0)) / 2.0)


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

    def test_zero_factor_rejected(self):
        with pytest.raises(ValueError):
            LinearScaling(0.0, 1.0)


class TestKantorovichData:
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


def reference_spectral_norm(A, tol=1e-12, max_sweeps=200):
    """One matrix at a time: power iteration on A^T A with the stopping
    rule and null-space fallback of problems.spectral_norm."""
    m = A.shape[0]
    if m == 1:
        return abs(float(A[0, 0]))
    B = A.T @ A
    v = np.ones(m) / np.sqrt(m)
    lam = 0.0
    for _ in range(max_sweeps):
        w = B @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return float(np.linalg.norm(A, 2)) if np.any(A) else 0.0
        v_new = w / nw
        lam_new = float(v_new @ B @ v_new)
        if abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
            lam = lam_new
            break
        v, lam = v_new, lam_new
    return float(np.sqrt(max(lam, 0.0)))


def reference_sample_k2(problem, x0, radius, n_samples=24, delta=1e-5):
    """The per-slice K2 proxy as a loop: at each sample point, the largest
    operator norm of one axis's Jacobian variation F''(x)[e_j].  It is a
    lower bound on the norm of F''(x), and on sample_k2's bound."""
    x0 = as_point(x0, problem.dimension)
    m = problem.dimension
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
    best = 0.0
    for x in pts:
        for j in range(m):
            e = np.zeros(m); e[j] = delta
            D = (problem.jac(x + e) - problem.jac(x - e)) / (2.0 * delta)
            if problem.norm == "max":
                best = max(best, float(np.max(np.sum(np.abs(D), axis=1))))
            else:
                best = max(best, reference_spectral_norm(D))
    return best


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
    def test_spectral_norm_matches_svd(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            A = rng.standard_normal((4, 4))
            assert spectral_norm(A) == pytest.approx(
                np.linalg.norm(A, 2), rel=1e-10)

    def test_spectral_norm_when_start_vector_is_in_the_null_space(self):
        # A^T A (1, 1) = 0, so the power iterate vanishes at once
        A = np.array([[1.0, -1.0], [1.0, -1.0]])
        assert spectral_norm(A) == pytest.approx(2.0, rel=1e-14)
        assert builtin_problem("example3").operator_norm(A) == pytest.approx(
            2.0, rel=1e-14)
        assert spectral_norm(np.zeros((3, 3))) == 0.0

    @pytest.mark.parametrize("m", [1, 2, 3, 8, 24])
    def test_matches_the_one_matrix_reference_bit_for_bit(self, m):
        rng = np.random.default_rng(50 + m)
        p = Problem(f=lambda x: x, dimension=m)
        for trial in range(10):
            A = rng.standard_normal((m, m)) * 10.0 ** rng.uniform(-6.0, 6.0)
            if trial == 0:
                A = np.linalg.inv(A + m * np.eye(m))   # a B of kantorovich_data
            for sweeps in (200, 2):
                assert spectral_norm(A, max_sweeps=sweeps) == \
                    reference_spectral_norm(A, max_sweeps=sweeps)
            assert p.operator_norm(A) == reference_spectral_norm(A)
            assert isinstance(p.operator_norm(A), float)

    def test_max_norm_row_sum(self):
        p = builtin_problem("example3", norm="max")
        A = np.array([[1.0, -2.0], [3.0, 0.5]])
        assert p.operator_norm(A) == 3.5
        assert isinstance(p.operator_norm(A), float)

    @pytest.mark.parametrize("m", [1, 2, 10, 400])
    def test_euclidean_norms_match_numpy_bit_for_bit(self, m):
        rng = np.random.default_rng(m)
        p = Problem(f=lambda x: x, dimension=m)
        spread = 10.0 ** rng.uniform(-150.0, 150.0, m)
        for scale in (1e-160, 1e-150, 1.0, 1e150, 1e160):  # 1e160 overflows
            for v in (scale * rng.standard_normal(m),
                      scale * rng.standard_normal(2 * m)[::2],
                      rng.standard_normal(m) * spread):
                with np.errstate(over="ignore"):
                    assert p.vector_norm(v) == np.linalg.norm(v)
                    assert euclidean_norm(v) == np.linalg.norm(v)
        iterates = [rng.standard_normal(m) * s for s in (1e-150, 1.0, 1e150)]
        root = rng.standard_normal(m)
        errors = IterationTrace(iterates=iterates).errors(root)
        assert np.array_equal(errors,
                              [np.linalg.norm(x - root) for x in iterates])

    def test_vector_norms(self):
        p_e = builtin_problem("example3")
        p_m = builtin_problem("example3", norm="max")
        v = [3.0, -4.0]
        assert p_e.vector_norm(v) == 5.0
        assert p_m.vector_norm(v) == 4.0


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
    ])
    def test_singular_operators_raise(self, A):
        with pytest.raises(SingularOperatorError):
            solve_linear(A, np.ones(len(A)))

    @pytest.mark.parametrize("m", [1, 2, 3, 9, 24, 100])
    def test_gate_norm_is_numpys_one_norm_on_c_ordered_operators(self, m):
        # factor_nonsingular hands LAPACK lange's ||A||_1 to gecon; on the
        # C-ordered matrices the package builds it is numpy's value
        rng = np.random.default_rng(m)
        for _ in range(20):
            A = rng.standard_normal((m, m)) * 10.0 ** rng.uniform(-8.0, 8.0, (m, m))
            assert dlange("1", A) == np.abs(A).sum(axis=0).max()

    def test_ill_conditioned_above_the_floor_solves(self):
        x = solve_linear([[1.0, 0.0], [0.0, 1e-10]], [1.0, 1e-10])
        assert np.allclose(x, [1.0, 1.0], rtol=1e-12)
