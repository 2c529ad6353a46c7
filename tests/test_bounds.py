import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from adimsolve.adimensional import AdimensionalPolynomial
from adimsolve.bounds import (HypothesesNotSatisfied, cubic_positive_roots,
                              error_envelopes, majorizing_roots,
                              newton_on_adim_poly, newton_rate,
                              newton_sequences, steffensen_on_adim_poly,
                              steffensen_sequences)
from adimsolve.methods import Newton, StoppingCriteria, solve
from adimsolve.problems import KantorovichData, kantorovich_data

from conftest import h_equation_problem


class TestNewtonSequences:
    def test_hand_values_a_half(self):
        seqs = newton_sequences(0.5, 3)
        assert np.allclose(seqs.a_seq, [1.0, 2.0, 4.0, 8.0])
        assert np.allclose(seqs.d_seq, [1.0, 0.5, 0.25, 0.125])
        assert seqs.status == "positive"

    def test_partial_sums(self):
        seqs = newton_sequences(0.5, 4)
        assert np.allclose(seqs.r_seq,
                           [0.0, 1.0, 1.5, 1.75, 1.875, 1.9375])

    def test_invariant(self):
        # (1/a_n)^2 - 2 a d_n / a_n = 1 - 2a along the whole sequence
        for a in (0.1, 0.3, 0.45, 0.5):
            seqs = newton_sequences(a, 12)
            lhs = (1.0 / seqs.a_seq) ** 2 \
                - 2.0 * a * seqs.d_seq / seqs.a_seq
            assert np.allclose(lhs, 1.0 - 2.0 * a, atol=1e-12)

    def test_partial_sum_identity(self):
        # sum_{k<n} d_k = (1/a)(1 - 1/a_n)
        a = 0.4
        seqs = newton_sequences(a, 10)
        r = seqs.r_seq
        assert np.allclose(r[:len(seqs.a_seq)],
                           (1.0 / a) * (1.0 - 1.0 / seqs.a_seq), atol=1e-12)

    def test_d_matches_exact_newton_run(self):
        # d_n equals the exact Newton increment on the majorizing quadratic
        for a in (0.2, 0.45, 0.5):
            seqs = newton_sequences(a, 8)
            t = newton_on_adim_poly(a, 9)  # d_0..d_8 need t_0..t_9
            assert np.allclose(seqs.d_seq, np.diff(t), atol=1e-12)

    def test_sum_converges_to_s_star(self):
        a = 0.3
        seqs = newton_sequences(a, 30)
        assert seqs.r_seq[-1] == pytest.approx(
            majorizing_roots(a).s_star, abs=1e-12)

    def test_truncates_above_half(self):
        seqs = newton_sequences(0.6, 50)
        assert seqs.status == "not positive"
        assert len(seqs.a_seq) < 51

    def test_closed_form_rate(self):
        for a in (0.1, 0.35, 0.49):
            seqs = newton_sequences(a, 10)
            for d, d_next in zip(seqs.d_seq, seqs.d_seq[1:]):
                assert newton_rate(a, d) == pytest.approx(d_next, rel=1e-12)

    def test_rate_quadratic_for_small_a(self):
        # d_{n+1}/d_n^2 -> a/2 as a -> 0 (quadratic convergence constant)
        assert newton_rate(0.01, 1.0) == pytest.approx(
            0.005 / math.sqrt(1e-4 + 0.98), rel=1e-12)

    def test_rejects_negative_a(self):
        with pytest.raises(ValueError):
            newton_sequences(-0.1, 5)

    def test_rejects_nan_a(self):
        # NaN fails every comparison, so "a < 0" let it through and the run
        # was all NaN, with status "positive"
        with pytest.raises(ValueError, match="a must be nonnegative"):
            newton_sequences(float("nan"), 5)


class TestSteffensenSequences:
    def test_hand_values_a_half(self):
        seqs = steffensen_sequences(0.5, 2)
        assert seqs.b_seq[0] == pytest.approx(4.0 / 3.0, rel=1e-14)
        assert seqs.d_seq[0] == pytest.approx(4.0 / 3.0, rel=1e-14)
        assert seqs.a_seq[1] == pytest.approx(3.0, rel=1e-14)
        assert seqs.c_seq[1] == pytest.approx(1.0 / 9.0, rel=1e-14)
        assert seqs.b_seq[1] == pytest.approx(36.0 / 11.0, rel=1e-14)
        assert seqs.d_seq[1] == pytest.approx(4.0 / 11.0, rel=1e-14)
        assert seqs.r_seq[2] == pytest.approx(56.0 / 33.0, rel=1e-14)

    def test_invariant(self):
        # (1/a_n)^2 - 2 a c_n = 1 - 2a
        for a in (0.1, 0.3, 0.5):
            seqs = steffensen_sequences(a, 10)
            lhs = (1.0 / seqs.a_seq) ** 2 - 2.0 * a * seqs.c_seq
            assert np.allclose(lhs, 1.0 - 2.0 * a, atol=1e-12)

    def test_r_matches_exact_steffensen_run(self):
        # r_n are exactly the Steffensen iterates on the quadratic
        for a in (0.2, 0.4, 0.5):
            seqs = steffensen_sequences(a, 6)
            run = steffensen_on_adim_poly(a, 6)
            assert np.allclose(seqs.r_seq, run.s[:len(seqs.r_seq)], atol=1e-12)

    def test_r_converges_to_s_star(self):
        a = 0.35
        seqs = steffensen_sequences(a, 40)
        assert seqs.r_seq[-1] == pytest.approx(majorizing_roots(a).s_star,
                                               abs=1e-12)

    def test_first_step_bound_exceeds_newton(self):
        # d_0 = 1/(1 - a/2) >= 1: the derivative-free first-step bound is
        # never tighter than the Newton one
        for a in (0.1, 0.3, 0.5):
            ns = newton_sequences(a, 1)
            ss = steffensen_sequences(a, 1)
            assert ss.d_seq[0] == pytest.approx(1.0 / (1.0 - a / 2.0),
                                                rel=1e-14)
            assert ss.d_seq[0] >= ns.d_seq[0]

    def test_truncates_above_half(self):
        seqs = steffensen_sequences(0.7, 50)
        assert seqs.status == "not positive"

    def test_rejects_nan_a(self):
        with pytest.raises(ValueError, match="a must be nonnegative"):
            steffensen_sequences(float("nan"), 5)

    @given(a=st.floats(0.01, 0.5))
    @settings(max_examples=40, deadline=None)
    def test_sequences_positive_and_r_monotone(self, a):
        # short horizon: d_n decays doubly exponentially and underflows fast
        seqs = steffensen_sequences(a, 6)
        assert seqs.status == "positive"
        assert np.all(seqs.d_seq > 0.0)
        assert np.all(np.diff(seqs.r_seq) >= 0.0)  # tiny d_n can be absorbed
        assert np.all(seqs.r_seq <= majorizing_roots(a).s_star + 1e-12)


class TestPolynomialRuns:
    def test_steffensen_iterates_a_half(self):
        run = steffensen_on_adim_poly(0.5, 3)
        assert np.allclose(run.s, [0.0, 4.0 / 3.0, 56.0 / 33.0,
                                   1.8544500119303273], atol=1e-14)

    def test_operator_is_true_divided_difference(self):
        # q[s, s + q(s)] computed from values matches the collapsed form
        a = 0.4
        q = AdimensionalPolynomial(a=a)
        run = steffensen_on_adim_poly(a, 5)
        for s, qs, g in zip(run.s, run.q_values, run.operators):
            if qs < 1e-6:
                break  # direct quotient loses accuracy to cancellation
            node = s + qs
            direct = (q(node) - q(s)) / (node - s)
            assert g == pytest.approx(direct, rel=1e-9)

    def test_newton_iterates_increase_to_s_star(self):
        a = 0.3
        assert np.all(np.diff(newton_on_adim_poly(a, 4)) > 0.0)
        t = newton_on_adim_poly(a, 25)  # saturates at the root
        assert t[-1] == pytest.approx(majorizing_roots(a).s_star, abs=1e-12)


class TestMajorizingRoots:
    def test_double_root_at_a_half(self):
        roots = majorizing_roots(0.5)
        assert roots.s_star == pytest.approx(2.0, abs=1e-14)
        assert roots.s_star_star == pytest.approx(2.0, abs=1e-14)

    def test_linear_limit(self):
        roots = majorizing_roots(0.0)
        assert roots.s_star == 1.0
        assert roots.s_star_star == math.inf

    def test_vieta(self):
        for a in (0.1, 0.25, 0.4):
            roots = majorizing_roots(a)
            assert roots.s_star * roots.s_star_star == pytest.approx(2.0 / a,
                                                                     rel=1e-12)
            assert roots.s_star + roots.s_star_star == pytest.approx(2.0 / a,
                                                                     rel=1e-12)

    def test_rejects_a_above_half(self):
        with pytest.raises(ValueError):
            majorizing_roots(0.51)

    def test_rejects_nan_a(self):
        # bounds-report's s* for a NaN K2, B or eta: it exits 2 now
        with pytest.raises(ValueError, match="a must be nonnegative"):
            majorizing_roots(float("nan"))


class TestCubicRoots:
    def test_reduces_to_quadratic_when_b_zero(self):
        for a in (0.1, 0.3, 0.45):
            cls = cubic_positive_roots(a, 0.0)
            roots = majorizing_roots(a)
            assert cls.kind == "two-simple"
            assert cls.roots[0] == pytest.approx(roots.s_star, abs=1e-10)
            assert cls.roots[1] == pytest.approx(roots.s_star_star, abs=1e-8)

    def test_two_simple_cubic(self):
        cls = cubic_positive_roots(0.1, 0.1)
        assert cls.kind == "two-simple"
        q = AdimensionalPolynomial(a=0.1, b=0.1)
        for r in cls.roots:
            assert abs(q(r)) < 1e-10

    def test_none_when_minimum_positive(self):
        assert cubic_positive_roots(0.6, 0.5).kind == "none"

    def test_double_case(self):
        # tune b so the positive minimum of the cubic is exactly zero
        a = 0.2

        def min_value(b):
            q = AdimensionalPolynomial(a=a, b=b)
            s_crit = brentq(q.derivative, 0.0, 100.0)
            return q(s_crit)

        b_double = brentq(min_value, 1e-6, 5.0, xtol=1e-15)
        cls = cubic_positive_roots(a, b_double)
        assert cls.kind == "double"
        assert cls.roots[0] == cls.roots[1]

    def test_quadratic_double_case(self):
        cls = cubic_positive_roots(0.5, 0.0)
        assert cls.kind == "double"
        assert cls.roots[0] == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("a, b", [(float("nan"), 0.1), (0.1, float("nan"))])
    def test_rejects_nan_coefficients(self, a, b):
        with pytest.raises(ValueError, match="a and b must be nonnegative"):
            cubic_positive_roots(a, b)


class TestErrorEnvelopes:
    def test_hand_values(self):
        data = KantorovichData(k2=1.0, B=1.0, eta=0.5)  # a = 1/2
        env = error_envelopes(data, 3, system="newton")
        assert np.allclose(env.step_bounds, [0.5, 0.25, 0.125, 0.0625])
        assert env.tail_bounds[0] == pytest.approx(1.0)  # s* eta = 2 * 0.5
        assert env.inverse_bounds[0] == 1.0
        assert env.s_star == pytest.approx(2.0)

    def test_steffensen_system(self):
        data = KantorovichData(k2=1.0, B=1.0, eta=0.5)
        env = error_envelopes(data, 2, system="steffensen")
        assert env.step_bounds[0] == pytest.approx(2.0 / 3.0, rel=1e-14)
        assert env.tail_bounds[1] == pytest.approx((2.0 - 4.0 / 3.0) * 0.5,
                                                   rel=1e-12)

    def test_tail_bounds_decrease(self):
        data = KantorovichData(k2=2.0, B=0.8, eta=0.25)  # a = 0.4
        for system in ("newton", "steffensen"):
            env = error_envelopes(data, 10, system=system)
            diffs = np.diff(env.tail_bounds)
            assert np.all(diffs <= 0.0)
            assert np.all(diffs[:4] < 0.0)  # strictly, before saturation
            assert np.all(env.tail_bounds >= -1e-12)

    def test_raises_above_half(self):
        data = KantorovichData(k2=1.0, B=1.0, eta=0.6)
        with pytest.raises(HypothesesNotSatisfied):
            error_envelopes(data, 5)

    def test_unknown_system(self):
        data = KantorovichData(k2=1.0, B=1.0, eta=0.1)
        with pytest.raises(ValueError):
            error_envelopes(data, 5, system="halley")

    def test_newton_envelope_of_sampled_k2_holds_on_the_h_equation(self):
        # K2 sampled by kantorovich_data must bound F'' for the envelope to
        # hold; the earlier per-axis proxy, max_j ||F''[e_j]||, under-read
        # it (K2 0.055, a 0.18) and the second step, 0.252, broke its
        # bound 0.228
        m = 16
        p = h_equation_problem(m, 0.9)
        data = kantorovich_data(p, np.ones(m), mode="newton")
        env = error_envelopes(data, 30)
        stop = StoppingCriteria(step_tol=0.0, residual_tol=1e-13, max_iter=30)
        trace = solve(p, Newton(), np.ones(m), stop)
        assert trace.status.startswith("converged")
        steps = np.asarray(trace.step_norms)
        bounds = env.step_bounds[:len(steps)]
        sizes = np.array([np.linalg.norm(x) for x in trace.iterates[1:]])
        resolved = steps > 1e-12 * sizes
        assert resolved.sum() >= 3
        assert np.all(steps[resolved] <= bounds[resolved] * (1.0 + 1e-9))
