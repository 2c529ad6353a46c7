import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adimsolve.methods import (HFamily, Newton, Secant, Steffensen,
                               StoppingCriteria, solve)
from adimsolve.orders import (InsufficientDataError, OrderEstimate, aq_order,
                              q_order, r_order)

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0


def synthetic_errors(p, e0=0.5, n=8, c=1.0):
    """e_{n+1} = c e_n^p, an exactly p-th order sequence."""
    e = [e0]
    for _ in range(n - 1):
        e.append(c * e[-1] ** p)
    return e


class TestSyntheticSequences:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_q_order_recovers_p(self, p):
        est = q_order(synthetic_errors(p))
        assert est.p == pytest.approx(p, rel=1e-6)
        assert est.notion == "Q"
        assert est.stable

    def test_q_order_linear_sequence(self):
        est = q_order([0.5 * 0.3 ** n for n in range(10)])
        assert est.p == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_r_order_recovers_p(self, p):
        est = r_order(synthetic_errors(p, n=7))
        assert est.p == pytest.approx(p, rel=0.1)
        assert est.notion == "R"

    def test_aq_order_is_scaled_q_order(self):
        steps = synthetic_errors(2.0)
        base = q_order(steps)
        est = aq_order(steps, eta=1.0)
        assert est.notion == "AQ"
        assert est.p == base.p

    @given(eta=st.floats(0.1, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_aq_order_eta_only_shifts_constant(self, eta):
        # dividing by eta changes the constant, not the exponent
        steps = synthetic_errors(2.0, e0=0.4)
        est = aq_order(steps, eta=eta)
        assert est.p == pytest.approx(2.0, rel=1e-2)

    def test_aq_order_rejects_bad_eta(self):
        with pytest.raises(ValueError):
            aq_order(synthetic_errors(2.0), eta=0.0)

    def test_aq_order_rejects_nan_eta(self):
        with pytest.raises(ValueError, match="eta must be positive"):
            aq_order(synthetic_errors(2.0), eta=float("nan"))

    def test_an_estimate_of_nan_order_is_rejected(self):
        with pytest.raises(ValueError, match="order must be positive"):
            OrderEstimate(notion="Q", p=float("nan"), per_step=(), stable=False)


class TestDataFiltering:
    def test_too_few_entries(self):
        with pytest.raises(InsufficientDataError):
            q_order([0.5, 0.1, 0.01])

    def test_floor_filters_rounding_noise(self):
        # entries at the rounding floor are discarded before estimation
        errors = synthetic_errors(2.0, n=6) + [1e-16, 3e-15]
        est = q_order(errors)
        assert est.p == pytest.approx(2.0, rel=1e-6)

    def test_non_monotone_rejected(self):
        with pytest.raises(InsufficientDataError):
            q_order([0.5, 0.1, 0.2, 0.01, 0.001])

    def test_r_order_needs_errors_below_one(self):
        with pytest.raises(InsufficientDataError):
            r_order([30.0, 10.0, 3.0, 2.0])

    def test_stability_flag(self):
        # alternating exponents 1.5 / 2.5 are flagged unstable
        e = [0.5]
        for k in range(7):
            e.append(e[-1] ** (1.5 if k % 2 else 2.5))
        est = q_order(e)
        assert not est.stable


class TestOnRealIterations:
    STOP = StoppingCriteria(step_tol=0.0, residual_tol=1e-15, max_iter=60)

    def test_newton_is_second_order(self, f1):
        trace = solve(f1, Newton(), 0.2, self.STOP)
        est = q_order(trace.errors(1.0))
        assert est.p == pytest.approx(2.0, abs=0.25)

    def test_steffensen_is_second_order(self, f1):
        trace = solve(f1, Steffensen(), 0.2, self.STOP)
        est = q_order(trace.errors(1.0))
        assert est.p == pytest.approx(2.0, abs=0.25)

    def test_secant_has_golden_ratio_order(self, f1):
        trace = solve(f1, Secant(x_prev=0.0), 0.2, self.STOP)
        est = q_order(trace.errors(1.0))
        assert est.p == pytest.approx(GOLDEN, abs=0.2)

    def test_halley_is_third_order(self, f1):
        # far start so enough iterates land above the rounding floor
        trace = solve(f1, HFamily(h=lambda L: 1.0 / (1.0 - L / 2.0)), -2.0,
                      self.STOP)
        est = q_order(trace.errors(1.0))
        assert est.p == pytest.approx(3.0, abs=0.35)

    def test_r_order_newton(self, f1):
        # regression over a short run biases the estimate upward
        trace = solve(f1, Newton(), 0.5, self.STOP)
        est = r_order(trace.errors(1.0))
        assert est.p == pytest.approx(2.0, abs=0.5)

    def test_aq_order_from_trace(self, f1):
        from adimsolve.problems import kantorovich_data
        trace = solve(f1, Steffensen(), 0.5, self.STOP)
        eta = kantorovich_data(f1, 0.5, mode="asis", k2=1.0).eta
        est = aq_order(trace.step_norms, eta)
        assert est.p == pytest.approx(2.0, abs=0.3)
