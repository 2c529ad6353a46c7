"""A-priori error-estimate recurrences for Newton and Steffensen-type runs,
majorizing-polynomial roots, and exact iterations on adimensional
quadratics used as oracles for the recurrences.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np
from scipy.optimize import brentq

from .adimensional import AdimensionalPolynomial
from .problems import KantorovichData

A_MAX = 0.5


class HypothesesNotSatisfied(Exception):
    """a = K2*B*eta exceeds 1/2, the semilocal convergence condition."""


@dataclass
class BoundSequences:
    """The sequences of a bound system, from a_0 = d_0 = 1 (Newton) or
    a_0 = c_0 = 1 (Steffensen), with the partial sums r_n = sum_{k<n} d_k
    (r_0 = 0).

    Newton: a_{n+1} = a_n/(1 - a a_n d_n), d_{n+1} = (a/2) a_{n+1} d_n^2;
    b_seq and c_seq are empty.  Steffensen, five sequences:
    b_n = a_n/(1-(a/2)a_n c_n), d_n = b_n c_n, a_{n+1} = a_n/(1-a a_n d_n),
    c_{n+1} = (a^2/2) d_n^2 (r_n + c_n/2), r_{n+1} = r_n + d_n."""

    a: float
    a_seq: np.ndarray
    b_seq: np.ndarray
    c_seq: np.ndarray
    d_seq: np.ndarray
    r_seq: np.ndarray
    status: str = "positive"


def newton_sequences(a: float, N: int) -> BoundSequences:
    """Arrays a_0..a_N, d_0..d_N and r_0..r_{N+1}; truncated with status
    "not positive" when a denominator crosses zero (which happens iff
    a > 1/2)."""
    if not a >= 0.0:
        raise ValueError("a must be nonnegative")
    a_seq = [1.0]
    d_seq = [1.0]
    status = "positive"
    for _ in range(N):
        den = 1.0 - a * a_seq[-1] * d_seq[-1]
        if den <= 0.0:
            status = "not positive"
            break
        a_next = a_seq[-1] / den
        d_seq.append((a / 2.0) * a_next * d_seq[-1] ** 2)
        a_seq.append(a_next)
    d_seq = np.array(d_seq)
    return BoundSequences(a=a, a_seq=np.array(a_seq), b_seq=np.empty(0),
                          c_seq=np.empty(0), d_seq=d_seq,
                          r_seq=np.concatenate([[0.0], np.cumsum(d_seq)]),
                          status=status)


def newton_rate(a: float, d_n: float) -> float:
    """Closed-form rate d_{n+1} = (a/2) d_n^2 / sqrt((a d_n)^2 + 1 - 2a),
    equivalent to the recurrence via the invariant
    (1/a_n)^2 - 2a d_n/a_n = 1 - 2a."""
    disc = (a * d_n) ** 2 + 1.0 - 2.0 * a
    if disc <= 0.0:
        raise ValueError("rate undefined: discriminant not positive")
    return (a / 2.0) * d_n ** 2 / np.sqrt(disc)


def steffensen_sequences(a: float, N: int) -> BoundSequences:
    if not a >= 0.0:
        raise ValueError("a must be nonnegative")
    a_seq = [1.0]
    c_seq = [1.0]
    r_seq = [0.0]
    b_seq: List[float] = []
    d_seq: List[float] = []
    status = "positive"
    for _ in range(N):
        den_b = 1.0 - (a / 2.0) * a_seq[-1] * c_seq[-1]
        if den_b <= 0.0:
            status = "not positive"
            break
        b_n = a_seq[-1] / den_b
        d_n = b_n * c_seq[-1]
        den_a = 1.0 - a * a_seq[-1] * d_n
        if den_a <= 0.0:
            status = "not positive"
            break
        b_seq.append(b_n)
        d_seq.append(d_n)
        a_seq.append(a_seq[-1] / den_a)
        c_seq.append((a * a / 2.0) * d_n * d_n * (r_seq[-1] + c_seq[-1] / 2.0))
        r_seq.append(r_seq[-1] + d_n)
    return BoundSequences(a=a, a_seq=np.array(a_seq), b_seq=np.array(b_seq),
                          c_seq=np.array(c_seq), d_seq=np.array(d_seq),
                          r_seq=np.array(r_seq), status=status)


# -- exact iterations on the adimensional quadratic (oracles) ----------------

@dataclass
class PolynomialSteffensenRun:
    a: float
    s: np.ndarray          # iterates s_0..s_N
    q_values: np.ndarray   # q(s_n)
    operators: np.ndarray  # q[s_n, s_n + q(s_n)] = q'(s_n) + (a/2) q(s_n)


def steffensen_on_adim_poly(a: float, N: int) -> PolynomialSteffensenRun:
    """Exact scalar Steffensen on q(s) = (a/2)s^2 - s + 1 from s_0 = 0.

    The divided difference over the nodes collapses to q'(s) + (a/2)q(s),
    so the run needs no generic machinery and serves as the independent
    oracle for the five-sequence system."""
    q = AdimensionalPolynomial(a=a)
    s = [0.0]
    qv = [q(0.0)]
    ops = []
    for _ in range(N):
        g = q.derivative(s[-1]) + (a / 2.0) * qv[-1]
        ops.append(g)
        s.append(s[-1] - qv[-1] / g)
        qv.append(q(s[-1]))
    return PolynomialSteffensenRun(a=a, s=np.array(s), q_values=np.array(qv),
                                   operators=np.array(ops))


def newton_on_adim_poly(a: float, N: int) -> np.ndarray:
    """Exact Newton iterates t_0..t_N on q(s) from t_0 = 0."""
    q = AdimensionalPolynomial(a=a)
    t = [0.0]
    for _ in range(N):
        t.append(t[-1] - q(t[-1]) / q.derivative(t[-1]))
    return np.array(t)


# -- majorizing roots --------------------------------------------------------

@dataclass(frozen=True)
class MajorizingRoots:
    s_star: float       # smaller positive root, the convergence radius / eta
    s_star_star: float  # larger positive root (uniqueness), inf when a = 0


def majorizing_roots(a: float) -> MajorizingRoots:
    """Roots of (a/2)s^2 - s + 1 in closed form; requires a <= 1/2."""
    if not a >= 0.0:
        raise ValueError("a must be nonnegative")
    if a == 0.0:
        return MajorizingRoots(1.0, float("inf"))
    if a > A_MAX:
        raise ValueError("no real roots when a > 1/2")
    root_disc = np.sqrt(1.0 - 2.0 * a)
    return MajorizingRoots((1.0 - root_disc) / a, (1.0 + root_disc) / a)


@dataclass(frozen=True)
class CubicRootClassification:
    kind: str                  # "two-simple" | "double" | "none"
    roots: tuple               # positive roots in increasing order


def cubic_positive_roots(a: float, b: float,
                         tol: float = 1e-11) -> CubicRootClassification:
    """Classify the positive roots of q(s) = (b/6)s^3 + (a/2)s^2 - s + 1.

    q(0) = 1 and q'(0) = -1; for a, b >= 0 the derivative has exactly one
    positive zero (the minimum of q), so the sign of the minimum decides:
    negative -> two simple positive roots, zero -> one double, positive ->
    none.  Roots are located by safeguarded bisection.
    """
    if not (a >= 0.0 and b >= 0.0):
        raise ValueError("a and b must be nonnegative")
    if a == 0.0 and b == 0.0:
        # linear: single simple root at 1
        return CubicRootClassification("two-simple", (1.0, float("inf")))
    q = AdimensionalPolynomial(a=a, b=b)
    # bracket the positive critical point of q
    hi = 1.0
    while q.derivative(hi) < 0.0:
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError("failed to bracket the critical point")
    s_crit = brentq(q.derivative, 0.0, hi, xtol=1e-15, rtol=8.9e-16)
    q_min = q(s_crit)
    if q_min > tol:
        return CubicRootClassification("none", ())
    if q_min > -tol:
        return CubicRootClassification("double", (s_crit, s_crit))
    r1 = brentq(q, 0.0, s_crit, xtol=1e-15, rtol=8.9e-16)
    hi = max(2.0 * s_crit, 1.0)
    while q(hi) < 0.0:
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError("failed to bracket the outer root")
    r2 = brentq(q, s_crit, hi, xtol=1e-15, rtol=8.9e-16)
    return CubicRootClassification("two-simple", (r1, r2))


# -- dimensional envelopes ---------------------------------------------------

@dataclass
class ErrorEnvelopes:
    """Per-step and tail bounds in original units (adimensional d_n scaled
    by eta, inverse bounds by B)."""

    data: KantorovichData
    system: str
    d_seq: np.ndarray             # adimensional per-step bounds d_n
    step_bounds: np.ndarray       # d_n * eta
    tail_bounds: np.ndarray       # (s* - r_n) * eta
    inverse_bounds: np.ndarray    # a_n * B
    r_seq: np.ndarray
    s_star: float


def bound_sequences(a: float, N: int, system: str) -> BoundSequences:
    """The sequences of the "newton" or the "steffensen" system, each with
    its partial sums r_n = d_0 + ... + d_{n-1} as r_seq."""
    if system == "newton":
        return newton_sequences(a, N)
    if system == "steffensen":
        return steffensen_sequences(a, N)
    raise ValueError(f"unknown system {system!r}")


def error_envelopes(data: KantorovichData, N: int,
                    system: str = "newton") -> ErrorEnvelopes:
    a = data.a
    if a > A_MAX:
        raise HypothesesNotSatisfied(
            f"hypotheses not satisfied: a = {a:.6g} > 1/2")
    roots = majorizing_roots(a)
    seqs = bound_sequences(a, N, system)
    return ErrorEnvelopes(data=data, system=system, d_seq=seqs.d_seq,
                          step_bounds=seqs.d_seq * data.eta,
                          tail_bounds=(roots.s_star - seqs.r_seq) * data.eta,
                          inverse_bounds=seqs.a_seq * data.B,
                          r_seq=seqs.r_seq, s_star=roots.s_star)
