"""A-priori error-estimate recurrences for Newton and Steffensen-type runs,
majorizing-polynomial roots, and exact iterations on adimensional
quadratics used as oracles for the recurrences.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

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
    """Roots of (a/2)s^2 - s + 1 in closed form; requires a <= 1/2.
    s* = 2/(1 + sqrt(1 - 2a)) is (1 - sqrt(1 - 2a))/a without its
    cancellation, so s* stays exact as a -> 0."""
    if not a >= 0.0:
        raise ValueError("a must be nonnegative")
    if a > A_MAX:
        raise ValueError("no real roots when a > 1/2")
    root_disc = np.sqrt(1.0 - 2.0 * a)
    s_star_star = (1.0 + root_disc) / a if a else float("inf")
    return MajorizingRoots(2.0 / (1.0 + root_disc), s_star_star)


@dataclass(frozen=True)
class CubicRootClassification:
    kind: str                  # "two-simple" | "double" | "none"
    roots: tuple               # positive roots in increasing order


def _bisect(q, lo: float, hi: float) -> float:
    """A root of q on [lo, hi], where q(lo) and q(hi) differ in sign:
    the bracket is halved, the sign change kept inside it, until its
    midpoint rounds to one of its ends, and the end with the smaller |q|
    is returned (a midpoint where q is exactly 0 at once).  There is no
    tolerance: the ends are then adjacent doubles."""
    lo_positive = q(lo) > 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return lo if abs(q(lo)) <= abs(q(hi)) else hi
        q_mid = q(mid)
        if q_mid == 0.0:
            return mid
        if (q_mid > 0.0) == lo_positive:
            lo = mid
        else:
            hi = mid


def cubic_positive_roots(a: float, b: float) -> CubicRootClassification:
    """Classify the positive roots of q(s) = (b/6)s^3 + (a/2)s^2 - s + 1.

    q(0) = 1 and q'(0) = -1; for a, b >= 0 the derivative has exactly one
    positive zero s_c = 2/(a + sqrt(a^2 + 2b)) (the minimum of q), so the
    sign of the minimum decides: below -1e-11 -> two simple positive roots,
    within 1e-11 of zero -> one double, above -> none.  The quadratic
    (b = 0) takes majorizing_roots' closed form.  The cubic's roots are
    bisected on [0, s_c] and on [s_c, hi], hi the first of max(2 s_c, 1)
    doubled where q >= 0, until each bracket's ends are adjacent doubles;
    the end with the smaller |q| is the root.  q's constructor rejects a
    negative, infinite or NaN a or b.
    """
    q = AdimensionalPolynomial(a=a, b=b)
    if b == 0.0:
        # q(1/a) = 1 - 1/(2a); linear (a = 0): single simple root at 1
        q_min, s_crit = (1.0 - 0.5 / a, 1.0 / a) if a else (-math.inf, math.inf)
    else:
        s_crit = 2.0 / (a + math.hypot(a, math.sqrt(2.0 * b)))
        q_min = q(s_crit)
    if q_min > 1e-11:
        return CubicRootClassification("none", ())
    if q_min > -1e-11:
        return CubicRootClassification("double", (s_crit, s_crit))
    if b == 0.0:
        roots = majorizing_roots(a)
        return CubicRootClassification(
            "two-simple", (roots.s_star, roots.s_star_star))
    # q -> +inf, so the doubling ends
    hi = max(2.0 * s_crit, 1.0)
    while q(hi) < 0.0:
        hi *= 2.0
    return CubicRootClassification(
        "two-simple", (_bisect(q, 0.0, s_crit), _bisect(q, s_crit, hi)))


# -- dimensional envelopes ---------------------------------------------------

@dataclass
class ErrorEnvelopes:
    """The bound table of (K2, B, eta) under one system: its sequences and
    their per-step, tail and inverse bounds in original units (adimensional
    d_n scaled by eta, a_n by B).  s*, and so every tail, is NaN when
    a > 1/2."""

    data: KantorovichData
    system: str
    sequences: BoundSequences
    step_bounds: np.ndarray       # d_n * eta
    tail_bounds: np.ndarray       # max(s* - r_n, 0) * eta
    inverse_bounds: np.ndarray    # a_n * B
    s_star: float


def bound_table(data: KantorovichData, N: int,
                system: str = "newton") -> ErrorEnvelopes:
    """The "newton" or the "steffensen" system's table over N steps, at any
    a.  s* - r_n is clamped at 0, since a partial sum r_n can round past
    s*; np.maximum keeps a NaN s* NaN."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    if system == "newton":
        seqs = newton_sequences(data.a, N)
    elif system == "steffensen":
        seqs = steffensen_sequences(data.a, N)
    else:
        raise ValueError(f"unknown system {system!r}")
    s_star = (majorizing_roots(data.a).s_star if data.a <= A_MAX
              else float("nan"))
    return ErrorEnvelopes(
        data=data, system=system, sequences=seqs,
        step_bounds=seqs.d_seq * data.eta,
        tail_bounds=np.maximum(s_star - seqs.r_seq, 0.0) * data.eta,
        inverse_bounds=seqs.a_seq * data.B, s_star=s_star)


def error_envelopes(data: KantorovichData, N: int,
                    system: str = "newton") -> ErrorEnvelopes:
    """bound_table under the hypothesis a <= 1/2, which it checks first."""
    if data.a > A_MAX:
        raise HypothesesNotSatisfied(
            f"hypotheses not satisfied: a = {data.a:.6g} > 1/2")
    return bound_table(data, N, system)
