"""Empirical convergence-order estimation: per-step (Q), asymptotic (R),
and relative-error (adimensional Q) notions."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

ROUNDING_FLOOR = 1e-14
STABILITY_WINDOW = 0.1


class InsufficientDataError(Exception):
    """Not enough usable entries to estimate an order."""


@dataclass(frozen=True)
class OrderEstimate:
    notion: str                 # "Q" | "R" | "AQ"
    p: float
    per_step: tuple
    stable: bool

    def __post_init__(self):
        if not self.p > 0.0:
            raise ValueError("estimated order must be positive")


def _usable(errors: Sequence[float], require_below_one: bool = False) -> np.ndarray:
    e = np.asarray(list(errors), dtype=float)
    e = e[e > ROUNDING_FLOOR]
    if require_below_one:
        e = e[e < 1.0]
    if len(e) < 4:
        raise InsufficientDataError("insufficient data: need at least 4 "
                                    "usable entries")
    if not np.all(np.diff(e) < 0.0):
        raise InsufficientDataError("insufficient data: errors must be "
                                    "strictly decreasing")
    return e


def q_order(errors: Sequence[float]) -> OrderEstimate:
    """Per-step exponents p_n = log(e_{n+1}/e_n)/log(e_n/e_{n-1});
    headline is the median of the last three."""
    e = _usable(errors)
    ratios = np.log(e[1:] / e[:-1])
    per_step = ratios[1:] / ratios[:-1]
    last = per_step[-3:]
    p = float(np.median(last))
    stable = bool(np.max(last) - np.min(last) <= STABILITY_WINDOW)
    return OrderEstimate(notion="Q", p=p, per_step=tuple(per_step),
                         stable=stable)


def r_order(errors: Sequence[float]) -> OrderEstimate:
    """Slope of log(-log e_n) against n; exp(slope) estimates p."""
    e = _usable(errors, require_below_one=True)
    y = np.log(-np.log(e))
    n = np.arange(len(e))
    slope = float(np.polyfit(n, y, 1)[0])
    p = float(np.exp(slope))
    # per-step slopes for the stability flag
    per_step = np.exp(np.diff(y))
    last = per_step[-3:]
    stable = bool(np.max(last) - np.min(last) <= STABILITY_WINDOW)
    return OrderEstimate(notion="R", p=p, per_step=tuple(per_step),
                         stable=stable)


def aq_order(step_norms: Sequence[float], eta: float) -> OrderEstimate:
    """Q-order of the adimensional sequence d_n = ||step_n|| / eta."""
    if not eta > 0.0:
        raise ValueError("eta must be positive")
    d = np.asarray(list(step_norms), dtype=float) / eta
    est = q_order(d)
    return OrderEstimate(notion="AQ", p=est.p, per_step=est.per_step,
                         stable=est.stable)
