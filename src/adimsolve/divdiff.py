"""Divided-difference operators for maps on R^m.

All variants return an m x m matrix H satisfying (up to rounding or
quadrature error) the interpolatory identity H(x - y) = F(x) - F(y).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .problems import Problem, as_point, as_vector

COINCIDENT_TOL = 1e-14
DEFAULT_QUAD_NODES = 8

VARIANTS = ("componentwise", "integral")


@dataclass(frozen=True)
class DividedDifference:
    """Choice of operator: componentwise telescope (at m = 1 the scalar
    quotient of scalar_dd) or Gauss-Legendre quadrature of the Jacobian
    along the segment."""

    variant: str = "componentwise"
    quad_nodes: int = DEFAULT_QUAD_NODES

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == "integral" and self.quad_nodes < 2:
            raise ValueError("integral variant needs at least 2 nodes")

    def __call__(self, problem: Problem, x, y, fx=None, fy=None) -> np.ndarray:
        """Operator on the nodes x, y.  Known values fx = F(x), fy = F(y) are
        used instead of evaluating F there again; the integral variant needs
        neither."""
        if self.variant == "integral":
            return integral_dd(problem, x, y, self.quad_nodes)
        if problem.dimension == 1:
            # numpy scalars, so an overflowing quotient warns as on arrays
            h = scalar_dd(problem, as_point(x, 1)[0], as_point(y, 1)[0],
                          None if fx is None else as_vector(fx)[0],
                          None if fy is None else as_vector(fy)[0])
            return np.array([[h]])
        return componentwise_dd(problem, x, y, fx, fy)


def _coincident(xj: float, yj: float) -> bool:
    return abs(yj - xj) < COINCIDENT_TOL * max(1.0, abs(xj))


def scalar_dd(problem: Problem, x: float, y: float,
              fx: Optional[float] = None, fy: Optional[float] = None) -> float:
    """(f(x) - f(y)) / (x - y); falls back to f'(x) on coincident nodes.
    Known values fx = f(x), fy = f(y) are not evaluated again.  The
    componentwise operator at m = 1; componentwise_dd's telescope gives
    the same bits there, but for the sign of a zero quotient."""
    if problem.dimension != 1:
        raise ValueError("scalar_dd requires a scalar problem")
    if _coincident(x, y):
        return float(problem.jac([x])[0, 0])
    if fx is None:
        fx = problem.evaluate([x])[0]
    if fy is None:
        fy = problem.evaluate([y])[0]
    return float((fx - fy) / (x - y))


def componentwise_dd(problem: Problem, x, y, fx=None, fy=None) -> np.ndarray:
    """Telescoping componentwise operator.

    Column j is the difference quotient of F between the telescope points
    z_j = (y[:j], x[j:]) and z_{j+1}, so the columns telescope and the
    interpolatory identity holds exactly up to rounding.  Each z_k is
    evaluated at most once, and the endpoints z_0 = x and z_m = y not at
    all when their values fx, fy are given, so a full operator costs m - 1
    new F evaluations.  The points to evaluate are one checked stack, and
    the columns one subtraction and one division over it.  Columns with
    y_j = x_j (to 1e-14 relative) take the Jacobian column, and a point
    only they would use is not evaluated.
    """
    m = problem.dimension
    x = as_point(x, m)
    y = as_point(y, m)
    # Python floats: the same IEEE arithmetic as numpy scalars, at less cost
    live = [not _coincident(xj, yj) for xj, yj in zip(x.tolist(), y.tolist())]
    dead = [j for j, ok in enumerate(live) if not ok]
    # row k of FZ is F(z_k); with dead columns, rows no live column uses
    # stay 0, so the subtraction below sees finite values only
    FZ = np.zeros((m + 1, m)) if dead else np.empty((m + 1, m))
    if fx is not None:
        FZ[0] = fx
    if fy is not None:
        FZ[m] = fy
    lo, hi = (0 if fx is None else 1), (m + 1 if fy is None else m)
    if dead:
        # z_k serves columns k - 1 and k
        rows = [k for k in range(lo, hi)
                if (k < m and live[k]) or (k > 0 and live[k - 1])]
    else:
        rows = slice(lo, hi)    # a view: the stack fills FZ in place
    Fk = FZ[rows]
    if len(Fk):
        problem._evaluate_stack(np.where(_telescope_mask(m)[rows], y, x), Fk)
        if dead:
            FZ[rows] = Fk
    H = np.empty((m, m))
    np.subtract(FZ[1:], FZ[:-1], out=H.T)
    d = y - x
    if dead:
        d[dead] = 1.0       # no 0/0: these columns take the Jacobian's
    H /= d
    if dead:
        H[:, dead] = problem.jac(x)[:, dead]
    return H


@lru_cache(maxsize=8)
def _telescope_mask(m: int) -> np.ndarray:
    """Read-only (m + 1, m) mask, row k True left of column k: the point
    z_k = (y[:k], x[k:]) is np.where(row k, y, x)."""
    mask = np.tri(m + 1, m, -1, dtype=bool)
    mask.flags.writeable = False
    return mask


@lru_cache(maxsize=32)
def gauss_legendre_01(q: int) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """The q-node Gauss-Legendre rule moved to [0, 1], as tuples (theta, w)
    of Python floats.  leggauss is an eigenvalue solve, so the rule is
    computed once per q (the last 32 are kept); tuples, so no caller can
    change the shared rule."""
    nodes, weights = np.polynomial.legendre.leggauss(q)
    return tuple((0.5 * (nodes + 1.0)).tolist()), tuple((0.5 * weights).tolist())


def integral_dd(problem: Problem, x, y, q: int = DEFAULT_QUAD_NODES) -> np.ndarray:
    """Gauss-Legendre quadrature of F'(x + theta (y - x)) over theta in [0,1]."""
    m = problem.dimension
    x = as_point(x, m)
    y = as_point(y, m)
    theta, w = gauss_legendre_01(q)
    # node i is x + theta_i (y - x), the nodes' Jacobians one checked stack
    J = np.empty((q, m, m))
    problem._jac_stack(x + np.multiply.outer(theta, y - x), J)
    H = np.zeros((m, m))
    for wi, Ji in zip(w, J):
        H += wi * Ji
    return H


def verify_interpolatory(H: np.ndarray, problem: Problem, x, y) -> float:
    """Relative residual of H(x-y) = F(x) - F(y)."""
    m = problem.dimension
    x = as_point(x, m)
    y = as_point(y, m)
    H = np.atleast_2d(np.asarray(H, dtype=float))
    dF = problem.evaluate(x) - problem.evaluate(y)
    r = problem.vector_norm(H @ (x - y) - dF)
    return float(r / max(1.0, problem.vector_norm(dF)))
