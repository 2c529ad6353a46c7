"""Divided-difference operators for scalars and maps on R^m.

All variants return an m x m matrix H satisfying (up to rounding or
quadrature error) the interpolatory identity H(x - y) = F(x) - F(y).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from .problems import Problem, as_point

COINCIDENT_TOL = 1e-14
DEFAULT_QUAD_NODES = 8

VARIANTS = ("scalar", "componentwise", "integral")


@dataclass(frozen=True)
class DividedDifference:
    """Choice of operator: scalar quotient, componentwise telescope, or
    Gauss-Legendre quadrature of the Jacobian along the segment."""

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
        if self.variant == "scalar":
            return np.array([[scalar_dd(problem, _first(x), _first(y),
                                        _first(fx), _first(fy))]])
        if self.variant == "integral":
            return integral_dd(problem, x, y, self.quad_nodes)
        return componentwise_dd(problem, x, y, fx, fy)


def _first(v):
    return None if v is None else float(np.atleast_1d(v)[0])


def _coincident(xj: float, yj: float) -> bool:
    return abs(yj - xj) < COINCIDENT_TOL * max(1.0, abs(xj))


def scalar_dd(problem: Problem, x: float, y: float,
              fx: Optional[float] = None, fy: Optional[float] = None) -> float:
    """(f(x) - f(y)) / (x - y); falls back to f'(x) on coincident nodes.
    Known values fx = f(x), fy = f(y) are not evaluated again."""
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
    evaluated at most once; the endpoints z_0 = x and z_m = y not at all
    when their values fx, fy are given, so a full operator costs m - 1 new
    F evaluations.  Columns with y_j = x_j (to 1e-14 relative) take the
    Jacobian column.
    """
    m = problem.dimension
    x = as_point(x, m)
    y = as_point(y, m)
    fz = [fx] + [None] * (m - 1) + [fy]

    def f_at(k):
        if fz[k] is None:
            fz[k] = problem.evaluate(np.concatenate([y[:k], x[k:]]) if k else x)
        return fz[k]

    H = np.empty((m, m))
    jac = None
    # Python floats: the same IEEE arithmetic as numpy scalars, at less cost
    for j, (xj, yj) in enumerate(zip(x.tolist(), y.tolist())):
        if _coincident(xj, yj):
            if jac is None:
                jac = problem.jac(x)
            H[:, j] = jac[:, j]
            continue
        H[:, j] = (f_at(j + 1) - f_at(j)) / (yj - xj)
    return H


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
    H = np.zeros((m, m))
    for t, wi in zip(theta, w):
        H += wi * problem.jac(x + t * (y - x))
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
