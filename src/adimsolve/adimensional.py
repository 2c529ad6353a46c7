"""Adimensional forms of polynomials and of nonlinear maps.

The form of F at a base point x0 is G(y) = F(x)/||F(x0)|| in the variable
y = T x with T = -F'(x0)/||F(x0)||.  By construction ||G(y0)|| = 1 and
G'(y0) = -I, and G is unchanged by linear rescalings of x and F.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import lu_factor
from scipy.linalg.lapack import dgetrs

from .problems import (AlreadyAtRootError, Problem, RCOND_FLOOR,
                       SingularOperatorError, all_finite, as_point, as_vector,
                       rcond)

NORMALIZATION_TOL = 1e-12   # allowed | ||G(y0)|| - 1 |
DERIVATIVE_TOL = 1e-8       # allowed ||G'(y0) + I||, G' by finite differences
# Central-difference step of that check, ~eps^(1/3): its rounding noise,
# ~eps/step, stays far below DERIVATIVE_TOL at m = 100, where the step of
# fd_jacobian (1e-7) leaves ~1e-8 and rejected sound forms.
CHECK_FD_STEP = 1e-5


def lu_solve(lu_and_piv, b, trans: int = 0) -> np.ndarray:
    """x with T x = b (trans=1: T^T x = b) from T's LU factors (lu, piv):
    LAPACK getrs, the routine and call scipy.linalg.lu_solve makes, with
    its check that b is finite but without its batching and dispatch."""
    lu, piv = lu_and_piv
    if not all_finite(b):
        raise ValueError("array must not contain infs or NaNs")
    return dgetrs(lu, piv, b, trans=trans)[0]


@dataclass(frozen=True)
class AdimensionalForm:
    """The transform y = T x (T = -F'(x0)/sigma) and the wrapped map G.

    T is kept as an LU factorization; back-transforms solve T x = y rather
    than forming T^{-1}.
    """

    problem: Problem
    x0: np.ndarray
    sigma: float
    T: np.ndarray
    y0: np.ndarray
    g: Problem = field(repr=False)
    _lu: tuple = field(repr=False)

    def to_adimensional(self, x) -> np.ndarray:
        x = as_point(x, self.problem.dimension)
        return self.T @ x

    def to_original(self, y) -> np.ndarray:
        y = as_point(y, self.problem.dimension)
        return lu_solve(self._lu, y)


def adimensionalize(problem: Problem, x0) -> AdimensionalForm:
    """Build the adimensional form at x0, verifying the normalization.

    Raises AlreadyAtRootError when F(x0) = 0 and SingularOperatorError when
    F'(x0) is singular; fails loudly when the constructed form misses
    ||G(y0)|| = 1 by more than NORMALIZATION_TOL or G'(y0) = -I by more
    than DERIVATIVE_TOL (finite-difference check).
    """
    m = problem.dimension
    x0 = as_point(x0, m)
    fx0 = problem.evaluate(x0)
    sigma = problem.vector_norm(fx0)
    if sigma < 1e-300:
        raise AlreadyAtRootError("already at root: F(x0) = 0")
    J0 = problem.jac(x0)
    if rcond(J0) < RCOND_FLOOR:
        raise SingularOperatorError("derivative singular at x0")
    T = -J0 / sigma
    lu = lu_factor(T)

    def g_eval(y):
        x = lu_solve(lu, as_vector(y))
        return problem.evaluate(x) / sigma

    g_jac = None
    if problem.has_analytic_jacobian():
        def g_jac(y):
            x = lu_solve(lu, as_vector(y))
            # G'(y) = F'(x) T^{-1} / sigma, transposed: T^{-T} F'(x)^T
            # from T's LU
            Jf = problem.jac(x)
            return lu_solve(lu, Jf.T, trans=1).T / sigma

    g = Problem(f=g_eval, jacobian=g_jac, dimension=m, norm=problem.norm,
                name=f"adim({problem.name})")

    y0 = T @ x0
    form = AdimensionalForm(problem=problem, x0=x0, sigma=sigma, T=T, y0=y0,
                            g=g, _lu=lu)
    report = check_normalization(form)
    if report["value_residual"] > NORMALIZATION_TOL:
        raise ValueError("adimensional form violates ||G(y0)|| = 1: "
                         f"residual {report['value_residual']:.3e}")
    if report["derivative_residual"] > DERIVATIVE_TOL:
        raise ValueError("adimensional form violates G'(y0) = -I: "
                         f"residual {report['derivative_residual']:.3e}")
    return form


def check_normalization(obj) -> dict:
    """Residuals of the two normalization conditions.

    For an AdimensionalForm: | ||G(y0)|| - 1 |, judged at the point x_c
    that G(y0) evaluates, and ||G'(y0) + I|| with the derivative taken by
    central differences.  For an AdimensionalPolynomial:
    |q(0) - 1| and |q'(0) + 1|.
    """
    if isinstance(obj, AdimensionalPolynomial):
        return {"value_residual": abs(obj(0.0) - 1.0),
                "derivative_residual": abs(obj.derivative(0.0) + 1.0)}
    form: AdimensionalForm = obj
    p, T, sigma = form.problem, form.T, form.sigma
    # G(y) = F(T^-1 y)/sigma, so both checks run on F in x-space about
    # x_c = T^-1 y0, the point G(y0) evaluates
    x_c = lu_solve(form._lu, form.y0)
    # the round trip y0 = T x0, x_c = T^-1 y0 moves x by rounding (an ulp
    # of 1e6 changes F by ~1e-10 relative on exp(x - 1e6)); judge the value
    # at the represented point: F(x_c)/sigma + T (x_c - x0) is F(x0)/sigma
    # to first order
    value_res = abs(p.vector_norm(p.evaluate(x_c) / sigma
                                  + T @ (x_c - form.x0)) - 1.0)
    # G'(y0) by central differences with an absolute step h in y (y is
    # measured in Newton steps at y0, whatever |y0| is): the y-steps h e_j
    # are the x-steps D = T^-1 (h I), all m from one solve.  x_c +- D
    # rounds, so each column is compared with the step it represents,
    # T S with S = X+ - X-, not with the nominal 2h e_j (Dennis & Schnabel,
    # App. A): R = [(F(X+) - F(X-))/sigma + T S] / 2h is G'(y0) + I up to
    # truncation and the rounding of F.
    m = p.dimension
    D = lu_solve(form._lu, CHECK_FD_STEP * np.eye(m))
    # rows 2j and 2j + 1 of X are x_c +- D[:, j], all 2m points one checked
    # stack of F evaluations
    X, FX = np.empty((2 * m, m)), np.empty((2 * m, m))
    X[0::2] = x_c + D.T
    X[1::2] = x_c - D.T
    p._evaluate_stack(X, FX)
    R = ((FX[0::2] - FX[1::2]).T / sigma
         + T @ (X[0::2] - X[1::2]).T) / (2.0 * CHECK_FD_STEP)
    deriv_res = p.operator_norm(R)
    return {"value_residual": float(value_res),
            "derivative_residual": float(deriv_res)}


# -- adimensional polynomials ----------------------------------------------

@dataclass(frozen=True)
class AdimensionalPolynomial:
    """q(s) = (b/6)s^3 + (a/2)s^2 - s + 1 (degree 2 when b is omitted)."""

    a: float
    b: float = 0.0
    degree: int = 2

    def __post_init__(self):
        if self.a < 0.0 or self.b < 0.0:
            raise ValueError("a and b must be nonnegative")
        if self.degree not in (2, 3):
            raise ValueError("degree must be 2 or 3")
        if self.degree == 2 and self.b != 0.0:
            raise ValueError("degree-2 polynomial cannot carry b")

    def __call__(self, s: float) -> float:
        return ((self.b / 6.0) * s ** 3 + (self.a / 2.0) * s ** 2 - s + 1.0)

    def derivative(self, s: float) -> float:
        return (self.b / 2.0) * s ** 2 + self.a * s - 1.0

    def second_derivative(self, s: float) -> float:
        return self.b * s + self.a

    def as_problem(self, norm: str = "euclidean") -> Problem:
        return Problem(f=self.__call__, jacobian=self.derivative,
                       d2f=self.second_derivative, dimension=1, norm=norm,
                       name=f"q(a={self.a},b={self.b})")


def adimensional_polynomial(k2: float, B: float, eta: float,
                            k3: Optional[float] = None) -> AdimensionalPolynomial:
    """Adimensional form of the majorizing polynomial: a = K2*B*eta and,
    for the cubic, b = K3*B*eta^2."""
    if B <= 0.0 or eta <= 0.0:
        raise ValueError("B and eta must be positive")
    if k2 < 0.0:
        raise ValueError("k2 must be nonnegative")
    a = k2 * B * eta
    if k3 is None:
        return AdimensionalPolynomial(a=a)
    if k3 < 0.0:
        raise ValueError("k3 must be nonnegative")
    return AdimensionalPolynomial(a=a, b=k3 * B * eta * eta, degree=3)
