"""Adimensional forms of polynomials and of nonlinear maps.

The form of F at a base point x0 is G(y) = F(x)/||F(x0)|| in the variable
y = T (x - x0) with T = -F'(x0)/||F(x0)||.  By construction y0 = 0,
||G(0)|| = 1 and G'(0) = -I, and G is unchanged by linear rescalings of x
and F and by moving x's origin.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

# rcond is imported for perfbench/tracer.py, which patches this lookup site
from .problems import (AlreadyAtRootError, DomainError, Problem, all_finite,
                       as_point, as_vector, euclidean_norm, factor_nonsingular,
                       lu_solve, rcond)

NORMALIZATION_TOL = 1e-12   # allowed | ||G(y0)|| - 1 |
DERIVATIVE_TOL = 1e-8       # allowed ||G'(y0) + I||, G' by finite differences
# Central-difference step of that check, ~eps^(1/3): its rounding noise,
# ~eps/step, stays far below DERIVATIVE_TOL at m = 100, where the step of
# fd_jacobian (1e-7) leaves ~1e-8 and rejected sound forms.
CHECK_FD_STEP = 1e-5
# how the message of a rejected form begins
FORM_REJECTED = "adimensional form violates"


@dataclass(frozen=True)
class AdimensionalForm:
    """The transform y = T (x - x0) (T = -F'(x0)/sigma) and the map
    G(y) = F(x0 + T^-1 y)/sigma it defines.

    T is kept as an LU factorization: each point y is mapped to x by its
    own one-column solve of T d = y, x = x0 + d, rather than by forming
    T^{-1}.  y0 = 0 is x0's image, and f_c = F(x0) the value behind G(y0).

    The form is G's map f: called on one point it returns G(y), and
    evaluate_stack maps a stack of points, a divided difference's
    telescope, to x row by row and evaluates them as one checked stack of
    F.
    """

    problem: Problem
    x0: np.ndarray
    sigma: float
    T: np.ndarray
    y0: np.ndarray
    _lu: tuple = field(repr=False)
    f_c: np.ndarray = field(repr=False)

    @property
    def g(self) -> Problem:
        """G as a Problem whose map is this form.  It is built on each
        access: kept on the form, it would make the form a reference cycle,
        freed only by the garbage collector."""
        p = self.problem
        return Problem(f=self, jacobian=self.g_jacobian
                       if p.has_analytic_jacobian() else None,
                       dimension=p.dimension, norm=p.norm,
                       name=f"adim({p.name})")

    def to_adimensional(self, x) -> np.ndarray:
        x = as_point(x, self.problem.dimension)
        return self.T @ (x - self.x0)

    def to_original(self, y) -> np.ndarray:
        y = as_point(y, self.problem.dimension)
        if not all_finite(y):   # the one right-hand side from outside
            raise ValueError("array must not contain infs or NaNs")
        return self._to_x(y)

    def _to_x(self, y: np.ndarray) -> np.ndarray:
        """x = x0 + T^-1 y for a vector y: every point the form maps, one
        at a time or in a stack, takes this one-column solve (a
        multi-column solve gives other last bits)."""
        return self.x0 + lu_solve(self._lu, y)

    def __call__(self, y) -> np.ndarray:
        """G(y) at one point, x checked by F's evaluate."""
        return self.problem.evaluate(self._to_x(as_vector(y))) / self.sigma

    def g_jacobian(self, y) -> np.ndarray:
        """G'(y) = F'(x) T^-1 / sigma, transposed: T^-T F'(x)^T from T's
        LU factors."""
        Jf = self.problem.jac(self._to_x(as_vector(y)))
        return lu_solve(self._lu, Jf.T, trans=1).T / self.sigma

    def evaluate_stack(self, Y: np.ndarray, GY: np.ndarray) -> None:
        """G at each row of Y into GY, for Problem._evaluate_stack, which
        tests Y and GY finite around it: the rows mapped to x one by one,
        F at all of them one checked stack, then divided by sigma."""
        X = np.empty(Y.shape)
        for i, y in enumerate(Y):
            X[i] = self._to_x(y)
        self.problem._evaluate_stack(X, GY)
        GY /= self.sigma


def adimensionalize(problem: Problem, x0) -> AdimensionalForm:
    """Build the adimensional form at x0, verifying the normalization.

    T is factored once by factor_nonsingular, whose gecon test judges
    F'(x0) as it judges every step operator.  Raises AlreadyAtRootError when
    F(x0) = 0, DomainError when T is not finite, SingularOperatorError when
    it is singular, and a ValueError whose message starts with FORM_REJECTED
    when the form misses ||G(y0)|| = 1 by more than NORMALIZATION_TOL or
    G'(y0) = -I by more than DERIVATIVE_TOL.  In the Euclidean norm a
    Frobenius norm of G'(y0) + I within the tolerance accepts the form
    (||R||_2 <= ||R||_F), so the exact norm, an SVD, is taken only to decide
    and quote a rejection.
    """
    m = problem.dimension
    x0 = as_point(x0, m).copy()
    fx0 = problem.evaluate(x0)
    sigma = problem.vector_norm(fx0)
    if sigma == 0.0:
        raise AlreadyAtRootError("already at root: F(x0) = 0")
    T = -problem.jac(x0) / sigma
    if not all_finite(T):
        raise DomainError("domain failure: non-finite T = -F'(x0)/||F(x0)||")
    lu = factor_nonsingular(T)
    form = AdimensionalForm(problem=problem, x0=x0, sigma=sigma, T=T,
                            y0=np.zeros(m), _lu=lu, f_c=fx0)
    value_res, R = _normalization_residuals(form)
    if value_res > NORMALIZATION_TOL:
        raise ValueError(f"{FORM_REJECTED} ||G(y0)|| = 1: "
                         f"residual {value_res:.3e}")
    if problem.norm == "max" or euclidean_norm(R) > DERIVATIVE_TOL:
        deriv_res = problem.operator_norm(R)
        if deriv_res > DERIVATIVE_TOL:
            raise ValueError(f"{FORM_REJECTED} G'(y0) = -I: "
                             f"residual {deriv_res:.3e}")
    return form


def check_normalization(form: AdimensionalForm) -> dict:
    """Residuals of the form's two normalization conditions:
    | ||G(y0)|| - 1 | and ||G'(y0) + I|| (the operator norm), the derivative
    taken by central differences.
    """
    value_res, R = _normalization_residuals(form)
    return {"value_residual": float(value_res),
            "derivative_residual": form.problem.operator_norm(R)}


def _normalization_residuals(form: AdimensionalForm):
    """| ||G(y0)|| - 1 | and the matrix R = G'(y0) + I."""
    p, T, sigma, x0 = form.problem, form.T, form.sigma, form.x0
    # G(y) = F(x0 + T^-1 y)/sigma, so both checks run on F in x-space about
    # x0, with the form's F(x0)
    value_res = abs(p.vector_norm(form.f_c / sigma) - 1.0)
    # G'(y0) by central differences with an absolute step h in y (y is
    # measured in Newton steps at x0): the y-steps h e_j are the x-steps
    # D = T^-1 (h I), all m from one solve.  x0 +- D rounds by an ulp of
    # |x0|, so each column is compared with the step it represents,
    # T S with S = X+ - X-, not with the nominal 2h e_j (Dennis & Schnabel,
    # App. A): R = [(F(X+) - F(X-))/sigma + T S] / 2h is G'(y0) + I up to
    # truncation and the rounding of F.
    m = p.dimension
    D = lu_solve(form._lu, CHECK_FD_STEP * np.eye(m))
    # rows 2j and 2j + 1 of X are x0 +- D[:, j], all 2m points one checked
    # stack of F evaluations
    X, FX = np.empty((2 * m, m)), np.empty((2 * m, m))
    X[0::2] = x0 + D.T
    X[1::2] = x0 - D.T
    p._evaluate_stack(X, FX)
    R = ((FX[0::2] - FX[1::2]).T / sigma
         + T @ (X[0::2] - X[1::2]).T) / (2.0 * CHECK_FD_STEP)
    return value_res, R


# -- adimensional polynomials ----------------------------------------------

@dataclass(frozen=True)
class AdimensionalPolynomial:
    """q(s) = (b/6)s^3 + (a/2)s^2 - s + 1 (the quadratic when b = 0)."""

    a: float
    b: float = 0.0

    def __post_init__(self):
        if not (self.a >= 0.0 and self.b >= 0.0):
            raise ValueError("a and b must be nonnegative")

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
    if not (B > 0.0 and eta > 0.0):
        raise ValueError("B and eta must be positive")
    if not k2 >= 0.0:
        raise ValueError("k2 must be nonnegative")
    if k3 is not None and not k3 >= 0.0:
        raise ValueError("k3 must be nonnegative")
    return AdimensionalPolynomial(
        a=k2 * B * eta, b=0.0 if k3 is None else k3 * B * eta * eta)
