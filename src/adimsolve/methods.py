"""Iteration engines: bisection, fixed-slope, damped first order, Newton,
secant, Steffensen (plain and damped), the adimensional h-family, and the
scale-invariant Steffensen driver run on the adimensional form.
"""
from __future__ import annotations

import csv
import dataclasses
import io
import json
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .adimensional import FORM_REJECTED, AdimensionalForm, adimensionalize
from .divdiff import DividedDifference
from .problems import (AlreadyAtRootError, DomainError, Problem,
                       SingularOperatorError, as_point, as_vector,
                       euclidean_norm, solve_linear)

DIVERGENCE_NORM = 1e12
DIVERGENCE_RESIDUAL_GROWTH = 1e6
# numpy's floating-point warnings, off inside solve and asis_solve: an
# overflow or a division by zero leaves a non-finite value, which the
# finiteness checks report whatever the warning filter
QUIET = dict(over="ignore", divide="ignore", invalid="ignore")


# -- stopping criteria and traces -------------------------------------------

@dataclass(frozen=True)
class StoppingCriteria:
    step_tol: float = 1e-15
    residual_tol: float = 1e-15
    max_iter: int = 100

    def __post_init__(self):
        if not (self.step_tol >= 0.0 and self.residual_tol >= 0.0):
            raise ValueError("tolerances must be nonnegative")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class IterationTrace:
    """Full record of one solver run."""

    iterates: List[np.ndarray] = field(default_factory=list)
    residual_norms: List[float] = field(default_factory=list)
    step_norms: List[float] = field(default_factory=list)
    status: str = "max-iter"
    n_evals: int = 0
    n_jac_evals: int = 0
    used_fd_jacobian: bool = False
    warnings: List[str] = field(default_factory=list)

    @property
    def x_final(self) -> np.ndarray:
        if not self.iterates:
            raise ValueError(f"no iterate recorded (status {self.status!r})")
        return self.iterates[-1]

    @property
    def n_steps(self) -> int:
        """Steps taken; 0 when no iterate was recorded."""
        return max(len(self.iterates) - 1, 0)

    def errors(self, root) -> np.ndarray:
        """Norms ||x_n - root|| (Euclidean), the rows of one stacked
        difference."""
        if not self.iterates:
            return np.array([])
        root = np.atleast_1d(np.asarray(root, dtype=float))
        return np.array([euclidean_norm(d)
                         for d in np.array(self.iterates) - root])

    def to_rows(self):
        rows = []
        for n, x in enumerate(self.iterates):
            step = "" if n == 0 else repr(float(self.step_norms[n - 1]))
            rows.append([n] + [repr(float(v)) for v in x.tolist()]
                        + [repr(float(self.residual_norms[n])), step])
        return rows

    def to_csv(self) -> str:
        m = len(self.iterates[0]) if self.iterates else 0
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["n"] + [f"x{i}" for i in range(m)] + ["res_norm", "step_norm"])
        w.writerows(self.to_rows())
        return buf.getvalue()

    def to_json(self) -> str:
        return json.dumps({
            "iterates": [list(x) for x in self.iterates],
            "residual_norms": self.residual_norms,
            "step_norms": self.step_norms,
            "status": self.status,
            "n_evals": self.n_evals,
            "n_jac_evals": self.n_jac_evals,
            "used_fd_jacobian": self.used_fd_jacobian,
            "warnings": self.warnings,
        }, indent=2)


# -- method descriptions -----------------------------------------------------
#
# Each iterative method's start(problem, x0, trace) returns its step
# (x, F(x)) -> x_new; whatever the method keeps between steps lives in that
# closure.  The steps call the public step functions below.

@dataclass(frozen=True)
class Bisection:
    lo: float
    hi: float


@dataclass(frozen=True)
class FixedSlope:
    c: float

    def start(self, problem, x0, trace):
        return lambda x, fx: x - self.c * fx


@dataclass(frozen=True)
class DampedFirstOrder:
    lam: float

    def start(self, problem, x0, trace):
        J0 = problem.jac(x0)

        def step(x, fx):
            dx = solve_linear(J0, fx)
            if problem.dimension == 1:
                ratio = abs(self.lam * problem.jac(x)[0, 0] / J0[0, 0])
                if not 0.0 < ratio < 2.0:
                    msg = f"damping contract violated: |lam f'(x)/f'(x0)| = {ratio:.3g}"
                    if msg not in trace.warnings:
                        trace.warnings.append(msg)
            return x - self.lam * dx

        return step


@dataclass(frozen=True)
class Newton:
    def start(self, problem, x0, trace):
        return lambda x, fx: newton_step(problem, x, fx=fx)


@dataclass(frozen=True)
class Secant:
    x_prev: object  # a point of the problem's dimension (scalar when m = 1)

    def start(self, problem, x0, trace):
        x_prev, f_prev = as_point(self.x_prev, problem.dimension), None

        def step(x, fx):
            nonlocal x_prev, f_prev
            x_new = secant_step(problem, x_prev, x, fx=fx, fx_prev=f_prev)
            x_prev, f_prev = x, fx
            return x_new

        return step


@dataclass(frozen=True)
class Steffensen:
    dd: DividedDifference = DividedDifference("componentwise")

    def start(self, problem, x0, trace):
        return lambda x, fx: steffensen_step(problem, x, self.dd, fx=fx)


@dataclass(frozen=True)
class DampedSteffensen:
    lam: float
    dd: DividedDifference = DividedDifference("componentwise")

    def start(self, problem, x0, trace):
        scale = damping_scale(problem, x0)
        return lambda x, fx: damped_steffensen_step(
            problem, x, self.lam, x0, self.dd, fx=fx, scale=scale)


@dataclass(frozen=True)
class HFamily:
    h: Callable  # adimensional correction factor h(L)

    def start(self, problem, x0, trace):
        return lambda x, fx: h_family_step(problem, x, self.h, fx=fx)


@dataclass(frozen=True)
class ASIS:
    """Scale-invariant Steffensen; solve runs it through asis_solve."""

    dd: DividedDifference = DividedDifference("componentwise")


# -- single steps ------------------------------------------------------------
#
# Each step takes the value fx = F(x) when the caller already has it (solve
# always does, from its residual check), so no point is evaluated twice.

def newton_step(problem: Problem, x, fx=None) -> np.ndarray:
    x = as_point(x, problem.dimension)
    if fx is None:
        fx = problem.evaluate(x)
    return x - solve_linear(problem.jac(x), fx)


def steffensen_step(problem: Problem, x,
                    dd: DividedDifference = DividedDifference("componentwise"),
                    fx=None) -> np.ndarray:
    """x - F[x + F(x), x]^{-1} F(x); nodes in that order.

    Square problems only: the node sum x + F(x) is what makes the classic
    method dimension- and scale-sensitive.
    """
    x = as_point(x, problem.dimension)
    if fx is None:
        fx = problem.evaluate(x)
    node = x + fx
    H = dd(problem, node, x, fy=fx)
    return x - solve_linear(H, fx)


def damping_scale(problem: Problem, x0) -> float:
    """f'(x0) (scalar) or ||F'(x0)|| (vectors), the damped node's divisor."""
    x0 = as_point(x0, problem.dimension)
    J0 = problem.jac(x0)
    if problem.dimension == 1:
        scale = J0[0, 0]
    else:
        scale = problem.operator_norm(J0)
    if scale == 0.0:
        raise SingularOperatorError("F'(x0) vanishes; damped node undefined")
    return scale


def damped_steffensen_step(problem: Problem, x, lam: float,
                           x0=None,
                           dd: DividedDifference = DividedDifference("componentwise"),
                           fx=None, scale: Optional[float] = None
                           ) -> np.ndarray:
    """Steffensen step with node x + lam*F(x)/f'(x0) (scalar) or
    x + lam*F(x)/||F'(x0)|| (vectors); lam is adimensional.  A known
    `scale` (from damping_scale) saves the Jacobian at x0."""
    x = as_point(x, problem.dimension)
    if fx is None:
        fx = problem.evaluate(x)
    if scale is None:
        scale = damping_scale(problem, x if x0 is None else x0)
    node = x + lam * fx / scale
    H = dd(problem, node, x, fy=fx)
    return x - solve_linear(H, fx)


def secant_step(problem: Problem, x_prev, x,
                dd: DividedDifference = DividedDifference("componentwise"),
                fx=None, fx_prev=None) -> np.ndarray:
    x = as_point(x, problem.dimension)
    x_prev = as_point(x_prev, problem.dimension)
    if fx is None:
        fx = problem.evaluate(x)
    H = dd(problem, x_prev, x, fx=fx_prev, fy=fx)
    return x - solve_linear(H, fx)


def logarithmic_convexity(problem: Problem, x, fx=None, fp=None) -> float:
    """L_f = f'' f / f'^2, the adimensional degree of logarithmic convexity.
    Known fx = f(x) and fp = f'(x) are not evaluated again."""
    if problem.dimension != 1:
        raise ValueError("logarithmic_convexity is scalar-only")
    x = as_point(x, 1)
    if fp is None:
        fp = problem.jac(x)[0, 0]
    if fp == 0.0:
        raise SingularOperatorError("f'(x) = 0")
    f = (problem.evaluate(x) if fx is None else fx)[0]
    fpp = problem.second_derivative(x)
    return float(fpp * f / (fp * fp))


def h_family_step(problem: Problem, x, h: Callable, fx=None) -> np.ndarray:
    """x - h(L_f(x)) * f(x)/f'(x): Newton for h = 1, Halley for 1/(1-L/2)."""
    if problem.dimension != 1:
        raise ValueError("h_family_step is scalar-only")
    x = as_point(x, 1)
    fp = problem.jac(x)[0, 0]
    if fp == 0.0:
        raise SingularOperatorError("f'(x) = 0")
    if fx is None:
        fx = problem.evaluate(x)
    L = logarithmic_convexity(problem, x, fx=fx, fp=fp)
    return x - h(L) * fx[0] / fp


# -- solve driver ------------------------------------------------------------

def _counting_copy(problem: Problem, counts: dict) -> Problem:
    """problem with every call of F and F' counted; a stack that F
    evaluates itself (its evaluate_stack) counts one call per row."""
    base_f = problem.f
    base_jac = problem.jacobian

    def f(x):
        counts["f"] += 1
        return base_f(x)

    base_stack = getattr(base_f, "evaluate_stack", None)
    if base_stack is not None:
        def evaluate_stack(Z, FZ):
            counts["f"] += len(Z)
            base_stack(Z, FZ)

        f.evaluate_stack = evaluate_stack

    jac = None
    if base_jac is not None:
        def jac(x):
            counts["jac"] += 1
            return base_jac(x)

    return dataclasses.replace(problem, f=f, jacobian=jac)


def solve(problem: Problem, method, x0, stop: StoppingCriteria) -> IterationTrace:
    """Run an iteration to the stopping criteria; never raises on failure,
    the trace status reports what happened.  numpy's floating-point
    warnings are off inside (QUIET).  n_evals and n_jac_evals count every
    call of F and F', ASIS's setup included.

    ASIS applies stop in y-space, as asis_solve does: residual_tol bounds
    ||G(y)|| = ||F(x)||/||F(x0)||, and step_tol and the divergence test
    measure y.  Its stop is thus relative, and a converged-by-residual
    ASIS trace may end at ||F(x)|| up to ||F(x0)||*residual_tol, where
    every other method bounds ||F(x)|| by residual_tol itself."""
    counts = {"f": 0, "jac": 0}
    p = _counting_copy(problem, counts)
    trace = IterationTrace(used_fd_jacobian=not problem.has_analytic_jacobian())
    scalar_only = _scalar_only(method)
    try:
        with np.errstate(**QUIET):
            if scalar_only and p.dimension != 1:
                trace.warnings.append(f"{scalar_only} is scalar-only")
                trace.status = "domain-failure"
            elif isinstance(method, Bisection):
                trace.status = _solve_bisection(p, method, stop, trace)
            elif isinstance(method, ASIS):
                trace.status = _solve_asis(p, method, x0, stop, trace)
            else:
                trace.status = _solve_iterative(p, method, x0, stop, trace)
    except SingularOperatorError:
        trace.status = "singular-operator"
    except DomainError:
        trace.status = "domain-failure"
    trace.n_evals = counts["f"]
    trace.n_jac_evals = counts["jac"]
    return trace


def _scalar_only(method) -> Optional[str]:
    """What confines method to scalar problems, or None."""
    if isinstance(method, Bisection):
        return "bisection"
    if isinstance(method, HFamily):
        return "the h-family step"
    return None


def _solve_iterative(p: Problem, method, x0, stop: StoppingCriteria,
                     trace: IterationTrace) -> str:
    """Iterate method's step from x0, recording each accepted iterate."""
    x = as_point(x0, p.dimension)
    trace.iterates.append(x.copy())
    trace.residual_norms.append(float("nan"))  # until F(x0) is known
    fx = p.evaluate(x)
    trace.residual_norms[0] = min_res = p.vector_norm(fx)
    step = method.start(p, x, trace)
    for _ in range(stop.max_iter):
        x_new = step(x, fx)
        fx = p.evaluate(x_new)
        res = p.vector_norm(fx)
        step_norm = p.vector_norm(x_new - x)
        trace.iterates.append(x_new.copy())
        trace.residual_norms.append(res)
        trace.step_norms.append(step_norm)
        x = x_new
        min_res = min(min_res, res)
        if res <= stop.residual_tol:
            return "converged-by-residual"
        if step_norm <= stop.step_tol:
            return "converged-by-step"
        if (euclidean_norm(x) > DIVERGENCE_NORM
                or res > DIVERGENCE_RESIDUAL_GROWTH * max(min_res, 1e-300)):
            return "diverged"
    return "max-iter"


def _solve_asis(p: Problem, method: ASIS, x0, stop: StoppingCriteria,
                trace: IterationTrace) -> str:
    """ASIS by asis_solve, its x-trace copied.  Until the form is built the
    trace holds x0 alone, its residual NaN; F(x0) = 0 makes that 0.0, and
    a rejected form reads form-rejected with its message in warnings."""
    trace.iterates.append(as_point(x0, p.dimension).copy())
    trace.residual_norms.append(float("nan"))
    try:
        x_trace = asis_solve(p, x0, stop, method.dd).x_trace
    except AlreadyAtRootError:
        trace.residual_norms[0] = 0.0
        return "converged-by-residual"
    except ValueError as exc:
        if not str(exc).startswith(FORM_REJECTED):
            raise
        trace.warnings.append(str(exc))
        return "form-rejected"
    trace.iterates = x_trace.iterates
    trace.residual_norms = x_trace.residual_norms
    trace.step_norms = x_trace.step_norms
    trace.warnings += x_trace.warnings
    return x_trace.status


def _solve_bisection(p: Problem, method: Bisection, stop: StoppingCriteria,
                     trace: IterationTrace) -> str:
    """Scalar interval bisection recording midpoints; ties toward lo."""
    lo, hi = float(method.lo), float(method.hi)
    flo = p.evaluate([lo])[0]
    fhi = p.evaluate([hi])[0]
    if flo == 0.0:
        hi = lo
    elif fhi == 0.0:
        lo = hi
    elif flo * fhi > 0.0:
        trace.warnings.append("bracket does not change sign")
        return "domain-failure"
    mid = 0.5 * (lo + hi)
    fmid = p.evaluate([mid])[0]
    trace.iterates.append(np.array([mid]))
    trace.residual_norms.append(abs(fmid))
    for _ in range(stop.max_iter):
        if fmid == 0.0 or flo * fmid <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
        new_mid = 0.5 * (lo + hi)
        fmid = p.evaluate([new_mid])[0]
        step = abs(new_mid - mid)
        mid = new_mid
        trace.iterates.append(np.array([mid]))
        trace.residual_norms.append(abs(fmid))
        trace.step_norms.append(step)
        if abs(fmid) <= stop.residual_tol:
            return "converged-by-residual"
        if step <= stop.step_tol:
            return "converged-by-step"
    return "max-iter"


# -- scale-invariant Steffensen ----------------------------------------------

@dataclass
class AsisResult:
    """ASIS run: the adimensional trace, its back-transform, and the form."""

    x_trace: IterationTrace
    y_trace: IterationTrace
    form: AdimensionalForm


def asis_solve(problem: Problem, x0, stop: StoppingCriteria,
               dd: DividedDifference = DividedDifference("componentwise")
               ) -> AsisResult:
    """Steffensen on the adimensional form, iterates mapped back to x-space.

    G(y) = F(x0 + T^-1 y)/sigma.  The point x and value F(x) behind each G
    evaluated one at a time, y0 and the iterates, are kept under y: G(y0) =
    G(0) takes the form's F(x0), and the back-transform reads each
    iterate's x and F(x) from there, so no point is mapped or evaluated
    twice.  The stacks of a divided difference go to the form's
    evaluate_stack, one stack of F each.  n_evals counts G's points, one
    at a time and stacked, not the form's setup; solve(problem, ASIS(),
    ...) counts both.  Raises what adimensionalize raises, with numpy's
    warnings off (QUIET).
    """
    with np.errstate(**QUIET):
        form = adimensionalize(problem, x0)
        x_and_f = {form.y0.tobytes(): (form.to_original(form.y0), form.f_c)}

        def g_eval(y):
            y = as_vector(y)
            key = y.tobytes()
            if key not in x_and_f:
                x = form.to_original(y)
                x_and_f[key] = x, problem.evaluate(x)
            return x_and_f[key][1] / form.sigma

        # a stack of G's points is the form's: mapped and evaluated
        # together, none of them kept
        g_eval.evaluate_stack = form.evaluate_stack
        g = dataclasses.replace(form.g, f=g_eval)
        y_trace = solve(g, Steffensen(dd=dd), form.y0, stop)
        x_trace = IterationTrace(status=y_trace.status,
                                 n_evals=y_trace.n_evals,
                                 n_jac_evals=y_trace.n_jac_evals,
                                 used_fd_jacobian=y_trace.used_fd_jacobian,
                                 warnings=list(y_trace.warnings))
        prev = None
        for y in y_trace.iterates:
            x, fx = x_and_f[y.tobytes()]
            x_trace.iterates.append(x)
            x_trace.residual_norms.append(problem.vector_norm(fx))
            if prev is not None:
                x_trace.step_norms.append(problem.vector_norm(x - prev))
            prev = x
    return AsisResult(x_trace=x_trace, y_trace=y_trace, form=form)
