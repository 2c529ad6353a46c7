"""Iteration engines: bisection, fixed-slope, damped first order, Newton,
secant, Steffensen (plain and damped), the adimensional h-family, and
scale-invariant Steffensen, Steffensen run on the adimensional form.
"""
from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from . import divdiff
from .adimensional import FORM_REJECTED, adimensionalize
from .divdiff import DividedDifference
from .problems import (AlreadyAtRootError, DomainError, Problem,
                       SingularOperatorError, as_point, as_vector,
                       euclidean_norm, scalar_norm, solve_linear,
                       solve_scalar)

DIVERGENCE_NORM = 1e12
DIVERGENCE_RESIDUAL_GROWTH = 1e6
# numpy's floating-point warnings, off inside solve: an overflow or a
# division by zero leaves a non-finite value, which the finiteness checks
# report whatever the warning filter
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


def csv_text(header, rows) -> str:
    """The header and rows as CSV lines, each ending in a newline.  Every
    cell is a str: a name, an int's str, a repr float or "", none of
    which needs quoting, so the cells are joined directly."""
    return "\n".join([",".join(header), *map(",".join, rows)]) + "\n"


def json_text(obj, **kwargs) -> str:
    """json.dumps(obj, **kwargs) as strict JSON: obj's text read back, each
    NaN or Infinity as null and each other value as it was (repr floats)."""
    strict = json.loads(json.dumps(obj), parse_constant=lambda token: None)
    return json.dumps(strict, allow_nan=False, **kwargs)


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
    # ASIS's y-space trace, counting G's calls; None without an ASIS form
    adimensional: Optional[IterationTrace] = None

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
        """Norms ||x_n - root|| (Euclidean) of one stacked difference: its
        one column's |x_n - root| at m = 1, which is scalar_norm's value,
        and euclidean_norm of each row above.  root is taken as a point of
        the iterates' dimension, so a root of another dimension raises
        ValueError rather than broadcasting."""
        if not self.iterates:
            return np.array([])
        D = np.array(self.iterates, dtype=float)
        D -= as_point(root, D.shape[1])
        if D.shape[1] == 1:
            return np.abs(D[:, 0])
        return np.array([euclidean_norm(d) for d in D])

    def to_csv(self) -> str:
        """The trace as CSV text through csv_text, a row per iterate: n, the
        iterate's components, its residual norm and the step that reached
        it ("" for x0).  Each column is converted to Python floats once
        (the iterates as one float64 array, so an int iterate prints 1.0,
        the norms by float) and its cells are repr over the whole column;
        the rows are zipped from the columns, which must have a cell for
        every iterate."""
        if not self.iterates:
            return csv_text(["n", "res_norm", "step_norm"], [])
        X = np.array(self.iterates, dtype=float)
        columns = [map(str, range(len(X))),
                   *(map(repr, x) for x in X.T.tolist()),
                   map(repr, map(float, self.residual_norms)),
                   itertools.chain([""], map(repr, map(float, self.step_norms)))]
        return csv_text(["n"] + [f"x{i}" for i in range(X.shape[1])]
                        + ["res_norm", "step_norm"], zip(*columns, strict=True))

    def to_json(self) -> str:
        return json_text({
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
    """Scale-invariant Steffensen: solve runs Steffensen on the
    adimensional form in its one loop (_adimensional_lane) and keeps the
    y-space trace as the trace's adimensional."""

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

def _counting_copy(problem: Problem, trace: IterationTrace) -> Problem:
    """problem with every call of F and F' counted into trace's n_evals and
    n_jac_evals; a stack that F evaluates itself (its evaluate_stack)
    counts one call per row."""
    base_f = problem.f
    base_jac = problem.jacobian

    def f(x):
        trace.n_evals += 1
        return base_f(x)

    base_stack = getattr(base_f, "evaluate_stack", None)
    if base_stack is not None:
        def evaluate_stack(Z, FZ):
            trace.n_evals += len(Z)
            base_stack(Z, FZ)

        f.evaluate_stack = evaluate_stack

    jac = None
    if base_jac is not None:
        def jac(x):
            trace.n_jac_evals += 1
            return base_jac(x)

    return dataclasses.replace(problem, f=f, jacobian=jac)


def solve(problem: Problem, method, x0, stop: StoppingCriteria) -> IterationTrace:
    """Run an iteration to the stopping criteria; never raises on failure,
    the trace status reports what happened.  numpy's floating-point
    warnings are off inside (QUIET).  n_evals and n_jac_evals count every
    call of F and F', ASIS's setup included.  Bisection aside, every
    method runs in one loop, _solve_iterative: on numpy scalars at m = 1,
    on arrays above, and for ASIS on the adimensional form.

    ASIS applies stop in y-space: residual_tol bounds
    ||G(y)|| = ||F(x)||/||F(x0)||, and step_tol and the divergence test
    measure y.  Its stop is thus relative, and a converged-by-residual
    ASIS trace may end at ||F(x)|| up to ||F(x0)||*residual_tol, where
    every other method bounds ||F(x)|| by residual_tol itself.  F(x0) = 0
    is converged-by-residual at x0 with residual 0.0, and a rejected form
    is form-rejected with its message in warnings."""
    trace = IterationTrace(used_fd_jacobian=not problem.has_analytic_jacobian())
    p = _counting_copy(problem, trace)
    scalar_only = _scalar_only(method)
    try:
        with np.errstate(**QUIET):
            if scalar_only and p.dimension != 1:
                trace.warnings.append(f"{scalar_only} is scalar-only")
                trace.status = "domain-failure"
            elif isinstance(method, Bisection):
                trace.status = _solve_bisection(p, method, stop, trace)
            else:
                trace.status = _solve_iterative(p, method, x0, stop, trace)
    except AlreadyAtRootError:
        trace.residual_norms[0] = 0.0
        trace.status = "converged-by-residual"
    except SingularOperatorError:
        trace.status = "singular-operator"
    except DomainError:
        trace.status = "domain-failure"
    except ValueError as exc:
        if not str(exc).startswith(FORM_REJECTED):
            raise
        trace.warnings.append(str(exc))
        trace.status = "form-rejected"
    if trace.adimensional is not None:
        trace.adimensional.status = trace.status
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
    """Iterate method's step from x0, recording each accepted iterate: the
    one loop of every method but bisection, x0 recorded first.  Its lane,
    _adimensional_lane for ASIS and otherwise chosen from p.dimension alone
    (_scalar_lane at m = 1, _array_lane above), supplies the first point,
    F, the norm, the size the divergence test measures, the recorded
    iterate, the step's start and the trace the loop writes (trace, or
    ASIS's y-space trace)."""
    trace.iterates.append(as_point(x0, p.dimension).copy())
    trace.residual_norms.append(float("nan"))  # until F(x0) is known
    lane = (_adimensional_lane if isinstance(method, ASIS)
            else _scalar_lane if p.dimension == 1 else _array_lane)
    x, evaluate, norm, size, record, start, out = lane(p, method, x0, trace)
    fx = evaluate(x)
    out.residual_norms[0] = min_res = norm(fx)
    step = start()
    for _ in range(stop.max_iter):
        x_new = step(x, fx)
        fx = evaluate(x_new)
        res = norm(fx)
        step_norm = norm(x_new - x)
        out.iterates.append(record(x_new))
        out.residual_norms.append(res)
        out.step_norms.append(step_norm)
        x = x_new
        min_res = min(min_res, res)
        if res <= stop.residual_tol:
            return "converged-by-residual"
        if step_norm <= stop.step_tol:
            return "converged-by-step"
        if (size(x) > DIVERGENCE_NORM
                or res > DIVERGENCE_RESIDUAL_GROWTH * max(min_res, 1e-300)):
            return "diverged"
    return "max-iter"


def _array_lane(p: Problem, method, x0, trace: IterationTrace):
    """The loop on arrays: F by Problem.evaluate, Problem.vector_norm and
    euclidean_norm.  A step gets a copy of x, its result is taken as a
    point and the trace records copies, so a step that updates x in place
    or returns a list steps as one returning a new array, and neither the
    caller's x0 nor an iterate the trace holds reaches a step."""
    x = as_point(x0, p.dimension)

    def start():
        step = method.start(p, x, trace)
        return lambda x, fx: as_point(step(x.copy(), fx), p.dimension)

    return (x, p.evaluate, p.vector_norm, euclidean_norm, np.ndarray.copy,
            start, trace)


def _scalar_lane(p: Problem, method, x0, trace: IterationTrace):
    """The loop at m = 1 on numpy scalars, recording (1,) arrays: F by
    Problem._value, and scalar_norm, |s|, both as the norm (the Euclidean
    and the max norm of one element alike) and as the size the divergence
    test measures, so every iterate, norm, count, status and exception is
    _array_lane's.  Newton and Steffensen with the componentwise operator
    divide by their slope with solve_scalar, as their array steps do with
    solve_linear; scalar_dd is looked up on divdiff, as DividedDifference
    looks it up.  Any other method runs its own step on (1,) arrays."""
    x = as_point(x0, 1)

    def start():
        if type(method) is Newton:
            return lambda t, ft: t - solve_scalar(p.jac(t)[0, 0], ft)
        if type(method) is Steffensen and method.dd.variant == "componentwise":
            return lambda t, ft: t - solve_scalar(
                divdiff.scalar_dd(p, t + ft, t, None, ft), ft)
        step = method.start(p, x, trace)
        return lambda t, ft: as_point(step(np.array([t]), np.array([ft])), 1)[0]

    return (x[0], p._value, scalar_norm, scalar_norm, lambda t: np.array([t]),
            start, trace)


def _adimensional_lane(p: Problem, method: ASIS, x0, trace: IterationTrace):
    """ASIS: Steffensen on G(y) = F(x0 + T^-1 y)/sigma in G's own lane
    (looked up here, so a lane swapped on this module serves G too),
    writing trace.adimensional, which counts G's calls.  The x and F(x)
    behind each G evaluated one at a time are kept under y: G(y0) takes
    the form's F(x0), and each recorded y appends its x, ||F(x)|| and
    x-step to trace, so no point is mapped or evaluated twice.  G's stacks
    are the form's evaluate_stack, one stack of F each."""
    form = adimensionalize(p, x0)
    y0 = form.y0
    x_c = form.to_original(y0)
    x_and_f = {y0.tobytes(): (x_c, form.f_c)}
    trace.iterates[0], trace.residual_norms[0] = x_c, p.vector_norm(form.f_c)

    def g_eval(y):
        y = as_vector(y)
        key = y.tobytes()
        if key not in x_and_f:
            x = form.to_original(y)
            x_and_f[key] = x, p.evaluate(x)
        return x_and_f[key][1] / form.sigma

    # a stack of G's points is the form's: mapped and evaluated together,
    # none of them kept
    g_eval.evaluate_stack = form.evaluate_stack
    y_trace = trace.adimensional = IterationTrace(
        iterates=[y0.copy()], residual_norms=[float("nan")],
        used_fd_jacobian=trace.used_fd_jacobian)
    g = _counting_copy(dataclasses.replace(form.g, f=g_eval), y_trace)
    lane = _scalar_lane if g.dimension == 1 else _array_lane
    y, evaluate, norm, size, record_y, start, _ = lane(
        g, Steffensen(method.dd), y0, y_trace)

    def record(y):
        x, fx = x_and_f[y.tobytes()]
        trace.step_norms.append(p.vector_norm(x - trace.iterates[-1]))
        trace.iterates.append(x)
        trace.residual_norms.append(p.vector_norm(fx))
        return record_y(y)

    return y, evaluate, norm, size, record, start, y_trace


def _solve_bisection(p: Problem, method: Bisection, stop: StoppingCriteria,
                     trace: IterationTrace) -> str:
    """Scalar interval bisection recording midpoints; ties toward lo."""
    lo, hi = float(method.lo), float(method.hi)
    flo = p._value(lo)
    fhi = p._value(hi)
    if flo == 0.0:
        hi = lo
    elif fhi == 0.0:
        lo = hi
    elif flo * fhi > 0.0:
        trace.warnings.append("bracket does not change sign")
        return "domain-failure"
    mid = 0.5 * (lo + hi)
    fmid = p._value(mid)
    trace.iterates.append(np.array([mid]))
    trace.residual_norms.append(abs(fmid))
    for _ in range(stop.max_iter):
        if fmid == 0.0 or flo * fmid <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
        new_mid = 0.5 * (lo + hi)
        fmid = p._value(new_mid)
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
    """An ASIS run: its x-space trace and its adimensional (y-space) one,
    None where no form was built."""

    x_trace: IterationTrace
    y_trace: Optional[IterationTrace]


def asis_solve(problem: Problem, x0, stop: StoppingCriteria,
               dd: DividedDifference = DividedDifference("componentwise")
               ) -> AsisResult:
    """solve(problem, ASIS(dd), x0, stop) in the shape the benchmark reads:
    a rejected form raises its ValueError, and x_trace's n_evals and
    n_jac_evals are G's calls (y_trace's), the form's setup not counted.
    The library runs ASIS through solve."""
    trace = solve(problem, ASIS(dd), x0, stop)
    if trace.status == "form-rejected":
        raise ValueError(trace.warnings[-1])
    y_trace = trace.adimensional
    if y_trace is not None:
        trace.n_evals, trace.n_jac_evals = y_trace.n_evals, y_trace.n_jac_evals
    return AsisResult(trace, y_trace)
