"""Scalar and finite-dimensional nonlinear problems F(x)=0.

A Problem bundles the map, optional analytic first and scalar second
derivatives, and the norm used for vectors and operators; it is immutable
after construction and safe to share.
"""
from __future__ import annotations

import dataclasses
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


def _lapack_routines():
    """LAPACK's dgecon, dgetrf, dgetrs and dlange: the function objects
    that scipy.linalg.lapack re-exports from its compiled module
    scipy.linalg._flapack.

    Importing scipy.linalg.lapack runs scipy.linalg's package init, which
    loads scipy's array-API layer and through it numpy.f2py: most of what
    import adimsolve would cost.  So the extension is found in scipy's
    directory without running any scipy init, loaded alone and registered
    under its own name, so that a later import scipy.linalg takes it, not
    a second copy; one already loaded is taken as it is.  Where it cannot
    be found or loaded that way, the public module is imported.
    """
    name = "scipy.linalg._flapack"
    try:
        flapack = sys.modules.get(name)
        if flapack is None:
            dirs = importlib.util.find_spec("scipy").submodule_search_locations
            spec = importlib.machinery.PathFinder.find_spec(
                name, [os.path.join(d, "linalg") for d in dirs])
            if spec is None:
                raise ImportError(f"no module {name} beside scipy")
            flapack = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(flapack)
            sys.modules[name] = flapack
        return flapack.dgecon, flapack.dgetrf, flapack.dgetrs, flapack.dlange
    except (ImportError, AttributeError):
        from scipy.linalg import lapack
        return lapack.dgecon, lapack.dgetrf, lapack.dgetrs, lapack.dlange


dgecon, dgetrf, dgetrs, dlange = _lapack_routines()

FD_STEP = 1e-7
RCOND_FLOOR = 1e-14
DBL_MIN, DBL_MAX = sys.float_info.min, sys.float_info.max
# solve_linear's 1x1 lane: |h| with h and 1/h both normal
LANE_MIN = DBL_MIN
LANE_MAX = 1.0 / DBL_MIN
K2_SAMPLES = 24     # random points sample_k2 adds to the center and axis points
K2_DELTA = 1e-5     # sample_k2's forward-difference step on the Jacobian
DOT_CHUNK = 8192    # longest ddot euclidean_norm takes: OpenBLAS threads ddot only above 10000


class DomainError(Exception):
    """The map produced a non-finite value."""


class SingularOperatorError(Exception):
    """A linear operator required by the iteration is numerically singular."""


class AlreadyAtRootError(Exception):
    """F(x0) = 0, so quantities scaled by ||F(x0)|| are undefined."""


# The helpers below sit on every evaluation, so they skip numpy's per-call
# dispatch where it does nothing: same results, same objects, same checks.

def as_vector(v) -> np.ndarray:
    """np.atleast_1d(np.asarray(v, dtype=float)): a float64 array of one or
    more dimensions is returned as it is, a np.float64 (what a scalar F
    returns) becomes a (1,) array directly, anything else is converted."""
    if type(v) is not np.ndarray or v.dtype != np.float64:
        if type(v) is np.float64:
            return np.array([v])
        v = np.asarray(v, dtype=float)
    return v if v.ndim else v.reshape(1)


def as_matrix(a) -> np.ndarray:
    """np.atleast_2d(np.asarray(a, dtype=float)): a float64 array of two or
    more dimensions is returned as it is, anything else is converted."""
    if type(a) is not np.ndarray or a.dtype != np.float64:
        a = np.asarray(a, dtype=float)
    if a.ndim >= 2:
        return a
    return a[np.newaxis, :] if a.ndim else a.reshape(1, 1)


def all_finite(a: np.ndarray) -> bool:
    """np.isfinite(a).all(), counted rather than reduced."""
    return np.count_nonzero(np.isfinite(a)) == a.size


def as_point(x, m: int) -> np.ndarray:
    x = as_vector(x)
    if x.shape != (m,):
        raise ValueError(f"expected point of dimension {m}, got shape {x.shape}")
    return x


def _fill_stack(f: Callable, Z: np.ndarray, FZ: np.ndarray, m: int) -> None:
    """f at each row of Z into FZ, the one row loop of every stack.  A map
    with an evaluate_stack(Z, FZ) method (an adimensional form, a scaled
    map, solve's counter) fills FZ itself; any other f is called on each
    row, a scalar when m = 1, its output shape checked per call."""
    stack = getattr(f, "evaluate_stack", None)
    if stack is not None:
        stack(Z, FZ)
        return
    for i, z in enumerate(Z):
        fz = as_vector(f(z if m > 1 else z[0]))
        if fz.shape != (m,):
            raise ValueError("evaluator output has wrong dimension")
        FZ[i] = fz


@dataclass(frozen=True)
class Problem:
    """A nonlinear map F: R^m -> R^m with optional derivative information.

    f may return a scalar when m == 1; evaluations are normalized to
    shape-(m,) arrays.  If `jacobian` is missing a central finite-difference
    Jacobian is substituted (and flagged by solvers in their traces).
    `d2f` is a scalar-only second derivative used by h-family steps.
    """

    f: Callable
    dimension: int = 1
    jacobian: Optional[Callable] = None
    d2f: Optional[Callable] = None
    norm: str = "euclidean"
    name: str = ""

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be a positive integer")
        if self.norm not in ("euclidean", "max"):
            raise ValueError(f"unknown norm {self.norm!r}")

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, x) -> np.ndarray:
        x = as_point(x, self.dimension)
        if self.dimension == 1:
            return np.array([self._value(x[0])])
        if not all_finite(x):
            raise DomainError("non-finite input point")
        fx = as_vector(self.f(x))
        if fx.shape != (self.dimension,):
            raise ValueError("evaluator output has wrong dimension")
        if not all_finite(fx):
            raise DomainError("domain failure: non-finite value of F")
        return fx

    def _value(self, t) -> np.float64:
        """F(t) of a scalar problem as a np.float64, under evaluate's checks
        in Python: a non-finite t, then the output's shape, then a
        non-finite value.  F receives t as a np.float64, so a 1/0 inside
        it is inf (a DomainError here), not a ZeroDivisionError."""
        if type(t) is not np.float64:
            t = np.float64(t)
        if not math.isfinite(t):
            raise DomainError("non-finite input point")
        ft = self.f(t)
        if type(ft) is not np.float64:
            ft = as_vector(ft)
            if ft.shape != (1,):
                raise ValueError("evaluator output has wrong dimension")
            ft = ft[0]
        if not math.isfinite(ft):
            raise DomainError("domain failure: non-finite value of F")
        return ft

    def jac(self, x) -> np.ndarray:
        """F'(x): the one-row _jac_stack, under its checks."""
        J = np.empty((1, self.dimension, self.dimension))
        self._jac_stack(as_point(x, self.dimension)[np.newaxis], J)
        return J[0]

    def _evaluate_stack(self, Z: np.ndarray, FZ: np.ndarray) -> None:
        """F at each row of Z into FZ, of shape (len(Z), m), under evaluate's
        checks: the finiteness of all of Z tested once, the stack handed to
        f by _fill_stack, and the finiteness of all of FZ tested once."""
        if not all_finite(Z):
            raise DomainError("non-finite input point")
        _fill_stack(self.f, Z, FZ, self.dimension)
        if not all_finite(FZ):
            raise DomainError("domain failure: non-finite value of F")

    def _jac_stack(self, X: np.ndarray, J: np.ndarray) -> None:
        """F' at each row of X into J, of shape (len(X), m, m): all of X
        tested finite once, the user's Jacobian called directly (central
        differences where there is none) with its shape checked per call,
        and all of J tested finite once."""
        m = self.dimension
        if not all_finite(X):
            raise DomainError("non-finite input point")
        for i, x in enumerate(X):
            Ji = (self.fd_jacobian(x) if self.jacobian is None
                  else as_matrix(self.jacobian(x if m > 1 else x[0])))
            if Ji.shape != (m, m):
                raise ValueError("Jacobian has wrong shape")
            J[i] = Ji
        if not all_finite(J):
            raise DomainError("domain failure: non-finite Jacobian")

    def fd_jacobian(self, x) -> np.ndarray:
        """Central finite differences, step h = max(1e-7, 1e-7*|x_j|); the
        2m points x +- h_j e_j are one checked stack of F evaluations."""
        m = self.dimension
        x = as_point(x, m)
        h = np.maximum(FD_STEP, FD_STEP * np.abs(x))
        # rows 2j and 2j + 1 are x with x_j alone moved by +h_j and -h_j,
        # so a -0.0 in any other coordinate stays -0.0
        X = np.repeat(x[np.newaxis], 2 * m, axis=0)
        j = np.arange(m)
        X[2 * j, j] += h
        X[2 * j + 1, j] -= h
        FX = np.empty((2 * m, m))
        self._evaluate_stack(X, FX)
        return np.divide((FX[0::2] - FX[1::2]).T, 2.0 * h, out=np.empty((m, m)))

    def second_derivative(self, x) -> float:
        """Scalar second derivative; finite differences of f' as fallback.
        A non-finite point, and a non-finite value from d2f or from an
        overflowing quotient, is a DomainError."""
        if self.dimension != 1:
            raise ValueError("second_derivative is scalar-only")
        x = as_point(x, 1)
        if not math.isfinite(x[0]):
            raise DomainError("non-finite input point")
        if self.d2f is not None:
            d2 = float(self.d2f(x[0]))
        else:
            h = max(1e-5, 1e-5 * abs(x[0]))
            # Python floats: an overflowing difference is inf, unwarned
            d2 = (float(self.jac(x + h)[0, 0])
                  - float(self.jac(x - h)[0, 0])) / (2.0 * h)
        if not math.isfinite(d2):
            raise DomainError("domain failure: non-finite second derivative")
        return d2

    # -- norms --------------------------------------------------------------

    def vector_norm(self, v) -> float:
        v = as_vector(v)
        if self.norm == "euclidean":
            return euclidean_norm(v)
        return float(np.linalg.norm(v, np.inf))

    def operator_norm(self, A) -> float:
        """Norm of the matrix A induced by the vector norm: the largest
        singular value in the Euclidean norm, the largest absolute row sum
        in the max norm.  Both are exact up to rounding and scale with A."""
        A = as_matrix(A)
        if self.norm == "max":
            return float(np.abs(A).sum(axis=1).max())
        return float(np.linalg.svd(A, compute_uv=False)[0])

    def has_analytic_jacobian(self) -> bool:
        return self.jacobian is not None


def euclidean_norm(v: np.ndarray) -> float:
    """||v||_2 of a real array, scale-free.

    Where the sum of squares is finite and normal, this is the square root
    of the dot product v.v of the flattened array (_dot_self).  Up to
    DOT_CHUNK elements that is how np.linalg.norm computes it, so the bits
    are the same, without its dispatch; above, v.v is summed in pieces, so
    the bits do not depend on the number of BLAS threads.  One element is
    scalar_norm's |s|, the same bits as that square root.  Where the squares
    overflow or underflow, v is first divided by max|v| (Blue, ACM TOMS 4,
    1978), so entries of 1e160 or 1e-300 give their norm, not inf or 0.
    Zero, inf and NaN entries give sqrt(v.v): 0, inf and NaN.
    """
    if v.size == 1:
        return scalar_norm(v.item())
    v = v.ravel(order="K")
    ss = _dot_self(v)
    if DBL_MIN <= ss <= DBL_MAX:
        return math.sqrt(ss)
    scale = float(np.abs(v).max())
    if not 0.0 < scale <= DBL_MAX:      # zero, inf or NaN
        return math.sqrt(ss)
    w = v / scale
    return scale * math.sqrt(_dot_self(w))


def _dot_self(v: np.ndarray) -> float:
    """v.v of a flat array.  Up to DOT_CHUNK elements this is one ddot (by
    np.vdot: dot's ddot, bit for bit, without dot's overflow warning).
    OpenBLAS splits a longer ddot among its threads and adds their partial
    sums, so its last bits follow the thread count; longer v is therefore
    cut into DOT_CHUNK-element pieces, each one ddot on one thread, and
    their sums are added exactly rounded by math.fsum (inf where only
    that sum overflows)."""
    if v.size <= DOT_CHUNK:
        return np.vdot(v, v)
    pieces = (v[i:i + DOT_CHUNK] for i in range(0, v.size, DOT_CHUNK))
    try:
        return math.fsum(np.vdot(p, p) for p in pieces)
    except OverflowError:
        return math.inf


def scalar_norm(s) -> float:
    """euclidean_norm of the one element s, |s| as a Python float.  This is
    sqrt(s*s), what ddot of one element gives, bit for bit: in binary64
    with round-to-nearest sqrt(RN(s*s)) = |s| wherever s*s is normal, and
    where s*s overflows or underflows the norm scaled by max|v| is
    max|v| * ||v / max|v||| = |s|."""
    return abs(float(s))


def rcond(lu: np.ndarray, A: np.ndarray) -> float:
    """LAPACK's 1-norm reciprocal condition estimate of A (gecon, Hager's
    method) from the LU factors lu that getrf returned for it."""
    return dgecon(lu, dlange("1", A), norm="1")[0]


def factor_nonsingular(A: np.ndarray):
    """One LU factorization (lu, piv) of A with partial pivoting.

    Raises when the factorization hits an exactly zero pivot or when the
    LAPACK 1-norm reciprocal condition estimate (gecon) is NaN or below
    1e-14.  The estimate alone decides: for a 1x1 h near DBL_MAX the
    estimate overflows to inf and gecon flags info 1, yet h is perfectly
    conditioned, so inf is accepted.

    ||A||_1 comes from LAPACK lange, which sums each column in order.  For
    a C-ordered A (the step operators, and Jacobians built row by row) that
    is bit for bit np.abs(A).sum(axis=0).max(); numpy sums a column that is
    contiguous in memory pairwise, so for other layouts at m >= 9 the two
    can differ in the last bits, and the estimate with them.
    """
    A = as_matrix(A)
    lu, piv, info = dgetrf(A)
    rc = rcond(lu, A) if info == 0 else 0.0
    if not rc >= RCOND_FLOOR:
        raise SingularOperatorError("singular linear operator (rcond < 1e-14)")
    return lu, piv


def lu_solve(lu_and_piv, b, trans: int = 0) -> np.ndarray:
    """x with A x = b (trans=1: A^T x = b) from A's factors (lu, piv) by
    factor_nonsingular: LAPACK getrs, called as scipy.linalg.lu_solve calls
    it, without scipy's batching, dispatch and check that b is finite."""
    lu, piv = lu_and_piv
    return dgetrs(lu, piv, b, trans=trans)[0]


def solve_scalar(h, b) -> float:
    """x with h x = b for the 1x1 operator h, as a Python float, decided
    and computed as solve_linear's LU path would.

    Where h and 1/h are both normal (DBL_MIN <= |h| <= 1/DBL_MIN) getrf
    and gecon accept h (the estimate is 1 to a few ulps) and getrs
    computes b / h, which Python floats give bit for bit, overflowing to
    inf without a warning as getrs does.  Any other h, zero, subnormal,
    huge, infinite or NaN, is left to factor_nonsingular and lu_solve."""
    if LANE_MIN <= abs(h) <= LANE_MAX:
        return float(b) / float(h)
    return float(lu_solve(factor_nonsingular(h), as_vector(b))[0])


def solve_linear(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense solve through one LU factorization, singular operators
    rejected as in factor_nonsingular; a 1x1 system is solve_scalar's."""
    A, b = as_matrix(A), as_vector(b)
    if A.shape == (1, 1) and b.shape == (1,):
        return np.array([solve_scalar(A.item(), b.item())])
    return lu_solve(factor_nonsingular(A), b)


# -- linear rescalings ------------------------------------------------------

@dataclass(frozen=True)
class LinearScaling:
    """x-scale c and value-scale k: the scaled problem is x -> k*F(c*x)."""

    c: float
    k: float

    def __post_init__(self):
        if not (0.0 < abs(self.c) <= DBL_MAX and 0.0 < abs(self.k) <= DBL_MAX):
            raise ValueError("scaling factors must be finite and nonzero")

    def inverse(self) -> "LinearScaling":
        return LinearScaling(1.0 / self.c, 1.0 / self.k)


def _times(*factors) -> Callable:
    """v -> factors[0] * ... * factors[-1] * v.  The scalar prefix is formed
    once, left to right, and used wherever each partial product is a normal
    double: the bits of the expression as written.  Otherwise v is
    multiplied by the factors one at a time, last first, so a prefix that
    leaves the normal range loses neither a finite product nor its bits.
    A product that overflows there is inf, unwarned, as the prefix's is."""
    prefix = 1.0
    for f in factors:
        prefix *= f
        if not DBL_MIN <= abs(prefix) <= DBL_MAX:
            def times(v):
                with np.errstate(over="ignore", under="ignore"):
                    for f in reversed(factors):
                        v = f * v
                return v
            return times
    return lambda v: prefix * v


def apply_scaling(problem: Problem, s: LinearScaling) -> Problem:
    """Problem x -> k*F(c*x) with consistently transformed derivatives.

    The scaled map passes a stack on: its evaluate_stack hands the rows
    times c to _fill_stack and multiplies the values by k, element by
    element the multiplies of a call on one point, so a stack and a loop
    of calls give the same bits."""
    c, k = s.c, s.k
    base_f, base_jac = problem.f, problem.jacobian
    m = problem.dimension

    def f_scaled(x):
        return k * as_vector(base_f(x * c))

    def evaluate_stack(Z, FZ):
        _fill_stack(base_f, Z * c, FZ, m)
        FZ *= k

    f_scaled.evaluate_stack = evaluate_stack

    jac_scaled = None
    if base_jac is not None:
        kc = _times(k, c)
        def jac_scaled(x):
            return kc(as_matrix(base_jac(x * c)))

    d2_scaled = None
    if problem.d2f is not None:
        base_d2, kcc = problem.d2f, _times(k, c, c)
        def d2_scaled(x):
            return kcc(base_d2(x * c))

    return dataclasses.replace(problem, f=f_scaled, jacobian=jac_scaled,
                               d2f=d2_scaled,
                               name=f"{problem.name}(scaled c={c},k={k})")


# -- Kantorovich data -------------------------------------------------------

@dataclass(frozen=True)
class KantorovichData:
    """The bounds (K2, B, eta) and the adimensional product a = K2*B*eta.
    B and eta must be positive and K2 nonnegative, all finite."""

    k2: float
    B: float
    eta: float

    def __post_init__(self):
        if not (0.0 < self.B < math.inf and 0.0 < self.eta < math.inf):
            raise ValueError("B and eta must be positive and finite")
        if not 0.0 <= self.k2 < math.inf:
            raise ValueError("k2 must be nonnegative and finite")

    @property
    def a(self) -> float:
        return self.k2 * self.B * self.eta


def kantorovich_data(problem: Problem, x0, mode: str = "newton",
                     k2: Optional[float] = None) -> KantorovichData:
    """Compute (K2, B, eta, a) at x0.

    mode="newton": eta bounds ||F'(x0)^-1 F(x0)||.
    mode="asis":   eta = B * ||F(x0)||.
    K2 is the argument k2, or else sample_k2's bound on ||F''|| over the
    ball B(x0, 2*eta); KantorovichData checks it.  F'(x0) is factored once,
    for B and eta, and rejected as singular as in factor_nonsingular.
    """
    if mode not in ("newton", "asis"):
        raise ValueError(f"unknown mode {mode!r}")
    x0 = as_point(x0, problem.dimension)
    fx0 = problem.evaluate(x0)
    nf0 = problem.vector_norm(fx0)
    if nf0 == 0.0:
        raise AlreadyAtRootError("already at root: F(x0) = 0")
    lu = factor_nonsingular(problem.jac(x0))
    B = problem.operator_norm(lu_solve(lu, np.eye(problem.dimension)))
    if mode == "newton":
        eta = problem.vector_norm(lu_solve(lu, fx0))
    else:
        eta = B * nf0
    if k2 is None:
        k2 = sample_k2(problem, x0, 2.0 * eta)
    return KantorovichData(k2=float(k2), B=float(B), eta=float(eta))


def sample_k2(problem: Problem, x0, radius: float) -> float:
    """Largest sampled bound on ||F''|| over the ball B(x0, radius).

    At each sample point x the variation tensor D[j] = F''(x)[e_j] is the
    forward difference (F'(x + delta e_j) - F'(x)) / delta of the m + 1
    Jacobians there, taken as one checked stack.  Each slab is exactly the
    central difference of F' at x + (delta/2) e_j, so it is second-order
    accurate there, a point inside the ball K2 bounds.  Its norm bound is
    closed-form, one reduction per point: ||D||_F (the square root of the
    sum of the m^3 squares) in the Euclidean norm, max_i sum_{j,k}
    |D[j, i, k]| in the max norm.  Each is at least the norm of the
    bilinear map F''(x), sup ||F''(x)[u, v]|| over unit u and v, and at
    most m times it; at m = 1 it is |F''(x)|.  Deterministic sample set:
    center, axis points at the full radius, and a fixed seeded cloud of
    K2_SAMPLES points; the difference step is K2_DELTA.
    """
    x0 = as_point(x0, problem.dimension)
    m = problem.dimension
    pts = [x0]
    for j in range(m):
        e = np.zeros(m); e[j] = radius
        pts.append(x0 + e)
        pts.append(x0 - e)
    rng = np.random.default_rng(20240817)
    for _ in range(K2_SAMPLES):
        u = rng.standard_normal(m)
        u /= max(np.linalg.norm(u), 1e-30)
        pts.append(x0 + radius * rng.uniform(0.0, 1.0) * u)
    steps = K2_DELTA * np.eye(m)
    # row 0 is x and row j + 1 is x + delta e_j: the order in which a loop
    # over the axes calls the Jacobian.  The buffers serve every point, so
    # no point allocates its ~2m^3 doubles anew.
    X, J, D = np.empty((m + 1, m)), np.empty((m + 1, m, m)), np.empty((m, m, m))
    best = 0.0
    for x in pts:
        X[0] = x
        np.add(x, steps, out=X[1:])
        problem._jac_stack(X, J)
        np.subtract(J[1:], J[0], out=D)
        D /= K2_DELTA
        if problem.norm == "max":
            bound = float(np.abs(D).sum(axis=(0, 2)).max())
        else:
            bound = euclidean_norm(D)
        best = max(best, bound)
    return best


# -- bundled problems -------------------------------------------------------

def f1_problem(norm: str = "euclidean") -> Problem:
    """exp(x-1) - 1 = 0, root 1."""
    return Problem(f=lambda x: np.exp(x - 1.0) - 1.0,
                   jacobian=lambda x: np.exp(x - 1.0),
                   d2f=lambda x: np.exp(x - 1.0),
                   dimension=1, norm=norm, name="f1")


def f2_problem(norm: str = "euclidean") -> Problem:
    """exp(2x-1) - 1 = 0, root 1/2 (f1 with the variable doubled)."""
    return Problem(f=lambda x: np.exp(2.0 * x - 1.0) - 1.0,
                   jacobian=lambda x: 2.0 * np.exp(2.0 * x - 1.0),
                   d2f=lambda x: 4.0 * np.exp(2.0 * x - 1.0),
                   dimension=1, norm=norm, name="f2")


def example3_problem(norm: str = "euclidean") -> Problem:
    """2-variable system from unconstrained minimization; root (1, -1)."""
    def f(v):
        x, y = v
        return np.array([-4.0 * x * (y - x * x + 2.0) - 2.0 * (1.0 - x),
                         2.0 * (y - x * x + 2.0)])

    def jac(v):
        x, y = v
        return np.array([[-4.0 * (y - x * x + 2.0) + 8.0 * x * x + 2.0, -4.0 * x],
                         [-4.0 * x, 2.0]])

    return Problem(f=f, jacobian=jac, dimension=2, norm=norm, name="example3")


def zigzag_problem(b: float, norm: str = "euclidean") -> Problem:
    """Gradient system (x, b*y) = 0 of the ill-conditioned quadratic bowl."""
    if not 0.0 < b:
        raise ValueError("b must be positive")
    return Problem(f=lambda v: np.array([v[0], b * v[1]]),
                   jacobian=lambda v: np.array([[1.0, 0.0], [0.0, b]]),
                   dimension=2, norm=norm, name=f"zigzag(b={b})")


BUILTIN_PROBLEMS = {
    "f1": f1_problem,
    "f2": f2_problem,
    "example3": example3_problem,
    "zigzag": zigzag_problem,
}


def builtin_problem(name: str, **params) -> Problem:
    if name not in BUILTIN_PROBLEMS:
        raise ValueError(f"unknown problem {name!r}; "
                         f"choices: {sorted(BUILTIN_PROBLEMS)}")
    return BUILTIN_PROBLEMS[name](**params)
