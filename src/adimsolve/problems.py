"""Scalar and finite-dimensional nonlinear problems F(x)=0.

A Problem bundles the map, an optional analytic Jacobian, an optional
second-derivative norm bound, and the norm used for vectors and operators.
Everything is immutable after construction and safe to share.
"""
from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg.lapack import dgecon, dgetrf, dgetrs, dlange

FD_STEP = 1e-7
RCOND_FLOOR = 1e-14
DBL_MIN, DBL_MAX = sys.float_info.min, sys.float_info.max
# solve_linear's 1x1 lane: |h| with h and 1/h both normal
LANE_MIN = DBL_MIN
LANE_MAX = 1.0 / DBL_MIN
K2_SAMPLES = 24     # random points sample_k2 adds to the center and axis points
K2_DELTA = 1e-5     # sample_k2's central-difference step on the Jacobian


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
    k2: Optional[float] = None
    norm: str = "euclidean"
    name: str = ""

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be a positive integer")
        if self.norm not in ("euclidean", "max"):
            raise ValueError(f"unknown norm {self.norm!r}")
        if self.k2 is not None and not self.k2 >= 0.0:
            raise ValueError("k2 must be nonnegative")

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, x) -> np.ndarray:
        x = as_point(x, self.dimension)
        if self.dimension == 1:
            # the scalar lane: the same checks in Python, no array reductions
            t = x[0]
            if not math.isfinite(t):
                raise DomainError("non-finite input point")
            fx = as_vector(self.f(t))
            if fx.shape != (1,):
                raise ValueError("evaluator output has wrong dimension")
            if not math.isfinite(fx[0]):
                raise DomainError("domain failure: non-finite value of F")
            return fx
        if not all_finite(x):
            raise DomainError("non-finite input point")
        fx = as_vector(self.f(x))
        if fx.shape != (self.dimension,):
            raise ValueError("evaluator output has wrong dimension")
        if not all_finite(fx):
            raise DomainError("domain failure: non-finite value of F")
        return fx

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
    of the dot product of the flattened array, as np.linalg.norm computes
    it, so the bits are the same, without its dispatch; one element is
    squared in Python, as ddot of one element does.  Where the squares
    overflow or underflow, v is first divided by max|v| (Blue, ACM TOMS 4,
    1978), so entries of 1e160 or 1e-300 give their norm, not inf or 0.
    Zero, inf and NaN entries give sqrt(v.v): 0, inf and NaN.
    """
    if v.size == 1:
        # Python floats: s * s overflows to inf without a warning, and
        # max|v| (||v / max|v||| = 1) is |s|
        s = v.item()
        ss = s * s
        return math.sqrt(ss) if DBL_MIN <= ss <= DBL_MAX else abs(s)
    # vdot is dot's ddot, bit for bit, without dot's overflow warning
    v = v.ravel(order="K")
    ss = np.vdot(v, v)
    if DBL_MIN <= ss <= DBL_MAX:
        return math.sqrt(ss)
    scale = float(np.abs(v).max())
    if not 0.0 < scale <= DBL_MAX:      # zero, inf or NaN
        return math.sqrt(ss)
    w = v / scale
    return scale * math.sqrt(np.vdot(w, w))


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


def solve_linear(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dense solve through one LU factorization, singular operators
    rejected as in factor_nonsingular.

    A 1x1 operator h whose inverse is normal too (DBL_MIN <= |h| <=
    1/DBL_MIN) takes a scalar lane with the same decision and bits: there
    getrf and gecon accept h (the estimate is 1 to a few ulps) and getrs
    computes b / h, which Python floats give bit for bit, overflowing to
    inf without a warning as getrs does.  Any other h, zero, subnormal,
    huge, infinite or NaN, is left to LAPACK."""
    A, b = as_matrix(A), as_vector(b)
    if A.shape == (1, 1) and b.shape == (1,):
        h = A.item()
        if LANE_MIN <= abs(h) <= LANE_MAX:
            return np.array([b.item() / h])
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
        def jac_scaled(x):
            return (k * c) * as_matrix(base_jac(x * c))

    d2_scaled = None
    if problem.d2f is not None:
        base_d2 = problem.d2f
        def d2_scaled(x):
            return k * c * c * base_d2(x * c)

    k2_scaled = None if problem.k2 is None else abs(k) * c * c * problem.k2
    return dataclasses.replace(problem, f=f_scaled, jacobian=jac_scaled,
                               d2f=d2_scaled, k2=k2_scaled,
                               name=f"{problem.name}(scaled c={c},k={k})")


# -- Kantorovich data -------------------------------------------------------

@dataclass(frozen=True)
class KantorovichData:
    """The bounds (K2, B, eta) and the adimensional product a = K2*B*eta."""

    k2: float
    B: float
    eta: float

    @property
    def a(self) -> float:
        return self.k2 * self.B * self.eta


def kantorovich_data(problem: Problem, x0, mode: str = "newton",
                     k2: Optional[float] = None) -> KantorovichData:
    """Compute (K2, B, eta, a) at x0.

    mode="newton": eta bounds ||F'(x0)^-1 F(x0)||.
    mode="asis":   eta = B * ||F(x0)||.
    K2 is taken explicit (argument, then problem.k2) or estimated by
    sample_k2 over the ball B(x0, 2*eta): the largest closed-form bound on
    ||F''|| at its 2m + 25 sample points, each at least the true norm there
    and at most m times it, for 2m Jacobians and one reduction per point.
    F'(x0) is factored once, for B and eta, and rejected as singular as in
    factor_nonsingular.
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
        k2 = problem.k2
    if k2 is None:
        k2 = sample_k2(problem, x0, 2.0 * eta)
    return KantorovichData(k2=float(k2), B=float(B), eta=float(eta))


def sample_k2(problem: Problem, x0, radius: float) -> float:
    """Largest sampled bound on ||F''|| over the ball B(x0, radius).

    At each sample point x the variation tensor D[j] = F''(x)[e_j] is the
    central difference (F'(x + delta e_j) - F'(x - delta e_j)) / 2 delta of
    the 2m Jacobians there, taken as one checked stack.  Its norm bound is
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
    # rows x + delta e_0, x - delta e_0, x + delta e_1, ...: the order in
    # which a loop over the axes calls the Jacobian.  The buffers serve
    # every point, so no point allocates its ~3m^3 doubles anew.
    X, J, D = np.empty((2 * m, m)), np.empty((2 * m, m, m)), np.empty((m, m, m))
    best = 0.0
    for x in pts:
        X[0::2] = x + steps
        X[1::2] = x - steps
        problem._jac_stack(X, J)
        np.subtract(J[0::2], J[1::2], out=D)
        D /= 2.0 * K2_DELTA
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
