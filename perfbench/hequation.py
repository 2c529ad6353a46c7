"""The Chandrasekhar H-equation, the dense test system of the benchmark.

Kelley, *Iterative Methods for Linear and Nonlinear Equations* (SIAM 1995),
section 5.6:

    F(x)_i = x_i - 1 / (1 - (c / 2m) sum_j mu_i x_j / (mu_i + mu_j)),
    mu_i = (i - 1/2) / m,

solvable for 0 < c < 1 with the standard start x0 = (1, ..., 1).  One
evaluation is a dense matrix-vector product, O(m^2); the Jacobian
I - diag(1/s^2) A with s = 1 - A x is O(m^2) as well.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from adimsolve.problems import LinearScaling, Problem, apply_scaling


def kernel(m: int) -> np.ndarray:
    """The c-free kernel K with A = c K: K_ij = mu_i / (2m (mu_i + mu_j))."""
    mu = (np.arange(1, m + 1) - 0.5) / m
    return mu[:, None] / (2.0 * m * (mu[:, None] + mu[None, :]))


def h_map(A: np.ndarray):
    """F and F' of the H-equation with A = c K, as plain callables."""
    eye = np.eye(A.shape[0])

    def f(x):
        return x - 1.0 / (1.0 - A @ x)

    def jac(x):
        s = 1.0 - A @ x
        return eye - A / (s * s)[:, None]

    return f, jac


def reference_root(A: np.ndarray, tol: float = 1e-14, max_iter: int = 50) -> np.ndarray:
    """Newton's method written directly in numpy, independent of adimsolve."""
    f, jac = h_map(A)
    x = np.ones(A.shape[0])
    for _ in range(max_iter):
        dx = np.linalg.solve(jac(x), f(x))
        x = x - dx
        if np.linalg.norm(dx) <= tol * np.linalg.norm(x):
            return x
    raise RuntimeError("reference Newton did not converge")


@dataclass
class Instance:
    """One seeded H-equation problem, optionally rescaled x -> k F(s x).

    `problem` is what the solver sees; `x0` is the standard start (1,...,1)
    in its coordinates, and a solver root x maps back to s * x.
    """

    m: int
    c: float
    scale_x: float
    scale_f: float
    A: np.ndarray
    problem: Problem
    x0: np.ndarray
    _root: np.ndarray = None

    @property
    def root(self) -> np.ndarray:
        """The unscaled root, computed once on first use."""
        if self._root is None:
            self._root = reference_root(self.A)
        return self._root

    def unscaled_residual(self, x) -> float:
        f, _ = h_map(self.A)
        return float(np.linalg.norm(f(self.scale_x * np.asarray(x, dtype=float))))

    def root_error(self, x) -> float:
        """Relative distance of the mapped-back x from the reference root."""
        root = self.root
        return float(np.linalg.norm(self.scale_x * np.asarray(x, dtype=float) - root)
                     / np.linalg.norm(root))


def make_instance(K: np.ndarray, c: float, scale_x: float = 1.0,
                  scale_f: float = 1.0, wrap=None) -> Instance:
    """Build the H-equation for kernel K and parameter c.

    `wrap`, when given, is applied to the F and F' callables before they
    are handed to Problem (the tracer uses it to count evaluations).
    """
    m = K.shape[0]
    A = c * K
    f, jac = h_map(A)
    if wrap is not None:
        f, jac = wrap(f, "f"), wrap(jac, "jac")
    problem = Problem(f=f, jacobian=jac, dimension=m, name=f"H(m={m},c={c:.6f})")
    if scale_x != 1.0 or scale_f != 1.0:
        problem = apply_scaling(problem, LinearScaling(scale_x, scale_f))
    return Instance(m=m, c=c, scale_x=scale_x, scale_f=scale_f, A=A,
                    problem=problem, x0=np.ones(m) / scale_x)
