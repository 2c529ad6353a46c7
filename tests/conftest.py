import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from adimsolve.problems import Problem, as_vector, builtin_problem


@pytest.fixture
def f1():
    return builtin_problem("f1")


@pytest.fixture
def f2():
    return builtin_problem("f2")


@pytest.fixture
def example3():
    return builtin_problem("example3")


def assert_euclidean_norm(got, v, ulps=4):
    """got is ||v||_2: numpy's value bit for bit where the sum of squares
    is finite and normal, and elsewhere within `ulps` of the norm from an
    np.longdouble sum of squares, whose wider exponent range holds the
    square of every double (x86-64; skipped where it does not)."""
    v = np.asarray(v, dtype=float)
    r = v.ravel()
    with np.errstate(over="ignore"):    # numpy's dot warns
        ss = r.dot(r)
    if sys.float_info.min <= ss <= sys.float_info.max:
        assert got == np.linalg.norm(v)
        return
    if np.finfo(np.longdouble).maxexp <= 1024:
        pytest.skip("np.longdouble has the exponent range of a double")
    w = r.astype(np.longdouble)
    want = float(np.sqrt((w * w).sum()))
    if math.isnan(want) or math.isinf(want) or want == 0.0:
        assert got == want or math.isnan(got) and math.isnan(want)
    else:
        assert abs(got - want) <= ulps * np.spacing(want)


def linear_problem(A, b=None, norm="euclidean"):
    """F(x) = A x - b with exact Jacobian A."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    m = A.shape[0]
    b = np.zeros(m) if b is None else np.asarray(b, dtype=float)
    if m == 1:
        return Problem(f=lambda x: A[0, 0] * x - b[0],
                       jacobian=lambda x: A[0, 0],
                       d2f=lambda x: 0.0,
                       dimension=1, norm=norm, name="linear")
    return Problem(f=lambda x: A @ x - b, jacobian=lambda x: A,
                   dimension=m, norm=norm, name="linear")


def random_quadratic_problem(rng, m):
    """F_i(x) = (A x)_i + x^T Q_i x + c_i with analytic Jacobian."""
    A = rng.uniform(-1.0, 1.0, (m, m)) + 2.0 * np.eye(m)
    Q = rng.uniform(-0.5, 0.5, (m, m, m))
    Q = (Q + np.swapaxes(Q, 1, 2)) / 2.0
    c = rng.uniform(-0.5, 0.5, m)
    return quadratic_problem(A, Q, c)


def quadratic_problem(A, Q, c):
    """F_i(x) = (A x)_i + x^T Q_i x + c_i, Q_i symmetric: F'(x) = A + 2 Q x
    and the constant F''(x)[u, v]_i = 2 u^T Q_i v."""
    m = len(c)

    def f(x):
        x = np.atleast_1d(x)
        return A @ x + np.einsum("ijk,j,k->i", Q, x, x) + c

    def jac(x):
        x = np.atleast_1d(x)
        return A + 2.0 * np.einsum("ijk,k->ij", Q, x)

    if m == 1:
        return Problem(f=lambda x: f([x])[0], jacobian=lambda x: jac([x])[0, 0],
                       dimension=1, name="rand-quadratic")
    return Problem(f=f, jacobian=jac, dimension=m, name="rand-quadratic")


def h_equation_kernel(m, c):
    """A_ij = (c/2m) mu_i/(mu_i + mu_j), mu_i = (i - 1/2)/m."""
    mu = (np.arange(1, m + 1) - 0.5) / m
    return c * mu[:, None] / (2.0 * m * (mu[:, None] + mu[None, :]))


def h_equation_problem(m, c):
    """Chandrasekhar H-equation F(x)_i = x_i - 1/(1 - (c/2m) sum_j
    mu_i x_j/(mu_i + mu_j)), mu_i = (i - 1/2)/m; start x0 = (1, ..., 1)."""
    A = h_equation_kernel(m, c)
    eye = np.eye(m)

    def jac(x):
        s = 1.0 - A @ x
        return eye - A / (s * s)[:, None]

    return Problem(f=lambda x: x - 1.0 / (1.0 - A @ x), jacobian=jac,
                   dimension=m, name=f"H(m={m},c={c})")


def moved(p, t):
    """x -> F(x - t): p with its origin moved to t."""
    return Problem(f=lambda x: p.f(x - t), jacobian=lambda x: p.jacobian(x - t),
                   dimension=p.dimension, name=f"{p.name} moved by {t}")


def spelled_out_stack(form, Y):
    """G at each row of Y as an adimensional form maps a stack, spelled
    out: the rows taken to x by one product with W = T^-1,
    X = x0 + Y W^T, then F called on each row of X and divided by sigma."""
    X = form.x0 + Y @ form.W.T
    return np.array([form.problem.evaluate(x) for x in X]) / form.sigma


def spelled_out_g(form):
    """G of an adimensional form as a Problem built here, the reference for
    the form's bits: a point alone is taken to x by its own one-column
    solve with T's LU factors, x = x0 + T^-1 y, and a stack by
    spelled_out_stack."""
    def g(y):
        x = form.x0 + scipy.linalg.lu_solve(form._lu, as_vector(y))
        return form.problem.evaluate(x) / form.sigma

    def evaluate_stack(Y, GY):
        GY[:] = spelled_out_stack(form, Y)

    g.evaluate_stack = evaluate_stack
    return Problem(f=g, jacobian=form.g.jacobian,
                   dimension=form.problem.dimension, norm=form.problem.norm)


def recording(problem):
    """Copy of `problem` whose map and Jacobian log every argument they see:
    returns the copy and {"f": [points], "jac": [points]}."""
    calls = {"f": [], "jac": []}

    def f(x):
        calls["f"].append(np.atleast_1d(np.array(x, dtype=float)))
        return problem.f(x)

    jac = None
    if problem.jacobian is not None:
        def jac(x):
            calls["jac"].append(np.atleast_1d(np.array(x, dtype=float)))
            return problem.jacobian(x)

    return dataclasses.replace(problem, f=f, jacobian=jac), calls


SRC = Path(__file__).resolve().parents[1] / "src"


def fresh_python(code, *args, **env):
    """The stripped stdout of `python -c code args...` in a new interpreter
    that imports adimsolve from this checkout's src, with env added to the
    environment."""
    out = subprocess.run([sys.executable, "-c", code, *args],
                         env={**os.environ, "PYTHONPATH": str(SRC), **env},
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()
