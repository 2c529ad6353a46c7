"""Acceptance gate: ten end-to-end criteria, one printed line each.

Each test prints "[criterion N] <name>: PASS/FAIL" outside pytest's
capture so the gate status is visible in any run.
"""
import math
import time

import numpy as np
import pytest

from adimsolve.bounds import (majorizing_roots, newton_on_adim_poly,
                              newton_sequences, steffensen_on_adim_poly,
                              steffensen_sequences)
from adimsolve.divdiff import componentwise_dd, verify_interpolatory
from adimsolve.experiments import steepest_descent_zigzag
from adimsolve.methods import (ASIS, HFamily, Newton, Secant, Steffensen,
                               StoppingCriteria, solve)
from adimsolve.orders import q_order
from adimsolve.problems import (Problem, builtin_problem, kantorovich_data)

from conftest import random_quadratic_problem

A_GRID = (0.1, 0.25, 0.4, 0.5)


def _report(capsys, number, name, passed):
    line = f"[criterion {number:2d}] {name}: {'PASS' if passed else 'FAIL'}"
    with capsys.disabled():
        print(line, flush=True)
    assert passed, line


def test_criterion_01_rescaled_steffensen_pathology(capsys):
    f2 = builtin_problem("f2")
    stop = StoppingCriteria(step_tol=0.0, residual_tol=0.0, max_iter=5000)
    t0 = time.perf_counter()
    trace = solve(f2, Steffensen(), 0.0, stop)
    runtime = time.perf_counter() - t0
    err = trace.errors(0.5)
    n_half = int(np.nonzero(err < 0.5)[0][0])
    n_eps = int(np.nonzero(err < 1e-16)[0][0])
    ok = abs(n_half - 3705) <= 10 and abs(n_eps - 3716) <= 10 and runtime < 1.0
    _report(capsys, 1, "rescaled steffensen needs ~3705/3716 iterations in < 1 s", ok)


def test_criterion_02_scale_equivariance(capsys):
    f1 = builtin_problem("f1")
    f2 = builtin_problem("f2")
    stop = StoppingCriteria(step_tol=0.0, residual_tol=1e-16, max_iter=100)
    x1 = np.array([x[0] for x in solve(f1, Newton(), 0.0, stop).iterates])
    x2 = np.array([x[0] for x in solve(f2, Newton(), 0.0, stop).iterates])
    n = min(len(x1), len(x2))
    rel = np.abs(x2[:n] - 0.5 * x1[:n]) / np.maximum(np.abs(0.5 * x1[:n]),
                                                     1e-300)
    rel[x1[:n] == 0.0] = np.abs(x2[:n][x1[:n] == 0.0])
    ok = bool(np.all(rel <= 1e-12))

    y1 = solve(f1, ASIS(), 0.0, stop).adimensional.iterates
    y2 = solve(f2, ASIS(), 0.0, stop).adimensional.iterates
    n = min(len(y1), len(y2))
    dev = max(float(np.max(np.abs(y1[i] - y2[i]))) for i in range(n))
    ok = ok and dev <= 1e-13
    _report(capsys, 2, "newton halves exactly, adimensional traces coincide", ok)


def test_criterion_03_bound_sequences_are_exact_on_the_quadratic(capsys):
    ok = True
    for a in A_GRID:
        # five-sequence system against the exact derivative-free iteration
        seqs = steffensen_sequences(a, 6)
        run = steffensen_on_adim_poly(a, 6)
        q = run.q_values
        na = len(seqs.a_seq)
        qp = np.array([a * s - 1.0 for s in run.s])
        ok &= bool(np.allclose(seqs.r_seq, run.s[:na], rtol=1e-12, atol=1e-12))
        ok &= bool(np.allclose(seqs.c_seq, q[:na], rtol=1e-12, atol=1e-12))
        ok &= bool(np.allclose(seqs.a_seq, 1.0 / np.abs(qp[:na]),
                               rtol=1e-12, atol=1e-12))
        nb = len(seqs.b_seq)
        ok &= bool(np.allclose(seqs.b_seq, 1.0 / np.abs(run.operators[:nb]),
                               rtol=1e-12, atol=1e-12))
        nd = len(seqs.d_seq)
        ok &= bool(np.allclose(seqs.d_seq, np.diff(run.s)[:nd],
                               rtol=1e-12, atol=1e-12))
        # telescoped partial sums of the derivative-known system
        ns = newton_sequences(a, 20)
        r = ns.r_seq[:len(ns.a_seq)]
        ok &= bool(np.allclose(r, (1.0 / a) * (1.0 - 1.0 / ns.a_seq),
                               rtol=1e-12, atol=1e-12))
    for a in (x for x in A_GRID if x <= 0.49):
        total = float(np.sum(newton_sequences(a, 200).d_seq))
        ok &= abs(total - majorizing_roots(a).s_star) <= 1e-10
    _report(capsys, 3, "bound recurrences equal the exact quadratic iteration", ok)


def test_criterion_04_comparison_of_majorizing_iterations(capsys):
    ok = True
    for a in A_GRID:
        t = newton_on_adim_poly(a, 60)
        s = steffensen_on_adim_poly(a, 60).s
        s_star = majorizing_roots(a).s_star
        ok &= bool(np.all(t >= -1e-14)) and bool(np.all(np.diff(t) >= -1e-14))
        ok &= bool(np.all(np.diff(s) >= -1e-14))
        ok &= bool(np.all(t <= s + 1e-12))
        ok &= bool(np.all(s <= s_star + 1e-12))
    _report(capsys, 4, "derivative-known iterates below derivative-free below root",
            ok)


def test_criterion_05_divergence_construction(capsys):
    a = 0.5
    k2 = a

    def make(eta):
        return Problem(f=lambda t: (k2 / 2.0) * t * t - t + eta,
                       jacobian=lambda t: k2 * t - 1.0, dimension=1,
                       name="majorizing-divergent")

    stop = StoppingCriteria(step_tol=0.0, residual_tol=1e-15, max_iter=10)
    # eta = 2/a: the first divided difference vanishes identically
    tr = solve(make(2.0 / a), Steffensen(), 0.0, stop)
    ok = tr.status == "singular-operator" and tr.n_steps == 0
    # eta > 2/a: the first step moves backwards
    tr = solve(make(2.0 / a + 1.0), Steffensen(), 0.0, stop)
    ok = ok and len(tr.iterates) >= 2 and tr.iterates[1][0] < 0.0
    _report(capsys, 5, "overlarge eta breaks the derivative-free iteration", ok)


def test_criterion_06_semilocal_envelopes_on_f1(capsys):
    f1 = builtin_problem("f1")
    x0 = 0.9
    stop = StoppingCriteria(step_tol=0.0, residual_tol=1e-16, max_iter=60)
    # explicit local curvature bound: f1'' = exp(x-1) on the iteration ball
    eta0 = math.exp(0.1) - 1.0
    k2_local = math.exp(x0 + 2.0 * eta0 - 1.0)
    data = kantorovich_data(f1, x0, mode="newton", k2=k2_local)
    a = data.a
    ok = a <= 0.5
    s_star = majorizing_roots(a).s_star
    ns = newton_sequences(a, 60)
    tr = solve(f1, Newton(), x0, stop)
    steps = np.array(tr.step_norms)
    d_eta = ns.d_seq * data.eta
    n = min(len(steps), len(d_eta))
    ok = ok and bool(np.all(steps[:n] <= d_eta[:n] + 1e-14))
    tails = (s_star - ns.r_seq) * data.eta
    errs = tr.errors(1.0)
    n = min(len(errs), len(tails))
    ok = ok and bool(np.all(errs[:n] <= tails[:n] + 1e-12))

    # derivative-free envelope for the adimensional run
    data_s = kantorovich_data(f1, x0, mode="asis", k2=k2_local)
    ss = steffensen_sequences(data_s.a, 60)
    asis = solve(f1, ASIS(), x0, stop)
    y_steps = np.array(asis.adimensional.step_norms)
    n = min(len(y_steps), len(ss.d_seq))
    ok = ok and bool(np.all(y_steps[:n] <= ss.d_seq[:n] + 1e-14))
    _report(capsys, 6, "a-priori step and tail envelopes hold on the actual runs", ok)


def test_criterion_07_empirical_orders(capsys):
    f1 = builtin_problem("f1")
    stop = StoppingCriteria(step_tol=0.0, residual_tol=1e-16, max_iter=100)
    p_newton = q_order(solve(f1, Newton(), 0.0, stop).errors(1.0)).p
    p_asis = q_order(solve(f1, ASIS(), 0.0, stop).errors(1.0)).p
    p_secant = q_order(solve(f1, Secant(x_prev=-0.1), 0.0,
                             stop).errors(1.0)).p
    # far start so enough Halley iterates stay above the rounding floor
    p_halley = q_order(solve(f1, HFamily(h=lambda L: 1.0 / (1.0 - L / 2.0)),
                             -2.0, stop).errors(1.0)).p
    ok = (abs(p_newton - 2.0) <= 0.1 and abs(p_asis - 2.0) <= 0.1
          and abs(p_secant - (1.0 + math.sqrt(5.0)) / 2.0) <= 0.05
          and abs(p_halley - 3.0) <= 0.15)
    _report(capsys, 7, "Q-orders: 2 (newton, scale-invariant), 1.618 (secant), "
               "3 (halley)", ok)


def test_criterion_08_interpolatory_identity_property(capsys):
    rng = np.random.default_rng(20240824)
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 5))
        p = random_quadratic_problem(rng, m)
        x = rng.uniform(-2.0, 2.0, m)
        y = rng.uniform(-2.0, 2.0, m)
        if m == 1:
            x, y = float(x[0]), float(y[0])
        H = componentwise_dd(p, x, y)
        worst = max(worst, verify_interpolatory(H, p, x, y))
    _report(capsys, 8, "componentwise operator is interpolatory (1000 random cases)",
            worst <= 1e-12)


def test_criterion_09_zigzag_remark(capsys):
    ok = True
    for b in (0.05, 0.1, 0.5):
        _, ratios = steepest_descent_zigzag(b)
        expected = ((1.0 - b) / (1.0 + b)) ** 2
        ok &= bool(np.max(np.abs(ratios - expected)) <= 1e-10)
        asis = solve(builtin_problem("zigzag", b=b), ASIS(),
                     np.array([b, 1.0]), StoppingCriteria(0.0, 1e-13, 10))
        ok &= asis.n_steps == 1
        ok &= asis.residual_norms[-1] <= 1e-13
    _report(capsys, 9, "steepest descent zigzags at the exact rate, "
               "scale-invariant run needs 1 step", ok)


def test_criterion_10_error_dominance_examples_1_and_3(capsys):
    stop = StoppingCriteria(step_tol=0.0, residual_tol=1e-16, max_iter=200)
    ok = True
    for problem, x0, root in (
            (builtin_problem("f1"), np.zeros(1), np.array([1.0])),
            (builtin_problem("example3"), np.zeros(2), np.array([1.0, -1.0]))):
        tr_newton = solve(problem, Newton(), x0, stop)
        tr_steff = solve(problem, Steffensen(), x0, stop)
        e_asis = solve(problem, ASIS(), x0, stop).errors(root)
        e_newton = tr_newton.errors(root)
        e_steff = tr_steff.errors(root)
        n = min(len(e_asis), len(e_newton))
        for i in range(n):
            if e_newton[i] < 1e-15:
                break
            ok &= e_asis[i] <= e_newton[i]
        def first(e):
            idx = np.nonzero(e < 1e-15)[0]
            return int(idx[0]) if len(idx) else None

        n_newton, n_steff = first(e_newton), first(e_steff)
        ok &= n_newton is not None and n_steff is not None \
            and n_steff > n_newton
    _report(capsys, 10, "scale-invariant run dominates newton; classic "
                "derivative-free lags", ok)
