"""Tests of the benchmark's own code: the H-equation, seeded inputs, the
tracer's arithmetic and accounting, and the failure-charge rule."""
import hashlib

import numpy as np
import pytest

import hequation
import run
import speed
import tracer as tracer_mod
import workloads
from adimsolve import adimensional, methods, problems


@pytest.mark.parametrize("scale_x, scale_f", [(1.0, 1.0), (0.4, 2.5)])
def test_h_equation_jacobian_matches_finite_differences(scale_x, scale_f):
    inst = hequation.make_instance(hequation.kernel(12), 0.85, scale_x, scale_f)
    rng = np.random.default_rng(0)
    x = inst.x0 * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, 12))
    p = inst.problem
    assert np.allclose(p.jac(x), p.fd_jacobian(x), rtol=1e-6, atol=1e-7)


def test_reference_root_solves_the_h_equation():
    inst = hequation.make_instance(hequation.kernel(20), 0.9)
    assert inst.unscaled_residual(inst.root) < 1e-13
    assert inst.root_error(inst.root) == 0.0


def _digest(wl) -> str:
    h = hashlib.sha256()
    for item in wl.inputs:
        if isinstance(item, hequation.Instance):
            h.update(np.array([item.m, item.c, item.scale_x, item.scale_f]).tobytes())
            h.update(item.A.tobytes())
            h.update(item.x0.tobytes())
        else:
            h.update(repr(item).encode())
    h.update(repr([op.kind for op in wl.ops]).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", ["paper-suite", "derivative-free",
                                  "a-priori-bounds"])
def test_same_seed_gives_identical_inputs(name, tmp_path):
    first = _digest(workloads.build(name, 7, tmp_path))
    assert _digest(workloads.build(name, 7, tmp_path)) == first
    assert _digest(workloads.build(name, 8, tmp_path)) != first


def test_stratified_draws_cover_every_stratum():
    u = workloads.stratified(np.random.default_rng(3), 10, 0.0, 1.0)
    assert sorted(np.floor(u * 10).astype(int)) == list(range(10))


def test_self_time_of_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 3] and b [4, 8]; b holds c [5, 6]
    parent = np.array([-1, 0, 0, 2])
    start = np.array([0.0, 1.0, 4.0, 5.0])
    end = np.array([10.0, 3.0, 8.0, 6.0])
    assert tracer_mod.self_times(parent, start, end).tolist() == [4.0, 2.0, 3.0, 1.0]


def test_speed_scaling_uses_the_probes_near_each_op():
    # the machine runs at half speed from t = 10 on: probes take twice as long
    at = np.arange(0.0, 20.0, 0.1)
    took = np.where(at < 10.0, 1.0, 2.0)
    starts = np.array([2.0, 18.0, 50.0])
    assert speed.local_medians(at, took, starts, window=1.0).tolist() == [1.0, 2.0, 2.0]
    # a window with too few probes falls back to the nearest ones
    sparse = np.array([0.0, 5.0, 6.0, 30.0])
    assert speed.local_medians(sparse, np.array([1.0, 2.0, 3.0, 4.0]),
                               np.array([5.5]), window=1.0).tolist() == [2.0]


def test_per_op_medians_replace_each_cost_by_its_ops_median():
    keys = ["a", "b", "a", "a", "b"]
    costs = [1.0, 10.0, 5.0, 2.0, 30.0]
    assert run.per_op_medians(keys, costs) == [2.0, 20.0, 2.0, 2.0, 20.0]


def test_failed_op_is_charged_the_limit():
    wl = workloads.Workload("w", 0.5, 1, [], [])
    ok = workloads.Outcome("ok")
    assert run.charged(wl, ok, 0.01) == 0.01
    for status in ("failed", "incorrect"):
        assert run.charged(wl, workloads.Outcome(status), 0.01) == 0.5


def test_op_over_the_limit_fails():
    wl = workloads.Workload("w", 0.5, 1, [], [])
    op = workloads.Op("k", lambda: None, lambda r: workloads.Outcome("ok"))
    assert run.judge(wl, op, 0.4, None, None).status == "ok"
    assert run.judge(wl, op, 0.6, None, None).status == "failed"
    assert run.judge(wl, op, 0.1, None, ValueError("x")).status == "failed"


def test_asis_op_falls_back_only_on_the_normalization_rejection(monkeypatch):
    inst = hequation.make_instance(hequation.kernel(10), 0.78, 0.5, 2.0)
    cw = methods.Steffensen(dd=workloads.divdiff.DividedDifference("componentwise"))
    op = workloads.asis_op("asis", inst, cw)
    out = op.check(op.run())
    assert out.status == "ok" and out.facts == {"asis_rejected": 0}

    def refuse(message):
        def asis_solve(*args, **kwargs):
            raise ValueError(message)
        return asis_solve

    monkeypatch.setattr(methods, "asis_solve",
                        refuse(workloads.ASIS_REJECTION + " G'(y0) = -I"))
    out = op.check(op.run())
    assert out.status == "ok" and out.facts == {"asis_rejected": 1}
    monkeypatch.setattr(methods, "asis_solve", refuse("something else"))
    with pytest.raises(ValueError, match="something else"):
        op.run()


def test_tracer_counts_evaluations_and_restores_every_patch():
    before = {(id(o), a): (o.__dict__[a] if isinstance(o, type) else getattr(o, a))
              for o, a, _ in tracer_mod._targets()}
    t = tracer_mod.Tracer()
    calls = {"f": 0}

    def f(x):
        calls["f"] += 1
        return np.exp(x - 1.0) - 1.0

    p = problems.Problem(f=t.counting(f, "f"),
                         jacobian=t.counting(lambda x: np.exp(x - 1.0), "jac"))
    stop = methods.StoppingCriteria(0.0, 1e-14, 50)
    t.install()
    try:
        tr = methods.solve(p, methods.Steffensen(), 0.0, stop)
        steffensen_f = calls["f"]
        res = methods.asis_solve(p, 0.0, stop)
    finally:
        t.uninstall()
    t.end_op()
    assert t.counts["f_calls"] == calls["f"]
    assert t.counts["evals_counted"] == calls["f"]
    assert t.counts["evals_reported"] == tr.n_evals + res.x_trace.n_evals
    # the miscount is summed per solve; ASIS under-reports its F evaluations
    asis_f = calls["f"] - steffensen_f
    assert res.x_trace.n_evals < asis_f
    assert t.counts["evals_miscount"] == (abs(tr.n_evals - steffensen_f)
                                          + asis_f - res.x_trace.n_evals)
    assert t.counts["steps"] == tr.n_steps + res.y_trace.n_steps
    assert t.counts["methods.asis_solve.calls"] == 1
    assert t.counts["adimensional.adimensionalize.calls"] == 1
    assert t.counts["adimensional.lu_solve.calls"] > 0
    assert t.counts["problems.rcond.calls"] > 0
    after = {(id(o), a): (o.__dict__[a] if isinstance(o, type) else getattr(o, a))
             for o, a, _ in tracer_mod._targets()}
    assert after == before
    assert adimensional.rcond is problems.rcond


def test_envelope_violation_ignores_rounding_level_steps():
    class Env:
        step_bounds = np.array([1.0, 0.1, 1e-20])

    class Trace:
        iterates = [np.zeros(1), np.ones(1), np.ones(1), np.ones(1)]
        step_norms = [1.0 + 1e-12, 0.05, 1e-15]

    assert not workloads.envelope_violated(Trace, Env)
    Trace.step_norms = [1.0, 0.2, 1e-15]
    assert workloads.envelope_violated(Trace, Env)
