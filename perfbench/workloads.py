"""The three benchmark workloads, their inputs and their correctness oracles.

An op is one unit of user work: `run` is timed, `check` is not.  Each
workload is a fixed cycle of ops built from the seed; run.py runs the
cycle in order, closed loop, until its time is up.  Every adimsolve
function is looked up through its module at call time (methods.solve, not
a name imported here), so the tracer's wrappers see the calls.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List

import numpy as np

from adimsolve import bounds, cli, divdiff, methods, orders, problems
from hequation import Instance, kernel, make_instance

# c stays in the band where both Steffensen variants take 4 steps from
# x0 = 1 at m=10 and m=100 under every scaling drawn (corners s, k = e^+-1
# included) and ASIS takes 3, so op times do not jump between step counts
# from seed to seed.  Above c = 0.80 large s*k costs Steffensen a fifth step,
# on a share of instances that varied 3-6% between seeds.
C_BAND = (0.765, 0.795)
LOG_SCALE = 1.0           # scale factors drawn log-uniform in [e^-1, e^1]
REL_TOL = 1e-10           # residual tolerance relative to ||F(x0)||
MAX_ITER = 50
ORACLE_RESIDUAL = 1e-9    # unscaled ||F(x)|| / ||F(1)|| the oracle accepts
ORACLE_ROOT = 1e-8        # relative distance to the reference root
ENVELOPE_SLACK = 1e-9     # realized step may exceed d_n*eta by rounding
RESOLVED_STEP = 1e-12     # steps below this share of ||x|| are rounding noise
BOUND_STEPS = 20
# start of the ValueError adimensionalize raises when its normalization
# check fails; any other ValueError from asis_solve fails the op
ASIS_REJECTION = "adimensional form violates"
SMALL_PER_BIG = 4         # m=10 instances per m=100 instance in derivative-free
DF_ROUNDS = 32            # derivative-free rounds a cycle: ops repeat 5+ times a 20 s run

# the six runs of scripts/run_experiments.py, plus the README's custom run:
# with seven equally frequent runs the median falls inside one run's times
# rather than in the gap between the three cheap and the three dear ones
PAPER_RUNS = (
    ("example1",),
    ("example2",),
    ("example3",),
    ("zigzag", "--b", "0.1"),
    ("bounds-report", "--k2", "1.0", "--B", "1.0", "--eta", "0.5",
     "--system", "newton"),
    ("bounds-report", "--k2", "1.0", "--B", "1.0", "--eta", "0.5",
     "--system", "steffensen"),
    ("custom", "--problem", "f1", "--method", "newton", "--method", "asis",
     "--x0", "0.0"),
)

WORKLOAD_TAGS = {"paper-suite": 1, "derivative-free": 2, "a-priori-bounds": 4}


@dataclass
class Outcome:
    status: str                   # "ok" | "failed" | "incorrect"
    why: str = ""
    facts: Dict[str, float] = field(default_factory=dict)


@dataclass
class Op:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]


@dataclass
class Workload:
    name: str
    limit_s: float                # per-op limit; failed ops are charged this
    round_len: int                # ops in one mix of every op kind
    ops: List[Op]                 # one cycle, repeated as often as time allows
    inputs: list                  # what the seed generated, in op order
    cleanup: Callable[[], None] = lambda: None


def stratified(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """n draws from U[lo, hi], one in each of n equal strata, shuffled."""
    u = (rng.permutation(n) + rng.uniform(size=n)) / n
    return lo + (hi - lo) * u


def workload_rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOAD_TAGS[name]])


def h_instances(rng, m: int, n: int, wrap=None, c_band=C_BAND,
                scaled: bool = True) -> List[Instance]:
    K = kernel(m)
    cs = stratified(rng, n, *c_band)
    sx = np.exp(stratified(rng, n, -LOG_SCALE, LOG_SCALE)) if scaled else np.ones(n)
    sf = np.exp(stratified(rng, n, -LOG_SCALE, LOG_SCALE)) if scaled else np.ones(n)
    return [make_instance(K, float(c), float(a), float(b), wrap)
            for c, a, b in zip(cs, sx, sf)]


# -- oracles ------------------------------------------------------------------

def check_root(inst: Instance, trace) -> Outcome:
    """A run must converge to the reference root of the unscaled problem."""
    if not trace.status.startswith("converged"):
        return Outcome("failed", f"status {trace.status}")
    x = trace.x_final
    f0 = inst.unscaled_residual(inst.x0)
    res = inst.unscaled_residual(x)
    err = inst.root_error(x)
    if res > ORACLE_RESIDUAL * f0 or err > ORACLE_ROOT:
        return Outcome("incorrect", f"converged to a wrong root: residual "
                                    f"{res:.2e}, root error {err:.2e}")
    return Outcome("ok")


def relative_stop(inst: Instance) -> methods.StoppingCriteria:
    sigma = float(np.linalg.norm(inst.problem.evaluate(inst.x0)))
    return methods.StoppingCriteria(step_tol=0.0, residual_tol=REL_TOL * sigma,
                                    max_iter=MAX_ITER)


def solve_op(kind: str, inst: Instance, method) -> Op:
    stop = relative_stop(inst)
    return Op(kind, lambda: methods.solve(inst.problem, method, inst.x0, stop),
              lambda tr: check_root(inst, tr))


def asis_op(kind: str, inst: Instance, fallback) -> Op:
    """Solve with ASIS; when `asis_solve` refuses the adimensional form (the
    seed's false rejection, NOTES.md "Defects"), solve with `fallback`, as
    a user would.  The op still yields a checked root; the refusal costs
    its time and is counted in the `asis_rejected` fact."""
    # ASIS stops on ||G(y)|| = ||F(x)|| / ||F(x0)||, already relative
    stop = methods.StoppingCriteria(step_tol=0.0, residual_tol=REL_TOL,
                                    max_iter=MAX_ITER)
    fallback_stop = relative_stop(inst)

    def run():
        try:
            return methods.asis_solve(inst.problem, inst.x0, stop).x_trace, 0
        except ValueError as exc:
            if not str(exc).startswith(ASIS_REJECTION):
                raise
        return methods.solve(inst.problem, fallback, inst.x0, fallback_stop), 1

    def check(result):
        trace, rejected = result
        out = check_root(inst, trace)
        out.facts = {"asis_rejected": rejected}
        return out

    return Op(kind, run, check)


# -- workloads ------------------------------------------------------------------

def paper_suite(seed: int, scratch: Path) -> Workload:
    """The paper's CLI runs, in a seeded order per pass, through cli.main."""
    rng = workload_rng("paper-suite", seed)
    counter = iter(range(10 ** 9))
    reference: Dict[tuple, Dict[str, str]] = {}

    def run(argv):
        out = scratch / f"op{next(counter)}"
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv) + ["--out", str(out)])
        return code, buf.getvalue(), out

    def check(argv, result):
        code, text, out = result
        files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                 for p in sorted(out.iterdir())} if out.exists() else {}
        shutil.rmtree(out, ignore_errors=True)
        lines = [ln for ln in text.splitlines() if not ln.startswith("wrote ")]
        if code != 0 or not lines or not all(ln.startswith("[PASS]") for ln in lines):
            return Outcome("incorrect", f"exit {code}: {text.strip()[-200:]}")
        if reference.setdefault(argv, files) != files:
            return Outcome("incorrect", "output files differ between passes")
        return Outcome("ok")

    # one Op per run, repeated in every pass: identical work, so run.py
    # charges each run the median over all its repetitions in a run
    runs = [Op(argv[0] + ("-" + argv[-1] if argv[0] == "bounds-report" else ""),
               lambda argv=argv: run(argv), lambda r, argv=argv: check(argv, r))
            for argv in PAPER_RUNS]
    ops = [runs[k] for _ in range(16) for k in rng.permutation(len(PAPER_RUNS))]
    return Workload("paper-suite", 5.0, len(PAPER_RUNS), ops, [op.kind for op in ops],
                    cleanup=lambda: shutil.rmtree(scratch, ignore_errors=True))


def derivative_free(seed: int, wrap=None) -> Workload:
    """H-equation at m=100 and m=10, each instance solved by Steffensen
    (componentwise), Steffensen (integral) and ASIS.

    Four m=10 instances per m=100 instance put the median among the cheap
    m=10 Steffensen solves and the 90th percentile in the middle of the
    m=100 componentwise-Steffensen times, away from the gaps between op
    kinds; the m=100 ASIS ops, which the seed rejects and solves by the
    fallback, are the dearest 1/15.
    """
    rng = workload_rng("derivative-free", seed)
    rounds, per = DF_ROUNDS, SMALL_PER_BIG
    big = h_instances(rng, 100, rounds, wrap)
    small = h_instances(rng, 10, per * rounds, wrap)
    cw = methods.Steffensen(dd=divdiff.DividedDifference("componentwise"))
    quad = methods.Steffensen(dd=divdiff.DividedDifference("integral"))
    order = [x for r in range(rounds) for x in [big[r]] + small[per * r:per * (r + 1)]]
    ops = []
    for inst in order:
        tag = f"m={inst.m}"
        ops += [solve_op(f"steffensen-cw {tag}", inst, cw),
                solve_op(f"steffensen-integral {tag}", inst, quad),
                asis_op(f"asis {tag}", inst, cw)]
    return Workload("derivative-free", 0.25, 3 * (1 + per), ops, order)


def a_priori_bounds(seed: int, wrap=None) -> Workload:
    """Kantorovich data (sampled K2) in both modes, both envelope systems,
    one Newton run against its envelope, and the three order estimates."""
    rng = workload_rng("a-priori-bounds", seed)
    sizes = (8, 12, 16, 20, 24)
    blocks = 8
    insts = {m: h_instances(rng, m, blocks, wrap, c_band=(0.5, 0.95), scaled=False)
             for m in sizes}
    ops, order = [], []
    for b in range(blocks):
        for m in rng.permutation(sizes):
            inst = insts[int(m)][b]
            inst.root  # the orders need the root; compute it outside the op
            order.append(inst)
            ops.append(Op(f"bounds m={inst.m}",
                          lambda inst=inst: bounds_run(inst),
                          lambda r, inst=inst: check_bounds(inst, r)))
    return Workload("a-priori-bounds", 3.0, len(sizes), ops, order)


def bounds_run(inst: Instance) -> dict:
    p, x0 = inst.problem, inst.x0
    data = {"newton": problems.kantorovich_data(p, x0, mode="newton"),
            "steffensen": problems.kantorovich_data(p, x0, mode="asis")}
    envelopes = {}
    for system, kd in data.items():
        try:
            envelopes[system] = bounds.error_envelopes(kd, BOUND_STEPS, system)
        except bounds.HypothesesNotSatisfied:
            envelopes[system] = None      # a > 1/2: a valid outcome
    sigma = float(np.linalg.norm(p.evaluate(x0)))
    stop = methods.StoppingCriteria(step_tol=0.0, residual_tol=REL_TOL * sigma,
                                    max_iter=MAX_ITER)
    trace = methods.solve(p, methods.Newton(), x0, stop)
    errors = trace.errors(inst.root)
    estimates = {}
    for notion, fn in (("Q", lambda: orders.q_order(errors)),
                       ("R", lambda: orders.r_order(errors)),
                       ("AQ", lambda: orders.aq_order(trace.step_norms,
                                                      data["newton"].eta))):
        try:
            estimates[notion] = fn().p
        except orders.InsufficientDataError:
            estimates[notion] = None
    return {"data": data, "envelopes": envelopes, "trace": trace,
            "orders": estimates}


def envelope_violated(trace, envelope) -> bool:
    """Does some resolved realized Newton step exceed its bound d_n * eta?"""
    steps = np.asarray(trace.step_norms)
    bound = envelope.step_bounds[:len(steps)]
    steps = steps[:len(bound)]
    size = np.array([np.linalg.norm(x) for x in trace.iterates[1:len(steps) + 1]])
    resolved = steps > RESOLVED_STEP * size
    return bool(np.any(resolved & (steps > bound * (1.0 + ENVELOPE_SLACK))))


def check_bounds(inst: Instance, r: dict) -> Outcome:
    for kd in r["data"].values():
        if not (np.isfinite(kd.a) and kd.a > 0.0 and kd.B > 0.0 and kd.eta > 0.0):
            return Outcome("incorrect", f"bad Kantorovich data: {kd}")
    out = check_root(inst, r["trace"])
    env = r["envelopes"]["newton"]
    if env is not None:
        out.facts = {"envelope_checked": 1,
                     "envelope_violated": int(envelope_violated(r["trace"], env))}
    return out


def build(name: str, seed: int, scratch: Path, wrap=None) -> Workload:
    if name == "paper-suite":
        return paper_suite(seed, scratch)
    builders = {"derivative-free": derivative_free, "a-priori-bounds": a_priori_bounds}
    if name not in builders:
        raise ValueError(f"unknown workload {name!r}; "
                         f"choices: {sorted(WORKLOAD_TAGS)}")
    return builders[name](seed, wrap)
