"""Desk-scale experiment runners behind the command-line interface.

Each runner returns an ExperimentResult holding traces, CSV-ready tables,
and a list of named assertions checked on the produced data.  Runners are
deterministic: two runs produce identical tables.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import bounds as bounds_mod
from .adimensional import adimensionalize
from .divdiff import DividedDifference
# asis_solve is imported for perfbench/tracer.py, which patches this lookup site
from .methods import (ASIS, DampedFirstOrder, DampedSteffensen, FixedSlope,
                      HFamily, IterationTrace, Newton, Secant, Steffensen,
                      StoppingCriteria, asis_solve, csv_text, json_text, solve)
from .problems import KantorovichData, as_vector, builtin_problem


def halley_h(L: float) -> float:
    return 1.0 / (1.0 - L / 2.0)


# method name -> builder(x0, lam, dd); method_from_name and the CLI's
# --method help read this table
METHODS = {
    "newton": lambda x0, lam, dd: Newton(),
    "steffensen": lambda x0, lam, dd: Steffensen(dd=dd),
    "asis": lambda x0, lam, dd: ASIS(dd=dd),
    "secant": lambda x0, lam, dd: Secant(
        x_prev=0.0 if x0 is None else np.atleast_1d(x0) - 0.1),
    "damped-steffensen": lambda x0, lam, dd: DampedSteffensen(lam=lam, dd=dd),
    "damped-first-order": lambda x0, lam, dd: DampedFirstOrder(lam=lam),
    "fixed-slope": lambda x0, lam, dd: FixedSlope(c=lam),
    "halley": lambda x0, lam, dd: HFamily(h=halley_h),
}


def method_from_name(name: str, x0=None, lam: float = 1.0,
                     dd_variant: str = "componentwise"):
    dd = DividedDifference(dd_variant)
    if name not in METHODS:
        raise ValueError(f"unknown method {name!r}")
    return METHODS[name](x0, lam, dd)


@dataclass
class Assertion:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class ExperimentResult:
    name: str
    traces: Dict[str, IterationTrace] = field(default_factory=dict)
    tables: Dict[str, Tuple[List[str], List[list]]] = field(default_factory=dict)
    metadata: Dict[str, object] = field(default_factory=dict)
    assertions: List[Assertion] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(a.passed for a in self.assertions)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.assertions.append(Assertion(name, bool(passed), detail))

    def write(self, out_dir, fmt: str = "csv") -> List[Path]:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        written = []
        for tag, trace in self.traces.items():
            if fmt == "csv":
                path = out_dir / f"{self.name}_{tag}.csv"
                path.write_text(trace.to_csv())
            else:
                path = out_dir / f"{self.name}_{tag}.json"
                path.write_text(trace.to_json())
            written.append(path)
        for tag, (header, rows) in self.tables.items():
            path = out_dir / f"{self.name}_{tag}.csv"
            path.write_text(csv_text(header, rows))
            written.append(path)
        if self.metadata:
            path = out_dir / f"{self.name}_metadata.json"
            path.write_text(json_text(self.metadata, indent=2, sort_keys=True))
            written.append(path)
        return written


def _log10_error_table(errs: Dict[str, np.ndarray]) -> Tuple[List[str], List[list]]:
    """log10 of each curve's errors ||x_n - root||, one column per tag,
    floored at 1e-300 and padded with "" below a shorter curve.  Each
    column is converted to Python floats once and its cells are repr of
    math.log10 over the whole column (np.log10 may differ in the last
    bit); the rows are zipped from the columns."""
    n_max = max(len(e) for e in errs.values())
    header = ["n"] + [f"log10_err_{tag}" for tag in errs]
    cols = [itertools.chain(
                map(repr, map(math.log10, np.maximum(e, 1e-300).tolist())),
                itertools.repeat("", n_max - len(e)))
            for e in errs.values()]
    return header, list(map(list, zip(map(str, range(n_max)), *cols)))


def _first_index_below(errors: np.ndarray, threshold: float) -> Optional[int]:
    idx = np.nonzero(errors < threshold)[0]
    return int(idx[0]) if len(idx) else None


def _dominates(e_fast: np.ndarray, e_slow: np.ndarray,
               floor: float = 1e-15) -> bool:
    """e_fast <= e_slow at every common index where e_slow is above floor."""
    n = min(len(e_fast), len(e_slow))
    for i in range(n):
        if e_slow[i] < floor:
            continue
        if e_fast[i] > e_slow[i]:
            return False
    return True


def _race(res: ExperimentResult, problem, x0,
          stop: StoppingCriteria) -> List[IterationTrace]:
    """Newton, classic Steffensen and ASIS from x0, traced under their names."""
    for name, method in (("newton", Newton()), ("steffensen", Steffensen()),
                         ("asis", ASIS())):
        res.traces[name] = solve(problem, method, x0, stop)
    return [res.traces[name] for name in ("newton", "steffensen", "asis")]


def _race_verdict(res: ExperimentResult, root,
                  newton_within: Optional[int] = None) -> None:
    """The race's log-error table and checks: ASIS dominates Newton, Newton
    reaches 1e-15 within `newton_within` steps (when given), and classic
    Steffensen needs more steps than Newton."""
    errs = {name: res.traces[name].errors(root)
            for name in ("newton", "steffensen", "asis")}
    res.tables["log_errors"] = _log10_error_table(errs)
    n_newton = _first_index_below(errs["newton"], 1e-15)
    n_steff = _first_index_below(errs["steffensen"], 1e-15)
    res.check("asis error <= newton error at every common index",
              _dominates(errs["asis"], errs["newton"]))
    if newton_within is not None:
        res.check(f"newton reaches 1e-15 within {newton_within} iterations",
                  n_newton is not None and n_newton <= newton_within,
                  f"n={n_newton}")
    res.check("steffensen needs strictly more iterations than newton",
              n_steff is not None and n_newton is not None
              and n_steff > n_newton, f"{n_steff} vs {n_newton}")


def _check_halved(res: ExperimentResult, name: str, on_f1: IterationTrace,
                  on_f2: IterationTrace) -> None:
    """Errors on f2 (root 0.5) are half of those on f1 (root 1) to 1e-12."""
    e1 = on_f1.errors(1.0)
    e2 = on_f2.errors(0.5)
    n = min(len(e1), len(e2))
    mask = e1[:n] > 1e-15
    rel = np.abs(e2[:n][mask] - 0.5 * e1[:n][mask]) / (0.5 * e1[:n][mask])
    res.check(name, bool(np.all(rel <= 1e-12)), f"max rel dev {rel.max():.2e}")


# -- experiment 1: the scalar equation --------------------------------------

def run_example1() -> ExperimentResult:
    """Newton, classic Steffensen and ASIS on exp(x-1)-1 from x0 = 0."""
    stop = StoppingCriteria(step_tol=0.0, residual_tol=1e-16, max_iter=100)
    problem = builtin_problem("f1")
    res = ExperimentResult(name="example1")
    _race(res, problem, 0.0, stop)
    res.traces["asis_adimensional"] = res.traces["asis"].adimensional
    root = 1.0
    _race_verdict(res, root, newton_within=8)
    form = adimensionalize(problem, 0.0)
    res.metadata = {"root": root, "x0": 0.0, "sigma": form.sigma,
                    "transform": form.T.tolist()}
    return res


# -- experiment 2: the rescaled equation ------------------------------------

def run_example2() -> ExperimentResult:
    """The rescaled equation exp(2x-1)-1: classic Steffensen crawls while
    Newton and ASIS errors are exactly half of the unscaled ones."""
    f1 = builtin_problem("f1")
    f2 = builtin_problem("f2")
    res = ExperimentResult(name="example2")
    stop_long = StoppingCriteria(step_tol=0.0, residual_tol=0.0, max_iter=5000)
    stop = StoppingCriteria(step_tol=0.0, residual_tol=1e-16, max_iter=100)

    tr_steff = solve(f2, Steffensen(), 0.0, stop_long)
    res.traces["steffensen_f2"] = tr_steff
    err = tr_steff.errors(0.5)
    n_half = _first_index_below(err, 0.5)
    n_eps = _first_index_below(err, 1e-16)
    res.metadata["first_n_below_0.5"] = n_half
    res.metadata["first_n_below_1e-16"] = n_eps
    res.check("steffensen on f2 reaches error < 0.5 at n = 3705 +- 10",
              n_half is not None and abs(n_half - 3705) <= 10, f"n={n_half}")
    res.check("steffensen on f2 reaches error < 1e-16 at n = 3716 +- 10",
              n_eps is not None and abs(n_eps - 3716) <= 10, f"n={n_eps}")

    tr_n1 = res.traces["newton_f1"] = solve(f1, Newton(), 0.0, stop)
    tr_n2 = res.traces["newton_f2"] = solve(f2, Newton(), 0.0, stop)
    _check_halved(res, "newton errors on f2 are half of f1 (rel 1e-12)",
                  tr_n1, tr_n2)

    asis1 = solve(f1, ASIS(), 0.0, stop)
    asis2 = res.traces["asis_f2"] = solve(f2, ASIS(), 0.0, stop)
    y1 = asis1.adimensional.iterates
    y2 = asis2.adimensional.iterates
    n = min(len(y1), len(y2))
    dev = max(float(np.max(np.abs(y1[i] - y2[i]))) for i in range(n))
    res.check("asis adimensional traces of f1 and f2 agree to 1e-13",
              dev <= 1e-13, f"max dev {dev:.2e}")
    _check_halved(res, "asis x-space errors on f2 are half of f1",
                  asis1, asis2)

    res.tables["steffensen_log_errors"] = _log10_error_table({"steffensen_f2": err})
    return res


# -- experiment 3: the 2-variable system ------------------------------------

def run_example3() -> ExperimentResult:
    problem = builtin_problem("example3")
    res = ExperimentResult(name="example3")
    stop = StoppingCriteria(step_tol=0.0, residual_tol=1e-15, max_iter=200)
    tr_newton, tr_steff, asis = _race(res, problem, np.zeros(2), stop)

    # reference root: the converged Newton limit
    root = tr_newton.x_final
    res.metadata["root"] = root.tolist()
    res.metadata["root_residual"] = tr_newton.residual_norms[-1]
    res.check("newton converged with residual < 1e-14",
              tr_newton.status.startswith("converged")
              and tr_newton.residual_norms[-1] < 1e-14)
    res.check("steffensen converged", tr_steff.status.startswith("converged"),
              tr_steff.status)
    res.check("asis converged", asis.status.startswith("converged"),
              asis.status)
    _race_verdict(res, root)
    return res


# -- zigzag remark -----------------------------------------------------------

def steepest_descent_zigzag(b: float) -> Tuple[np.ndarray, np.ndarray]:
    """20 steps of exact-line-search steepest descent on H(x,y) =
    (x^2 + b y^2)/2 from the worst-case start (b, 1); returns iterates and
    per-step energy ratios."""
    if not 0.0 < b <= 1.0:
        raise ValueError("b must be in (0, 1]")
    D = np.diag([1.0, b])
    energy = lambda v: 0.5 * float(v @ D @ v)
    v = np.array([b, 1.0])
    iterates = [v.copy()]
    ratios = []
    for _ in range(20):
        g = D @ v
        denom = float(g @ D @ g)
        if denom == 0.0:
            break
        alpha = float(g @ g) / denom
        v_new = v - alpha * g
        e_old, e_new = energy(v), energy(v_new)
        if e_old == 0.0:
            break
        ratios.append(e_new / e_old)
        v = v_new
        iterates.append(v.copy())
        if e_new == 0.0:
            break
    return np.array(iterates), np.array(ratios)


def run_zigzag(b: float) -> ExperimentResult:
    if not 0.0 < b < 1.0:
        raise ValueError("b must be in (0, 1)")
    res = ExperimentResult(name=f"zigzag_b{b}")
    iterates, ratios = steepest_descent_zigzag(b)
    expected = ((1.0 - b) / (1.0 + b)) ** 2
    dev = float(np.max(np.abs(ratios - expected))) if len(ratios) else math.inf
    res.check("steepest-descent energy ratio matches ((1-b)/(1+b))^2 to 1e-10",
              dev <= 1e-10, f"max dev {dev:.2e}")
    res.tables["steepest_descent"] = (
        ["n", "x", "y", "energy_ratio"],
        [[str(n), repr(float(iterates[n][0])), repr(float(iterates[n][1])),
          repr(float(ratios[n])) if n < len(ratios) else ""]
         for n in range(len(iterates))])

    problem = builtin_problem("zigzag", b=b)
    stop = StoppingCriteria(step_tol=0.0, residual_tol=1e-13, max_iter=10)
    asis = res.traces["asis"] = solve(problem, ASIS(), np.array([b, 1.0]),
                                      stop)
    res.check("asis converges in exactly 1 iteration",
              asis.n_steps == 1 and asis.residual_norms[-1] <= 1e-13,
              f"steps={asis.n_steps}, res={asis.residual_norms[-1]:.2e}")
    res.metadata = {"b": b, "expected_ratio": expected}
    return res


# -- bounds report ------------------------------------------------------------

def run_bounds_report(k2: float, B: float, eta: float, system: str = "newton",
                      N: int = 20, override: bool = False) -> ExperimentResult:
    data = KantorovichData(k2=k2, B=B, eta=eta)
    res = ExperimentResult(name=f"bounds_{system}")
    build = bounds_mod.bound_table if override else bounds_mod.error_envelopes
    env = build(data, N, system)
    seqs = env.sequences
    # the Newton system has no b_n and c_n; a cell past a sequence's end is empty
    columns = [seqs.a_seq, seqs.b_seq, seqs.c_seq, seqs.d_seq, seqs.r_seq,
               env.step_bounds, env.tail_bounds]
    rows = [[str(n)] + [repr(float(col[n])) if n < len(col) else ""
                        for col in columns]
            for n in range(len(seqs.a_seq))]
    res.tables["table"] = (
        ["n", "a_n", "b_n", "c_n", "d_n", "r_n", "d_n_eta", "tail_eta"], rows)
    res.metadata = {"k2": k2, "B": B, "eta": eta, "a": data.a, "system": system,
                    "s_star": env.s_star, "status": seqs.status}
    res.check("sequence system is positive", seqs.status == "positive",
              seqs.status)
    return res


# -- custom run ---------------------------------------------------------------

def _unread_flag(problem_name: str, methods: List[str], lam: float,
                 b: float, dd_variant: str) -> Optional[str]:
    """custom's first flag set off its default that the run would not
    read, as its message, or None: --dd and --lambda when every chosen
    method is built by METHODS as under the default, --b off zigzag."""
    def read(**kwargs):
        return any(method_from_name(name, **kwargs) != method_from_name(name)
                   for name in methods)

    if dd_variant != "componentwise" and not read(dd_variant=dd_variant):
        return f"--dd {dd_variant} is read by none of the chosen methods"
    if lam != 1.0 and not read(lam=lam):
        return f"--lambda {lam} is read by none of the chosen methods"
    if b != 0.1 and problem_name != "zigzag":
        return f"--b {b} is read by zigzag alone, not by {problem_name}"
    return None


def run_custom(problem_name: str, methods: List[str], x0,
               stop: StoppingCriteria, lam: float = 1.0, b: float = 0.1,
               dd_variant: str = "componentwise") -> ExperimentResult:
    """The chosen methods' solves of a named problem from x0.  A ValueError
    reports a flag that nothing in the run would read (_unread_flag), an
    x0 of the wrong dimension, an unknown method and a rejected ASIS
    form."""
    unread = _unread_flag(problem_name, methods, lam, b, dd_variant)
    if unread is not None:
        raise ValueError(unread)
    kwargs = {"b": b} if problem_name == "zigzag" else {}
    problem = builtin_problem(problem_name, **kwargs)
    res = ExperimentResult(name=f"custom_{problem_name}")
    x0 = as_vector(x0)
    if len(x0) != problem.dimension:
        raise ValueError(f"x0 has dimension {len(x0)}, "
                         f"problem needs {problem.dimension}")
    for name in methods:
        method = method_from_name(name, x0=x0, lam=lam, dd_variant=dd_variant)
        trace = res.traces[name] = solve(problem, method, x0, stop)
        if trace.status == "form-rejected":
            raise ValueError(trace.warnings[-1])
        if trace.adimensional is not None:
            res.traces[name + "_adimensional"] = trace.adimensional
        res.check(f"{name} terminated cleanly",
                  trace.status not in ("domain-failure",), trace.status)
    return res
