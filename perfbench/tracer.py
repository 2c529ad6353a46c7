"""Out-of-package tracing of adimsolve's layers.

The tracer wraps the public functions of each adimsolve module in place
while it is installed, so nothing under src/ changes.  Each wrapper records
a span (name, start, end, parent) in memory; per-op aggregates (calls and
self time per span name) are folded in after every op, and the raw spans
are written out when the benchmark ends.

A name is patched where its caller looks it up, not only where it is
defined: `from .problems import rcond` in adimensional binds its own
reference, so patching problems.rcond alone would never see those calls.
"""
from __future__ import annotations

import dataclasses
import time
from collections import Counter
from pathlib import Path

import numpy as np

from adimsolve import (adimensional, bounds, cli, divdiff, experiments,
                       methods, orders, problems)

DD_NAMES = ("componentwise_dd", "integral_dd", "scalar_dd")


def _targets():
    """(owner, attribute, span name) for every patched lookup site."""
    P = problems.Problem
    out = [(P, "evaluate", "problems.evaluate"),
           (P, "jac", "problems.jac"),
           (P, "operator_norm", "problems.operator_norm")]
    for owner in (problems, adimensional):
        out.append((owner, "rcond", "problems.rcond"))
    for owner in (problems, methods):
        out.append((owner, "solve_linear", "problems.solve_linear"))
    out += [(problems, "sample_k2", "problems.sample_k2"),
            (problems, "kantorovich_data", "problems.kantorovich_data")]
    out += [(divdiff, n, f"divdiff.{n}") for n in DD_NAMES]
    for owner in (adimensional, methods):
        out.append((owner, "adimensionalize", "adimensional.adimensionalize"))
    out += [(adimensional, "check_normalization",
             "adimensional.check_normalization"),
            (adimensional, "lu_solve", "adimensional.lu_solve")]
    for owner in (methods, experiments):
        out.append((owner, "solve", "methods.solve"))
        out.append((owner, "asis_solve", "methods.asis_solve"))
    out += [(methods, n, f"methods.{n}")
            for n in ("newton_step", "steffensen_step", "damped_steffensen_step",
                      "secant_step", "h_family_step", "logarithmic_convexity")]
    out += [(bounds, n, f"bounds.{n}")
            for n in ("error_envelopes", "newton_sequences",
                      "steffensen_sequences", "majorizing_roots",
                      "cubic_positive_roots", "newton_rate",
                      "steffensen_on_adim_poly", "newton_on_adim_poly")]
    out += [(orders, n, f"orders.{n}") for n in ("q_order", "r_order", "aq_order")]
    out += [(experiments, n, f"experiments.{n}")
            for n in ("run_example1", "run_example2", "run_example3",
                      "run_zigzag", "run_bounds_report", "run_custom",
                      "steepest_descent_zigzag")]
    out += [(experiments.ExperimentResult, "write", "experiments.write"),
            (cli, "main", "cli.main"), (cli, "run", "cli.run")]
    return out


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Duration of each span minus the time its child spans cover.

    The traced program is single-threaded, so the children of one span run
    one after another and never overlap: the time they cover is the sum of
    their durations.  `parent` holds the index of each span's parent, or -1.
    """
    dur = end - start
    covered = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


class Tracer:
    """Span recorder plus evaluation counters for one benchmark process."""

    def __init__(self):
        self.name_ids = {}
        self._names, self._parents, self._starts, self._ends = [], [], [], []
        self._stack = [-1]
        self._raised = {}
        self.active = False
        self.counts = Counter()      # totals over all traced ops
        self._op = Counter()         # counters of the op in progress
        self._dd_depth = 0
        self._points = set()         # F arguments seen in the op in progress
        self._solver_depth = 0
        self._saved = []
        self._recorded = []
        self.n_ops = 0
        self.n_spans = 0

    # -- wrappers ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        return self.name_ids.setdefault(name, len(self.name_ids))

    def _span(self, name: str, fn):
        sid = self._name_id(name)
        names, parents, starts, ends = (self._names, self._parents,
                                        self._starts, self._ends)
        stack, raised, clock = self._stack, self._raised, time.perf_counter

        def traced(*args, **kwargs):
            i = len(names)
            names.append(sid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            starts[i] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                raised[i] = type(exc).__name__
                raise
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def _solver(self, name: str, fn):
        """Span plus eval accounting: at the outermost solver call, the
        n_evals the trace reports is set beside the F calls counted."""
        inner = self._span(name, fn)
        is_asis = name == "methods.asis_solve"

        def traced(*args, **kwargs):
            outer = self._solver_depth == 0
            f0 = self._op["f_calls"]
            t0 = time.perf_counter()
            self._solver_depth += 1
            try:
                out = inner(*args, **kwargs)
            finally:
                self._solver_depth -= 1
            if not is_asis:
                self._op["steps"] += out.n_steps
            if outer:
                self._op["solver_s"] += time.perf_counter() - t0
                trace = out.x_trace if is_asis else out
                counted = self._op["f_calls"] - f0
                self._op["evals_reported"] += trace.n_evals
                self._op["evals_counted"] += counted
                self._op["evals_miscount"] += abs(trace.n_evals - counted)
            return out

        return traced

    def _operator(self, name: str, fn):
        """Span plus a depth count, so F calls inside an operator build
        can be told apart."""
        inner = self._span(name, fn)

        def traced(*args, **kwargs):
            self._dd_depth += 1
            try:
                return inner(*args, **kwargs)
            finally:
                self._dd_depth -= 1

        return traced

    def _writer(self, name: str, fn):
        inner = self._span(name, fn)

        def traced(*args, **kwargs):
            paths = inner(*args, **kwargs)
            self._op["bytes_written"] += sum(Path(p).stat().st_size for p in paths)
            return paths

        return traced

    def counting(self, fn, kind: str):
        """Wrap a user callable handed to Problem so its calls are counted
        (kind "f" or "jac") while the tracer is active.  F calls inside an
        operator build also record whether their point is new to the op."""
        key = kind + "_calls"
        op, seen = self._op, self._points

        def counted(x):
            if self.active:
                op[key] += 1
                if kind == "f":
                    point = np.asarray(x, dtype=float).tobytes()
                    if self._dd_depth:
                        op["dd_f_evals"] += 1
                        op["dd_new_points"] += point not in seen
                    seen.add(point)
            return fn(x)

        return counted

    def count_problem(self, p: problems.Problem) -> problems.Problem:
        return dataclasses.replace(
            p, f=self.counting(p.f, "f"),
            jacobian=None if p.jacobian is None else self.counting(p.jacobian, "jac"))

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrapped = {}
        for owner, attr, name in _targets():
            orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            key = (id(orig), name)
            if key not in wrapped:
                if name in ("methods.solve", "methods.asis_solve"):
                    wrapped[key] = self._solver(name, orig)
                elif name.startswith("divdiff."):
                    wrapped[key] = self._operator(name, orig)
                elif name == "experiments.write":
                    wrapped[key] = self._writer(name, orig)
                else:
                    wrapped[key] = self._span(name, orig)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, wrapped[key])
        # builtin_problem looks its factories up at call time
        table = problems.BUILTIN_PROBLEMS
        for key, factory in list(table.items()):
            self._saved.append((table, key, factory))
            table[key] = (lambda fac: lambda **kw: self.count_problem(fac(**kw)))(factory)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, orig in reversed(self._saved):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._saved.clear()

    # -- per-op bookkeeping --------------------------------------------------

    def end_op(self) -> None:
        """Fold the op's spans into the totals and keep them for writing."""
        names = np.array(self._names, dtype=np.int32)
        parents = np.array(self._parents, dtype=np.int32)
        starts = np.array(self._starts)
        ends = np.array(self._ends)
        k = len(self.name_ids)
        calls = np.bincount(names, minlength=k)
        selfs = np.bincount(names, weights=self_times(parents, starts, ends), minlength=k)
        span_names = list(self.name_ids)
        for sid in np.flatnonzero(calls):
            self.counts[span_names[sid] + ".calls"] += int(calls[sid])
            self.counts[span_names[sid] + ".self_s"] += float(selfs[sid])
        for i, exc in self._raised.items():
            self.counts[f"{span_names[self._names[i]]}.raised.{exc}"] += 1
        self.counts.update(self._op)
        self._recorded.append((names, parents, starts, ends))
        self.n_ops += 1
        self.n_spans += len(names)
        for buf in (self._names, self._parents, self._starts, self._ends):
            buf.clear()
        self._raised.clear()
        self._op.clear()
        self._points.clear()

    def write(self, path: Path) -> None:
        """Write every recorded span: per op, name id, parent, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        op = np.concatenate([np.full(len(r[0]), k, dtype=np.int32)
                             for k, r in enumerate(self._recorded)] or [np.zeros(0, np.int32)])
        cat = lambda j, dt: np.concatenate([r[j] for r in self._recorded] or [np.zeros(0, dt)])
        np.savez_compressed(path, names=np.array(list(self.name_ids)), op=op,
                            name=cat(0, np.int32), parent=cat(1, np.int32),
                            start=cat(2, float), end=cat(3, float))
