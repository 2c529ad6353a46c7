#!/usr/bin/env python3
"""adimsolve benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One process, one closed-loop client: each op
starts when the previous one has returned.  BLAS runs one thread.  Op times
are scaled to a reference machine speed measured by a probe between ops
(speed.py), set-up time by a bare numpy import timed beside it.

--trace 0 prints the end-to-end metrics; --trace 1 interleaves each op run
untraced and traced and prints the per-layer metrics, per traced op, plus
the tracing overhead.  The last stdout line is the JSON result; machine
info and a per-kind failure breakdown come on the lines before it and in
.perfbench_out/ (with the recorded spans).  See perfbench/NOTES.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = Path.cwd() / ".perfbench_out"
NPROC = len(os.sched_getaffinity(0))
# One BLAS thread (within the nproc cap): at m <= 400 a second thread saves
# little, and on a 2-vCPU machine it competes with the interpreter thread.
BLAS_THREADS = 1
SETUP_REPEATS = 7
REF_IMPORT = ("import time; t = time.perf_counter(); import numpy; "
              "print(time.perf_counter() - t)")
# median of REF_IMPORT on the machine the benchmark was tuned on (Intel Xeon
# at 2.1 GHz, 2 shared vCPUs), so setup_s reads as seconds at its speed
REF_IMPORT_S = 0.09
WARMUP_S = 1.0

WORKLOADS = ("paper-suite", "derivative-free", "a-priori-bounds")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: time import + workload build, print seconds")
    return ap.parse_args(argv)


def setup_in_process(workload: str, seed: int, wrap=None):
    """Import adimsolve and build the workload's problems."""
    import workloads
    return workloads.build(workload, seed, OUT / f"tmp-{os.getpid()}", wrap)


def measure_setup(args) -> float:
    """Import-plus-build time in fresh interpreters, in units of a bare
    numpy import timed in a fresh interpreter started just before each,
    times REF_IMPORT_S: the median ratio over SETUP_REPEATS pairs.

    Import time follows the host's file-cache and page-fault speed, which
    the CPU probe of speed.py does not track, so set-up is scaled by an
    import instead.  The children may write bytecode caches (inside the
    checkout), as an installed package has them; an untimed first pair
    writes them, so every timed child imports from cache whatever the
    caller's PYTHONDONTWRITEBYTECODE says.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    setup = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)]
    reference = [sys.executable, "-c", REF_IMPORT]

    def seconds(cmd) -> float:
        out = subprocess.run(cmd, env=env, capture_output=True, text=True,
                             timeout=120, check=True)
        return float(out.stdout.strip().splitlines()[-1])

    ratios = []
    for i in range(SETUP_REPEATS + 1):
        ref = seconds(reference)
        took = seconds(setup)
        if i:
            ratios.append(took / ref)
    return REF_IMPORT_S * statistics.median(ratios)


def machine_info(args) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": NPROC, "machine": platform.machine(), "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


def timed(op):
    t0 = time.perf_counter()
    try:
        result, error = op.run(), None
    except Exception as exc:                  # an op that raises is a failure
        result, error = None, exc
    return time.perf_counter() - t0, result, error


def judge(wl, op, elapsed, result, error):
    from workloads import Outcome
    if error is not None:
        return Outcome("failed", f"raised {type(error).__name__}: {error}"[:160])
    out = op.check(result)
    if out.status == "ok" and elapsed > wl.limit_s:
        out = Outcome("failed", "over the per-op limit", out.facts)
    return out


def charged(wl, outcome, elapsed) -> float:
    """Time an op is charged: `elapsed` if it succeeded, else the limit."""
    return elapsed if outcome.status == "ok" else wl.limit_s


class Tally:
    def __init__(self):
        self.times = []               # charged times, speed-scaled
        self.raw_times = []           # charged times as measured
        self.ok = self.failed = self.incorrect = 0
        self.facts = Counter()
        self.by_kind = defaultdict(Counter)
        self.kind_times = defaultdict(list)

    def add(self, op, outcome, cost, raw_cost=None):
        self.times.append(cost)
        self.raw_times.append(cost if raw_cost is None else raw_cost)
        self.kind_times[op.kind].append(cost)
        self.ok += outcome.status == "ok"
        self.failed += outcome.status != "ok"
        self.incorrect += outcome.status == "incorrect"
        self.facts.update(outcome.facts)
        kind = self.by_kind[op.kind]
        kind["attempted"] += 1
        kind.update({k: v for k, v in outcome.facts.items() if v})
        if outcome.status != "ok":
            kind[outcome.why.split(":")[0]] += 1

    def breakdown(self) -> dict:
        """Per op kind: attempts, failures by reason (the text before the
        first colon), non-zero facts summed, charged ms quartiles."""
        out = {}
        for kind, counts in sorted(self.by_kind.items()):
            q = statistics.quantiles(self.kind_times[kind], n=4) \
                if len(self.kind_times[kind]) > 1 else [self.kind_times[kind][0]] * 3
            out[kind] = {**counts, "ms_q1_q2_q3": [round(v * 1e3, 3) for v in q]}
        return out


def run_loop(wl, seconds, step):
    """Call step(op) from op 0 onwards until `seconds` have passed, stopping
    only at a round boundary, so every run holds the op kinds in the same
    proportions."""
    t_end = time.perf_counter() + seconds
    i = 0
    while i % wl.round_len or time.perf_counter() < t_end:
        step(wl.ops[i % len(wl.ops)])
        i += 1


def per_op_medians(keys, costs) -> list:
    """Each cost replaced by the median of the costs that share its key."""
    groups = defaultdict(list)
    for k, c in zip(keys, costs):
        groups[k].append(c)
    med = {k: statistics.median(v) for k, v in groups.items()}
    return [med[k] for k in keys]


def untraced(wl, seconds) -> Tally:
    """Run the ops and charge each op its time scaled by the machine speed
    around it (a failed op is charged the limit, unscaled), taking the
    median over the op's repetitions in the run: a burst of host
    contention shorter than the probe can follow hits one repetition, and
    the quantiles would otherwise measure how often that happened."""
    from speed import SpeedLog
    speed, done = SpeedLog(), []

    def step(op):
        start = time.perf_counter()
        elapsed, result, error = timed(op)
        done.append((op, judge(wl, op, elapsed, result, error), start, elapsed))
        speed.maybe_probe()

    run_loop(wl, seconds, step)
    factors = speed.factors([d[2] for d in done])
    scaled = [charged(wl, outcome, elapsed * f)
              for (_, outcome, _, elapsed), f in zip(done, factors)]
    tally = Tally()
    for (op, outcome, _, elapsed), cost in zip(done, per_op_medians(
            [id(d[0]) for d in done], scaled)):
        tally.add(op, outcome, cost, charged(wl, outcome, elapsed))
    tally.probe_ms = 1e3 * statistics.median(speed.took)
    return tally


def traced(wl, tracer, seconds):
    tally = Tally()
    overhead = []

    def step(op):
        base, result, error = timed(op)
        judge(wl, op, base, result, error)    # also cleans up op outputs
        tracer.install()
        try:
            elapsed, result, error = timed(op)
        finally:
            tracer.uninstall()
        tracer.end_op()
        outcome = judge(wl, op, elapsed, result, error)
        tally.add(op, outcome, charged(wl, outcome, elapsed))
        overhead.append((elapsed, base))

    run_loop(wl, seconds, step)
    return tally, overhead


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_figures(tally, times):
    """p50 and p90 of the charged op times in ms, and correct ops per
    charged second.  Harrell-Davis quantiles weight every order statistic
    near the quantile, so a quantile that falls between two op kinds of
    different cost moves smoothly instead of jumping across the gap."""
    import numpy as np
    from scipy.stats.mstats import hdquantiles
    t = np.array(times)
    p50, p90 = (float(v) * 1e3 for v in hdquantiles(t, prob=[0.5, 0.9]))
    return p50, p90, tally.ok / float(t.sum())


def end_to_end(tally, setup_s, rss_mb):
    p50, p90, ok_rate = time_figures(tally, tally.times)
    return {
        "op_ms_p50": (p50, "ms"),
        "op_ms_p90": (p90, "ms"),
        "ok_ops_per_s": (ok_rate, "1/s"),
        "ok_frac": (tally.ok / len(tally.times), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(tracer, tally, overhead):
    c, n = tracer.counts, tracer.n_ops
    per_op = lambda key: c[key] / n
    selfs = lambda prefix: sum(v for k, v in c.items()
                               if k.startswith(prefix) and k.endswith(".self_s")) / n
    dd_ops = sum(c[f"divdiff.{d}.calls"] for d in ("componentwise_dd", "integral_dd", "scalar_dd"))
    traced_s = sum(e for e, _ in overhead)
    base_s = sum(b for _, b in overhead)
    checked = tally.facts["envelope_checked"]
    m = {}
    for name in ("problems.evaluate", "problems.jac", "problems.solve_linear",
                 "problems.operator_norm", "adimensional.lu_solve"):
        m[name + ".calls"] = (per_op(name + ".calls"), "count/op")
    for name in ("problems.evaluate", "problems.jac", "problems.rcond",
                 "problems.solve_linear", "problems.operator_norm",
                 "problems.sample_k2", "problems.kantorovich_data",
                 "adimensional.adimensionalize", "adimensional.check_normalization",
                 "bounds.error_envelopes", "experiments.write", "cli.main"):
        m[name + ".self_s"] = (per_op(name + ".self_s"), "s/op")
    m.update({
        "problems.f_calls": (per_op("f_calls"), "count/op"),
        "problems.jac_fn_calls": (per_op("jac_calls"), "count/op"),
        "divdiff.operators": (dd_ops / n, "count/op"),
        "divdiff.self_s": (selfs("divdiff."), "s/op"),
        "divdiff.f_evals_per_operator": (c["dd_f_evals"] / max(dd_ops, 1), "count"),
        "divdiff.distinct_point_frac": (c["dd_new_points"] / max(c["dd_f_evals"], 1), "ratio"),
        "adimensional.rejections": (per_op("adimensional.adimensionalize.raised.ValueError"), "count/op"),
        "methods.steps": (per_op("steps"), "count/op"),
        "methods.self_s": (selfs("methods."), "s/op"),
        "methods.us_per_step": (c["solver_s"] / max(c["steps"], 1) * 1e6, "us"),
        "methods.n_evals_miscount": (per_op("evals_miscount"), "count/op"),
        "methods.f_evals_counted": (per_op("evals_counted"), "count/op"),
        "bounds.self_s": (selfs("bounds."), "s/op"),
        "bounds.violations": (tally.facts["envelope_violated"] / n, "count/op"),
        "bound_violation_frac": (tally.facts["envelope_violated"] / max(checked, 1), "ratio"),
        "orders.self_s": (selfs("orders."), "s/op"),
        "experiments.self_s": (selfs("experiments."), "s/op"),
        "experiments.bytes_written": (per_op("bytes_written"), "bytes/op"),
        "cli.self_s": (selfs("cli."), "s/op"),
        "trace.overhead_ms_per_op": ((traced_s - base_s) / n * 1e3, "ms"),
        "trace.overhead_frac": (traced_s / base_s - 1.0, "ratio"),
        "trace.spans_per_op": (tracer.n_spans / n, "count/op"),
    })
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # before numpy is imported
    if not (SRC / "adimsolve" / "__init__.py").is_file():
        print(f"error: no adimsolve package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        t0 = time.perf_counter()
        setup_in_process(args.workload, args.seed)
        print(time.perf_counter() - t0)
        return 0

    setup_s = None if args.trace else measure_setup(args)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    wl = setup_in_process(args.workload, args.seed,
                          tracer.counting if tracer else None)
    info = machine_info(args)
    try:
        untraced(wl, min(WARMUP_S, args.seconds))
        if tracer is None:
            tally = untraced(wl, args.seconds)
            metrics = end_to_end(tally, setup_s, peak_rss_mb())
        else:
            tally, overhead = traced(wl, tracer, args.seconds)
            metrics = per_layer(tracer, tally, overhead)
    finally:
        wl.cleanup()

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT / f"spans-{tag}.npz")
    result = {"correct": tally.incorrect == 0, "attempted": len(tally.times),
              "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    detail = {"machine": info, "by_kind": tally.breakdown(),
              "facts": dict(tally.facts)}
    if tracer is None:
        detail["unscaled"] = dict(zip(("op_ms_p50", "op_ms_p90", "ok_ops_per_s"),
                                      time_figures(tally, tally.raw_times)))
        detail["unscaled"]["probe_ms_median"] = tally.probe_ms
    else:
        detail["evals"] = {k: tracer.counts[k] / tracer.n_ops for k in
                           ("evals_reported", "evals_counted", "evals_miscount")}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps({**detail, "result": result},
                                                       indent=1))
    print("machine " + json.dumps(info))
    print("by_kind " + json.dumps(detail["by_kind"]))
    if "unscaled" in detail:
        print("unscaled " + json.dumps(detail["unscaled"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
