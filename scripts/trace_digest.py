#!/usr/bin/env python3
"""SHA-256 digests of what a benchmark workload's ops return.

Usage: python scripts/trace_digest.py --workload W --seed N
                                      [--inherit-blas-threads]

Builds the workload W of perfbench/workloads.py from seed N, runs one
cycle of its ops in order, once each, with one BLAS thread as the
benchmark does (with --inherit-blas-threads, as many as the environment
gives BLAS, its default where no variable sets them), and prints one
digest per op kind and one over all ops:

- solves (derivative-free): the iterates, residual and step norms, status,
  n_evals and n_jac_evals of each trace, and whether ASIS fell back;
- a-priori-bounds: the Kantorovich data, the envelopes, the Newton trace
  and the order estimates;
- paper-suite: the exit code, the printed assertions and the name and
  bytes of every written file.

Floats enter by their bits, so two runs, or two versions of the code, give
equal digests exactly when the ops return the same values.  The last line
is the overall digest.  Exits 1 when an op fails its oracle.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import shutil
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper-suite", "derivative-free", "a-priori-bounds")
TRACE_FIELDS = ("iterates", "residual_norms", "step_norms", "status",
                "n_evals", "n_jac_evals")


def canonical(obj) -> bytes:
    """An unambiguous byte encoding of obj: arrays by dtype, shape and
    bytes, floats by their hex form, traces by TRACE_FIELDS, other
    dataclasses by all their fields, containers element by element."""
    import numpy as np
    from adimsolve.methods import IterationTrace

    if isinstance(obj, IterationTrace):
        obj = {f: getattr(obj, f) for f in TRACE_FIELDS}
    elif dataclasses.is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        body = f"{obj.dtype.str}{obj.shape}".encode() + np.ascontiguousarray(obj).tobytes()
        tag = b"a"
    elif isinstance(obj, (float, np.floating)):
        body, tag = float(obj).hex().encode(), b"f"
    elif isinstance(obj, dict):
        body = b"".join(canonical(k) + canonical(v) for k, v in sorted(obj.items()))
        tag = b"d"
    elif isinstance(obj, (list, tuple)):
        body, tag = b"".join(canonical(v) for v in obj), b"l"
    elif isinstance(obj, bytes):
        body, tag = obj, b"b"
    elif obj is None or isinstance(obj, (bool, int, str, np.integer)):
        body, tag = repr(obj).encode(), b"s"
    else:
        raise TypeError(f"no canonical form for {type(obj).__name__}")
    return tag + str(len(body)).encode() + b":" + body


def returned(workload: str, result):
    """What an op returned, as digested: paper-suite's output directory is
    replaced by the names and bytes of its files, and the printed paths of
    the files are dropped, since the directory is a temporary one."""
    if workload != "paper-suite":
        return result
    code, text, out = result
    files = ({str(p.relative_to(out)): p.read_bytes()
              for p in sorted(out.rglob("*")) if p.is_file()}
             if out.exists() else {})
    lines = [ln for ln in text.splitlines() if not ln.startswith("wrote ")]
    return code, lines, files


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--inherit-blas-threads", action="store_true",
                    help="leave BLAS's thread count to the environment")
    args = ap.parse_args(argv)
    if not args.inherit_blas_threads:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            os.environ[var] = "1"   # before numpy is imported, as run.py
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    scratch = Path(tempfile.mkdtemp(prefix="trace-digest-"))
    wl = workloads.build(args.workload, args.seed, scratch / "out")
    kinds, overall, n_ops, not_ok = {}, hashlib.sha256(), Counter(), Counter()
    try:
        for op in wl.ops:
            try:
                result, error = op.run(), None
            except Exception as exc:         # a raising op is digested too
                result, error = None, exc
            if error is None:
                data = canonical((op.kind, returned(wl.name, result)))
                outcome = op.check(result).status
            else:
                data = canonical((op.kind, "raised", type(error).__name__,
                                  str(error)))
                outcome = "failed"
            kinds.setdefault(op.kind, hashlib.sha256()).update(data)
            overall.update(data)
            n_ops[op.kind] += 1
            not_ok[op.kind] += outcome != "ok"
    finally:
        wl.cleanup()
        shutil.rmtree(scratch, ignore_errors=True)
    width = max(map(len, kinds))
    for kind in sorted(kinds):
        print(f"{kind:<{width}}  {kinds[kind].hexdigest()}  "
              f"{n_ops[kind]} ops, {not_ok[kind]} not ok")
    print(f"overall {args.workload} seed {args.seed}: {overall.hexdigest()}")
    return 1 if sum(not_ok.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
