"""Command-line experiment runner.

Subcommands: example1, example2, example3, zigzag, bounds-report, custom.
A JSON config file (--config) may replace the flags.  Exit code is 0 iff
every per-experiment assertion passed.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import divdiff, experiments, problems
from .bounds import HypothesesNotSatisfied
from .methods import StoppingCriteria

# The paper's runs: the bundled experiments and the README's custom run.
# tests/data/golden holds, byte for byte, every file they write.
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adimsolve",
        description="Nonlinear-equation experiments: classic iterations and "
                    "the scale-invariant Steffensen variant.")
    parser.add_argument("--config", type=Path,
                        help="JSON config file; overrides the subcommand")
    sub = parser.add_subparsers(dest="experiment")

    def common(p):
        p.add_argument("--out", type=Path, default=None,
                       help="directory for trace/table files")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    common(sub.add_parser("example1", help="scalar equation, three methods"))
    common(sub.add_parser("example2", help="rescaled scalar equation"))
    common(sub.add_parser("example3", help="2-variable system"))

    p = sub.add_parser("zigzag", help="steepest-descent pathology")
    p.add_argument("--b", type=float, default=0.1)
    common(p)

    p = sub.add_parser("bounds-report", help="a-priori bound tables")
    p.add_argument("--k2", type=float, required=True)
    p.add_argument("--B", type=float, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--system", choices=("newton", "steffensen"),
                   default="newton")
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--override", action="store_true",
                   help="emit the table even when a > 1/2")
    common(p)

    p = sub.add_parser("custom", help="named problem, chosen methods")
    p.add_argument("--problem", required=True,
                   choices=tuple(problems.BUILTIN_PROBLEMS))
    p.add_argument("--method", action="append", default=None,
                   help="repeatable; e.g. newton, steffensen, asis, secant, "
                        "halley, damped-steffensen")
    p.add_argument("--x0", type=float, nargs="+", default=[0.0])
    p.add_argument("--tol-step", type=float, default=0.0)
    p.add_argument("--tol-res", type=float, default=1e-15)
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--b", type=float, default=0.1)
    p.add_argument("--dd", choices=divdiff.VARIANTS, default="componentwise")
    common(p)
    return parser


def config_to_args(path: Path) -> list:
    """Flatten a JSON config into an argv list."""
    cfg = json.loads(Path(path).read_text())
    if "experiment" not in cfg:
        raise ValueError("config must name an experiment")
    name = cfg.pop("experiment")
    if name not in experiments.EXPERIMENTS:
        raise ValueError(f"unknown experiment {name!r}")
    argv = [name]
    for key, value in cfg.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, bool):
            if value:
                argv.append(flag)
        elif isinstance(value, list):
            if key == "method":
                for v in value:
                    argv += [flag, str(v)]
            else:
                argv.append(flag)
                argv += [str(v) for v in value]
        else:
            argv += [flag, str(value)]
    return argv


def run(args) -> experiments.ExperimentResult:
    name = args.experiment
    if name == "example1":
        return experiments.run_example1()
    if name == "example2":
        return experiments.run_example2()
    if name == "example3":
        return experiments.run_example3()
    if name == "zigzag":
        return experiments.run_zigzag(args.b)
    if name == "bounds-report":
        return experiments.run_bounds_report(args.k2, args.B, args.eta,
                                             system=args.system, N=args.n,
                                             override=args.override)
    if name == "custom":
        stop = StoppingCriteria(step_tol=args.tol_step,
                                residual_tol=args.tol_res,
                                max_iter=args.max_iter)
        return experiments.run_custom(args.problem,
                                      args.method or ["newton"],
                                      args.x0, stop, lam=args.lam, b=args.b,
                                      dd_variant=args.dd)
    raise ValueError(f"unknown experiment {name!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        try:
            args = parser.parse_args(config_to_args(args.config))
        except (ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if args.experiment is None:
        parser.print_help()
        return 2
    try:
        result = run(args)
    except HypothesesNotSatisfied as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out is not None:
        for path in result.write(args.out, args.format):
            print(f"wrote {path}")
    for a in result.assertions:
        status = "PASS" if a.passed else "FAIL"
        detail = f"  ({a.detail})" if a.detail else ""
        print(f"[{status}] {result.name}: {a.name}{detail}")
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
