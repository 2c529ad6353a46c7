"""Command-line experiment runner.

One subcommand per entry of RUNNERS.  A JSON config file (--config) may
replace the flags.  Exit code is 0 iff every per-experiment assertion
passed: 1 on a failed assertion or violated hypotheses, 2 on a bad
argument, config file or output directory.
"""
from __future__ import annotations

import argparse
import functools
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


def _run_custom(args) -> experiments.ExperimentResult:
    stop = StoppingCriteria(step_tol=args.tol_step, residual_tol=args.tol_res,
                            max_iter=args.max_iter)
    return experiments.run_custom(args.problem, args.method or ["newton"],
                                  args.x0, stop, lam=args.lam, b=args.b,
                                  dd_variant=args.dd)


# subcommand -> (help, runner of the parsed arguments), read by the parser,
# config_to_args and run; a runner looks experiments.run_* up when it runs
RUNNERS = {
    "example1": ("scalar equation, three methods",
                 lambda args: experiments.run_example1()),
    "example2": ("rescaled scalar equation",
                 lambda args: experiments.run_example2()),
    "example3": ("2-variable system",
                 lambda args: experiments.run_example3()),
    "zigzag": ("steepest-descent pathology",
               lambda args: experiments.run_zigzag(args.b)),
    "bounds-report": ("a-priori bound tables",
                      lambda args: experiments.run_bounds_report(
                          args.k2, args.B, args.eta, system=args.system,
                          N=args.n, override=args.override)),
    "custom": ("named problem, chosen methods", _run_custom),
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser for the current problem table.

    One parser is kept, keyed on the tables its choices come from: calls
    with the same `problems.BUILTIN_PROBLEMS` names reuse it, and a
    problem added or removed builds a new one on the next call.
    """
    return _parser(tuple(problems.BUILTIN_PROBLEMS), divdiff.VARIANTS)


@functools.lru_cache(maxsize=1)
def _parser(problem_names: tuple, dd_variants: tuple) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adimsolve",
        description="Nonlinear-equation experiments: classic iterations and "
                    "the scale-invariant Steffensen variant.")
    parser.add_argument("--config", type=Path,
                        help="JSON config file; overrides the subcommand")
    sub = parser.add_subparsers(dest="experiment")
    subs = {name: sub.add_parser(name, help=help_text)
            for name, (help_text, _) in RUNNERS.items()}

    subs["zigzag"].add_argument("--b", type=float, default=0.1)

    p = subs["bounds-report"]
    p.add_argument("--k2", type=float, required=True)
    p.add_argument("--B", type=float, required=True)
    p.add_argument("--eta", type=float, required=True)
    p.add_argument("--system", choices=("newton", "steffensen"),
                   default="newton")
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--override", action="store_true",
                   help="emit the table even when a > 1/2")

    p = subs["custom"]
    p.add_argument("--problem", required=True,
                   choices=problem_names)
    p.add_argument("--method", action="append", default=None,
                   help="repeatable; one of "
                        + ", ".join(experiments.METHODS))
    # the kept parser hands the same default object to every namespace
    p.add_argument("--x0", type=float, nargs="+", default=(0.0,))
    p.add_argument("--tol-step", type=float, default=0.0)
    p.add_argument("--tol-res", type=float, default=1e-15)
    p.add_argument("--max-iter", type=int, default=200)
    p.add_argument("--lambda", dest="lam", type=float, default=1.0)
    p.add_argument("--b", type=float, default=0.1)
    p.add_argument("--dd", choices=dd_variants, default="componentwise")

    for p in subs.values():
        p.add_argument("--out", type=Path, default=None,
                       help="directory for trace/table files")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _runner(name: str):
    if name not in RUNNERS:
        raise ValueError(f"unknown experiment {name!r}")
    return RUNNERS[name][1]


def config_to_args(path: Path) -> list:
    """Flatten a JSON config into an argv list."""
    cfg = json.loads(Path(path).read_text())
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    if "experiment" not in cfg:
        raise ValueError("config must name an experiment")
    name = cfg.pop("experiment")
    _runner(name)
    argv = [name]
    for key, value in cfg.items():
        flag = "--" + key.replace("_", "-")
        if value is None:
            continue    # null, like false, leaves the flag at its default
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
    return _runner(args.experiment)(args)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            args = parser.parse_args(config_to_args(args.config))
        if args.experiment is None:
            parser.print_help()
            return 2
        result = run(args)
        written = ([] if args.out is None
                   else result.write(args.out, args.format))
    except HypothesesNotSatisfied as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        # a bad argument, config file or output directory
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for path in written:
        print(f"wrote {path}")
    for a in result.assertions:
        status = "PASS" if a.passed else "FAIL"
        detail = f"  ({a.detail})" if a.detail else ""
        print(f"[{status}] {result.name}: {a.name}{detail}")
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
