#!/usr/bin/env python3
"""Run the paper's CLI runs end to end and write their traces/tables.

Usage: python scripts/run_experiments.py [OUT_DIR]

OUT_DIR defaults to ./results.  Exit code is nonzero when any experiment
assertion fails, so the script doubles as a smoke test.
"""
import sys
from pathlib import Path

from adimsolve import cli


def main() -> int:
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("results")
    worst = 0
    for argv in cli.PAPER_RUNS:
        print(f"== adimsolve {' '.join(argv)}")
        code = cli.main([*argv, "--out", str(out / argv[0])])
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
