import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from adimsolve import experiments, problems
from adimsolve.cli import (PAPER_RUNS, RUNNERS, build_parser, config_to_args,
                           main, run)
from adimsolve.experiments import (_dominates, method_from_name,
                                   run_bounds_report, run_custom,
                                   run_example1, run_zigzag,
                                   steepest_descent_zigzag)
from adimsolve.methods import (ASIS, DampedFirstOrder, DampedSteffensen,
                               FixedSlope, HFamily, Newton, Steffensen,
                               StoppingCriteria)
from adimsolve.problems import Problem, builtin_problem

from conftest import SRC, fresh_python


class TestExitCodes:
    def test_example1_passes(self, capsys):
        assert main(["example1"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert "[FAIL]" not in out

    def test_example3_passes(self, capsys):
        assert main(["example3"]) == 0
        assert "[FAIL]" not in capsys.readouterr().out

    def test_zigzag_passes(self, capsys):
        assert main(["zigzag", "--b", "0.25"]) == 0
        assert "[FAIL]" not in capsys.readouterr().out

    def test_bounds_report_passes(self, capsys):
        assert main(["bounds-report", "--k2", "1.0", "--B", "1.0",
                     "--eta", "0.5"]) == 0

    def test_hypotheses_violation_exit_1(self, capsys):
        code = main(["bounds-report", "--k2", "1.0", "--B", "2.0",
                     "--eta", "0.5"])
        assert code == 1
        assert "hypotheses not satisfied" in capsys.readouterr().err

    def test_no_subcommand_exit_2(self, capsys):
        assert main([]) == 2

    @pytest.mark.parametrize("argv, message", [
        (["bounds-report", "--k2", "nan", "--B", "1", "--eta", "0.5",
          "--system", "newton"], "k2 must be nonnegative"),
        (["bounds-report", "--k2", "1", "--B", "nan", "--eta", "0.5",
          "--system", "steffensen"], "B and eta must be positive"),
        (["bounds-report", "--k2", "-1", "--B", "1", "--eta", "-0.5"],
         "B and eta must be positive"),
        (["bounds-report", "--k2", "-1", "--B", "-1", "--eta", "0.5"],
         "B and eta must be positive"),
        (["bounds-report", "--k2", "1", "--B", "1", "--eta", "0.5",
          "--n", "-2"], "N must be nonnegative"),
        (["custom", "--problem", "f1", "--x0", "0.0", "--tol-res", "nan"],
         "tolerances must be nonnegative"),
    ])
    def test_a_nan_value_exits_2_as_a_negative_one_does(self, argv, message,
                                                       tmp_path, capsys):
        # NaN passed every "x < 0" test: bounds-report wrote an all-NaN
        # table with [PASS] and exit 0, custom ran silently to max-iter;
        # bounds-report also wrote tables of a negative eta or B (a = 0.5
        # from K2 = B = -1) and of a negative step count, with exit 0
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, code, line", [
        (["--k2", "1", "--B", "1", "--eta", "0.5"], 0,
         "[PASS] bounds_newton: sequence system is positive  (positive)"),
        (["--k2", "1", "--B", "1", "--eta", "0.8", "--override"], 1,
         "[FAIL] bounds_newton: sequence system is positive  (not positive)"),
        (["--k2", "1", "--B", "1", "--eta", "0.8"], 1,
         "error: hypotheses not satisfied: a = 0.8 > 1/2"),
        (["--k2", "-1", "--B", "1", "--eta", "0.5"], 2,
         "error: k2 must be nonnegative and finite"),
    ], ids=["pass", "failed-assertion", "a-above-half", "bad-argument"])
    def test_the_module_exits_with_mains_code(self, argv, code, line):
        # python -m adimsolve.cli in a new interpreter: its __main__ line
        # hands main's 0, 1 or 2 to the shell
        out = subprocess.run(
            [sys.executable, "-m", "adimsolve.cli", "bounds-report", *argv],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=120)
        assert out.returncode == code
        assert line in (out.stdout + out.stderr).splitlines()

    def test_unknown_subcommand_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-experiment"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["example1", "--seed", "1"],
                                      ["custom", "--problem", "f1",
                                       "--seed", "1"]])
    def test_seed_flag_is_rejected(self, argv, capsys):
        # every experiment is deterministic; a flag with no effect is gone
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err

    def test_custom_run(self, capsys):
        code = main(["custom", "--problem", "f1", "--method", "newton",
                     "--method", "asis", "--x0", "0.0"])
        assert code == 0

    @pytest.mark.parametrize("method", ["newton", "asis"])
    @pytest.mark.parametrize("problem, x0, status", [
        ("example3", ["0", "-1.5"], "singular-operator"),
        ("f1", ["1.0"], "converged-by-residual")],
        ids=["singular-derivative", "at-the-root"])
    def test_custom_setup_failures_are_statuses(self, method, problem, x0,
                                                status, tmp_path, capsys):
        # F'(x0) singular, F(x0) = 0: ASIS reads its setup as solve does,
        # and a failed setup writes no adimensional trace
        code = main(["custom", "--problem", problem, "--method", method,
                     "--x0", *x0, "--out", str(tmp_path)])
        assert code == 0
        assert (f"[PASS] custom_{problem}: {method} terminated cleanly  "
                f"({status})") in capsys.readouterr().out
        assert [p.name for p in tmp_path.iterdir()] == [
            f"custom_{problem}_{method}.csv"]

    def test_custom_asis_rejected_form_exit_2(self, monkeypatch, capsys):
        # F' 10% off: G'(y0) = -1/1.1
        f1 = builtin_problem("f1")
        off = Problem(f=f1.f, jacobian=lambda x: 1.1 * f1.jacobian(x))
        monkeypatch.setattr(experiments, "builtin_problem",
                            lambda name, **params: off)
        code = main(["custom", "--problem", "f1", "--method", "asis",
                     "--x0", "0.0"])
        assert code == 2
        assert ("error: adimensional form violates G'(y0) = -I"
                in capsys.readouterr().err)

    def test_custom_reads_the_problem_table(self, monkeypatch, tmp_path,
                                            capsys):
        # a problem added to the library's table is a --problem choice
        monkeypatch.setitem(problems.BUILTIN_PROBLEMS, "line", lambda: Problem(
            f=lambda x: 2.0 * x - 1.0, jacobian=lambda x: 2.0, name="line"))
        assert main(["custom", "--problem", "line", "--method", "newton",
                     "--x0", "3.0", "--out", str(tmp_path),
                     "--format", "json"]) == 0
        trace = json.loads((tmp_path / "custom_line_newton.json").read_text())
        assert trace["status"] == "converged-by-residual"
        assert trace["iterates"][-1] == [0.5]

    @pytest.mark.parametrize("method, cls, steps", [
        ("damped-steffensen", DampedSteffensen, 20),
        ("damped-first-order", DampedFirstOrder, 33),
        ("fixed-slope", FixedSlope, 52)])
    def test_custom_damped_and_fixed_slope_runs(self, method, cls, steps,
                                                tmp_path, capsys):
        # the step counts are lambda = 0.5's (at 1.0 the damped Steffensen
        # run reaches max-iter and the fixed slope converges in 6)
        assert type(method_from_name(method, lam=0.5)) is cls
        assert main(["custom", "--problem", "f1", "--method", method,
                     "--lambda", "0.5", "--x0", "0.0", "--out", str(tmp_path),
                     "--format", "json"]) == 0
        trace = json.loads(
            (tmp_path / f"custom_f1_{method}.json").read_text())
        assert trace["status"] == "converged-by-residual"
        assert len(trace["iterates"]) - 1 == steps

    def test_custom_bisection_is_an_unknown_method(self, capsys):
        # a bisection needs a bracket, which the custom run has no flag for
        code = main(["custom", "--problem", "f1", "--method", "bisection",
                     "--x0", "0.0"])
        assert code == 2
        assert "unknown method 'bisection'" in capsys.readouterr().err


class TestOutputFiles:
    def test_csv_outputs(self, tmp_path, capsys):
        assert main(["example1", "--out", str(tmp_path)]) == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert "example1_newton.csv" in names
        assert "example1_asis.csv" in names
        assert "example1_log_errors.csv" in names
        assert "example1_metadata.json" in names
        header = (tmp_path / "example1_newton.csv").read_text().splitlines()[0]
        assert header == "n,x0,res_norm,step_norm"

    def test_json_format(self, tmp_path, capsys):
        assert main(["example3", "--out", str(tmp_path),
                     "--format", "json"]) == 0
        obj = json.loads((tmp_path / "example3_newton.json").read_text())
        assert obj["status"].startswith("converged")
        assert len(obj["iterates"][0]) == 2

    def test_outputs_deterministic(self, tmp_path, capsys):
        d1, d2 = tmp_path / "run1", tmp_path / "run2"
        assert main(["zigzag", "--b", "0.1", "--out", str(d1)]) == 0
        assert main(["zigzag", "--b", "0.1", "--out", str(d2)]) == 0
        for p1 in sorted(d1.iterdir()):
            p2 = d2 / p1.name
            assert p1.read_bytes() == p2.read_bytes()

    def test_bounds_table_hand_values(self, tmp_path, capsys):
        assert main(["bounds-report", "--k2", "1.0", "--B", "1.0",
                     "--eta", "0.5", "--system", "steffensen",
                     "--n", "5", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "bounds_steffensen_table.csv").read_text().splitlines()
        assert lines[0] == "n,a_n,b_n,c_n,d_n,r_n,d_n_eta,tail_eta"
        row0 = lines[1].split(",")
        assert float(row0[2]) == pytest.approx(4.0 / 3.0, rel=1e-14)  # b_0
        row1 = lines[2].split(",")
        assert float(row1[1]) == pytest.approx(3.0, rel=1e-14)        # a_1
        assert float(row1[3]) == pytest.approx(1.0 / 9.0, rel=1e-14)  # c_1
        row2 = lines[3].split(",")
        assert float(row2[5]) == pytest.approx(56.0 / 33.0, rel=1e-14)  # r_2

    def test_bounds_table_above_the_b_denominator(self, tmp_path, capsys):
        # a = 2 stops the Steffensen system before b_0: one row of starts
        # and an undefined tail, and the positivity check fails (exit 1)
        assert main(["bounds-report", "--k2", "2.0", "--B", "1.0",
                     "--eta", "1.0", "--system", "steffensen", "--override",
                     "--out", str(tmp_path)]) == 1
        assert ("[FAIL] bounds_steffensen: sequence system is positive  "
                "(not positive)") in capsys.readouterr().out
        lines = (tmp_path / "bounds_steffensen_table.csv").read_text().splitlines()
        assert lines[1:] == ["0,1.0,,1.0,,0.0,,nan"]

    @pytest.mark.parametrize("system", ["newton", "steffensen"])
    def test_bounds_table_tails_near_the_root(self, tmp_path, capsys, system):
        # a = 1e-17: s* cancelled to 0 once, and tail_eta read -1
        assert main(["bounds-report", "--k2", "1e-17", "--B", "1.0",
                     "--eta", "1.0", "--system", system, "--n", "4",
                     "--out", str(tmp_path)]) == 0
        rows = (tmp_path / f"bounds_{system}_table.csv").read_text().splitlines()
        tails = [float(r.split(",")[-1]) for r in rows[1:]]
        assert tails[0] == 1.0 and min(tails) >= 0.0

    @pytest.mark.parametrize("argv, key", [
        # a domain failure at x0: ||F(x0)|| is NaN
        (["custom", "--problem", "f1", "--method", "newton", "--x0", "800",
          "--format", "json"], "residual_norms"),
        # s* is NaN above a = 1/2
        (["bounds-report", "--k2", "1", "--B", "1", "--eta", "0.8",
          "--override"], "s_star"),
    ])
    def test_json_is_strict_a_non_finite_value_null(self, tmp_path, capsys,
                                                    argv, key):
        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        assert main([*argv, "--out", str(tmp_path)]) == 1
        objs = [json.loads(p.read_text(), parse_constant=reject)
                for p in sorted(tmp_path.glob("*.json"))]
        assert len(objs) == 1
        assert objs[0][key] in ([None], None)

    def test_custom_asis_json_counts_the_setup(self, tmp_path, capsys):
        # F runs 15 times and F' once on f1 from 0.0, the form's setup
        # included; the y-space trace counts G's 13 calls
        assert main(["custom", "--problem", "f1", "--method", "asis",
                     "--x0", "0.0", "--out", str(tmp_path),
                     "--format", "json"]) == 0
        x = json.loads((tmp_path / "custom_f1_asis.json").read_text())
        y = json.loads((tmp_path / "custom_f1_asis_adimensional.json").read_text())
        assert (x["n_evals"], x["n_jac_evals"]) == (15, 1)
        assert (y["n_evals"], y["n_jac_evals"]) == (13, 0)

    def test_no_scientific_prefix_noise(self, tmp_path, capsys):
        # CSV cells must be plain repr floats, not numpy scalar reprs
        assert main(["example1", "--out", str(tmp_path)]) == 0
        for p in tmp_path.glob("*.csv"):
            assert "np.float" not in p.read_text()


    def test_custom_dd_flag_selects_the_operator(self, tmp_path, capsys):
        counts = {}
        for dd in ("componentwise", "integral"):
            out = tmp_path / dd
            assert main(["custom", "--problem", "example3", "--method",
                         "steffensen", "--x0", "0", "0", "--dd", dd,
                         "--max-iter", "20", "--out", str(out),
                         "--format", "json"]) == 0
            trace = json.loads((out / "custom_example3_steffensen.json").read_text())
            counts[dd] = trace["n_jac_evals"]
        assert counts["componentwise"] == 0
        assert counts["integral"] > 0

    def test_secant_on_a_system(self, tmp_path, capsys):
        assert main(["custom", "--problem", "example3", "--method", "secant",
                     "--x0", "0.5", "0.5", "--out", str(tmp_path),
                     "--format", "json"]) == 0
        trace = json.loads((tmp_path / "custom_example3_secant.json").read_text())
        assert trace["status"].startswith("converged")
        assert len(trace["iterates"]) - 1 == 9


GOLDEN = Path(__file__).parent / "data" / "golden"


def test_outputs_match_the_stored_golden_files(tmp_path, capsys):
    """The paper's runs write the same bytes as the stored reference files
    (iterates, residuals and tables unchanged to the last bit), in both
    of two passes in one process, as run_experiments.py and the
    benchmark call main."""
    for d in ("pass1", "pass2"):
        for argv in PAPER_RUNS:
            assert main([*argv, "--out", str(tmp_path / d)]) == 0
        written = sorted(p.name for p in (tmp_path / d).iterdir())
        assert written == sorted(p.name for p in GOLDEN.iterdir())
        for name in written:
            assert ((tmp_path / d / name).read_bytes()
                    == (GOLDEN / name).read_bytes()), (d, name)


def test_import_loads_no_scipy_optimize():
    """A fresh `import adimsolve, adimsolve.cli` loads numpy and scipy's
    compiled LAPACK wrappers, scipy.linalg._flapack, alone: no other
    scipy.linalg module, so not scipy.linalg's package init, which loads
    numpy.f2py through scipy's array-API layer, and no scipy.optimize
    module, whose import costs as much again."""
    loaded = json.loads(fresh_python(
        "import json, sys, adimsolve, adimsolve.cli; "
        "print(json.dumps(sorted(sys.modules)))"))
    within = lambda pkg: [m for m in loaded
                          if m == pkg or m.startswith(pkg + ".")]
    assert within("scipy.optimize") == []
    assert within("scipy.linalg") == ["scipy.linalg._flapack"]
    assert within("numpy.f2py") == []


LAPACK_NAMES = "('dgecon', 'dgetrf', 'dgetrs', 'dlange')"


def test_scipy_linalg_imported_later_shares_the_lapack_routines():
    """import scipy.linalg after adimsolve takes the extension module that
    adimsolve loaded: scipy.linalg.lapack exports the very routines
    problems.py calls, and scipy.linalg's own LU gives problems' factors."""
    out = fresh_python(
        "import sys, numpy as np\n"
        "from adimsolve import problems\n"
        "flapack = sys.modules.get('scipy.linalg._flapack')\n"
        "import scipy.linalg, scipy.linalg.lapack as lapack\n"
        "print(sys.modules['scipy.linalg._flapack'] is flapack)\n"
        "print(all(getattr(problems, n) is getattr(lapack, n) "
        f"for n in {LAPACK_NAMES}))\n"
        "A = np.array([[1.0, 2.0, 0.5], [3.0, -1.0, 2.0], [0.0, 4.0, 1.0]])\n"
        "lu, piv = scipy.linalg.lu_factor(A)\n"
        "mine = problems.factor_nonsingular(A)\n"
        "print(np.array_equal(lu, mine[0]) and np.array_equal(piv, mine[1]))")
    assert out.split() == ["True", "True", "True"]


def test_adimsolve_imported_after_scipy_linalg_reuses_its_extension():
    """With scipy.linalg imported first, problems.py takes its loaded
    scipy.linalg._flapack and loads no second copy."""
    out = fresh_python(
        "import importlib.util, json, sys\n"
        "import scipy.linalg.lapack as lapack\n"
        "flapack = sys.modules['scipy.linalg._flapack']\n"
        "loads, load = [], importlib.util.module_from_spec\n"
        "importlib.util.module_from_spec = "
        "lambda spec: loads.append(spec.name) or load(spec)\n"
        "from adimsolve import problems\n"
        "print(json.dumps([loads, "
        "sys.modules['scipy.linalg._flapack'] is flapack, "
        "all(getattr(problems, n) is getattr(lapack, n) "
        f"for n in {LAPACK_NAMES})]))")
    assert json.loads(out) == [[], True, True]


def test_without_the_direct_load_the_public_module_serves(tmp_path):
    """Where scipy.linalg._flapack cannot be found without scipy.linalg's
    init, problems.py imports scipy.linalg.lapack and binds its routines,
    and example3 still writes its golden bytes."""
    out = fresh_python(
        "import importlib.machinery, json, sys\n"
        "find = importlib.machinery.PathFinder.find_spec\n"
        "def hide(name, path=None, target=None):\n"
        "    if (name == 'scipy.linalg._flapack'\n"
        "            and 'scipy.linalg' not in sys.modules):\n"
        "        return None\n"
        "    return find(name, path, target)\n"
        "importlib.machinery.PathFinder.find_spec = hide\n"
        "from adimsolve import problems\n"
        "from adimsolve.cli import main\n"
        "fell_back = 'scipy.linalg.lapack' in sys.modules\n"
        "import scipy.linalg.lapack as lapack\n"
        "code = main(['example3', '--out', sys.argv[1]])\n"
        "print(json.dumps([fell_back, code, "
        "all(getattr(problems, n) is getattr(lapack, n) "
        f"for n in {LAPACK_NAMES})]))", str(tmp_path))
    assert json.loads(out.splitlines()[-1]) == [True, 0, True]
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in GOLDEN.glob("example3_*"))
    for name in written:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_json_and_csv_traces_hold_the_same_floats(tmp_path, capsys):
    """Each trace the paper's runs write reads the same iterates, residual
    and step norms from its --format json file as from its --format csv
    one, bit for bit (NaN where NaN)."""
    bits = lambda v: "nan" if math.isnan(v) else v.hex()
    for fmt in ("csv", "json"):
        for argv in PAPER_RUNS:
            assert main([*argv, "--out", str(tmp_path / fmt),
                         "--format", fmt]) == 0
    csv_traces = sorted(
        p.stem for p in (tmp_path / "csv").glob("*.csv")
        if p.read_text().partition("\n")[0].endswith(",res_norm,step_norm"))
    json_traces = []
    for path in sorted((tmp_path / "json").glob("*.json")):
        obj = json.loads(path.read_text())
        if "iterates" not in obj:
            continue        # a run's metadata
        json_traces.append(path.stem)
        header, *rows = [line.split(",") for line in
                         (tmp_path / "csv" / f"{path.stem}.csv")
                         .read_text().splitlines()]
        m = len(header) - 3
        assert [int(r[0]) for r in rows] == list(range(len(rows)))
        assert [[bits(float(c)) for c in r[1:m + 1]] for r in rows] == \
            [[bits(float(v)) for v in x] for x in obj["iterates"]]
        assert [bits(float(r[m + 1])) for r in rows] == \
            [bits(float(v)) for v in obj["residual_norms"]]
        assert rows[0][m + 2] == ""
        assert [bits(float(r[m + 2])) for r in rows[1:]] == \
            [bits(float(v)) for v in obj["step_norms"]]
    assert json_traces == csv_traces and len(json_traces) >= 10


class TestKeptParser:
    """main keeps one parser per problem table; no run sees another's."""

    def test_unchanged_table_reuses_the_parser(self):
        assert build_parser() is build_parser()

    def test_a_table_change_builds_a_new_parser(self, monkeypatch, tmp_path,
                                                capsys):
        argv = ["custom", "--problem", "line", "--method", "newton",
                "--x0", "3.0", "--out", str(tmp_path)]
        assert main(["custom", "--problem", "f1", "--method", "newton"]) == 0
        monkeypatch.setitem(problems.BUILTIN_PROBLEMS, "line", lambda: Problem(
            f=lambda x: 2.0 * x - 1.0, jacobian=lambda x: 2.0, name="line"))
        assert main(argv) == 0
        monkeypatch.undo()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "invalid choice: 'line'" in capsys.readouterr().err

    def test_methods_do_not_pile_up(self, tmp_path, capsys):
        for d in ("a", "b"):
            assert main(["custom", "--problem", "f1", "--method", "newton",
                         "--out", str(tmp_path / d)]) == 0
            assert [p.name for p in (tmp_path / d).iterdir()] == [
                "custom_f1_newton.csv"]

    def test_no_method_after_asis_is_newton(self, tmp_path, capsys):
        assert main(["custom", "--problem", "f1", "--method", "asis",
                     "--out", str(tmp_path / "a")]) == 0
        assert main(["custom", "--problem", "f1",
                     "--out", str(tmp_path / "b")]) == 0
        assert [p.name for p in (tmp_path / "b").iterdir()] == [
            "custom_f1_newton.csv"]

    def test_no_x0_after_an_x0_starts_at_zero(self, tmp_path, capsys):
        starts = []
        for d, x0 in (("a", ["--x0", "0.5"]), ("b", [])):
            assert main(["custom", "--problem", "f1", *x0, "--out",
                         str(tmp_path / d), "--format", "json"]) == 0
            trace = json.loads(
                (tmp_path / d / "custom_f1_newton.json").read_text())
            starts.append(trace["iterates"][0])
        assert starts == [[0.5], [0.0]]

    def test_help_twice(self, capsys):
        for _ in range(2):
            assert main([]) == 2
            assert capsys.readouterr().out.startswith("usage: adimsolve")


class TestConfigFile:
    def test_config_replaces_flags(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "zigzag", "b": 0.2,
                                   "out": str(tmp_path / "out")}))
        assert main(["--config", str(cfg)]) == 0
        assert (tmp_path / "out").is_dir()

    def test_config_with_methods_list(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "experiment": "custom", "problem": "f1",
            "method": ["newton", "steffensen"], "x0": [0.0]}))
        assert main(["--config", str(cfg)]) == 0

    def test_config_unknown_experiment(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "nope"}))
        assert main(["--config", str(cfg)]) == 2

    def test_config_missing_experiment(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"b": 0.1}))
        assert main(["--config", str(cfg)]) == 2

    @pytest.mark.parametrize("value", [5, "experiment", ["example1"]])
    def test_config_not_an_object(self, tmp_path, capsys, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(value))
        assert main(["--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "error: config must be a JSON object\n")

    def test_a_null_leaves_the_flag_at_its_default(self, tmp_path, capsys,
                                                   monkeypatch):
        # "out": null writes no files, not files in a directory named None
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "zigzag", "out": None,
                                   "b": None}))
        assert config_to_args(cfg) == ["zigzag"]
        monkeypatch.chdir(tmp_path)
        assert main(["--config", str(cfg)]) == 0
        assert list(tmp_path.iterdir()) == [cfg]
        assert "wrote" not in capsys.readouterr().out

    def test_config_a_directory_exits_2(self, tmp_path, capsys):
        # reading it raised IsADirectoryError past main's handlers
        assert main(["--config", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err

    def test_out_an_existing_file_exits_2(self, tmp_path, capsys):
        # the output directory's mkdir raised FileExistsError unhandled
        out = tmp_path / "taken"
        out.write_text("kept\n")
        assert main(["example1", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and str(out) in captured.err
        assert captured.out == ""
        assert out.read_text() == "kept\n"


class TestExperimentInternals:
    def test_method_registry(self):
        assert isinstance(method_from_name("newton"), Newton)
        assert isinstance(method_from_name("steffensen"), Steffensen)
        assert isinstance(method_from_name("asis"), ASIS)
        halley = method_from_name("halley")
        assert isinstance(halley, HFamily)
        assert halley.h(0.0) == 1.0
        with pytest.raises(ValueError):
            method_from_name("gradient-descent")

    def test_dominates(self):
        slow = np.array([1.0, 0.5, 0.25, 1e-16])
        assert _dominates(np.array([1.0, 0.4, 0.25, 1.0]), slow)
        assert not _dominates(np.array([1.0, 0.6, 0.1, 0.0]), slow)

    @pytest.mark.parametrize("b", [0.0, -0.5, 1.5, float("nan")])
    def test_zigzag_descent_rejects_b_outside_the_unit_interval(self, b):
        with pytest.raises(ValueError, match=r"b must be in \(0, 1\]"):
            steepest_descent_zigzag(b)

    def test_zigzag_descent_on_a_round_bowl_stops_after_one_step(self):
        iterates, ratios = steepest_descent_zigzag(1.0)
        assert iterates.tolist() == [[1.0, 1.0], [0.0, 0.0]]
        assert ratios.tolist() == [0.0]

    def test_run_rejects_an_unknown_experiment(self):
        args = build_parser().parse_args(["example1"])
        args.experiment = "nope"
        with pytest.raises(ValueError, match="unknown experiment 'nope'"):
            run(args)

    def test_zigzag_ratio_closed_form(self):
        _, ratios = steepest_descent_zigzag(0.3)
        expected = ((1.0 - 0.3) / (1.0 + 0.3)) ** 2
        assert max(abs(r - expected) for r in ratios) < 1e-12

    def test_example1_result_object(self):
        res = run_example1()
        assert res.ok
        assert set(res.traces) == {"newton", "steffensen", "asis",
                                   "asis_adimensional"}
        assert res.metadata["sigma"] == pytest.approx(1.0 - 1.0 / 2.718281828459045,
                                                      rel=1e-9)

    def test_bounds_report_override(self):
        res = run_bounds_report(1.0, 2.0, 0.5, override=True)
        assert not res.ok  # sequences truncate, the assertion records it

    def test_custom_dimension_mismatch(self):
        with pytest.raises(ValueError):
            run_custom("example3", ["newton"], [0.0],
                       StoppingCriteria(0.0, 1e-15, 10))

    def test_zigzag_validates_b(self):
        with pytest.raises(ValueError):
            run_zigzag(1.5)


class TestParser:
    def test_subcommands_are_the_runner_table(self):
        sub, = [a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)]
        assert list(sub.choices) == list(RUNNERS)

    def test_method_help_names_every_method(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "1000")
        with pytest.raises(SystemExit) as exc:
            main(["custom", "--help"])
        assert exc.value.code == 0
        help_line, = [ln for ln in capsys.readouterr().out.splitlines()
                      if ln.lstrip().startswith("--method METHOD")]
        assert help_line.split("repeatable; one of ")[1].split(", ") == list(
            experiments.METHODS)
        for name in experiments.METHODS:
            method_from_name(name)

    def test_defaults(self):
        args = build_parser().parse_args(["custom", "--problem", "f1"])
        assert args.method is None
        assert args.max_iter == 200
        assert args.dd == "componentwise"

    def test_config_to_args_scalar_and_bool(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"experiment": "bounds-report", "k2": 1.0,
                                   "B": 1.0, "eta": 0.4, "override": True}))
        argv = config_to_args(cfg)
        assert argv[0] == "bounds-report"
        assert "--override" in argv
        assert "--k2" in argv
