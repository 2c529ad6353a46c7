import json
from pathlib import Path

import numpy as np
import pytest

from adimsolve import experiments, problems
from adimsolve.cli import PAPER_RUNS, build_parser, config_to_args, main
from adimsolve.experiments import (_dominates, method_from_name,
                                   run_bounds_report, run_custom,
                                   run_example1, run_zigzag,
                                   steepest_descent_zigzag)
from adimsolve.methods import (ASIS, DampedFirstOrder, DampedSteffensen,
                               FixedSlope, HFamily, Newton, Steffensen,
                               StoppingCriteria)
from adimsolve.problems import Problem, builtin_problem


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
          "--system", "newton"], "a must be nonnegative"),
        (["bounds-report", "--k2", "1", "--B", "nan", "--eta", "0.5",
          "--system", "steffensen"], "a must be nonnegative"),
        (["custom", "--problem", "f1", "--x0", "0.0", "--tol-res", "nan"],
         "tolerances must be nonnegative"),
    ])
    def test_a_nan_value_exits_2_as_a_negative_one_does(self, argv, message,
                                                       tmp_path, capsys):
        # NaN passed every "x < 0" test: bounds-report wrote an all-NaN
        # table with [PASS] and exit 0, custom ran silently to max-iter
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

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
    (iterates, residuals and tables unchanged to the last bit)."""
    for argv in PAPER_RUNS:
        assert main([*argv, "--out", str(tmp_path)]) == 0
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in GOLDEN.iterdir())
    for name in written:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


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
