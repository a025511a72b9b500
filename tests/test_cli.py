import contextlib
import copy
import csv
import io
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from risense import budget, channel, cli, harness, optimizer, sensing


ROOT = Path(__file__).resolve().parents[1]
LOS_BUDGET = str(ROOT / "configs" / "los_budget.yaml")
GOLDEN = ROOT / "tests" / "data"


def write_config(tmp_path, body: str) -> str:
    path = tmp_path / "scenario.yaml"
    path.write_text(textwrap.dedent(body))
    return str(path)


TINY = """
    scenario: {seed: 4, trials: 10, channel_model: rayleigh, method: wmmse}
    geometry: {interferers: 1}
    array: {n_antennas: 8, m_h: 3}
    detector: {t_samples: 200}
    ris: {budget_dbm: 10, a_max: 10}
"""

TINY_LOS = """
    scenario: {seed: 4, trials: 5, channel_model: los, method: mf}
    geometry: {interferers: 0}
    array: {n_antennas: 16, m_h: 4}
    detector: {t_samples: 1600}
    ris: {a_max: 100}
    planner: {p_high_w: 0.1, stop_tol: 1.0e-5}
"""


class TestThreshold:
    def test_explicit_dims(self, capsys):
        assert cli.main(["threshold", "-N", "64", "-T", "6400", "--alpha", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "gamma_th = 1.20576" in out

    def test_from_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY)
        assert cli.main(["threshold", "--config", cfg]) == 0
        assert "N=8" in capsys.readouterr().out

    def test_missing_dims_is_config_error(self):
        assert cli.main(["threshold"]) == 2

    @pytest.mark.parametrize("alpha", ["1.5", "1e-15"])
    def test_unsupported_alpha_is_config_error(self, capsys, alpha):
        assert cli.main(["threshold", "-N", "64", "-T", "6400", "--alpha", alpha]) == 2
        assert "configuration error: alpha" in capsys.readouterr().err


# each command's options, with an argv value and the value it parses to
KEPT_OPTIONS = {
    "threshold": ("--config", "-N", "-T", "--alpha"),
    "optimize": ("--config", "--seed", "--method"),
    "simulate": ("--config", "--seed", "--trials", "--out", "--format", "--method"),
    "sweep": ("--config", "--seed", "--trials", "--out", "--format", "--sweep", "--values",
              "--methods"),
    "budget": ("--config", "--seed", "--out", "--format", "--method", "--pd-target",
               "--stop-tol"),
}
OPTION_VALUES = {"--config": ("a.yaml", "a.yaml"), "--seed": ("3", 3), "--trials": ("7", 7),
                 "--out": ("r.csv", "r.csv"), "--format": ("json", "json"),
                 "--method": ("zf", "zf"), "-N": ("8", 8), "-T": ("80", 80),
                 "--alpha": ("0.2", 0.2), "--sweep": ("t", "t"), "--values": ("800", "800"),
                 "--methods": ("mf", "mf"), "--pd-target": ("0.8", 0.8),
                 "--stop-tol": ("1e-4", 1e-4)}
# (argv, what stderr names): options a command does not read, the ones its mode
# does not read, an empty method name, a removed option a kept one extends, an
# empty method list, an empty --out path, and method names in another case (names
# are exact: none is lowered)
REJECTED = [
    *[(["threshold", "-N", "8", "-T", "80", flag, value], flag)
      for flag, value in (("--seed", "1"), ("--trials", "1"), ("--out", "r.csv"),
                          ("--format", "json"), ("--method", "mf"))],
    *[(["optimize", "--config", LOS_BUDGET, flag, value], flag)
      for flag, value in (("--trials", "1"), ("--out", "r.csv"), ("--format", "json"))],
    (["sweep", "--config", LOS_BUDGET, "--method", "wmmse"], "--method"),
    (["budget", "--config", LOS_BUDGET, "--trials", "7"], "--trials"),
    (["sweep", "--config", LOS_BUDGET, "--sweep", "m", "--values", "800"], "--values"),
    (["sweep", "--config", LOS_BUDGET, "--sweep", "m", "--methods", "mf"], "--methods"),
    (["sweep", "--config", LOS_BUDGET, "--sweep", "t", "--values", "800", "--trials", "5"],
     "--trials"),
    (["budget", "--config", LOS_BUDGET, "--format", "json"], "--format"),
    (["simulate", "--config", LOS_BUDGET, "--trials", "1", "--method="], "method must be"),
    (["sweep", "--config", LOS_BUDGET, "--sweep", "t", "--values", "800", "--method", "zf"],
     "--method"),
    (["sweep", "--config", LOS_BUDGET, "--sweep", "t", "--values", "800", "--methods="],
     "--methods names no method"),
    (["sweep", "--config", LOS_BUDGET, "--sweep", "t", "--values", "800", "--methods", " , "],
     "--methods names no method"),
    (["simulate", "--config", LOS_BUDGET, "--trials", "1", "--out="], "--out needs a file path"),
    (["sweep", "--config", LOS_BUDGET, "--sweep", "t", "--values", "800", "--out="],
     "--out needs a file path"),
    (["budget", "--config", LOS_BUDGET, "--method", "mf", "--out="], "--out needs a file path"),
    (["budget", "--config", LOS_BUDGET, "--method", "MF"], "method must be one of"),
    (["simulate", "--config", LOS_BUDGET, "--trials", "1", "--method", "Wmmse"],
     "method must be one of"),
    (["sweep", "--config", LOS_BUDGET, "--sweep", "t", "--values", "3200", "--methods", "MF"],
     "the budget planner plans wmmse, mf, zf, mmse, passive; got 'MF'"),
]


class TestExitCodes:
    @pytest.mark.parametrize("command, option",
                             [(c, o) for c, options in KEPT_OPTIONS.items() for o in options])
    def test_each_command_takes_its_options(self, command, option):
        # the parsed names pin each command's whole option set
        text, value = OPTION_VALUES[option]
        config = [] if option == "--config" or command == "threshold" else ["--config", "a.yaml"]
        args = cli.build_parser().parse_args([command, *config, option, text])
        assert getattr(args, option.lstrip("-").replace("-", "_")) == value
        names = {o.lstrip("-").replace("-", "_") for o in KEPT_OPTIONS[command]}
        assert set(vars(args)) == names | {"command"}

    @pytest.mark.parametrize("argv, named", REJECTED)
    def test_unread_option_is_rejected(self, tmp_path, monkeypatch, argv, named):
        monkeypatch.chdir(tmp_path)  # a wrongly accepted --out lands here
        code, err = run_cli(argv)
        assert code == 2, (argv, err)
        assert named in err and "Traceback" not in err
        assert not (tmp_path / "r.csv").exists()

    def test_one_parser_serves_every_call(self):
        # built once per process: a rejected argv and other commands leave no state behind
        parser = cli.build_parser()
        argv = ["budget", "--config", "a.yaml", "--method", "mf"]
        first = parser.parse_args(argv)
        parser.parse_args(["simulate", "--config", "b.yaml", "--trials", "3", "--seed", "2"])
        assert run_cli(["sweep", "--config", "a.yaml", "--sweep", "q"])[0] == 2
        assert cli.build_parser() is parser and parser.parse_args(argv) == first

    @pytest.mark.parametrize("method, cap, loop", [
        ("passive-relaxed", "PROX_MAX_STEPS", "proximal steps"),
        ("wmmse", "NEWTON_MAX_STEPS", "projected Newton")])
    def test_capped_subproblem_is_a_numerical_failure(self, monkeypatch, method, cap, loop):
        # the desk's passive surface gives a rank-deficient subproblem, its
        # active one a cap-binding one
        monkeypatch.setattr(optimizer, cap, 1)
        code, err = run_cli(["optimize", "--config", str(ROOT / "configs" / "desk.yaml"),
                             "--method", method])
        assert code == 4
        assert f"numerical failure: QCQP subproblem: {loop} did not converge" in err

    @pytest.mark.parametrize("edit, argv, code, message", [
        ("  m_h: 0", ["simulate"], 2, "configuration error: invalid scenario:\n"
         "  - array dimensions must be >= 1\n"),
        ("  channel_model: bogus", ["simulate"], 2, "configuration error: invalid scenario:\n"
         "  - channel_model must be 'rayleigh' or 'los'\n"),
        ("  budget_dbm: -5", ["simulate"], 3, "infeasible: the budget leaves -0.00634342 W "
         "of output power for 16 active elements\n"),
        ("  budget_dbm: -10", ["sweep", "--sweep", "m"], 3,
         "infeasible: budget cannot power a single active element\n")])
    def test_a_one_edit_desk_exits_as_documented(self, tmp_path, edit, argv, code, message):
        text = (ROOT / "configs" / "desk.yaml").read_text()
        key = edit.split(":")[0] + ":"
        old = next(line for line in text.splitlines() if line.startswith(key))
        cfg = write_config(tmp_path, text.replace(old + "\n", edit + "\n"))
        assert run_cli([*argv, "--config", cfg, "--trials", "1"]) == (code, message)

    @pytest.mark.parametrize("out", ["no/such/dir/plan.csv", "."])
    def test_an_unwritable_out_path_exits_2(self, tmp_path, out):
        # a missing directory, and a directory as the path
        path = str(tmp_path / out)
        code, err = run_cli(["budget", "--config", LOS_BUDGET, "--method", "mf", "--out", path])
        assert code == 2 and "Traceback" not in err
        assert err.startswith(f"configuration error: cannot write results to {path}: [Errno ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("exc, message", [
        (MemoryError("Unable to allocate 16.0 MiB for an array with shape (1001, 1001, 2) "
                     "and data type complex128"),
         "out of memory: Unable to allocate 16.0 MiB for an array with shape (1001, 1001, 2) "
         "and data type complex128\n"),
        (MemoryError(), "out of memory: an allocation failed\n")])
    def test_running_out_of_memory_exits_4(self, monkeypatch, exc, message):
        def exhausted(*args, **kwargs):
            raise exc

        monkeypatch.setattr(harness, "run_hypotheses_mc", exhausted)
        assert run_cli(["simulate", "--config", LOS_BUDGET, "--trials", "1"]) == (4, message)

    def test_bad_config_file(self):
        assert cli.main(["simulate", "--config", "/does/not/exist.yaml"]) == 2

    @pytest.mark.parametrize("text", [b"detector: {t_samples: [1, 2}\n",
                                      b"scenario: {seed: 1}\n# \xff\n"])
    def test_malformed_file_is_not_valid_yaml(self, tmp_path, capsys, text):
        # an unclosed flow sequence, and bytes that are not UTF-8
        path = tmp_path / "sc.yaml"
        path.write_bytes(text)
        assert cli.main(["simulate", "--config", str(path)]) == 2
        assert f"scenario file {path} is not valid YAML" in capsys.readouterr().err

    def test_invalid_yaml_key(self, tmp_path):
        cfg = write_config(tmp_path, "detector: {bogus: 1}\n")
        assert cli.main(["simulate", "--config", cfg]) == 2

    def test_reversed_annulus(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "geometry: {interferers: 2, annulus: [60, 50]}\n")
        assert cli.main(["simulate", "--config", cfg]) == 2
        assert "configuration error: geometry.annulus" in capsys.readouterr().err

    @pytest.mark.parametrize("edits, options, named", [
        ({}, ["--trials", str(2**62)], "scenario.trials"),
        ({"  m_h: 16": f"  m_h: {2**62}"}, [], "array.n_antennas x m_h x m_v"),
        ({"  n_antennas: 32": f"  n_antennas: {2**62}",
          "  t_samples: 3200": f"  t_samples: {2**62 + 1}"}, [], "array.n_antennas^2"),
        # sizes past the float range (the message prints them as inf)
        ({"  n_antennas: 32": "  n_antennas: 1.3407807929942597e+154"}, [],
         "array.n_antennas^2"),
        ({}, ["--trials", str(10**400)], "scenario.trials")])
    def test_oversized_count_is_a_config_error(self, tmp_path, edits, options, named):
        # each count sizes an array that numpy cannot allocate
        text = Path(LOS_BUDGET).read_text()
        for old, new in edits.items():
            assert old in text
            text = text.replace(old, new)
        code, err = run_cli(["simulate", "--config", write_config(tmp_path, text),
                             "--method", "mf", *options])
        assert code == 2, err
        assert f"{named} = " in err and "exceeds the ceiling of 134217728" in err
        assert "Traceback" not in err

    def test_infeasible_budget(self, tmp_path):
        # ceiling of 1 mW sits below the zero-forcing floor 6 (p_c + p_dc) ~ 2.5 mW
        cfg = write_config(tmp_path, """
            scenario: {seed: 4, channel_model: los, method: mf}
            geometry: {interferers: 5}
            array: {n_antennas: 16, m_h: 4}
            detector: {t_samples: 1600}
            planner: {p_high_w: 1.0e-3, stop_tol: 1.0e-5}
        """)
        rc = cli.main(["budget", "--config", cfg, "--method", "zf",
                       "--pd-target", "0.9"])
        assert rc == 3

    def test_non_numeric_value(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "scenario: {seed: abc}\n")
        assert cli.main(["simulate", "--config", cfg, "--trials", "1"]) == 2
        assert "configuration error: scenario.seed must be an integer, got 'abc'" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["scenario.seed", "geometry.pu", "powers.p_dbm",
                                     "scenario.method"])
    def test_deeply_nested_value(self, tmp_path, capsys, key):
        # nested past the recursion limit: the message abbreviates the value
        section, name = key.split(".")
        nested = "[" * 1500 + "1" + "]" * 1500
        cfg = write_config(tmp_path, f"{section}: {{{name}: {nested}}}\n")
        assert cli.main(["simulate", "--config", cfg, "--trials", "1"]) == 2
        assert f"configuration error: {key} must be a" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, argv", [
        ("pathloss.wavelength", ".nan", ["simulate", "--trials", "1"]),
        ("ris.p_c_dbm", ".nan", ["budget", "--method", "mf"]),
        ("powers.sigma1_dbm", ".nan", ["simulate", "--trials", "1"]),
        ("ris.budget_dbm", ".nan", ["simulate", "--trials", "1"]),
        ("ris.a_max", ".inf", ["simulate", "--trials", "1"])])
    def test_non_finite_value(self, tmp_path, capsys, key, value, argv):
        section, name = key.split(".")
        cfg = write_config(tmp_path, f"{section}: {{{name}: {value}}}\n")
        assert cli.main(argv + ["--config", cfg]) == 2
        assert f"configuration error: {key} must be a finite number, got " \
            in capsys.readouterr().err

    def test_negative_seed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY)
        assert cli.main(["simulate", "--config", cfg, "--seed", "-1", "--trials", "1"]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        cfg = write_config(tmp_path, "scenario: {seed: -1}\n")
        assert cli.main(["simulate", "--config", cfg, "--trials", "1"]) == 2
        assert "scenario.seed must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--seed", "-1"], "configuration error: invalid scenario:\n  - seed must be >= 0\n"),
        (["--trials", "0"], "configuration error: invalid scenario:\n  - trials must be >= 1\n")])
    def test_a_bad_override_exits_2(self, tmp_path, capsys, argv, message):
        cfg = write_config(tmp_path, TINY)
        assert cli.main(["simulate", "--config", cfg] + argv) == 2
        assert capsys.readouterr().err == message

    def test_overrides_are_validated_once_and_keep_the_drawn_interferers(self, tmp_path,
                                                                         monkeypatch):
        # the file's seed (4) places the drawn interferer; --seed only reseeds the trials
        cfg = write_config(tmp_path, TINY)
        checks = []
        post_init = harness.ScenarioConfig.__post_init__
        monkeypatch.setattr(harness.ScenarioConfig, "__post_init__",
                            lambda sc: (checks.append(sc), post_init(sc))[1])
        args = cli.build_parser().parse_args(
            ["budget", "--config", cfg, "--seed", "5", "--method", "mf", "--pd-target", "0.8",
             "--stop-tol", "1e-3"])
        sc = cli._scenario(args)
        assert checks == [sc]
        assert (sc.seed, sc.method, sc.pd_target, sc.stop_tol) == (5, "mf", 0.8, 1e-3)
        from_file = harness.load_scenario(cfg)
        assert from_file.seed == 4
        assert sc.geometry == from_file.geometry
        assert sc.geometry.interferer_pos != harness.chan.draw_interferer_positions(
            sc.geometry.ris_pos, 1, *sc.annulus, 5)

    @pytest.mark.parametrize("value", ["-1", "0", "nan", "inf"])
    def test_budget_rejects_a_bad_stop_tol(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, TINY_LOS)
        assert cli.main(["budget", "--config", cfg, "--stop-tol", value]) == 2
        assert "stop_tol must be positive and finite" in capsys.readouterr().err
        cfg = write_config(tmp_path, TINY_LOS.replace("stop_tol: 1.0e-5", f"stop_tol: {value}"))
        assert cli.main(["budget", "--config", cfg]) == 2

    @pytest.mark.parametrize("argv", [["simulate", "--trials", "1"], ["budget"]])
    def test_pathloss_overflow(self, tmp_path, capsys, argv):
        cfg = write_config(tmp_path, TINY_LOS + "    pathloss: {alpha_direct: 1.0e+300}\n")
        assert cli.main([*argv, "--config", cfg]) == 2
        assert "configuration error: pathloss.alpha_direct = 1e+300" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--method", "passive-unit"], []])
    def test_budget_rejects_methods_it_cannot_plan(self, tmp_path, capsys, argv):
        # without --method the planner takes the config's method, never a stand-in
        cfg = write_config(tmp_path, TINY_LOS.replace("method: mf", "method: passive-unit"))
        assert cli.main(["budget", "--config", cfg, *argv]) == 2
        assert "the budget planner plans" in capsys.readouterr().err

    def test_sweep_rejects_unknown_method(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_LOS)
        assert cli.main(["sweep", "--config", cfg, "--sweep", "t", "--values", "800",
                         "--methods", "mf,bogus"]) == 2
        assert "'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize("model, method", [("los", "mf"), ("rayleigh", "passive-unit")])
    def test_ill_conditioned_covariance_is_a_numerical_failure(self, tmp_path, capsys, model,
                                                               method):
        # every interferer active, receiver noise far below 1e-12 of the trace of R:
        # whitening would divide by an eigenvalue that is rounding error
        body = TINY_LOS.replace("channel_model: los", f"channel_model: {model}")
        cfg = write_config(tmp_path, body.replace("interferers: 0", "interferers: 2")
                           + "    powers: {sigma2_dbm: -250}\n")
        assert cli.main(["simulate", "--config", cfg, "--trials", "3", "--method", method]) == 4
        assert "numerical failure: covariance not positive definite" in capsys.readouterr().err

    def test_simulate_zf_needs_k_plus_one_elements(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_LOS.replace("interferers: 0", "interferers: 5"))
        assert cli.main(["simulate", "--config", cfg, "--method", "zf"]) == 2
        assert "zero-forcing needs M >= K+1 = 6" in capsys.readouterr().err

    def test_planner_method_passive_accepted(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_LOS)
        rc = cli.main(["budget", "--config", cfg, "--method", "passive",
                       "--pd-target", "0.9"])
        assert rc == 0
        assert "required budget" in capsys.readouterr().out


class TestSweepValues:
    """Bad --values items and the scenarios they sweep to end in exit code 2."""

    @pytest.mark.parametrize("sweep, values, message", [
        ("t", "nan", "--values must be a finite number, got 'nan'"),
        ("t", "abc", "--values must be a finite number, got 'abc'"),
        ("t", "1e400", "--values must be a finite number, got '1e400'"),
        ("t", "1600,,3200", "--values must be a finite number, got ''"),
        ("p", "nan", "--values must be a finite number, got 'nan'"),
        ("p", "inf", "--values must be a finite number, got 'inf'"),
        ("k", "-1", "--sweep k values must be whole counts, got -1.0"),
        ("k", "2.5", "--sweep k values must be whole counts, got 2.5"),
        ("t", "1600.5", "--sweep t values must be whole counts, got 1600.5"),
        ("t", "8", "t_samples must be >= n_antennas"),
        ("k", "1001", "the interferer count must lie in [0, 1000], got 1001")])
    def test_bad_value_is_config_error(self, tmp_path, capsys, sweep, values, message):
        cfg = write_config(tmp_path, TINY_LOS.replace("interferers: 0", "interferers: 1"))
        assert cli.main(["sweep", "--config", cfg, "--sweep", sweep, f"--values={values}",
                         "--methods", "mf"]) == 2
        err = capsys.readouterr().err
        assert "configuration error: " in err and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("sweep, values", [("zeta", "0.5"), ("p", "0.001,1e300")])
    def test_interferer_sweep_without_interferers(self, tmp_path, capsys, sweep, values):
        # every row would plan the same interferer-free scenario
        cfg = write_config(tmp_path, TINY_LOS)
        assert cli.main(["sweep", "--config", cfg, "--sweep", sweep, f"--values={values}",
                         "--methods", "mf"]) == 2
        err = capsys.readouterr().err
        assert f"configuration error: --sweep {sweep} sets the interferers' {sweep}, " \
            "and the scenario has none" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["-1", "0"])
    def test_non_positive_budget_ceiling(self, tmp_path, capsys, value):
        cfg = write_config(tmp_path, TINY_LOS.replace("p_high_w: 0.1", f"p_high_w: {value}"))
        assert cli.main(["budget", "--config", cfg]) == 2
        assert "planner p_high_w must be positive and finite" in capsys.readouterr().err


class TestBudgetCommand:
    def test_prints_result(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY_LOS)
        assert cli.main(["budget", "--config", cfg, "--method", "mf"]) == 0
        out = capsys.readouterr().out
        assert "required budget" in out
        assert "dBm" in out

    def test_two_row_surface(self, tmp_path, capsys):
        text = Path(LOS_BUDGET).read_text().replace("m_v: 1", "m_v: 2")
        assert "m_v: 2" in text
        cfg = write_config(tmp_path, text)
        assert cli.main(["budget", "--config", cfg, "--method", "mf"]) == 0
        out = capsys.readouterr().out
        m_star = int(out.split("with M = ")[1].split(",")[0])
        assert m_star % 2 == 0


class TestWmmseCap:
    """A WMMSE solve that stops at its iteration cap says so, out of band."""

    DESK = str(ROOT / "configs" / "desk.yaml")

    def test_simulate_counts_capped_solves(self, capsys):
        # trial 1 of seed 0 stops at the 200-iteration cap, trial 0 converges
        argv = ["simulate", "--config", self.DESK, "--method", "wmmse", "--seed", "0"]
        assert cli.main(argv + ["--trials", "2"]) == 0
        out, err = capsys.readouterr()
        assert "1 of 2 WMMSE solves stopped at the 200-iteration cap" in err
        assert "stopped" not in out  # the result row's bytes do not change
        assert cli.main(argv + ["--trials", "1"]) == 0
        assert "stopped" not in capsys.readouterr().err

    def test_m_sweep_counts_capped_solves(self, capsys, monkeypatch):
        # one trial at each of 24 active counts and the passive baseline: the sum
        # over the sweep's runs, of which 3 outer iterations stop all but one
        monkeypatch.setattr(budget, "WMMSE_MAX_ITER", 3)
        assert cli.main(["sweep", "--config", self.DESK, "--sweep", "m", "--trials", "1"]) == 0
        out, err = capsys.readouterr()
        assert "24 of 25 WMMSE solves stopped at the 3-iteration cap" in err
        assert "stopped" not in out and len(out.splitlines()) == 27  # header, 25 rows, summary

    def test_optimize_reports_its_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "OPTIMIZE_MAX_ITER", 3)
        assert cli.main(["optimize", "--config", self.DESK, "--method", "wmmse"]) == 0
        assert "(iterations: 3, stopped at the 3-iteration cap before converging)" in \
            capsys.readouterr().out

    def test_a_capped_unit_modulus_solve_exits_4(self, capsys, monkeypatch):
        # the desk's unit-modulus subproblems take more than one cyclic sweep each
        argv = ["optimize", "--config", self.DESK, "--method", "passive-unit"]
        assert cli.main(argv) == 0
        capsys.readouterr()
        monkeypatch.setattr(optimizer, "UNIT_MODULUS_MAX_SWEEPS", 1)
        assert cli.main(argv) == 4
        assert capsys.readouterr() == ("", "numerical failure: QCQP subproblem: unit-modulus "
                                           "sweeps did not converge in 1 sweeps\n")


class TestGoldenRows:
    """Planner rows on configs/los_budget.yaml and desk rows, pinned to their bytes."""

    def test_simulate_desk(self, tmp_path):
        # per-trial WMMSE on a Rayleigh desk, active and on a passive surface
        # (a rank-deficient coefficient subproblem): one header, one row each
        lines = []
        for method in ("wmmse", "passive-relaxed"):
            out = tmp_path / f"{method}.csv"
            assert cli.main(["simulate", "--config", str(ROOT / "configs" / "desk.yaml"),
                             "--seed", "11", "--trials", "16", "--method", method,
                             "--out", str(out)]) == 0
            rows = out.read_text().splitlines(keepends=True)
            lines += rows if not lines else rows[1:]
        assert "".join(lines) == (GOLDEN / "simulate_desk.csv").read_text()

    def test_simulate_desk_seeds(self, tmp_path):
        # per-trial WMMSE on the desk, seeds 1-6 x 40 trials: one header, one row per seed
        lines = []
        for seed in range(1, 7):
            out = tmp_path / f"seed{seed}.csv"
            assert cli.main(["simulate", "--config", str(ROOT / "configs" / "desk.yaml"),
                             "--seed", str(seed), "--trials", "40", "--method", "wmmse",
                             "--out", str(out)]) == 0
            rows = out.read_text().splitlines(keepends=True)
            lines += rows if not lines else rows[1:]
        assert "".join(lines) == (GOLDEN / "simulate_desk_seeds.csv").read_text()

    def test_simulate_los(self, tmp_path):
        # fixed LoS channels, all interferers active (the tridiagonal draw), then
        # each interferer active half the time (the Bartlett draw): one header, one row each
        text = Path(LOS_BUDGET).read_text()
        half = tmp_path / "los_half.yaml"
        half.write_text(text.replace("  zeta: 1.0\n", "  zeta: [1.0, 0.5, 0.5, 0.5, 0.5, 0.5]\n"))
        lines = []
        for i, config in enumerate((LOS_BUDGET, str(half))):
            out = tmp_path / f"simulate_{i}.csv"
            assert cli.main(["simulate", "--config", config, "--method", "mf", "--seed", "3",
                             "--trials", "200", "--out", str(out)]) == 0
            rows = out.read_text().splitlines(keepends=True)
            lines += rows if not lines else rows[1:]
        assert "".join(lines) == (GOLDEN / "simulate_los.csv").read_text()

    def test_simulate_los_at_the_threshold(self, tmp_path):
        # the full-scale LoS scenario at the budget where Pd is about 0.85 and Pfa about
        # 0.1, so many largest eigenvalues land near the threshold: seeds 1-3 x 400 trials
        text = (ROOT / "configs" / "full_scale.yaml").read_text()
        for old, new in (("  channel_model: rayleigh\n", "  channel_model: los\n"),
                         ("  method: wmmse\n", "  method: mf\n"),
                         ("  budget_dbm: 10\n", "  budget_dbm: 8.2666\n")):
            assert old in text
            text = text.replace(old, new)
        config = tmp_path / "los_threshold.yaml"
        config.write_text(text)
        lines = []
        for seed in (1, 2, 3):
            out = tmp_path / f"seed{seed}.csv"
            assert cli.main(["simulate", "--config", str(config), "--seed", str(seed),
                             "--trials", "400", "--out", str(out)]) == 0
            rows = out.read_text().splitlines(keepends=True)
            lines += rows if not lines else rows[1:]
        assert "".join(lines) == (GOLDEN / "simulate_los_threshold.csv").read_text()

    @pytest.mark.parametrize("method", ["mf", "zf", "mmse", "passive"])
    def test_budget(self, tmp_path, method):
        out = tmp_path / "budget.csv"
        assert cli.main(["budget", "--config", LOS_BUDGET, "--method", method,
                         "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / f"budget_los_{method}.csv").read_bytes()

    def test_budget_sweep_t(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--config", LOS_BUDGET, "--sweep", "t",
                         "--values", "1600,6400", "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "sweep_t_los.csv").read_bytes()

    def test_budget_sweep_k(self, tmp_path):
        # zero-forcing 20 and 50 interferers is degenerate at the counts the plan
        # reads: those rows are numerical, every other plan is kept
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--config", LOS_BUDGET, "--sweep", "k", "--values",
                         "0,1,5,20,50", "--methods", "mf,mmse,zf,passive",
                         "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / "sweep_k_los.csv").read_bytes()

    @pytest.mark.parametrize("sweep, values", [("p", "0.001,1,1000,1e6"), ("zeta", "0,0.5,1")])
    def test_budget_sweeps_of_the_interferers(self, tmp_path, sweep, values):
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--config", LOS_BUDGET, "--sweep", sweep, "--values", values,
                         "--methods", "mf,mmse,zf,passive", "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN / f"sweep_{sweep}_los.csv").read_bytes()

    def test_the_passive_surface_wins_only_under_strong_interferers(self):
        # the paper's crossover, read from the p-sweep golden: at 0.001 and 1 W every
        # active surface needs less power than the passive one, at 1000 W and 1e6 W more
        need: dict[float, dict[str, float]] = {}
        for row in csv.DictReader((GOLDEN / "sweep_p_los.csv").open()):
            need.setdefault(float(row["sweep_value"]), {})[row["method"]] = \
                float(row["required_budget_w"])
        assert sorted(need) == [0.001, 1.0, 1000.0, 1e6]
        for p, budgets in need.items():
            passive = budgets.pop("passive")
            assert sorted(budgets) == ["mf", "mmse", "zf"]
            assert all((active < passive) == (p <= 1) for active in budgets.values()), p

    def test_passive_plans_under_strong_interference(self, tmp_path):
        # the passive excess falls at some counts once the interferers are
        # strong; the running max over the affordable counts still plans them
        out = tmp_path / "sweep.csv"
        values = (0.01, 100.0, 1000.0, 1e4, 1e6)
        assert cli.main(["sweep", "--config", LOS_BUDGET, "--sweep", "p", "--methods", "passive",
                         "--values", ",".join(map(str, values)), "--out", str(out)]) == 0
        rows = list(csv.DictReader(out.open()))
        assert [row["status"] for row in rows] == ["ok"] * len(values)
        # the weak-interference rows are the ones planned before the running max
        assert [row["required_budget_w"] for row in rows[:2]] == ["0.0109004974", "0.0110000372"]
        sc = harness.load_scenario(LOS_BUDGET)
        counts = [budget.required_budget("passive", sc.pd_target,
                                         harness._swept_scenario(sc, "p", v)).m_star
                  for v in values]
        assert counts == [109, 110, 119, 160, 810]


class TestClosedStdout:
    # 4096 coefficient lines fill more than a pipe holds, so the command is still
    # writing when the reader closes its end after the first line; 4 lines stay in
    # a buffered stdout until the command's final flush, after the reader is gone
    @pytest.mark.parametrize("elements, lines_read, unbuffered",
                             [(4096, 1, True), (4096, 1, False), (4, 0, False)])
    def test_closed_pipe_exits_1_without_a_traceback(self, tmp_path, elements, lines_read,
                                                     unbuffered):
        cfg = write_config(tmp_path, TINY_LOS.replace("m_h: 4", f"m_h: {elements}"))
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                          env.get("PYTHONPATH")]))
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen([sys.executable, "-m", "risense.cli", "optimize", "--config", cfg,
                                 "--method", "passive"], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env)
        for _ in range(lines_read):
            assert proc.stdout.readline().startswith(b"eta = ")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1
        assert err == ""


class TestSimulate:
    def test_writes_deterministic_csv(self, tmp_path):
        cfg = write_config(tmp_path, TINY)
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        header = out1.read_text().splitlines()[0]
        assert header.startswith("experiment,sweep_name,sweep_value,method,pd_emp")

    def test_one_solve_and_one_draw_per_trial(self, tmp_path, monkeypatch):
        counts = {"wmmse_active": 0, "sample_rayleigh_channelset": 0}

        def counting(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counting(budget, "wmmse_active")
        counting(channel, "sample_rayleigh_channelset")
        cfg = write_config(tmp_path, TINY)
        assert cli.main(["simulate", "--config", cfg, "--trials", "3"]) == 0
        assert counts == {"wmmse_active": 3, "sample_rayleigh_channelset": 3}

    @pytest.mark.parametrize("zeta, formed", [("1.0", 0), ("[1.0, 0.5, 0.5, 0.5, 0.5, 0.5]", 1)])
    def test_whitening_factor_only_for_bartlett_draws(self, tmp_path, monkeypatch, zeta, formed):
        # fixed LoS channels: an all-active run draws every trial tridiagonally and forms
        # no Q^-1; with each interferer active half the time every trial is a Bartlett
        # draw, and the run forms Q^-1 once
        factors, draws = [], []
        psd_sqrt_inverse, gram_blocks = sensing.psd_sqrt_inverse, sensing.gram_blocks
        monkeypatch.setattr(sensing, "psd_sqrt_inverse",
                            lambda r: (factors.append(r), psd_sqrt_inverse(r))[1])
        monkeypatch.setattr(sensing, "gram_blocks",
                            lambda *a: (draws.append(a), gram_blocks(*a))[1])
        cfg = tmp_path / "los.yaml"
        cfg.write_text(Path(LOS_BUDGET).read_text().replace("  zeta: 1.0\n", f"  zeta: {zeta}\n"))
        assert cli.main(["simulate", "--config", str(cfg), "--method", "mf", "--trials", "20",
                         "--out", str(tmp_path / "r.csv")]) == 0
        assert (len(factors), len(draws)) == (formed, 20 * formed)

    @pytest.mark.parametrize("config, argv", [
        ("los_budget.yaml", ["--method", "mf", "--trials", "2"]), ("desk.yaml", ["--trials", "8"])])
    def test_a_call_evaluates_gains_and_phase_steps_once(self, monkeypatch, config, argv):
        # when its scenario is built: every channel set and context reads them
        calls = []
        link_gains, geometry_init = channel.link_gains, channel.Geometry.__post_init__
        monkeypatch.setattr(channel, "link_gains",
                            lambda *a: (calls.append("gains"), link_gains(*a))[1])
        monkeypatch.setattr(channel.Geometry, "__post_init__",
                            lambda self: (calls.append("steps"), geometry_init(self))[1])
        assert cli.main(["simulate", "--config", str(ROOT / "configs" / config)] + argv) == 0
        assert calls == ["steps", "gains"]

    def test_closed_forms_read_the_channel_factors(self, tmp_path, monkeypatch):
        # the closed-form coefficients come from the channel set's LoS factors
        calls, solves = [], []
        steering_factors, mf_phi = channel.steering_factors, budget.mf_phi
        monkeypatch.setattr(channel, "steering_factors",
                            lambda *a: (calls.append(a), steering_factors(*a))[1])
        monkeypatch.setattr(budget, "mf_phi",
                            lambda ctx, los, *a: (solves.append(los), mf_phi(ctx, los, *a))[1])
        cfg = write_config(tmp_path, TINY_LOS)
        assert cli.main(["simulate", "--config", cfg, "--trials", "2"]) == 0
        assert len(calls) == 1 and len(solves) == 1
        chans = channel.build_los_channelset(harness.load_scenario(cfg))
        assert solves[0].a_f.tobytes() == chans.los.a_f.tobytes()

    def test_stdout_format_json(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY)
        assert cli.main(["simulate", "--config", cfg, "--format", "json",
                         "--trials", "5"]) == 0
        out = capsys.readouterr().out
        assert '"experiment": "simulate"' in out


class TestSweepCommand:
    def test_m_sweep_to_file(self, tmp_path):
        cfg = write_config(tmp_path, """
            scenario: {seed: 2, trials: 4, channel_model: rayleigh, method: wmmse}
            geometry: {interferers: 0}
            array: {n_antennas: 8, m_h: 3}
            detector: {t_samples: 200}
            ris: {budget_dbm: 3}
        """)
        out = tmp_path / "rows.csv"
        assert cli.main(["sweep", "--config", cfg, "--sweep", "m",
                         "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) > 2

    def test_m_sweep_budget_beyond_the_ceiling_is_rejected(self, tmp_path, capsys):
        # 3000 dBm affords ~1e301 elements: rejected before any trial runs
        cfg = write_config(tmp_path, """
            scenario: {seed: 2, trials: 4, channel_model: rayleigh, method: wmmse}
            geometry: {interferers: 0}
            array: {n_antennas: 8, m_h: 3}
            detector: {t_samples: 200}
            ris: {budget_dbm: 3000}
        """)
        start = time.perf_counter()
        assert cli.main(["sweep", "--config", cfg, "--sweep", "m"]) == 2
        assert time.perf_counter() - start < 1.0
        assert "ris.budget_dbm" in capsys.readouterr().err

    def test_budget_sweep_needs_values(self, tmp_path):
        cfg = write_config(tmp_path, TINY_LOS)
        assert cli.main(["sweep", "--config", cfg, "--sweep", "t"]) == 2

    def test_budget_sweep_runs(self, tmp_path):
        cfg = write_config(tmp_path, TINY_LOS)
        out = tmp_path / "rows.csv"
        assert cli.main(["sweep", "--config", cfg, "--sweep", "t",
                         "--values", "800,1600", "--methods", "mf,passive",
                         "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5  # header + 2 values x 2 methods


class TestOptimize:
    def test_prints_coefficients(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TINY)
        assert cli.main(["optimize", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "eta =" in out
        assert "phi[  0]" in out


# argv values: numbers of every size and sign, non-finite spellings and junk
FUZZ_VALUE = st.one_of(st.integers(-10**400, 10**400).map(str),
                       st.floats(allow_nan=True, allow_infinity=True).map(repr),
                       st.sampled_from(["0", "1", "-1", "0.5", "nan", "inf", "1e400", "abc", ""]),
                       st.text(max_size=4))
FUZZ_OPTIONS = {
    "threshold": ["-N", "-T", "--alpha", "--seed"],
    "optimize": ["--seed", "--method"],
    "simulate": ["--seed", "--method", "--format"],
    "sweep": ["--seed", "--format"],
    "budget": ["--seed", "--method", "--pd-target", "--stop-tol"],
}
FUZZ_METHOD = st.one_of(st.sampled_from(budget.METHODS), st.text(max_size=4))
# wmmse is left out: its planner branch solves up to 64 WMMSE problems per probe
FUZZ_PLANNER_METHODS = ("mf", "zf", "mmse", "passive", "passive-unit", "passive-relaxed")


@st.composite
def fuzz_argv(draw, config: str, sweep_config: str, m_config: str) -> list[str]:
    command = draw(st.sampled_from(sorted(FUZZ_OPTIONS)))
    argv = [command]
    sweep = draw(st.sampled_from(["m", "t", "zeta", "p", "k"])) if command == "sweep" else None
    if command != "threshold" or draw(st.booleans()):
        argv += ["--config", m_config if sweep == "m" else sweep_config if sweep else config]
    if command == "simulate" or sweep == "m":
        argv += ["--trials", "1"]
    if sweep == "m":
        argv += ["--sweep", "m"]
    elif sweep:
        values = ",".join(draw(st.lists(FUZZ_VALUE, min_size=1, max_size=2)))
        # mmse solves in the K-dimensional interferer space: a swept k of 1000 takes 30 s
        names = [m for m in FUZZ_PLANNER_METHODS if (sweep, m) != ("k", "mmse")]
        methods = draw(st.lists(st.one_of(st.sampled_from(names), st.text(max_size=4)),
                                min_size=1, max_size=3))
        argv += ["--sweep", sweep, f"--values={values}", f"--methods={','.join(methods)}"]
    for option in draw(st.lists(st.sampled_from(FUZZ_OPTIONS[command]), max_size=3,
                                unique=True)):
        value = draw(FUZZ_METHOD if option == "--method" else
                     st.sampled_from(["csv", "json", "xml"]) if option == "--format"
                     else FUZZ_VALUE)
        argv.append(f"{option}={value}")
    return argv


# scenario keys at magnitudes that overflow, underflow to zero, or exceed the planner
EXTREME_VALUES = {
    **{key: st.sampled_from([-4000, 4000]) for key in (
        "powers.p_dbm", "powers.sigma1_dbm", "powers.sigma2_dbm", "ris.p_c_dbm", "ris.p_dc_dbm",
        "ris.budget_dbm")},
    "ris.a_max": st.sampled_from([1e-300, 1e300]),
    "pathloss.wavelength": st.sampled_from([1e-300, 1e300]),
    "planner.p_high_w": st.sampled_from([1e-300, 1e20, 1e100, 1e300, 1e308]),
}
EXTREME_LOS = {"scenario": {"seed": 4, "channel_model": "los"},
               "geometry": {"interferers": 1}, "array": {"n_antennas": 8, "m_h": 4},
               "detector": {"t_samples": 400}, "planner": {"p_high_w": 0.01, "stop_tol": 1e-5}}
EXTREME_RAYLEIGH = {"scenario": {"seed": 4, "channel_model": "rayleigh"},
                    "geometry": {"interferers": 1}, "array": {"n_antennas": 4, "m_h": 3},
                    "detector": {"t_samples": 100}}
# (scenario, argv): the closed forms plan LoS channels, the iterative methods Rayleigh ones
EXTREME_COMMANDS = (
    [(EXTREME_LOS, ["simulate", "--trials", "1", "--method", "mf"]),
     (EXTREME_RAYLEIGH, ["simulate", "--trials", "1", "--method", "wmmse"])]
    + [(EXTREME_RAYLEIGH, ["optimize", "--method", m])
       for m in ("wmmse", "passive-unit", "passive-relaxed")]
    + [(EXTREME_LOS, ["budget", "--method", m]) for m in ("mf", "zf", "mmse", "passive")])


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Exit code and stderr of one in-process CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    return code, err.getvalue()


class TestCliFuzz:
    """Any argv ends in a documented exit code with a message, never a traceback."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_exit_code_is_documented(self, tmp_path, data):
        config = write_config(tmp_path, TINY_LOS)
        text = Path(config).read_text()
        # one interferer, so that zeta and p sweeps change the scenario
        sweep_config = tmp_path / "sweep.yaml"
        sweep_config.write_text(text.replace("interferers: 0", "interferers: 1"))
        # a budget that affords at most 3 active elements, for the element-count sweep
        m_config = tmp_path / "sweep_m.yaml"
        m_config.write_text(text.replace("a_max: 100}", "a_max: 100, budget_dbm: 2}"))
        argv = data.draw(fuzz_argv(config, str(sweep_config), str(m_config)))
        code, err = run_cli(argv)
        assert code in (0, 2, 3, 4), (argv, err)
        assert "Traceback" not in err

    @given(data=st.data())
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_extreme_magnitudes(self, tmp_path, data):
        base, argv = data.draw(st.sampled_from(EXTREME_COMMANDS))
        scenario = copy.deepcopy(base)
        for key in data.draw(st.lists(st.sampled_from(sorted(EXTREME_VALUES)), min_size=1,
                                      max_size=3, unique=True)):
            section, name = key.split(".")
            scenario.setdefault(section, {})[name] = data.draw(EXTREME_VALUES[key])
        body = yaml.safe_dump(scenario)
        code, err = run_cli(argv + ["--config", write_config(tmp_path, body)])
        assert code in (0, 2, 3, 4), (argv, body, err)
        assert "Traceback" not in err
