import textwrap
from pathlib import Path

import pytest

from risense import budget, channel, cli


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


class TestExitCodes:
    def test_bad_config_file(self):
        assert cli.main(["simulate", "--config", "/does/not/exist.yaml"]) == 2

    def test_invalid_yaml_key(self, tmp_path):
        cfg = write_config(tmp_path, "detector: {bogus: 1}\n")
        assert cli.main(["simulate", "--config", cfg]) == 2

    def test_reversed_annulus(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "geometry: {interferers: 2, annulus: [60, 50]}\n")
        assert cli.main(["simulate", "--config", cfg]) == 2
        assert "configuration error: geometry.annulus" in capsys.readouterr().err

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


class TestGoldenRows:
    """Planner rows on configs/los_budget.yaml, pinned to their bytes."""

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
