import dataclasses
import json
import textwrap
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import reference_detection_mc
from risense import budget as bdg
from risense import cli
from risense import harness as hns
from risense import optimizer as opt
from risense.errors import ConfigError


class TestUnits:
    @pytest.mark.parametrize("dbm,watts", [(-80, 1e-11), (-10, 1e-4),
                                           (-5, 10 ** (-3.5)), (10, 0.01), (30, 1.0)])
    def test_dbm_anchors(self, dbm, watts):
        assert hns.dbm_to_watts(dbm) == pytest.approx(watts, rel=1e-12)

    @pytest.mark.parametrize("dbm", [-80.0, -10.0, -5.0, 10.0, 30.0, 17.3])
    def test_round_trip(self, dbm):
        assert hns.watts_to_dbm(hns.dbm_to_watts(dbm)) == pytest.approx(dbm, rel=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            hns.watts_to_dbm(0.0)


class TestLoadScenario:
    def test_full_scale_defaults(self, tmp_path):
        path = tmp_path / "sc.yaml"
        path.write_text(textwrap.dedent("""
            scenario: {seed: 3, full_scale: true}
            geometry: {interferers: 5}
        """))
        sc = hns.load_scenario(str(path))
        assert sc.n_antennas == 64
        assert sc.t_samples == 6400
        assert sc.alpha == 0.1
        assert sc.geometry.n_interferers == 5
        assert sc.p_w == tuple([1.0] * 6)  # 30 dBm everywhere
        assert sc.trials == 500  # default trial count
        assert sc.sigma1_sq_w == pytest.approx(1e-11)

    def test_shipped_configs_load(self):
        for name in ("configs/desk.yaml", "configs/full_scale.yaml",
                     "configs/los_budget.yaml"):
            sc = hns.load_scenario(name)
            assert sc.n_antennas in (32, 64)

    def test_negative_samples_rejected(self, tmp_path):
        path = tmp_path / "sc.yaml"
        path.write_text("detector: {t_samples: -5}\ngeometry: {interferers: 0}\n")
        with pytest.raises(ConfigError):
            hns.load_scenario(str(path))

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "sc.yaml"
        path.write_text("detector: {t_sample: 100}\n")
        with pytest.raises(ConfigError, match="t_sample"):
            hns.load_scenario(str(path))

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "sc.yaml"
        path.write_text("detectors: {}\n")
        with pytest.raises(ConfigError, match="detectors"):
            hns.load_scenario(str(path))

    def test_explicit_interferer_positions(self, tmp_path):
        path = tmp_path / "sc.yaml"
        path.write_text(textwrap.dedent("""
            geometry:
              interferers: [[120, 60], [80, 90]]
            powers: {p_dbm: [30, 20, 10]}
        """))
        sc = hns.load_scenario(str(path))
        assert sc.geometry.interferer_pos == ((120.0, 60.0), (80.0, 90.0))
        assert sc.p_w == pytest.approx((1.0, 0.1, 0.01))

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            hns.load_scenario("/nonexistent/sc.yaml")

    @pytest.mark.parametrize("annulus", ["[60, 50]", "[-10, 50]", "[50]", "fifty"])
    def test_bad_annulus_rejected(self, tmp_path, annulus):
        path = tmp_path / "sc.yaml"
        path.write_text(f"geometry: {{interferers: 2, annulus: {annulus}}}\n")
        with pytest.raises(ConfigError, match="annulus"):
            hns.load_scenario(str(path))

    @pytest.mark.parametrize("section, key, value", [
        ("scenario", "seed", "abc"), ("detector", "t_samples", "abc"), ("ris", "a_max", "abc"),
        ("geometry", "pu", "abc"), ("scenario", "trials", "true"), ("powers", "zeta", "[1, x]")])
    def test_non_numeric_value_names_its_key(self, tmp_path, section, key, value):
        path = tmp_path / "sc.yaml"
        path.write_text(f"{section}: {{{key}: {value}}}\n")
        with pytest.raises(ConfigError, match=rf"^{section}\.{key} must be"):
            hns.load_scenario(str(path))

    @pytest.mark.parametrize("body, match", [
        ("powers: {sigma1_dbm: 1.0e+308}", r"^powers\.sigma1_dbm = 1e\+308 dBm"),
        ("powers: {p_dbm: [30, 1.0e+308, 0, 0, 0, 0]}", r"^powers\.p_dbm = 1e\+308 dBm"),
        ("geometry: {pu: [1.0e+308, 0], su: [-1.0e+308, 0]}", "pu-su distance is inf"),
        ("geometry: {annulus: [0, 1.0e+200]}", r"^geometry\.annulus"),
        ("powers: {zeta: 0.5}", "zeta = 1 for the primary"),
        ("powers: {zeta: [1, 2, 1, 1, 1, 1]}", r"zeta must lie in \[0, 1\]")])
    def test_out_of_range_value_rejected(self, tmp_path, body, match):
        path = tmp_path / "sc.yaml"
        path.write_text(body + "\n")
        with pytest.raises(ConfigError, match=match):
            hns.load_scenario(str(path))

    def test_negative_seed_rejected(self, tmp_path):
        path = tmp_path / "sc.yaml"
        path.write_text("scenario: {seed: -1}\n")
        with pytest.raises(ConfigError, match="seed"):
            hns.load_scenario(str(path))
        with pytest.raises(ConfigError, match="seed"):
            tiny_scenario(seed=-1)

    @pytest.mark.parametrize("interferers", ["true", "2.5", "-1", "[[1, 2, 3]]"])
    def test_bad_interferers_rejected(self, tmp_path, interferers):
        path = tmp_path / "sc.yaml"
        path.write_text(f"geometry: {{interferers: {interferers}}}\n")
        with pytest.raises(ConfigError, match="interferers"):
            hns.load_scenario(str(path))


LOADER_KEYS = {
    "scenario": ("seed", "trials", "full_scale", "channel_model", "method"),
    "geometry": ("pu", "ris", "su", "annulus", "interferers"),
    "pathloss": ("wavelength", "alpha_direct", "alpha_incident", "alpha_outgoing"),
    "array": ("n_antennas", "m_h", "m_v"),
    "powers": ("p_dbm", "zeta", "sigma1_dbm", "sigma2_dbm"),
    "ris": ("p_c_dbm", "p_dc_dbm", "a_max", "budget_dbm"),
    "detector": ("t_samples", "alpha", "pd_target"),
    "planner": ("stop_tol", "p_high_w"),
}
# ints stay small: an interferer count is drawn at load time
FUZZ_SCALARS = st.one_of(st.integers(-3, 40), st.floats(), st.text(max_size=4),
                         st.booleans(), st.none())
FUZZ_VALUES = st.one_of(FUZZ_SCALARS, st.lists(FUZZ_SCALARS, max_size=3))
FUZZ_ENTRIES = st.lists(st.tuples(st.sampled_from([(s, k) for s, keys in LOADER_KEYS.items()
                                                   for k in keys]), FUZZ_VALUES), max_size=6)


class TestLoaderFuzz:
    @given(entries=FUZZ_ENTRIES)
    @settings(max_examples=150, deadline=None)
    def test_returns_a_scenario_or_raises_config_error(self, tmp_path_factory, entries):
        doc: dict = {}
        for (section, key), value in entries:
            doc.setdefault(section, {})[key] = value
        path = tmp_path_factory.mktemp("fuzz") / "sc.yaml"
        path.write_text(yaml.safe_dump(doc))
        try:
            sc = hns.load_scenario(str(path))
        except ConfigError:
            return
        assert isinstance(sc, hns.ScenarioConfig)


def tiny_scenario(**kw):
    defaults = dict(n_antennas=8, m_h=3, m_v=1, geometry=hns.chan.Geometry(),
                    p_w=(1.0,), zeta=(1.0,), t_samples=400, trials=40, seed=9,
                    sigma1_sq_w=1e-11, sigma2_sq_w=1e-11, channel_model="rayleigh",
                    method="wmmse", ris_budget_w=0.01)
    defaults.update(kw)
    return hns.ScenarioConfig(**defaults)


class TestRunDetectionMc:
    def test_h0_rate_near_alpha(self):
        sc = tiny_scenario(trials=200)
        rcm = opt.Rcm(phi=np.zeros(3), mode="active", a_max=10.0, p_out_budget=1.0)
        res = hns.run_detection_mc(sc, rcm=rcm, hypothesis="h0")
        assert abs(res.rate - sc.alpha) < 0.09

    def test_h1_with_silent_primary_matches_alpha(self):
        sc = tiny_scenario(trials=200, p_w=(0.0,))
        rcm = opt.Rcm(phi=np.zeros(3), mode="active", a_max=10.0, p_out_budget=1.0)
        res = hns.run_detection_mc(sc, rcm=rcm, hypothesis="h1")
        assert abs(res.rate - sc.alpha) < 0.09

    def test_deterministic(self):
        sc = tiny_scenario(trials=25)
        a = hns.run_detection_mc(sc, hypothesis="h1")
        b = hns.run_detection_mc(sc, hypothesis="h1")
        assert a == b

    def test_closed_form_methods_need_los(self):
        sc = tiny_scenario(method="mf")
        with pytest.raises(ConfigError):
            hns.run_detection_mc(sc, hypothesis="h1", trials=2)


# compact geometries at alpha 0.3: both rates land strictly inside (0, 1)
FUSED_CASES = {
    "rayleigh-wmmse": """
        scenario: {seed: 6, trials: 8, channel_model: rayleigh, method: wmmse}
        geometry: {pu: [0, 0], ris: [30, 15], su: [150, 0], interferers: 1, annulus: [15, 18]}
        array: {n_antennas: 8, m_h: 3}
        detector: {t_samples: 200, alpha: 0.3}
    """,
    "los-mf": """
        scenario: {seed: 4, trials: 8, channel_model: los, method: mf}
        geometry: {pu: [0, 0], ris: [30, 15], su: [600, 0], interferers: 2, annulus: [15, 18]}
        array: {n_antennas: 16, m_h: 4}
        detector: {t_samples: 1600, alpha: 0.3}
    """,
}


def simulate_rcm(sc, channels):
    """The coefficients simulate computes for a scenario on these channels."""
    m = channels.n_elements
    p_out = sc.power_model().p_out_budget(sc.ris_budget_w, m)
    return bdg.coefficients(sc.method, sc, m, p_out, channels).rcm


class TestSharedTrials:
    """The fused loop reproduces independent per-hypothesis runs exactly."""

    @pytest.mark.parametrize("case", sorted(FUSED_CASES))
    def test_simulate_matches_reference_loop(self, tmp_path, capsys, case):
        path = tmp_path / "sc.yaml"
        path.write_text(textwrap.dedent(FUSED_CASES[case]))
        sc = hns.load_scenario(str(path))
        pd_ref, eta_ref, pd_pred_ref = reference_detection_mc(sc, "h1", simulate_rcm)
        pfa_ref, eta_ref0, pd_pred_ref0 = reference_detection_mc(sc, "h0", simulate_rcm)
        assert (eta_ref0, pd_pred_ref0) == (eta_ref, pd_pred_ref)
        h1, h0 = hns.run_hypotheses_mc(sc)
        assert 0 < pfa_ref < pd_ref < 1
        assert (h1.rate, h0.rate) == (pd_ref, pfa_ref)
        for res in (h1, h0):
            assert (res.mean_eta, res.mean_pd_pred) == (eta_ref, pd_pred_ref)
        assert hns.run_detection_mc(sc, hypothesis="h0") == h0
        assert hns.run_detection_mc(sc, hypothesis="h1") == h1
        assert cli.main(["simulate", "--config", str(path), "--format", "json"]) == 0
        row = json.loads(capsys.readouterr().out)[0]
        assert row == hns.ResultRow(experiment="simulate", method=sc.method, pd_emp=pd_ref,
                                    pfa_emp=pfa_ref, pd_pred=pd_pred_ref, eta=eta_ref,
                                    trials=sc.trials, seed=sc.seed).quantized()

    def test_unknown_hypothesis_rejected(self):
        with pytest.raises(ValueError):
            hns.run_hypotheses_mc(tiny_scenario(), ("h2",), trials=1)


class TestOneMethodTable:
    """simulate and the budget planner design the same surface at the same (m, p_out)."""

    @pytest.mark.parametrize("method", ["mf", "zf", "mmse", "passive"])
    def test_simulate_uses_the_planned_coefficients(self, monkeypatch, method):
        geom = hns.chan.Geometry(interferer_pos=hns.chan.draw_interferer_positions(
            (100.0, 50.0), 2, 50.0, 60.0, 4))
        sc = hns.ScenarioConfig(n_antennas=16, m_h=4, geometry=geom, p_w=(1.0,) * 3,
                                zeta=(1.0,) * 3, t_samples=1600, trials=1,
                                channel_model="los", bisect_p_high=0.1, stop_tol=1e-4)
        plan = bdg.required_budget(method, 0.9, sc)
        used = []

        def covariance(channels, rcm, sources, noise):
            used.append(rcm)
            return noise_covariance(channels, rcm, sources, noise)

        noise_covariance = hns.sns.noise_covariance
        monkeypatch.setattr(hns.sns, "noise_covariance", covariance)
        hns.run_detection_mc(dataclasses.replace(sc, m_h=plan.m_star, method=method,
                                                 ris_budget_w=plan.required_power))
        assert len(used) == 1
        assert used[0].mode == plan.phi_star.mode
        assert np.array_equal(used[0].phi, plan.phi_star.phi)


class TestResultRows:
    def test_quantized_has_stable_columns(self):
        row = hns.ResultRow(experiment="x", method="mf", pd_emp=0.123456789123,
                            trials=10, seed=1)
        d = row.quantized()
        assert tuple(d.keys()) == hns.RESULT_COLUMNS
        assert d["pd_emp"] == 0.123456789

    def test_csv_header_only_for_empty_rows(self):
        text = hns.render_results([], "csv")
        assert text == ",".join(hns.RESULT_COLUMNS) + "\n"

    def test_json_round_trip(self):
        rows = [hns.ResultRow(experiment="e", sweep_name="t", sweep_value=1.0,
                              method="mf", pd_emp=1 / 3, eta=123.4567891234,
                              trials=5, seed=2)]
        text = hns.render_results(rows, "json")
        assert json.loads(text) == [r.quantized() for r in rows]

    def test_determinism_bytes(self, tmp_path):
        rows = [hns.ResultRow(experiment="e", method="mf", pd_emp=0.5, trials=1, seed=0)]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        hns.emit_results(rows, str(p1), "csv")
        hns.emit_results(rows, str(p2), "csv")
        assert p1.read_bytes() == p2.read_bytes()

    def test_unknown_format_rejected(self):
        with pytest.raises(ConfigError):
            hns.render_results([], "xml")


class TestSweeps:
    def test_m_sweep_rows(self):
        sc = tiny_scenario(trials=6, t_samples=200, ris_budget_w=2e-3)
        rows = hns.run_m_sweep(sc)
        wmmse_rows = [r for r in rows if r.experiment == "m_sweep" and r.method == "wmmse"]
        assert len(wmmse_rows) == 4  # m_max(2 mW) = 4
        assert all(0.0 <= r.pd_emp <= 1.0 for r in wmmse_rows)
        passive = [r for r in rows if r.method == "passive"]
        assert len(passive) == 1 and passive[0].sweep_value == 20  # 2 mW / 0.1 mW
        summary = [r for r in rows if r.experiment == "m_sweep_summary"]
        assert len(summary) == 1 and "unimodal=" in summary[0].note

    def test_budget_sweep_records_infeasible_cells(self):
        geom = hns.chan.Geometry(interferer_pos=hns.chan.draw_interferer_positions(
            (100.0, 50.0), 5, 50.0, 60.0, 1))
        sc = hns.ScenarioConfig(n_antennas=16, m_h=4, geometry=geom,
                                p_w=tuple([1.0] * 6), zeta=tuple([1.0] * 6),
                                t_samples=1600, channel_model="los",
                                bisect_p_high=1e-3, stop_tol=1e-5)
        # 1 mW sits below the zero-forcing rank floor of 6 (p_c + p_dc) ~ 2.5 mW
        rows = hns.run_budget_sweep(sc, "t", [1600], ["zf"])
        assert rows[0].status == "infeasible"
        assert rows[0].required_budget_w is None
        assert "unreachable" in rows[0].note
        # a generous ceiling makes the passive cell feasible; sweep carries on
        sc2 = dataclasses.replace(sc, bisect_p_high=0.5)
        rows2 = hns.run_budget_sweep(sc2, "t", [1600], ["passive"])
        assert rows2[0].status == "ok"
        assert rows2[0].required_budget_w > 0

    def test_budget_sweep_t_trend(self):
        sc = hns.ScenarioConfig(n_antennas=16, m_h=4, geometry=hns.chan.Geometry(),
                                p_w=(1.0,), zeta=(1.0,), t_samples=1600,
                                channel_model="los", a_max=100.0,
                                bisect_p_high=0.1, stop_tol=1e-6)
        rows = hns.run_budget_sweep(sc, "t", [800, 3200], ["mf"])
        assert rows[0].required_budget_w > rows[1].required_budget_w

    def test_m_sweep_larger_amplitude_cap_helps(self):
        # compact geometry puts the operating point in the resolvable Pd range
        geom = hns.chan.Geometry(
            pu_pos=(0.0, 0.0), ris_pos=(30.0, 15.0), su_pos=(150.0, 0.0),
            interferer_pos=hns.chan.draw_interferer_positions((30.0, 15.0), 1,
                                                              15.0, 18.0, 3))
        max_pd = []
        for a_max in (1.0, 8.0):
            sc = hns.ScenarioConfig(n_antennas=8, m_h=3, geometry=geom,
                                    p_w=(1.0, 1.0), zeta=(1.0, 1.0), t_samples=800,
                                    trials=40, seed=5, channel_model="rayleigh",
                                    a_max=a_max, ris_budget_w=2e-3)
            rows = hns.run_m_sweep(sc)
            pds = [r.pd_emp for r in rows
                   if r.experiment == "m_sweep" and r.method == "wmmse"]
            assert all(0.0 <= p <= 1.0 for p in pds)
            max_pd.append(max(pds))
        assert max_pd[1] >= max_pd[0]

    def test_mc_detection_matches_spiked_prediction(self):
        # fixed LoS channels, fixed coefficients: the population excess is a
        # single number and the Gaussian prediction must track the trials
        geom = hns.chan.Geometry(pu_pos=(0.0, 0.0), ris_pos=(30.0, 15.0),
                                 su_pos=(150.0, 0.0))
        sc = hns.ScenarioConfig(n_antennas=16, m_h=4, geometry=geom, p_w=(1.0,),
                                zeta=(1.0,), t_samples=1600, trials=400, seed=8,
                                channel_model="los", a_max=10.0, method="mf",
                                ris_budget_w=0.01)
        res = hns.run_detection_mc(sc, hypothesis="h1")
        assert res.mean_eta > 3 * np.sqrt(sc.n_antennas / sc.t_samples)
        assert abs(res.rate - res.mean_pd_pred) <= 0.03

    def test_k_sweep_rebuilds_geometry(self):
        sc = tiny_scenario(channel_model="los", a_max=100.0, bisect_p_high=0.1)
        swept = hns._swept_scenario(sc, "k", 3)
        assert swept.geometry.n_interferers == 3
        assert len(swept.p_w) == 4
        assert len(swept.zeta) == 4

    def test_k_sweep_draws_on_the_configured_annulus(self, tmp_path):
        path = tmp_path / "sc.yaml"
        text = Path("configs/los_budget.yaml").read_text()
        path.write_text(text.replace("annulus: [50, 60]", "annulus: [200, 210]"))
        sc = hns.load_scenario(str(path))
        assert sc.annulus == (200.0, 210.0)
        swept = hns._swept_scenario(sc, "k", 4)
        offsets = np.array(swept.geometry.interferer_pos) - np.array(sc.geometry.ris_pos)
        radii = np.hypot(offsets[:, 0], offsets[:, 1])
        assert len(radii) == 4 and np.all((radii >= 200.0) & (radii <= 210.0))

    def test_scenario_rejects_a_bad_annulus(self):
        for annulus in ((60.0, 50.0), (-1.0, 5.0), (5.0, float("inf"))):
            with pytest.raises(ConfigError, match="annulus"):
                tiny_scenario(annulus=annulus)

    def test_bad_sweep_name(self):
        with pytest.raises(ConfigError):
            hns.run_budget_sweep(tiny_scenario(), "q", [1], ["mf"])
