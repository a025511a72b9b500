"""The benchmark's checkers accept known-good outputs and reject perturbed ones.

Run from the repository root: python3 -m pytest perfbench -q
"""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import checks
import tracing
from risense import budget, channel, harness, optimizer, sensing

SCENARIOS = Path(checks.__file__).parent / "scenarios"


@pytest.fixture(scope="module")
def desk():
    sc = harness.load_scenario(str(SCENARIOS / "desk.yaml"))
    ch = channel.sample_rayleigh_channelset(sc, (5, 0))
    p_out = sc.power_model().p_out_budget(sc.ris_budget_w, sc.n_elements)
    res = optimizer.wmmse_active(ch, sc.sources(), sc.noise(), p_out, sc.a_max, max_iter=200)
    return sc, ch, p_out, res


@pytest.fixture(scope="module")
def plan():
    sc = harness.load_scenario(str(SCENARIOS / "los_budget.yaml"))
    return sc, budget.required_budget("mf", 0.9, sc)


def desk_args(sc):
    return sc.sources().p, sc.sources().zeta, sc.sigma1_sq_w


def test_excess_matches_closed_form_without_interference():
    rng = np.random.default_rng(1)

    class Channels:
        d = [rng.normal(size=4) + 1j * rng.normal(size=4)]
        f = [rng.normal(size=3) + 1j * rng.normal(size=3)]
        g_matrix = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))

    phi = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
    h0 = Channels.d[0] + Channels.g_matrix @ (phi * Channels.f[0])
    want = 2.0 * np.vdot(h0, h0).real / 0.5  # eta = p0 ||h0||^2 / sigma2^2
    got = checks.excess(Channels, phi, np.array([2.0]), np.array([1.0]), 0.0, 0.5)
    checks.check_close("eta", got, want, 1e-12)
    with pytest.raises(checks.CheckError):
        checks.check_close("eta", got * (1 + 1e-6), want, 1e-9)


def test_excess_agrees_with_population_eta(desk):
    sc, ch, _, res = desk
    p, zeta, s1 = desk_args(sc)
    eta = checks.excess(ch, res.rcm.phi, p, zeta, s1, sc.sigma2_sq_w)
    checks.check_close("eta", res.eta, eta, checks.ETA_RTOL)
    # the surface's forwarded noise matters: dropping it changes eta
    with pytest.raises(checks.CheckError):
        checks.check_close("eta", res.eta, checks.excess(ch, res.rcm.phi, p, zeta, 0.0,
                                                         sc.sigma2_sq_w), checks.ETA_RTOL)


def test_output_power_agrees_with_the_optimizer(desk):
    sc, ch, _, res = desk
    p, zeta, s1 = desk_args(sc)
    want = optimizer.ris_output_power(res.rcm.phi, ch, sc.sources(), sc.noise())
    checks.check_close("power", checks.output_power(ch, res.rcm.phi, p, zeta, s1), want, 1e-12)


def test_active_feasibility(desk):
    sc, ch, p_out, res = desk
    p, zeta, s1 = desk_args(sc)
    phi = res.rcm.phi
    checks.check_active_feasible(ch, phi, p, zeta, s1, p_out, sc.a_max)
    with pytest.raises(checks.CheckError, match="exceeds the cap"):
        checks.check_active_feasible(ch, phi, p, zeta, s1, math.inf,
                                     float(np.abs(phi).max()) * (1 - 1e-6))
    used = checks.output_power(ch, phi, p, zeta, s1)
    with pytest.raises(checks.CheckError, match="exceeds the budget"):
        checks.check_active_feasible(ch, phi, p, zeta, s1, used * (1 - 1e-6), sc.a_max)


def test_wmmse_beats_its_matched_filter_start(desk):
    sc, ch, p_out, res = desk
    p, zeta, s1 = desk_args(sc)
    start = optimizer.mf_init_phi(ch, sc.sources(), sc.noise(), p_out, sc.a_max)
    assert checks.excess(ch, res.rcm.phi, p, zeta, s1, sc.sigma2_sq_w) >= \
        checks.excess(ch, start, p, zeta, s1, sc.sigma2_sq_w)


def test_rate_bounds():
    checks.check_rate("Pfa", 100, 1000, 0.1, checks.PFA_MODEL_TOL)
    n = 1000
    edge = 0.1 + checks.PFA_MODEL_TOL + checks.binomial_halfwidth(0.1, n)
    checks.check_rate("Pfa", math.floor(edge * n), n, 0.1, checks.PFA_MODEL_TOL)
    with pytest.raises(checks.CheckError):
        checks.check_rate("Pfa", math.floor(edge * n) + 2, n, 0.1, checks.PFA_MODEL_TOL)
    with pytest.raises(checks.CheckError):
        checks.check_rate("Pd", 0, 200, 0.8, checks.PD_MODEL_TOL)


def test_spiked_pd_agrees_with_the_prediction():
    cfg = sensing.DetectorConfig(n_antennas=64, n_samples=6400, alpha=0.1)
    gamma = sensing.detection_threshold(cfg)
    for eta in (0.13, 0.5, 2.0):
        want = sensing.predicted_pd(sensing.spiked_stats_for(cfg, eta))
        checks.check_close("pd", checks.spiked_pd(eta, 64, 6400, gamma), want, 1e-12)
    with pytest.raises(checks.CheckError):
        checks.check_close("pd", checks.spiked_pd(0.131, 64, 6400, gamma),
                           sensing.predicted_pd(sensing.spiked_stats_for(cfg, 0.13)), 1e-6)
    with pytest.raises(checks.CheckError, match="below the transition"):
        checks.spiked_pd(0.05, 64, 6400, gamma)


def test_plan_bracket(plan):
    sc, res = plan
    args = (res.required_power, res.eta_star, res.eta_target, sc.stop_tol)
    checks.check_bracket(res.probes, *args)
    # a bracket left wider than stop_tol
    below = max(p for p, e in res.probes if e <= res.eta_target)
    with pytest.raises(checks.CheckError, match="wider than stop_tol"):
        checks.check_bracket([pe for pe in res.probes if pe[0] != below], *args)
    # a returned budget above the least probe that reaches eta0
    with pytest.raises(checks.CheckError, match="least probe"):
        checks.check_bracket(res.probes, res.required_power * 1.01, *args[1:])


def test_plan_reaches_eta0_by_the_checkers_eta(plan):
    sc, res = plan
    ch = channel.build_los_channelset(dataclasses.replace(sc, m_h=res.m_star, m_v=1))
    p, zeta = sc.sources().p, sc.sources().zeta
    eta = checks.excess(ch, res.phi_star.phi, p, zeta, sc.sigma1_sq_w, sc.sigma2_sq_w)
    checks.check_close("eta*", res.eta_star, eta, checks.ETA_RTOL)
    assert eta > res.eta_target
    # one element fewer at the same amplitude falls short of eta0
    short = checks.excess(dataclasses.replace(ch, g_matrix=ch.g_matrix[:, :-1],
                                              f=tuple(f[:-1] for f in ch.f)),
                          res.phi_star.phi[:-1], p, zeta, sc.sigma1_sq_w, sc.sigma2_sq_w)
    assert short < res.eta_target


def test_rebinder_reaches_every_binding_and_restores_it():
    orig = optimizer.wmmse_active
    rb = tracing.Rebinder()
    rb.replace("optimizer", "wmmse_active", lambda fn: lambda *a, **k: fn(*a, **k))
    assert optimizer.wmmse_active is not orig and budget.wmmse_active is optimizer.wmmse_active
    rb.undo()
    assert optimizer.wmmse_active is orig and budget.wmmse_active is orig


def test_tracer_counts_and_self_time(desk):
    sc, ch, p_out, _ = desk
    tracer = tracing.Tracer()
    assert tracer.install() == []
    try:
        res = budget.wmmse_active(ch, sc.sources(), sc.noise(), p_out, sc.a_max, max_iter=200)
        sensing.sample_signals(ch, res.rcm, sc.sources(), sc.noise(), "h1", 100, 3)
    finally:
        tracer.uninstall()
    assert budget.wmmse_active is optimizer.wmmse_active
    assert tracer.calls["optimizer.wmmse"] == 1
    assert tracer.extra["optimizer.wmmse.iters"] == tracing.wmmse_iterations(res)
    assert tracer.calls["optimizer.qcqp"] == tracing.wmmse_iterations(res)
    # N x T receiver noise, M x T surface noise and one row per active source
    k = sc.geometry.n_interferers
    assert tracer.extra["sensing.synthesize.variates"] == (32 * 100 + 16 * 100 + (k + 1) * 100)
    total = tracer.sp_end[0] - tracer.sp_start[0]
    inner = sum(v for layer, v in tracer.self_s.items() if layer.startswith("optimizer"))
    assert 0 < inner <= total * (1 + 1e-9)


def test_tracer_reports_every_per_layer_metric_of_the_spec():
    spec = json.loads((SCENARIOS.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert {m["name"] for m in spec["per_layer"]} <= set(tracer.metrics(1, 0.0))
