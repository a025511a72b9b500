import dataclasses
import math
import signal
from pathlib import Path

import numpy as np
import pytest

from conftest import make_noise, make_sources
from oracles import (big_d, c0, c2, eta_active_no_interference, eta_passive, optimal_amplitude,
                     optimal_m, passive_m_for_eta, q_gain, q_matrix, scan_per_probe_budget,
                     vector_excess, xi)
from risense import budget as bdg
from risense import channel as chan
from risense import sensing as sns
from risense.errors import ConfigError, InfeasibleError, NumericalError, RisenseError
from risense.harness import ScenarioConfig, _swept_scenario, load_scenario
from risense.optimizer import Rcm

LOS_BUDGET = Path(__file__).resolve().parents[1] / "configs" / "los_budget.yaml"
REFERENCE = dict(p_c=1e-4, p_dc=10 ** (-3.5), sigma1_sq=1e-11, sigma2_sq=1e-11, p0=1.0)


def make_ctx_and_channels(rng, n, m, k, beta_f=1.0, beta_g=1.0, sigma1_sq=0.01,
                          sigma2_sq=0.1, p=1.0, zeta=1.0, p_c=0.01, p_dc=0.02):
    """Matched (context, m-element LoS channel set) pair built from shared phase steps."""
    steps = np.column_stack([np.pi * np.sin(rng.uniform(-np.pi / 2, np.pi / 2, size=k + 1)),
                             np.zeros(k + 1)])
    a_f = tuple(chan.steering_vector_ula(m, step) for step in steps[:, 0])
    a_su = chan.steering_vector_ula(n, np.pi * np.sin(rng.uniform(-np.pi / 2, np.pi / 2)))
    b_g = chan.steering_vector_ula(m, np.pi * np.sin(rng.uniform(-np.pi / 2, np.pi / 2)))
    pv = np.full(k + 1, p)
    zv = np.full(k + 1, zeta)
    zv[0] = 1.0
    ctx = bdg.ClosedFormContext(n_antennas=n, beta_g=beta_g,
                                beta_f=np.full(k + 1, beta_f), p=pv, zeta=zv,
                                sigma1_sq=sigma1_sq, sigma2_sq=sigma2_sq,
                                p_c=p_c, p_dc=p_dc, steps=steps)
    f = tuple(np.sqrt(beta_f) * v for v in a_f)
    g = np.sqrt(beta_g) * np.outer(a_su, b_g.conj())
    d = tuple(np.zeros(n, dtype=complex) for _ in range(k + 1))
    gains = chan.LinkGains(beta_d=np.zeros(k + 1), beta_f=np.full(k + 1, beta_f),
                           beta_g=beta_g)
    cs = chan.ChannelSet(d=d, f=f, g_matrix=g, gains=gains,
                         los=chan.LosFactors(a_su=a_su, b_ris=b_g, a_f=a_f))
    return ctx, cs


def reference_ctx(n=64):
    """Interference-free context at the published constants (111.803 m / 403.1 m links)."""
    beta_f = chan.pathloss(0.12, np.hypot(100.0, 50.0), 2.0)
    beta_g = chan.pathloss(0.12, np.hypot(400.0, 50.0), 2.0)
    return bdg.ClosedFormContext(n_antennas=n, beta_g=beta_g,
                                 beta_f=np.array([beta_f]), p=np.array([REFERENCE["p0"]]),
                                 zeta=np.array([1.0]), sigma1_sq=REFERENCE["sigma1_sq"],
                                 sigma2_sq=REFERENCE["sigma2_sq"], p_c=REFERENCE["p_c"],
                                 p_dc=REFERENCE["p_dc"], steps=np.array([[0.3, 0.0]]))


class TestMfPhases:
    def test_identical_vectors_give_zero(self, rng):
        v = np.exp(1j * rng.uniform(-np.pi, np.pi, 6))
        assert np.allclose(bdg.mf_phases(v, v), 0.0)

    def test_coherent_sum(self, rng):
        b = np.exp(1j * rng.uniform(-np.pi, np.pi, 8))
        a = np.exp(1j * rng.uniform(-np.pi, np.pi, 8))
        theta = bdg.mf_phases(b, a)
        amps = rng.uniform(0.5, 2.0, 8)
        total = b.conj() @ (amps * np.exp(1j * theta) * a)
        assert total.imag == pytest.approx(0.0, abs=1e-12)
        assert total.real == pytest.approx(amps.sum(), rel=1e-12)

    def test_single_phase_perturbation_strictly_decreases(self, rng):
        b = np.exp(1j * rng.uniform(-np.pi, np.pi, 8))
        a = np.exp(1j * rng.uniform(-np.pi, np.pi, 8))
        theta = bdg.mf_phases(b, a)
        base = abs(b.conj() @ (np.exp(1j * theta) * a))
        for i in range(8):
            bumped = theta.copy()
            bumped[i] += 0.3
            assert abs(b.conj() @ (np.exp(1j * bumped) * a)) < base


class TestOptimalAmplitude:
    def test_reference_value_when_budget_term_negligible(self):
        ctx = reference_ctx()
        a0, a_opt = optimal_amplitude(ctx, p_aris=1e-3, a_max=1e6)
        assert c0(ctx) * 1e-3 < 0.01 * c2(ctx)  # the regime the value is quoted in
        assert 236.0 <= np.sqrt(a0) <= 241.0
        assert a_opt == pytest.approx(np.sqrt(a0))

    def test_cap_binds(self):
        ctx = reference_ctx()
        _, a_opt = optimal_amplitude(ctx, p_aris=1e-3, a_max=1.0)
        assert a_opt == 1.0

    def test_first_order_optimality(self):
        ctx = reference_ctx()
        p = 0.01
        a0, _ = optimal_amplitude(ctx, p, a_max=1e9)

        def denom(a_sq):  # objective denominator after dividing through by A
            return ctx.c1**2 / a_sq + c2(ctx) * (c2(ctx) + c0(ctx) * p) * a_sq

        h = a0 * 1e-6
        deriv = (denom(a0 + h) - denom(a0 - h)) / (2 * h)
        assert abs(deriv) < 1e-8 * denom(a0) / a0


class TestOptimalM:
    def test_full_budget_identity(self):
        ctx = reference_ctx()
        p = 0.01
        _, a_opt = optimal_amplitude(ctx, p, a_max=10.0)
        res = optimal_m(ctx, p, a_opt, a_max=10.0)
        assert res.m_opt * (ctx.c1 + c2(ctx) * a_opt**2) == pytest.approx(p, rel=1e-9)

    def test_recovery_beats_rejected_neighbor(self):
        ctx = reference_ctx()
        p = 0.01
        a0, a_opt = optimal_amplitude(ctx, p, a_max=10.0)
        assert a_opt == 10.0  # sqrt(A0) ~ 236 so the cap binds
        res = optimal_m(ctx, p, a_opt, a_max=10.0)
        m0 = math.floor(res.m_opt)
        cand = {m0: min(10.0, xi(ctx, p, m0)),
                m0 + 1: min(10.0, xi(ctx, p, m0 + 1))}
        rejected = [m for m in cand if m != res.m_bar][0]
        assert q_gain(ctx, res.m_bar, res.a_bar) >= q_gain(
            ctx, rejected, cand[rejected])

    def test_recovery_matches_exhaustive_scan(self, rng):
        for _ in range(100):
            ctx = reference_ctx()
            object.__setattr__(ctx, "sigma1_sq", 10 ** rng.uniform(-12, -10))
            p = 10 ** rng.uniform(-3, -1)
            a_max = 10 ** rng.uniform(0.5, 2.5)
            _, a_opt = optimal_amplitude(ctx, p, a_max)
            try:
                res = optimal_m(ctx, p, a_opt, a_max)
            except InfeasibleError:
                assert p <= ctx.c1
                continue
            best_q = -1.0
            for m in range(1, bdg.RisPowerModel(ctx.p_c, ctx.p_dc).m_max(p) + 1):
                a = min(a_max, xi(ctx, p, m))
                best_q = max(best_q, q_gain(ctx, m, a))
            got_q = q_gain(ctx, res.m_bar, res.a_bar)
            assert got_q == pytest.approx(best_q, rel=1e-9)


class TestEtaClosedForms:
    def test_passive_limit_of_active_form(self):
        ctx = reference_ctx()
        object.__setattr__(ctx, "sigma1_sq", 0.0)
        eta = eta_active_no_interference(ctx, 64, 10, 3.0)
        expected = 9.0 * eta_passive(64, 10, ctx.beta_f[0], ctx.beta_g, 1.0,
                                         ctx.sigma2_sq)
        assert eta == pytest.approx(expected, rel=1e-12)

    def test_amplitude_scaling_without_forwarded_noise(self):
        ctx = reference_ctx()
        object.__setattr__(ctx, "sigma1_sq", 0.0)
        assert eta_active_no_interference(ctx, 64, 10, 2.0) == pytest.approx(
            4 * eta_active_no_interference(ctx, 64, 10, 1.0), rel=1e-12)

    def test_active_form_matches_population_eta(self, rng):
        n, m, a = 8, 4, 2.0
        ctx, cs = make_ctx_and_channels(rng, n, m, k=0)
        phi = a * np.exp(1j * bdg.mf_phases(cs.los.b_ris, cs.los.a_f[0]))
        rcm = Rcm(phi=phi, mode="active", a_max=np.inf)
        eta_pop = sns.population_eta(cs, rcm, make_sources(0), make_noise(0.01, 0.1))
        eta_cf = eta_active_no_interference(ctx, n, m, a)
        assert eta_cf == pytest.approx(eta_pop, rel=1e-10)

    def test_passive_count_and_scaling(self):
        model = bdg.RisPowerModel(p_c=1e-4, p_dc=10 ** (-3.5))
        assert model.passive_m(0.01) == 100  # 10 dBm budget, -10 dBm circuits
        eta1 = eta_passive(8, 8, 0.5, 0.8, 1.0, 0.1)
        eta2 = eta_passive(8, 16, 0.5, 0.8, 1.0, 0.1)
        assert eta2 == pytest.approx(4 * eta1, rel=1e-12)

    def test_passive_form_matches_population_eta(self, rng):
        n, m = 8, 16
        ctx, cs = make_ctx_and_channels(rng, n, m, k=0, sigma1_sq=0.0)
        phi = np.exp(1j * bdg.mf_phases(cs.los.b_ris, cs.los.a_f[0]))
        rcm = Rcm(phi=phi, mode="passive-unit", a_max=1.0)
        eta_pop = sns.population_eta(cs, rcm, make_sources(0), make_noise(0.0, 0.1))
        assert eta_passive(n, m, 1.0, 1.0, 1.0, 0.1) == pytest.approx(eta_pop, rel=1e-10)

    def test_passive_m_for_eta_inverts(self):
        args = (8, 0.5, 0.8, 1.0, 0.1)
        eta = eta_passive(8, 13, *args[1:])
        assert passive_m_for_eta(eta, *args) == 13
        assert passive_m_for_eta(eta * 1.01, *args) == 14

    def test_both_passive_forms_agree(self):
        # NM^2 form vs budget form with P = M p_c
        model = bdg.RisPowerModel(p_c=2e-4, p_dc=0.0)
        m = 50
        p_pris = m * model.p_c
        direct = eta_passive(8, m, 0.5, 0.8, 1.0, 0.1)
        via_budget = 8 * p_pris**2 * 0.5 * 0.8 * 1.0 / (model.p_c**2 * 0.1)
        assert direct == pytest.approx(via_budget, rel=1e-12)


class TestMmse:
    def test_reduces_to_mf_direction_without_interferers(self, rng):
        ctx, cs = make_ctx_and_channels(rng, 8, 4, k=0)
        sol = bdg.mmse_phi(ctx, cs.los, a_max=np.inf, p_out=3.0 * ctx.p_in_bar)
        mf = bdg.mf_phi(ctx, cs.los, a_max=1.0, p_out=ctx.p_in_bar * 4.0)
        rel = sol.phi / mf.phi
        assert np.max(np.abs(rel - rel[0])) < 1e-10  # same direction

    def test_dual_numerical_paths_agree(self, rng):
        ctx, cs = make_ctx_and_channels(rng, 8, 5, k=2, zeta=0.7)
        p_out = 2.5 * ctx.p_in_bar
        rho1 = p_out / ctx.p_in_bar  # 2.5 to rounding
        sol = bdg.mmse_phi(ctx, cs.los, np.inf, p_out)
        b = cs.los.b_ris
        a_mat = np.eye(5, dtype=complex) / rho1 + ctx.n_antennas * ctx.beta_g * (
            b.conj()[:, None] * big_d(ctx, cs) * b[None, :])
        q0 = q_matrix(cs)[:, 0]
        eta_inv = ctx.n_antennas * ctx.beta_g * ctx.p[0] / ctx.sigma2_sq * np.real(
            q0.conj() @ np.linalg.inv(a_mat) @ q0)
        assert sol.eta == pytest.approx(eta_inv, rel=1e-10)

    def test_scaled_solution_achieves_closed_form_eta(self, rng):
        # the second surface has a silent interferer, which the Woodbury solve leaves out
        for zeta in (1.0, (1.0, 0.0, 1.0)):
            ctx, cs = make_ctx_and_channels(rng, 8, 5, k=2, zeta=zeta)
            sol = bdg.mmse_phi(ctx, cs.los, np.inf, 2.5 * ctx.p_in_bar)
            rcm = Rcm(phi=sol.phi, mode="active", a_max=np.inf)
            src = make_sources(2, zeta=zeta)
            eta_pop = sns.population_eta(cs, rcm, src, make_noise(0.01, 0.1))
            assert eta_pop == pytest.approx(sol.eta, rel=1e-10)

    def test_dominates_mf_and_zf(self, rng):
        for _ in range(100):
            k = int(rng.integers(1, 4))
            m = int(rng.integers(k + 1, k + 6))
            ctx, cs = make_ctx_and_channels(rng, 8, m, k=k, zeta=float(rng.uniform(0.2, 1.0)))
            p_out = float(10 ** rng.uniform(-1, 1))
            a_max = float(10 ** rng.uniform(-0.5, 1.0))
            eta_mmse = bdg.mmse_phi(ctx, cs.los, a_max, p_out).eta
            eta_mf = bdg.mf_phi(ctx, cs.los, a_max, p_out).eta
            eta_zf = bdg.zf_phi(ctx, cs.los, a_max, p_out).eta
            assert eta_mmse >= max(eta_mf, eta_zf) * (1 - 1e-10)


class TestZf:
    def test_reduces_to_mf_direction_when_alone(self, rng):
        ctx, cs = make_ctx_and_channels(rng, 8, 4, k=0)
        zf = bdg.zf_phi(ctx, cs.los, a_max=1.0, p_out=2.0)
        mf = bdg.mf_phi(ctx, cs.los, a_max=1.0, p_out=2.0)
        rel = zf.phi / mf.phi
        assert np.max(np.abs(rel - rel[0])) < 1e-10

    def test_interferer_directions_nulled(self, rng):
        ctx, cs = make_ctx_and_channels(rng, 8, 4, k=1)
        zf = bdg.zf_phi(ctx, cs.los, a_max=2.0, p_out=1.0)
        q1 = q_matrix(cs)[:, 1]
        # the working vector of the derivation is conj(diag(Phi))
        assert abs(q1.conj() @ zf.phi.conj()) <= 1e-10 * np.linalg.norm(q1) * np.linalg.norm(zf.phi)
        # physically: the interferer's surface path vanishes
        h1 = cs.g_matrix @ (zf.phi * cs.f[1])
        assert np.linalg.norm(h1) <= 1e-10 * np.linalg.norm(cs.g_matrix @ (zf.phi * cs.f[0]))

    def test_two_eta_forms_agree(self, rng):
        for _ in range(20):
            k = int(rng.integers(1, 4))
            m = k + int(rng.integers(1, 5))
            ctx, cs = make_ctx_and_channels(rng, 8, m, k=k, zeta=float(rng.uniform(0.3, 1.0)))
            p_out = float(10 ** rng.uniform(-1, 1))
            zf = bdg.zf_phi(ctx, cs.los, a_max=3.0, p_out=p_out)
            q = q_matrix(cs)
            q0, q_bar = q[:, 0], q[:, 1:]
            proj = np.eye(m, dtype=complex) - q_bar @ np.linalg.solve(
                q_bar.conj().T @ q_bar, q_bar.conj().T)
            rho = float(np.real(np.vdot(zf.phi, zf.phi)))  # ||phi||^2 = rho2
            second = (ctx.n_antennas * ctx.beta_g * rho * ctx.p[0]
                      / (ctx.sigma2_sq + ctx.n_antennas * ctx.beta_g * rho * ctx.sigma1_sq)
                      * np.real(q0.conj() @ proj @ q0))
            assert zf.eta == pytest.approx(second, rel=1e-9)

    def test_eta_matches_population(self, rng):
        ctx, cs = make_ctx_and_channels(rng, 8, 5, k=2)
        zf = bdg.zf_phi(ctx, cs.los, a_max=2.0, p_out=1.0)
        rcm = Rcm(phi=zf.phi, mode="active", a_max=np.inf)
        eta_pop = sns.population_eta(cs, rcm, make_sources(2), make_noise(0.01, 0.1))
        assert zf.eta == pytest.approx(eta_pop, rel=1e-10)

    def test_rank_error_when_m_too_small(self, rng):
        ctx, cs = make_ctx_and_channels(rng, 8, 2, k=2)
        with pytest.raises(ValueError):
            bdg.zf_phi(ctx, cs.los, a_max=1.0, p_out=1.0)


class TestMf:
    def test_amplitudes_uniform(self, rng):
        ctx, cs = make_ctx_and_channels(rng, 8, 4, k=1)
        sol = bdg.mf_phi(ctx, cs.los, a_max=0.7, p_out=100.0)
        assert np.allclose(np.abs(sol.phi), 0.7)

    def test_silent_interferers_collapse_to_interference_free_form(self, rng):
        ctx, cs = make_ctx_and_channels(rng, 8, 4, k=2, zeta=0.0)
        sol = bdg.mf_phi(ctx, cs.los, a_max=1.5, p_out=0.5)
        a = float(np.abs(sol.phi[0]))  # the common amplitude
        eta_cf = eta_active_no_interference(ctx, 8, 4, a)
        assert sol.eta == pytest.approx(eta_cf, rel=1e-12)

    def test_eta_matches_population(self, rng):
        ctx, cs = make_ctx_and_channels(rng, 8, 4, k=1, zeta=0.6)
        sol = bdg.mf_phi(ctx, cs.los, a_max=1.2, p_out=0.8)
        rcm = Rcm(phi=sol.phi, mode="active", a_max=np.inf)
        src = make_sources(1, zeta=0.6)
        eta_pop = sns.population_eta(cs, rcm, src, make_noise(0.01, 0.1))
        assert sol.eta == pytest.approx(eta_pop, rel=1e-9)


class TestMMax:
    def test_reference_budget(self):
        assert bdg.RisPowerModel(1e-4, 10 ** (-3.5)).m_max(0.01) == 24

    def test_below_single_element(self):
        assert bdg.RisPowerModel(1e-4, 10 ** (-3.5)).m_max(1e-5) == 0

    def test_doubling(self):
        for p in [0.003, 0.01, 0.02]:
            model = bdg.RisPowerModel(1e-4, 1e-4)
            assert model.m_max(2 * p) >= 2 * model.m_max(p) - 1


def budget_scenario(k=0, **kw):
    if k == 0:
        geom = chan.Geometry()
    else:
        geom = chan.Geometry(interferer_pos=chan.draw_interferer_positions(
            (100.0, 50.0), k, 50.0, 60.0, seed=5))
    defaults = dict(n_antennas=16, m_h=4, m_v=1, geometry=geom,
                    p_w=tuple(1.0 for _ in range(k + 1)),
                    zeta=tuple(1.0 for _ in range(k + 1)),
                    t_samples=1600, alpha=0.1, channel_model="los",
                    a_max=1e4, bisect_p_high=0.1)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


class TestRequiredBudget:
    def test_mf_matches_continuous_inversion_oracle(self):
        # small per-element power keeps the optimal count high, so the
        # integer restriction costs less than the bisection tolerance
        sc = budget_scenario(k=0, p_c_w=1e-6, p_dc_w=1e-6, stop_tol=1e-6)
        res = bdg.required_budget("mf", 0.9, sc)
        eta0 = res.eta_target
        ctx = bdg.ClosedFormContext.from_scenario(sc)

        def eta_cf(p):
            _, a_opt = optimal_amplitude(ctx, p, sc.a_max)
            m_opt = p / (ctx.c1 + c2(ctx) * a_opt**2)
            return eta_active_no_interference(ctx, sc.n_antennas, m_opt, a_opt)

        from scipy.optimize import brentq
        p_cf = brentq(lambda p: eta_cf(p) - eta0, 1e-8, 0.1, xtol=1e-12)
        assert abs(res.required_power - p_cf) <= 2 * sc.stop_tol
        assert res.eta_star >= eta0

    def test_higher_target_needs_more_power(self):
        sc = budget_scenario(k=0)
        lo = bdg.required_budget("mf", 0.9, sc)
        hi = bdg.required_budget("mf", 0.99, sc)
        assert hi.required_power >= lo.required_power

    def test_zf_rank_floor(self):
        sc = budget_scenario(k=5, bisect_p_high=0.5)
        res = bdg.required_budget("zf", 0.9, sc)
        assert res.required_power >= 6 * (sc.p_c_w + sc.p_dc_w)
        assert res.m_star >= 6

    def test_infeasible_reports(self):
        sc = budget_scenario(k=5, bisect_p_high=1e-3)  # below the ZF floor
        with pytest.raises(InfeasibleError):
            bdg.required_budget("zf", 0.9, sc)

    def test_result_feasible_and_on_target(self):
        sc = budget_scenario(k=1)
        for method in ("mf", "mmse", "passive"):
            res = bdg.required_budget(method, 0.9, sc)
            assert res.eta_star >= res.eta_target
            probes = np.array(res.probes)
            assert np.all(np.diff(probes[:, 1]) >= -1e-9 * probes[:, 1].max())

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            bdg.required_budget("best", 0.9, budget_scenario())

    def test_stop_tol_below_the_float_spacing_ends(self):
        # the bisection stops once its midpoint equals an endpoint
        def give_up(signum, frame):
            raise TimeoutError("the bisection did not stop")

        previous = signal.signal(signal.SIGALRM, give_up)
        signal.alarm(30)
        try:
            res = bdg.required_budget("mf", 0.9, budget_scenario(k=1, stop_tol=1e-300))
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        below = max(p for p, eta in res.probes if eta <= res.eta_target)
        assert np.nextafter(below, np.inf) == res.required_power
        assert res.eta_star > res.eta_target

    @pytest.mark.parametrize("method", ["mf", "passive"])
    def test_a_ceiling_near_the_float_maximum_is_a_config_error(self, method):
        # p_high / (p_c + p_dc) overflows to inf before it is rounded to a count
        with pytest.raises(ConfigError, match="affords inf elements"):
            bdg.required_budget(method, 0.9, budget_scenario(bisect_p_high=1e308))

    def test_amplitude_caps_converge_under_strong_interference(self):
        # with weak interference a larger cap saves real power; once the
        # incident power dominates, the optimal amplitude falls below both
        # caps and the required budgets coincide
        sc = budget_scenario(k=2, a_max=10.0, bisect_p_high=0.5, stop_tol=1e-6)

        def budgets_at(pk):
            out = []
            for a_max in (10.0, 100.0):
                sc_a = dataclasses.replace(sc, p_w=(1.0, pk, pk), a_max=a_max)
                out.append(bdg.required_budget("mf", 0.9, sc_a).required_power)
            return out

        weak = budgets_at(1.0)
        strong = budgets_at(64.0)
        assert weak[0] > weak[1] * 1.5  # caps matter when interference is weak
        assert abs(strong[0] - strong[1]) <= 2 * sc.stop_tol  # and wash out


class TestInterferenceFreePlans:
    """With no interferer the planner's element counts are the paper's closed forms."""

    @staticmethod
    def random_scenario(rng):
        return budget_scenario(
            k=0, n_antennas=int(rng.integers(8, 65)), t_samples=6400,
            p_c_w=10 ** rng.uniform(-5, -3.5), p_dc_w=10 ** rng.uniform(-5, -3.5),
            sigma1_sq_w=10 ** rng.uniform(-12, -10), sigma2_sq_w=10 ** rng.uniform(-12, -10),
            a_max=10 ** rng.uniform(0, 3), bisect_p_high=1.0, stop_tol=1e-7)

    def test_mf_count_is_the_integer_optimum(self, rng):
        checked = 0
        for _ in range(12):
            sc = self.random_scenario(rng)
            res = bdg.required_budget("mf", 0.9, sc)
            ctx = bdg.ClosedFormContext.from_scenario(sc)
            _, a_opt = optimal_amplitude(ctx, res.required_power, sc.a_max)
            want = optimal_m(ctx, res.required_power, a_opt, sc.a_max).m_bar
            if want <= bdg.EXACT_SCAN_CAP:  # the ladder scans every count up to here
                assert res.m_star == want
                checked += 1
        assert checked >= 6

    def test_passive_count_inverts_the_excess(self, rng):
        for _ in range(12):
            sc = self.random_scenario(rng)
            res = bdg.required_budget("passive", 0.9, sc)
            gains = chan.link_gains(sc.geometry, sc.pathloss)
            assert res.m_star == passive_m_for_eta(res.eta_target, sc.n_antennas,
                                                   gains.beta_f[0], gains.beta_g, sc.p_w[0],
                                                   sc.sigma2_sq_w)


def assert_same_bytes(got, want) -> None:
    """Dataclasses field by field, arrays compared on their bytes."""
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), field.name
        else:
            assert a == b, field.name


class TestContextPrefix:
    """One count-free context serves every whole-column prefix of the surface."""

    @pytest.mark.parametrize("m_v", [1, 2])
    def test_prefix_equals_a_fresh_context(self, m_v):
        # the horizontal index is the outer one of the planar steering vectors,
        # so the first m entries of the top count's factors are the m-element
        # factors, bit for bit: the kernels of one context describe every count
        sc = budget_scenario(k=3, m_h=8, m_v=m_v)
        ladder = bdg._m_ladder(1500, m_v=m_v)
        assert all(m % m_v == 0 for m in ladder)
        top = chan.steering_factors(sc, ladder[-1] // m_v, m_v)
        for m in ladder:
            fresh = chan.steering_factors(sc, m // m_v, m_v)
            assert_same_bytes(chan.LosFactors(top.a_su, top.b_ris[:m], top.a_f[:, :m]), fresh)
            assert_same_bytes(bdg.ClosedFormContext.from_scenario(
                dataclasses.replace(sc, m_h=m // m_v)), bdg.ClosedFormContext.from_scenario(sc))

    def test_prefix_needs_whole_columns_within_the_context(self):
        sc = budget_scenario(k=1, m_h=4, m_v=2)
        for m in (0, 3, 7):
            with pytest.raises(ValueError):
                bdg.coefficients("mf", sc, m, 1.0)

    def test_ladder_at_one_row_is_unchanged(self):
        ladder = bdg._m_ladder(2000)
        assert ladder[:256] == list(range(1, 257))
        assert ladder[256:259] == [269, 282, 296]
        assert bdg._m_ladder(2000, m_v=2)[:3] == [2, 4, 6]


def kernel_scenario(m_v: int) -> ScenarioConfig:
    """configs/los_budget.yaml with m_v rows, interferers on and 1e-9 rad off the primary's azimuth."""
    sc = load_scenario(str(LOS_BUDGET))
    ris = np.asarray(sc.geometry.ris_pos)
    az0 = np.arctan2(*(np.asarray(sc.geometry.pu_pos) - ris)[::-1])
    near = tuple(ris + 55.0 * np.array([np.cos(az0 + 1e-9), np.sin(az0 + 1e-9)]))
    pos = sc.geometry.interferer_pos[:3] + ((50.0, 25.0), near)
    return dataclasses.replace(sc, geometry=dataclasses.replace(sc.geometry, interferer_pos=pos),
                               m_v=m_v)


class TestKernelGram:
    """The array-factor kernels against the steering vectors they replace."""

    @pytest.mark.parametrize("m_v", [1, 2, 3])
    def test_matches_the_dense_gram(self, m_v):
        sc = kernel_scenario(m_v)
        one = bdg.ClosedFormContext.from_scenario(sc)
        assert np.all(one.steps[4] == one.steps[0])  # delta = 0
        assert 1e-10 < abs(one.steps[5, 0] - one.steps[0, 0]) < 1e-8
        for m in (m_v, 16 * m_v, 255 * m_v, 4096 * m_v, 24025 // m_v * m_v):
            q = q_matrix(chan.build_los_channelset(dataclasses.replace(sc, m_h=m // m_v)))
            dense = q.conj().T @ q
            # relative to the Gram's scale: the dense sums round at that scale too
            scale = np.sqrt(np.outer(dense.diagonal().real, dense.diagonal().real))
            assert np.all(np.abs(one.gram([m])[0] - dense) <= 1e-12 * scale), m

    def test_dirichlet_is_exact_at_zero_and_stable_near_it(self):
        assert bdg.dirichlet(24025, 0.0) == 24025.0
        n, delta = 24025, np.array([1e-15, 1e-12, 1e-9])
        series = n * (1 - (n * n - 1) * delta**2 / 24)  # sin(n x) / sin(x) to O(x^2), x = delta/2
        assert np.allclose(bdg.dirichlet(n, delta), series, rtol=1e-14, atol=0)

    def test_excesses_match_the_vector_forms(self):
        sc = load_scenario(str(LOS_BUDGET))
        one = bdg.ClosedFormContext.from_scenario(sc)
        unit = dataclasses.replace(one, sigma1_sq=0.0)
        ms = np.array([16, 109, 256, 1000, 4096])
        passive = bdg.passive_mf_eta(unit, ms)
        for m, eta in zip(ms.tolist(), passive):
            channels = chan.build_los_channelset(dataclasses.replace(sc, m_h=m))
            assert eta == pytest.approx(
                vector_excess("passive", unit, channels, sc.a_max, 0.0), rel=4e-15)
            for method in bdg.CLOSED_FORMS:
                terms = bdg._kernel_terms(method, one, [m], sc.a_max).read(0)
                got = bdg._excess(method, one, m, terms, 1e-3 * m / one.p_in_bar, sc.a_max)[0]
                want = vector_excess(method, one, channels, sc.a_max, 1e-3 * m)
                assert got == pytest.approx(want, rel=1e-12), (method, m)


class TestPlannerContexts:
    def test_no_steering_array_above_m_star(self, monkeypatch):
        # the kernels decide: steering arrays are built only where coefficients
        # are emitted, once per plan at m_star (zf forms its vector w from the
        # phase steps, not from these)
        arrays = []
        steering_factors = chan.steering_factors
        monkeypatch.setattr(chan, "steering_factors", lambda sc, m_h, m_v: (
            arrays.append(m_h * m_v), steering_factors(sc, m_h, m_v))[1])
        sc = load_scenario(str(LOS_BUDGET))
        for method in ("mf", "mmse", "zf", "passive"):
            arrays.clear()
            res = bdg.required_budget(method, sc.pd_target, sc)
            assert max(arrays) <= res.m_star, (method, arrays)
            assert len(arrays) == 1, (method, arrays)  # p_top only

    def test_a_plan_evaluates_gains_and_phase_steps_once(self, monkeypatch):
        # once, when the scenario is built (the phase steps with its geometry): a plan,
        # its context and its emission read them and evaluate neither
        sc = load_scenario(str(LOS_BUDGET))
        calls = []
        link_gains, geometry_init = chan.link_gains, chan.Geometry.__post_init__
        monkeypatch.setattr(chan, "link_gains",
                            lambda *a: (calls.append("gains"), link_gains(*a))[1])
        monkeypatch.setattr(chan.Geometry, "__post_init__",
                            lambda self: (calls.append("steps"), geometry_init(self))[1])
        for method in ("mf", "mmse", "zf", "passive"):
            bdg.required_budget(method, sc.pd_target, sc)
        assert calls == []
        dataclasses.replace(sc, geometry=dataclasses.replace(sc.geometry))
        assert calls == ["steps", "gains"]  # a built scenario evaluates each once

    @pytest.mark.parametrize("method", ["mf", "zf", "mmse", "passive"])
    def test_two_row_surface_plans_whole_columns(self, method):
        sc = dataclasses.replace(load_scenario(str(LOS_BUDGET)), m_v=2)
        res = bdg.required_budget(method, sc.pd_target, sc)
        assert res.m_star % 2 == 0
        p_out = sc.power_model().p_out_budget(res.required_power, res.m_star)
        # no ctx: coefficients builds the scenario's context and factors at m_star
        assert res.eta_star == bdg.coefficients(method, sc, res.m_star, p_out).eta
        # the planner's excess is the excess its coefficients achieve
        channels = chan.build_los_channelset(dataclasses.replace(sc, m_h=res.m_star // 2))
        eta_pop = sns.population_eta(channels, res.phi_star, sc.sources(), sc.noise())
        assert res.eta_star == pytest.approx(eta_pop, rel=1e-10)

    def test_wmmse_fallback_builds_the_planar_array(self):
        sc = budget_scenario(k=1, m_h=4, m_v=2, a_max=10.0)
        planar = chan.build_los_channelset(sc)
        p_out = 1e-3
        alone = bdg.coefficients("wmmse", sc, 8, p_out, max_iter=20)
        given = bdg.coefficients("wmmse", sc, 8, p_out, planar, max_iter=20)
        assert alone.eta == given.eta
        with pytest.raises(ValueError, match="not divisible"):
            bdg.coefficients("wmmse", sc, 7, p_out, max_iter=20)


def plan_outcome(plan, method: str, pd_target: float, sc) -> tuple[tuple, int]:
    """A plan's result fields as bytes, or its exception type and message; and its scan count."""
    try:
        res = plan(method, pd_target, sc)
    except RisenseError as exc:
        return (type(exc).__name__, str(exc)), 0
    rcm = res.phi_star
    return (res.required_power.hex(), res.m_star, res.eta_star.hex(), rcm.phi.tobytes(),
            rcm.mode, rcm.a_max, rcm.p_out_budget, res.note), len(res.probes)


def oracle_grid():
    """Scenarios over K, m_v, a_max (caps that bind), stop_tol, Pd and p_high."""
    rng = np.random.default_rng(7)
    for i in range(30):
        k = int(rng.choice([0, 1, 2, 5]))
        geom = chan.Geometry() if k == 0 else chan.Geometry(
            interferer_pos=chan.draw_interferer_positions((100.0, 50.0), k, 5.0, 60.0,
                                                          seed=i))
        stop_tol = float(rng.choice([1e-6, 1e-9, 1e-300]))
        sc = budget_scenario(
            k, geometry=geom, m_v=int(rng.choice([1, 2])),
            a_max=float(rng.choice([0.3, 1.0, 10.0, 1e4])),
            p_w=(1.0,) + tuple(10 ** rng.uniform(-2, 2, size=k)),
            zeta=(1.0,) + tuple(rng.choice([0.0, 0.5, 1.0], size=k)),
            p_c_w=10 ** rng.uniform(-4.5, -3), p_dc_w=10 ** rng.uniform(-4.5, -3),
            sigma1_sq_w=10 ** rng.uniform(-13, -9), sigma2_sq_w=10 ** rng.uniform(-12, -10),
            stop_tol=stop_tol, bisect_p_high=float(rng.choice([0.01, 0.1, 1.0])))
        yield sc, float(rng.choice([0.6, 0.9, 0.99]))
    # an interferer on the primary's line of sight: zero-forcing is degenerate
    yield budget_scenario(1, geometry=chan.Geometry(interferer_pos=((50.0, 25.0),))), 0.9


class TestPlannerInversion:
    """The inverted closed-form plans equal a scan of every count at every probe."""

    def test_bit_for_bit_with_the_scanning_bisection(self):
        kinds = set()
        for sc, pd_target in oracle_grid():
            for method in bdg.CLOSED_FORMS:
                want, scanned = plan_outcome(scan_per_probe_budget, method, pd_target, sc)
                got, inverted = plan_outcome(bdg.required_budget, method, pd_target, sc)
                assert got == want, (method, pd_target, sc)
                # the inversion decided probes: no rerun with a scan at every probe
                assert inverted < scanned or not scanned, (method, pd_target, sc)
                kinds.add(want[0] if len(want) == 2 else "plan")
        assert kinds == {"plan", "InfeasibleError", "NumericalError"}

    def test_passive_bit_for_bit_with_the_running_max_scan(self):
        # interferers at 1e6 W: the passive excess falls at some counts below m_1 = 810
        strong = dataclasses.replace(load_scenario(str(LOS_BUDGET)), bisect_p_high=0.1,
                                     p_w=(1.0,) + (1e6,) * 5)
        # a coarse stop_tol lets the returned budget afford counts past m_1; too
        # small a ceiling makes the infeasible message report the running max
        strong_cells = [(strong, 0.9), (dataclasses.replace(strong, stop_tol=0.01), 0.9),
                        (dataclasses.replace(strong, bisect_p_high=0.05), 0.9)]
        checked = 0
        for sc, pd_target in [*oracle_grid(), *strong_cells]:
            if sc.power_model().passive_m(sc.bisect_p_high) > 4096:
                continue
            want, _ = plan_outcome(scan_per_probe_budget, "passive", pd_target, sc)
            got, _ = plan_outcome(bdg.required_budget, "passive", pd_target, sc)
            assert got == want, (pd_target, sc)
            checked += 1
        assert checked >= 10

    def test_passive_probes_in_the_guard_band_are_scanned(self):
        # stop_tol = 1e-300 runs the bisection down to the float spacing of the budget,
        # so its last probes fall within INVERSION_GUARD of p* = m_1 p_c
        sc = dataclasses.replace(load_scenario(str(LOS_BUDGET)), stop_tol=1e-300,
                                 bisect_p_high=0.05)
        res = bdg.required_budget("passive", sc.pd_target, sc)
        m_1 = sc.power_model().passive_m(res.required_power)
        assert m_1 == res.m_star  # the returned budget affords m_1 and no more
        p_star = m_1 * sc.power_model().p_c
        assert len(res.probes) > 2  # more than the two end scans
        assert all(abs(p - p_star) <= bdg.INVERSION_GUARD * p_star for p, _ in res.probes)
        want = scan_per_probe_budget("passive", sc.pd_target, sc)
        assert (res.required_power.hex(), res.m_star, res.eta_star.hex(),
                res.phi_star.phi.tobytes()) == (want.required_power.hex(), want.m_star,
                                                want.eta_star.hex(), want.phi_star.phi.tobytes())

    def test_an_end_scan_against_the_inversion_is_a_numerical_error(self, monkeypatch):
        sc = load_scenario(str(LOS_BUDGET))
        plan = bdg.required_budget("mf", sc.pd_target, sc)
        least = bdg._least_budget_at

        def low_at_m_star(method, ctx, m, terms, eta0, a_max):  # p* 0.1% low, from one count
            p_m = least(method, ctx, m, terms, eta0, a_max)
            return p_m * (1 - 1e-3) if m == plan.m_star else p_m

        monkeypatch.setattr(bdg, "_least_budget_at", low_at_m_star)
        with pytest.raises(NumericalError, match=r"contradict the inverted budget p\* = \S+ W: "
                                                 r"p_low = \S+ W, p_top = \S+ W"):
            bdg.required_budget("mf", sc.pd_target, sc)

    def test_a_count_that_cannot_be_inverted_is_a_numerical_error(self, monkeypatch):
        sc = load_scenario(str(LOS_BUDGET))
        counts = []
        least = bdg._least_budget_at

        def recording(method, ctx, m, terms, eta0, a_max):
            counts.append(m)
            return least(method, ctx, m, terms, eta0, a_max)

        monkeypatch.setattr(bdg, "_least_budget_at", recording)
        monkeypatch.setattr(bdg, "brentq", lambda *args, **kwargs: math.nan)
        with pytest.raises(NumericalError) as err:
            bdg.required_budget("mmse", sc.pd_target, sc)
        assert f"mmse: the excess at M = {counts[-1]} cannot be inverted" in str(err.value)

    def test_a_plan_makes_a_tenth_of_the_scanning_calls(self, monkeypatch):
        # scanning every count at every probe made 2,634 closed-form calls
        # per mf or mmse plan on this config (2,574 per zf plan)
        calls = []
        for name in ("mf_phi", "zf_phi", "mmse_phi"):
            solve = getattr(bdg, name)
            monkeypatch.setattr(bdg, name, lambda *a, _solve=solve, **kw: (
                calls.append(1), _solve(*a, **kw))[1])
        sc = load_scenario(str(LOS_BUDGET))
        for method in bdg.CLOSED_FORMS:
            calls.clear()
            bdg.required_budget(method, sc.pd_target, sc)
            assert 0 < len(calls) < 263, method

    def test_the_returned_budget_is_a_probe_with_its_excess(self):
        # the one emission at p_top records its excess there, as the benchmark's
        # bracket check reads it
        plans = 0
        for sc, pd_target in oracle_grid():
            for method in (*bdg.CLOSED_FORMS, "passive"):
                try:
                    res = bdg.required_budget(method, pd_target, sc)
                except RisenseError:
                    continue
                assert (res.required_power, res.eta_star) in set(res.probes), (method, sc)
                plans += 1
        assert plans >= 60


def same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestCountBlocks:
    """A plan evaluates its counts in blocks; each count as if it were alone."""

    def test_a_block_equals_its_counts_alone(self):
        # K = 20 is where a strided dot once rounded differently from a unit-stride one
        los = load_scenario(str(LOS_BUDGET))
        cells = [sc for sc, _ in oracle_grid()] + [
            dataclasses.replace(sc, m_v=m_v) for sc in (los, _swept_scenario(los, "k", 20))
            for m_v in (1, 2)]
        for sc in cells:
            ctx = bdg.ClosedFormContext.from_scenario(sc)
            ladder = np.array(bdg._m_ladder(8000, m_v=sc.m_v))
            for block in (ladder[:16], ladder[-16:]):
                # power ratios on both sides of every amplitude cap, and the cap itself
                ratios = [block * sc.a_max**2 * np.geomspace(lo, 1e2 * lo, len(block))
                          for lo in np.geomspace(1e-5, 1e3, 5)] + [np.full(len(block), np.inf)]
                for method in bdg.CLOSED_FORMS:
                    whole = bdg._kernel_terms(method, ctx, block, sc.a_max)
                    for i, m in enumerate(block.tolist()):
                        if i in whole.errors:
                            alone = bdg._kernel_terms(method, ctx, [m], sc.a_max)
                            assert repr(alone.errors[0]) == repr(whole.errors[i]), (method, m)
                    # the planner reads runs of counts without errors as slices of a block
                    good = [i for i in range(len(block)) if i not in whole.errors]
                    for run in np.split(good, np.flatnonzero(np.diff(good) != 1) + 1):
                        if run.size:
                            self.check_run(method, ctx, sc.a_max, block, whole, ratios,
                                           slice(run[0], run[-1] + 1))

    @staticmethod
    def check_run(method, ctx, a_max, block, whole, ratios, run):
        counts = block[run].tolist()
        alone = [bdg._kernel_terms(method, ctx, [m], a_max).read(0) for m in counts]
        for i, m, terms in zip(range(run.start, run.stop), counts, alone):
            assert all(map(same_bytes, terms, whole.read(i))), (method, m)
        for ratio in ratios:
            etas = bdg._excess(method, ctx, block[run], whole.read(run), ratio[run], a_max)[0]
            for m, terms, r, eta in zip(counts, alone, ratio[run], etas):
                assert same_bytes(bdg._excess(method, ctx, m, terms, r, a_max)[0], eta), \
                    (method, m, r)

    def test_an_error_stays_with_its_count(self):
        # 20 interferers: zero-forcing needs 21 elements, and its Gram is
        # ill-conditioned from 21 to 59 elements and well-conditioned above
        sc = _swept_scenario(load_scenario(str(LOS_BUDGET)), "k", 20)
        ctx = bdg.ClosedFormContext.from_scenario(sc)
        block = bdg._kernel_terms("zf", ctx, np.arange(17, 65), sc.a_max)  # raises nothing
        for i in range(4):
            with pytest.raises(ConfigError, match=f"K\\+1 = 21 elements, got M = {17 + i}$"):
                block.read(i)
        for i in range(4, 43):
            with pytest.raises(NumericalError, match="ill-conditioned Gram"):
                block.read(i)
        assert all(np.all(np.isfinite(t)) for t in block.read(slice(43, 48)))
        with pytest.raises(NumericalError):  # a span raises the error of a count in it
            block.read(slice(40, 48))

    def test_an_error_at_a_count_never_read_does_not_abort_the_plan(self, monkeypatch):
        sc = load_scenario(str(LOS_BUDGET))
        want = bdg.required_budget("zf", sc.pd_target, sc)
        kernel_terms = bdg._kernel_terms

        def failing(above):
            def terms(method, ctx, ms, a_max):
                got = kernel_terms(method, ctx, ms, a_max)
                bad = {i: NumericalError(f"count {m}")
                       for i, m in enumerate(np.asarray(ms).tolist()) if m > above}
                return got._replace(errors={**bad, **got.errors})
            return terms

        monkeypatch.setattr(bdg, "_kernel_terms", failing(want.m_star))
        got = bdg.required_budget("zf", sc.pd_target, sc)
        assert (got.required_power, got.m_star, got.eta_star) == \
            (want.required_power, want.m_star, want.eta_star)
        monkeypatch.setattr(bdg, "_kernel_terms", failing(want.m_star - 1))
        with pytest.raises(NumericalError, match=f"^count {want.m_star}$"):
            bdg.required_budget("zf", sc.pd_target, sc)

    def test_blocks_stay_within_the_entry_cap(self, monkeypatch):
        # 400 interferers: one (401 x 401) Gram per block; 0.01 W affords 24 elements
        sc = dataclasses.replace(_swept_scenario(load_scenario(str(LOS_BUDGET)), "k", 400),
                                 bisect_p_high=0.01)
        entries = []
        gram = bdg.ClosedFormContext.gram
        monkeypatch.setattr(bdg.ClosedFormContext, "gram", lambda self, ms: (
            entries.append(np.size(ms) * len(self.beta_f) ** 2), gram(self, ms))[1])
        with pytest.raises(InfeasibleError, match="unreachable with budget 0.01 W"):
            bdg.required_budget("mmse", 0.9, sc)
        assert len(entries) >= 24 and max(entries) <= bdg.BLOCK_ENTRIES
