import numpy as np
import pytest
from scipy.optimize import minimize

from conftest import make_noise, make_sources
from oracles import (batch_population_eta, kkt_residual, loop_channels, loop_covariance,
                     loop_mse, loop_power_weights, loop_qcqp, make_los_channelset,
                     make_random_channelset, phase_grid_search, polar_grid_search,
                     project_feasible, solve_p22_pg)
from risense import optimizer as opt
from risense import sensing as sns
from risense.budget import eta_active_no_interference, eta_passive
from risense.errors import InfeasibleError


def build_instance(rng, n=4, m=3, k=1, p_out=2.0, a_max=1.5, direct=True, zeta=0.8):
    ch = make_random_channelset(rng, n=n, m=m, k=k, direct=direct)
    src, noise = make_sources(k, zeta=zeta), make_noise()
    rcm = opt.Rcm(phi=np.zeros(m), mode="active", a_max=a_max, p_out_budget=p_out)
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    inst = opt.build_qcqp(u, ch, src, noise, rcm)
    return inst, (ch, src, noise, rcm, u)


class TestMseEpsilon:
    def test_zero_receiver_gives_primary_power(self, rng):
        ch = make_random_channelset(rng, n=4, m=3, k=1)
        src, noise = make_sources(1, p0=2.5), make_noise()
        rcm = opt.Rcm(phi=rng.standard_normal(3) * 1j, mode="active", a_max=np.inf)
        eps = opt.mse_epsilon(np.zeros(4, dtype=complex), rcm, ch, src, noise)
        assert eps == pytest.approx(2.5)

    def test_optimal_receiver_closed_form(self, rng):
        # eps(u_opt) = p0 / (1 + eta); with p0 = 1 also 1 - h0^H (R + h0 h0^H)^-1 h0
        ch = make_random_channelset(rng, n=4, m=3, k=1)
        src, noise = make_sources(1), make_noise()
        rcm = opt.Rcm(phi=0.3 * (rng.standard_normal(3) + 1j * rng.standard_normal(3)),
                      mode="active", a_max=np.inf)
        u = opt.update_u(rcm, ch, src, noise)
        eps = opt.mse_epsilon(u, rcm, ch, src, noise)
        eta = sns.population_eta(ch, rcm, src, noise)
        assert eps == pytest.approx(src.p[0] / (1 + eta), rel=1e-10)
        r = sns.noise_covariance(ch, rcm, src, noise)
        h0 = sns.equivalent_channels(ch, rcm.phi)[0]
        direct = 1 - np.real(h0.conj() @ np.linalg.solve(r + np.outer(h0, h0.conj()), h0))
        assert eps == pytest.approx(direct, rel=1e-10)

    def test_phase_sensitivity(self, rng):
        ch = make_random_channelset(rng, n=4, m=3, k=0)
        src, noise = make_sources(0), make_noise()
        rcm = opt.Rcm(phi=np.zeros(3), mode="active", a_max=np.inf)
        u = opt.update_u(rcm, ch, src, noise)
        base = opt.mse_epsilon(u, rcm, ch, src, noise)
        rotated = opt.mse_epsilon(u * np.exp(0.5j), rcm, ch, src, noise)
        assert rotated > base


class TestUpdateU:
    def test_no_ris_no_interferers_sherman_morrison(self, rng):
        ch = make_random_channelset(rng, n=4, m=3, k=0)
        src, noise = make_sources(0), make_noise()  # p0 = 1
        rcm = opt.Rcm(phi=np.zeros(3), mode="active", a_max=np.inf)
        u = opt.update_u(rcm, ch, src, noise)
        d0 = ch.d[0]
        expected = d0 / (np.linalg.norm(d0) ** 2 + noise.sigma2_sq)
        assert np.allclose(u, expected, rtol=1e-12)

    def test_first_order_stationarity_general_p0(self, rng):
        ch = make_random_channelset(rng, n=4, m=3, k=1)
        src, noise = make_sources(1, p0=3.7), make_noise()
        rcm = opt.Rcm(phi=0.4 * (rng.standard_normal(3) + 1j * rng.standard_normal(3)),
                      mode="active", a_max=np.inf)
        u = opt.update_u(rcm, ch, src, noise)
        eps0 = opt.mse_epsilon(u, rcm, ch, src, noise)
        g = np.zeros(8)
        step = 1e-6
        for i in range(8):
            du = np.zeros(8)
            du[i] = step
            pert = u + du[:4] + 1j * du[4:]
            g[i] = (opt.mse_epsilon(pert, rcm, ch, src, noise) - eps0) / step
        assert np.max(np.abs(g)) < 1e-4 * max(1.0, eps0)

    def test_matches_numerical_minimizer(self, rng):
        ch = make_random_channelset(rng, n=4, m=3, k=1)
        src, noise = make_sources(1), make_noise()
        rcm = opt.Rcm(phi=0.2 * (rng.standard_normal(3) + 1j * rng.standard_normal(3)),
                      mode="active", a_max=np.inf)
        u_star = opt.update_u(rcm, ch, src, noise)

        def f(x):
            return opt.mse_epsilon(x[:4] + 1j * x[4:], rcm, ch, src, noise)

        res = minimize(f, np.zeros(8), method="BFGS", options={"gtol": 1e-12})
        u_num = res.x[:4] + 1j * res.x[4:]
        assert np.max(np.abs(u_num - u_star)) < 1e-6


class TestUpdateOmega:
    def test_values(self):
        assert opt.update_omega(1.0) == 1.0
        assert opt.update_omega(0.25) == 4.0

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            opt.update_omega(0.0)

    def test_grid_optimality(self):
        eps = 0.37
        w_star = opt.update_omega(eps)
        best = w_star * eps - np.log(w_star)
        for w in np.linspace(0.1, 20, 300):
            assert best <= w * eps - np.log(w) + 1e-12


class TestSolveP22:
    def test_interior_optimum_is_regularized_least_squares(self, rng):
        inst, _ = build_instance(rng, p_out=1e6, a_max=1e6)
        s, g, _ = inst.reduced()
        phi_bar = opt.solve_p22(inst)
        expected = np.linalg.solve(s, -g)
        assert np.max(np.abs(phi_bar[:-1] - expected)) < 1e-8
        assert phi_bar[-1] == 1.0

    def test_power_only_active_isotropic_weights(self, rng):
        inst, _ = build_instance(rng, p_out=0.05, a_max=1e6)
        j = np.full(inst.m, inst.j_diag[0])
        object.__setattr__(inst, "j_diag", np.append(j, 0.0))
        phi = opt.solve_p22(inst)[:-1]
        # dual-bisection oracle prediction: constraint tight
        assert np.linalg.norm(phi) ** 2 == pytest.approx(0.05 / j[0], rel=1e-9)

    def test_kkt_residual_small(self, rng):
        for pout, amax in [(0.05, 1e6), (1e6, 0.2), (0.08, 0.35), (1e6, 1e6)]:
            inst, _ = build_instance(rng, p_out=pout, a_max=amax)
            phi_bar = opt.solve_p22(inst)
            assert kkt_residual(inst, phi_bar) < 1e-7

    def test_matches_projected_gradient_fallback(self, rng):
        for pout, amax in [(0.05, 1e6), (1e6, 0.2), (0.08, 0.35)]:
            inst, _ = build_instance(rng, p_out=pout, a_max=amax)
            a = opt.solve_p22(inst)
            b = solve_p22_pg(inst, max_iter=60000)
            assert inst.objective(a) <= inst.objective(b) + 1e-9 * abs(inst.objective(b))

    def test_matches_polar_grid_oracle_m2(self, rng):
        inst, _ = build_instance(rng, m=2, p_out=0.06, a_max=0.6)
        phi_bar = opt.solve_p22(inst)
        obj = inst.objective(phi_bar)

        def score(phis):
            full = np.concatenate([phis, np.ones((phis.shape[0], 1))], axis=1)
            quad = np.einsum("bi,ij,bj->b", full.conj(), inst.quad, full).real
            lin = 2 * np.real(full.conj() @ inst.lin)
            return quad - lin + inst.offset

        j = inst.j_diag[:2]
        a_hi = np.minimum(inst.a_max, np.sqrt(inst.p_out / j))
        _, obj_grid = polar_grid_search(score, 2, a_hi, j_diag=j, p_out=inst.p_out,
                                        maximize=False, rounds=7)
        assert obj <= obj_grid + 1e-5 * abs(obj_grid)

    def test_feasibility_of_solution(self, rng):
        inst, _ = build_instance(rng, p_out=0.03, a_max=0.25)
        phi = opt.solve_p22(inst)[:-1]
        assert np.all(np.abs(phi) <= 0.25 * (1 + 1e-10))
        assert float(np.sum(inst.j_diag[:-1] * np.abs(phi) ** 2)) <= 0.03 * (1 + 1e-9)

    def test_non_psd_instance_rejected(self, rng):
        inst, _ = build_instance(rng)
        bad = inst.quad.copy()
        bad[0, 0] = -1.0
        with pytest.raises(Exception):
            opt.QcqpInstance(quad=bad, lin=inst.lin, offset=inst.offset,
                             j_diag=inst.j_diag, p_out=inst.p_out, a_max=inst.a_max)


class TestUnitModulusStep:
    def test_single_element_aligns_with_direct_link(self, rng):
        ch = make_random_channelset(rng, n=4, m=1, k=0)
        src, noise = make_sources(0), make_noise(sigma1_sq=0.0)
        res = opt.wmmse_passive(ch, src, noise, mode="passive-unit", tol=1e-12)
        phi = res.rcm.phi
        g_tilde = ch.g_matrix[:, 0] * ch.f[0][0]
        # the converged phase makes the cascaded path add coherently with the
        # direct link: phi = phase of g~^H d0
        assert np.angle(phi[0]) == pytest.approx(np.angle(np.vdot(g_tilde, ch.d[0])), abs=1e-6)
        # equivalently, the two terms of u^H h0 share a phase at the fixed point
        u = res.state.u
        direct = np.vdot(u, ch.d[0])
        casc = np.vdot(u, g_tilde) * phi[0]
        assert np.angle(direct) == pytest.approx(np.angle(casc), abs=1e-5)

    def test_recovers_matched_filter_phases_on_rank_one(self, rng):
        ch = make_los_channelset(rng, n=4, m=3, k=0)
        src, noise = make_sources(0), make_noise(sigma1_sq=0.0)
        res = opt.wmmse_passive(ch, src, noise, mode="passive-unit")
        phi = res.rcm.phi
        expected = np.exp(1j * (np.angle(ch.los.b_ris) - np.angle(ch.los.a_f[0])))
        rel = phi / expected
        assert np.max(np.abs(rel - rel[0])) < 1e-8  # equal up to a global phase

    def test_matches_phase_grid_oracle_m2(self, rng):
        ch = make_random_channelset(rng, n=4, m=2, k=1)
        src, noise = make_sources(1), make_noise(sigma1_sq=0.0)
        rcm = opt.Rcm(phi=np.ones(2), mode="passive-unit", a_max=1.0)
        u = opt.update_u(rcm, ch, src, noise)
        inst = opt.build_qcqp(u, ch, src, noise, rcm)
        phi_bar = opt.solve_p22p_unit_modulus(inst)
        obj = inst.objective(phi_bar)

        def score(phis):
            full = np.concatenate([phis, np.ones((phis.shape[0], 1))], axis=1)
            quad = np.einsum("bi,ij,bj->b", full.conj(), inst.quad, full).real
            return quad - 2 * np.real(full.conj() @ inst.lin) + inst.offset

        _, obj_grid = phase_grid_search(score, 2, maximize=False)
        # stationary-point heuristic: allow a small documented gap
        assert obj <= obj_grid + 0.02 * abs(obj_grid)

    def test_unit_modulus_exact(self, rng):
        inst, _ = build_instance(rng, m=4, k=1)
        phi = opt.solve_p22p_unit_modulus(inst)[:-1]
        assert np.max(np.abs(np.abs(phi) - 1.0)) < 1e-12


class TestWmmseActive:
    def test_matches_closed_form_on_interference_free_los(self, rng):
        n, m = 8, 4
        ch = make_los_channelset(rng, n=n, m=m, k=0, beta_f=0.5, beta_g=0.8)
        src, noise = make_sources(0), make_noise(sigma1_sq=0.02, sigma2_sq=0.1)
        p_out = 0.4
        res = opt.wmmse_active(ch, src, noise, p_out, a_max=1e3)
        p_in = src.p[0] * ch.gains.beta_f[0] + noise.sigma1_sq
        a = np.sqrt(p_out / (m * p_in))

        class Ctx:
            n_antennas, beta_g = n, ch.gains.beta_g
            beta_f = ch.gains.beta_f
            p = src.p
            sigma1_sq, sigma2_sq = noise.sigma1_sq, noise.sigma2_sq

        eta_cf = eta_active_no_interference(Ctx, n, m, a)
        assert res.eta == pytest.approx(eta_cf, rel=5e-3)

    def test_single_element_matches_polar_grid(self, rng):
        ch = make_random_channelset(rng, n=4, m=1, k=1)
        src, noise = make_sources(1), make_noise()
        p_out, a_max = 0.3, 1.2
        res = opt.wmmse_active(ch, src, noise, p_out, a_max)
        j = opt.power_weights(ch, src, noise)
        a_hi = [min(a_max, np.sqrt(p_out / j[0]))]

        def score(phis):
            return batch_population_eta(phis, ch, src, noise)

        _, eta_grid = polar_grid_search(score, 1, a_hi, j_diag=j, p_out=p_out,
                                        rounds=7, na=21, nt=48)
        assert res.eta >= eta_grid * (1 - 1e-4)

    def test_surrogate_trace_monotone(self, rng):
        for _ in range(5):
            ch = make_random_channelset(rng, n=4, m=3, k=2)
            src, noise = make_sources(2, zeta=0.6), make_noise()
            res = opt.wmmse_active(ch, src, noise, p_out_budget=0.2, a_max=0.8)
            diffs = np.diff(res.trace)
            assert np.all(diffs <= 1e-10)

    def test_global_phase_invariance(self, rng):
        ch = make_random_channelset(rng, n=4, m=3, k=1)
        src, noise = make_sources(1), make_noise()
        init = opt.mf_init_phi(ch, src, noise, 0.2, 0.8)
        r1 = opt.wmmse_active(ch, src, noise, 0.2, 0.8, init_phi=init,
                              tol=1e-12, max_iter=3000)
        r2 = opt.wmmse_active(ch, src, noise, 0.2, 0.8, init_phi=init * np.exp(0.9j),
                              tol=1e-12, max_iter=3000)
        assert r1.eta == pytest.approx(r2.eta, rel=1e-8, abs=1e-8)

    def test_returned_rcm_feasible(self, rng):
        ch = make_random_channelset(rng, n=4, m=3, k=1)
        src, noise = make_sources(1), make_noise()
        res = opt.wmmse_active(ch, src, noise, 0.15, 0.7)
        res.rcm.check_feasible(ch, src, noise)  # raises on violation
        assert np.all(res.rcm.amplitudes <= 0.7 * (1 + 1e-9))

    def test_infeasible_init_rejected(self, rng):
        ch = make_random_channelset(rng, n=4, m=3, k=0)
        src, noise = make_sources(0), make_noise()
        bad = np.full(3, 10.0 + 0j)
        with pytest.raises(ValueError):
            opt.wmmse_active(ch, src, noise, p_out_budget=1e-3, a_max=0.5, init_phi=bad)

    @pytest.mark.parametrize("p_out", [-1e-3, 0.0, np.nan])
    def test_budget_without_output_power_rejected_before_init(self, rng, monkeypatch, p_out):
        ch = make_random_channelset(rng, n=4, m=3, k=1)

        def no_init(*args, **kwargs):
            raise AssertionError("initialised before checking the budget")

        monkeypatch.setattr(opt, "mf_init_phi", no_init)
        with pytest.raises(InfeasibleError, match="budget must be positive"):
            opt.wmmse_active(ch, make_sources(1), make_noise(), p_out, 1.0)

    def test_converged_surrogate_reproduces_eta(self, rng):
        # -log(eps* / p0) == log(1 + eta) at convergence
        ch = make_random_channelset(rng, n=5, m=4, k=1)
        src, noise = make_sources(1, p0=2.0), make_noise()
        res = opt.wmmse_active(ch, src, noise, 0.3, 1.0, tol=1e-12, max_iter=2000)
        eps_star = 1.0 / res.state.omega
        assert -np.log(eps_star / src.p[0]) == pytest.approx(np.log1p(res.eta), abs=1e-6)


class TestWmmsePassive:
    def test_unit_mode_contract(self, rng):
        ch = make_random_channelset(rng, n=4, m=3, k=1)
        src, noise = make_sources(1), make_noise()
        res = opt.wmmse_passive(ch, src, noise, mode="passive-unit")
        assert np.max(np.abs(res.rcm.amplitudes - 1.0)) < 1e-9

    def test_relaxation_dominates(self, rng):
        # the unit solution is feasible for the relaxed problem; starting the
        # relaxed solver there, surrogate descent can only improve on it
        for _ in range(5):
            ch = make_random_channelset(rng, n=4, m=3, k=1)
            src, noise = make_sources(1), make_noise()
            r_unit = opt.wmmse_passive(ch, src, noise, mode="passive-unit")
            r_rel = opt.wmmse_passive(ch, src, noise, mode="passive-relaxed",
                                      init_phi=r_unit.rcm.phi)
            assert r_rel.eta >= r_unit.eta - 1e-6

    def test_interference_free_los_matches_passive_closed_form(self, rng):
        n, m = 8, 4
        ch = make_los_channelset(rng, n=n, m=m, k=0, beta_f=0.5, beta_g=0.8)
        src, noise = make_sources(0), make_noise(sigma1_sq=0.0, sigma2_sq=0.1)
        expected = eta_passive(n, m, 0.5, 0.8, 1.0, 0.1)
        for mode in ("passive-relaxed", "passive-unit"):
            res = opt.wmmse_passive(ch, src, noise, mode=mode)
            assert res.eta == pytest.approx(expected, rel=5e-3)

    def test_bad_mode_rejected(self, rng):
        ch = make_random_channelset(rng, n=3, m=2, k=0)
        with pytest.raises(ValueError):
            opt.wmmse_passive(ch, make_sources(0), make_noise(), mode="active")


class TestProjection:
    def test_idempotent_and_feasible(self, rng):
        j = np.abs(rng.standard_normal(4)) + 0.1
        y = 2 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
        x = project_feasible(y, j, p_out=0.5, a_max=0.9)
        assert np.all(np.abs(x) <= 0.9 * (1 + 1e-12))
        assert np.sum(j * np.abs(x) ** 2) <= 0.5 * (1 + 1e-9)
        x2 = project_feasible(x, j, p_out=0.5, a_max=0.9)
        assert np.max(np.abs(x - x2)) < 1e-9

    def test_interior_point_unchanged(self, rng):
        j = np.ones(3)
        y = 0.1 * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        x = project_feasible(y, j, p_out=10.0, a_max=1.0)
        assert np.allclose(x, y)


STACKED_CASES = ("rayleigh", "los", "k0", "silent_interferer", "passive")


def stacked_case(rng, name):
    """(channels, sources, noise, rcm, u) of one builder check."""
    k = 0 if name == "k0" else 2
    if name == "los":
        ch = make_los_channelset(rng, n=6, m=4, k=k, beta_f=0.7, beta_g=1.3)
    else:
        ch = make_random_channelset(rng, n=5, m=4, k=k)
    p = [2.0] if k == 0 else [1.5, 0.0 if name == "silent_interferer" else 0.7, 2.0]
    src = sns.SourceModel(p=p, zeta=[1.0, 0.6, 0.9][:k + 1])
    phi = 0.5 * (rng.standard_normal(ch.n_elements) + 1j * rng.standard_normal(ch.n_elements))
    mode = "passive-relaxed" if name == "passive" else "active"
    u = rng.standard_normal(ch.n_antennas) + 1j * rng.standard_normal(ch.n_antennas)
    return ch, src, make_noise(sigma1_sq=0.3), opt.Rcm(phi=phi, mode=mode, a_max=np.inf), u


def assert_matches(got, want):
    want = np.asarray(want)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


class TestStackedBuilders:
    """The stacked (one row per source) builders equal their per-source loops."""

    @pytest.mark.parametrize("name", STACKED_CASES)
    def test_matches_per_source_loops(self, rng, name):
        ch, src, noise, rcm, u = stacked_case(rng, name)
        sigma1 = noise.sigma1_sq if rcm.forwards_noise else 0.0
        assert_matches(sns.equivalent_channels(ch, rcm.phi), loop_channels(ch, rcm.phi))
        assert_matches(sns.noise_covariance(ch, rcm, src, noise),
                       loop_covariance(ch, rcm, src, noise, primary=False))
        # the receiver update's matrix: the primary's term included
        assert_matches(sns.covariance(ch, rcm.phi, src.zeta * src.p, sigma1, noise.sigma2_sq),
                       loop_covariance(ch, rcm, src, noise, primary=True))
        inst = opt.build_qcqp(u, ch, src, noise, rcm)
        quad, lin = loop_qcqp(u, ch, src, noise, rcm)
        assert_matches(inst.quad, quad)
        assert_matches(inst.lin, lin)
        assert_matches(opt.power_weights(ch, src, noise, rcm.forwards_noise),
                       loop_power_weights(ch, src, noise, rcm.forwards_noise))
        assert_matches(opt.mse_epsilon(u, rcm, ch, src, noise), loop_mse(u, rcm, ch, src, noise))
