import dataclasses

import numpy as np
import pytest
from scipy.optimize import minimize

from conftest import make_noise, make_sources
from oracles import (batch_population_eta, eta_active_no_interference, eta_passive,
                     indexed_covariance, indexed_qcqp, kkt_residual, loop_channels,
                     loop_covariance, loop_mse, loop_power_weights, loop_qcqp,
                     make_los_channelset, make_random_channelset, phase_grid_search,
                     polar_grid_search, project_feasible, qcqp_objective, solve_p22_cd,
                     solve_p22_pg)
from risense import optimizer as opt
from risense import sensing as sns
from risense.errors import InfeasibleError, NumericalError


def draw_of(ch, src, noise, rcm):
    return opt.Draw.of(ch, src, noise, rcm.sigma1_sq(noise))


def receiver(rcm, ch, src, noise):
    return opt.update_u(rcm.phi, draw_of(ch, src, noise, rcm),
                        sns.equivalent_channels(ch, rcm.phi))


def mse(u, rcm, ch, src, noise):
    return opt.mse_epsilon(u, rcm.phi, draw_of(ch, src, noise, rcm),
                           sns.equivalent_channels(ch, rcm.phi))


def qcqp(u, ch, src, noise, rcm):
    return opt.build_qcqp(u, draw_of(ch, src, noise, rcm), rcm)


def build_instance(rng, n=4, m=3, k=1, p_out=2.0, a_max=1.5, direct=True, zeta=0.8):
    ch = make_random_channelset(rng, n=n, m=m, k=k, direct=direct)
    src, noise = make_sources(k, zeta=zeta), make_noise()
    rcm = opt.Rcm(phi=np.zeros(m), mode="active", a_max=a_max, p_out_budget=p_out)
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    inst = qcqp(u, ch, src, noise, rcm)
    return inst, (ch, src, noise, rcm, u)


def oracle_case(rng, name):
    """A subproblem whose solution has the binding pattern ``name``."""
    if name == "cap-binding":
        return build_instance(rng, m=6, p_out=1e6, a_max=0.2)[0]
    if name == "power-binding":  # no caps at all
        return build_instance(rng, m=6, p_out=0.05, a_max=np.inf)[0]
    inst = build_instance(rng, m=6, p_out=1e6, a_max=1e6)[0]
    free = np.abs(np.linalg.solve(inst.s, -inst.g))
    a_max = float(np.median(free))  # between the moduli of the unconstrained solution
    if name == "mixed":
        return dataclasses.replace(inst, a_max=a_max)
    if name == "caps-and-budget":
        p_out = 0.7 * float(inst.j @ np.minimum(free, a_max) ** 2)
        return dataclasses.replace(inst, a_max=a_max, p_out=p_out)
    # rank-deficient: a passive surface forwards no noise, so S has rank K + 1 < M
    ch = make_random_channelset(rng, n=4, m=6, k=1)
    src, noise = make_sources(1), make_noise(sigma1_sq=0.0)
    u = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    rcm = opt.Rcm(phi=np.ones(6), mode="passive-relaxed", a_max=1.0)
    return qcqp(u, ch, src, noise, rcm)


class TestMseEpsilon:
    def test_zero_receiver_gives_primary_power(self, rng):
        ch = make_random_channelset(rng, n=4, m=3, k=1)
        src, noise = make_sources(1, p0=2.5), make_noise()
        rcm = opt.Rcm(phi=rng.standard_normal(3) * 1j, mode="active", a_max=np.inf)
        eps = mse(np.zeros(4, dtype=complex), rcm, ch, src, noise)
        assert eps == pytest.approx(2.5)

    def test_optimal_receiver_closed_form(self, rng):
        # eps(u_opt) = p0 / (1 + eta); with p0 = 1 also 1 - h0^H (R + h0 h0^H)^-1 h0
        ch = make_random_channelset(rng, n=4, m=3, k=1)
        src, noise = make_sources(1), make_noise()
        rcm = opt.Rcm(phi=0.3 * (rng.standard_normal(3) + 1j * rng.standard_normal(3)),
                      mode="active", a_max=np.inf)
        u = receiver(rcm, ch, src, noise)
        eps = mse(u, rcm, ch, src, noise)
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
        u = receiver(rcm, ch, src, noise)
        base = mse(u, rcm, ch, src, noise)
        rotated = mse(u * np.exp(0.5j), rcm, ch, src, noise)
        assert rotated > base


class TestUpdateU:
    def test_no_ris_no_interferers_sherman_morrison(self, rng):
        ch = make_random_channelset(rng, n=4, m=3, k=0)
        src, noise = make_sources(0), make_noise()  # p0 = 1
        rcm = opt.Rcm(phi=np.zeros(3), mode="active", a_max=np.inf)
        u = receiver(rcm, ch, src, noise)
        d0 = ch.d[0]
        expected = d0 / (np.linalg.norm(d0) ** 2 + noise.sigma2_sq)
        assert np.allclose(u, expected, rtol=1e-12)

    def test_first_order_stationarity_general_p0(self, rng):
        ch = make_random_channelset(rng, n=4, m=3, k=1)
        src, noise = make_sources(1, p0=3.7), make_noise()
        rcm = opt.Rcm(phi=0.4 * (rng.standard_normal(3) + 1j * rng.standard_normal(3)),
                      mode="active", a_max=np.inf)
        u = receiver(rcm, ch, src, noise)
        eps0 = mse(u, rcm, ch, src, noise)
        g = np.zeros(8)
        step = 1e-6
        for i in range(8):
            du = np.zeros(8)
            du[i] = step
            pert = u + du[:4] + 1j * du[4:]
            g[i] = (mse(pert, rcm, ch, src, noise) - eps0) / step
        assert np.max(np.abs(g)) < 1e-4 * max(1.0, eps0)

    def test_matches_numerical_minimizer(self, rng):
        ch = make_random_channelset(rng, n=4, m=3, k=1)
        src, noise = make_sources(1), make_noise()
        rcm = opt.Rcm(phi=0.2 * (rng.standard_normal(3) + 1j * rng.standard_normal(3)),
                      mode="active", a_max=np.inf)
        u_star = receiver(rcm, ch, src, noise)

        def f(x):
            return mse(x[:4] + 1j * x[4:], rcm, ch, src, noise)

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
        phi = opt.solve_p22(inst)
        expected = np.linalg.solve(inst.s, -inst.g)
        assert np.max(np.abs(phi - expected)) < 1e-8

    def test_power_only_active_isotropic_weights(self, rng):
        inst, _ = build_instance(rng, p_out=0.05, a_max=1e6)
        j = np.full(inst.g.size, inst.j[0])
        object.__setattr__(inst, "j", j)
        phi = opt.solve_p22(inst)
        # dual-bisection oracle prediction: constraint tight
        assert np.linalg.norm(phi) ** 2 == pytest.approx(0.05 / j[0], rel=1e-9)

    def test_kkt_residual_small(self, rng):
        for pout, amax in [(0.05, 1e6), (1e6, 0.2), (0.08, 0.35), (1e6, 1e6)]:
            inst, _ = build_instance(rng, p_out=pout, a_max=amax)
            phi = opt.solve_p22(inst)
            assert kkt_residual(inst, phi) < 1e-7

    def test_matches_projected_gradient_fallback(self, rng):
        for pout, amax in [(0.05, 1e6), (1e6, 0.2), (0.08, 0.35)]:
            inst, _ = build_instance(rng, p_out=pout, a_max=amax)
            a = opt.solve_p22(inst)
            b = solve_p22_pg(inst, max_iter=60000)
            obj_b = qcqp_objective(inst, b)
            assert qcqp_objective(inst, a) <= obj_b + 1e-9 * abs(obj_b)

    def test_matches_polar_grid_oracle_m2(self, rng):
        inst, _ = build_instance(rng, m=2, p_out=0.06, a_max=0.6)
        obj = qcqp_objective(inst, opt.solve_p22(inst))

        def score(phis):
            quad = np.einsum("bi,ij,bj->b", phis.conj(), inst.s, phis).real
            lin = 2 * np.real(phis @ inst.g.conj())
            return quad + lin + inst.const

        j = inst.j
        a_hi = np.minimum(inst.a_max, np.sqrt(inst.p_out / j))
        _, obj_grid = polar_grid_search(score, 2, a_hi, j_diag=j, p_out=inst.p_out,
                                        maximize=False, rounds=7)
        assert obj <= obj_grid + 1e-5 * abs(obj_grid)

    def test_feasibility_of_solution(self, rng):
        inst, _ = build_instance(rng, p_out=0.03, a_max=0.25)
        phi = opt.solve_p22(inst)
        assert np.all(np.abs(phi) <= 0.25 * (1 + 1e-10))
        assert float(np.sum(inst.j * np.abs(phi) ** 2)) <= 0.03 * (1 + 1e-9)

    @pytest.mark.parametrize("name", ["cap-binding", "mixed", "power-binding", "caps-and-budget",
                                      "rank-deficient"])
    def test_matches_the_oracles(self, rng, name):
        inst = oracle_case(rng, name)
        phi = opt.solve_p22(inst)
        if inst.a_max is not None:
            assert np.all(np.abs(phi) <= inst.a_max * (1 + 1e-12))
        if inst.p_out is not None:
            assert float(inst.j @ np.abs(phi) ** 2) <= inst.p_out * (1 + 1e-12)
        obj = qcqp_objective(inst, phi)
        for oracle in (solve_p22_cd(inst), solve_p22_pg(inst, max_iter=60000)):
            ref = qcqp_objective(inst, oracle)
            assert obj <= ref + 1e-12 * abs(ref)
        assert kkt_residual(inst, phi) < 1e-9
        # the case binds as named
        on_cap = np.abs(phi) >= inst.a_max * (1 - 1e-9) if inst.a_max is not None else None
        if name == "cap-binding":
            assert on_cap.all()
        elif name == "mixed":
            assert on_cap.any() and not on_cap.all()
        elif name == "power-binding":
            assert inst.a_max is None
            assert float(inst.j @ np.abs(phi) ** 2) == pytest.approx(inst.p_out, rel=1e-9)
        elif name == "caps-and-budget":
            assert on_cap.any()
            assert float(inst.j @ np.abs(phi) ** 2) == pytest.approx(inst.p_out, rel=1e-9)
        else:
            assert inst.lam_min <= opt.SINGULAR_RTOL * inst.lam_max

    @pytest.mark.parametrize("name, cap, loop", [
        ("cap-binding", "NEWTON_MAX_STEPS", "projected Newton"),
        ("power-binding", "NEWTON_MAX_STEPS", "projected Newton"),
        ("caps-and-budget", "NEWTON_MAX_STEPS", "projected Newton"),
        ("rank-deficient", "PROX_MAX_STEPS", "proximal steps")])
    def test_a_capped_solve_raises(self, rng, monkeypatch, name, cap, loop):
        inst = oracle_case(rng, name)
        opt.solve_p22(inst)  # converges under the default caps
        monkeypatch.setattr(opt, cap, 1)
        with pytest.raises(NumericalError, match=f"QCQP subproblem: {loop} did not converge"):
            opt.solve_p22(inst)

    def test_any_start_reaches_the_one_solution(self, rng):
        # multipliers read off a random feasible start, far from the solution:
        # the secular Newton step stalls on these and the plain one takes over
        for name in ("mixed", "mixed", "mixed", "cap-binding"):
            inst = oracle_case(rng, name)
            ref = opt.solve_p22(inst)
            m = inst.g.size
            start = inst.a_max * rng.uniform(0, 1, m) * np.exp(2j * np.pi * rng.uniform(size=m))
            phi = opt.solve_p22(inst, x0=start)
            assert np.max(np.abs(phi - ref)) <= 1e-9 * inst.a_max

    def test_a_skipped_linear_solve_would_break_a_cap(self, rng, monkeypatch):
        # given a start, the unconstrained solve is skipped only where its solution
        # would fail the caps: then only the start is read, solved or not
        solves, solve = [], np.linalg.solve

        def recording(a, b):
            solves.append(solve(a, b))
            return solves[-1]

        monkeypatch.setattr(np.linalg, "solve", recording)
        # caps from loose to tight, then S = 2 I with every |x_i| = t a_max: there the
        # bound is tight, and it fires from t = 1 + 1e-6 on
        cases = [build_instance(rng, m=6, p_out=1e6, a_max=10.0 ** rng.uniform(-2, 0.5))[0]
                 for _ in range(40)]
        for t in (0.5, 0.9, 1 - 1e-9, 1 + 1e-9, 1 + 2e-6, 1.5):
            phase = np.exp(2j * np.pi * rng.uniform(size=6))
            cases.append(opt.QcqpInstance(s=2.0 * np.eye(6, dtype=complex), g=-2.0 * t * phase,
                                          const=0.0, j=np.ones(6), p_out=None, a_max=1.0))
        skipped = 0
        for inst in cases:
            m = inst.g.size
            x0 = inst.a_max * rng.uniform(0, 1, m) * np.exp(2j * np.pi * rng.uniform(size=m))
            solves.clear()
            opt.solve_p22(inst, x0=x0)
            if not solves:
                skipped += 1
                x = solve(inst.s + 1e-14 * np.trace(inst.s).real * np.eye(m) / m, -inst.g)
                assert np.abs(x).max() > inst.a_max * (1 + 1e-12)
        assert 5 <= skipped <= 40, skipped

    def test_non_psd_instance_rejected(self, rng):
        inst, _ = build_instance(rng)
        bad = inst.s.copy()
        bad[0, 0] = -1.0
        with pytest.raises(Exception):
            opt.QcqpInstance(s=bad, g=inst.g, const=inst.const,
                             j=inst.j, p_out=inst.p_out, a_max=inst.a_max)


def counting_eigvalsh(monkeypatch) -> list:
    """np.linalg.eigvalsh, replaced by a wrapper that records each call."""
    calls, eigvalsh = [], np.linalg.eigvalsh

    def counting(a):
        calls.append(a)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


class TestCertifiedNonSingular:
    """An active subproblem's eigenvalue floor picks the branch eigvalsh would pick."""

    def test_certified_instances_are_non_singular(self, rng):
        branches = {True: 0, False: 0}
        for _ in range(80):
            n, m, k = (int(v) for v in rng.integers((2, 1, 0), (9, 17, 4)))
            ch = make_random_channelset(rng, n=n, m=m, k=k)
            # forwarded noise from negligible to dominant: both branches occur
            noise = make_noise(sigma1_sq=10.0 ** rng.uniform(-10, 1))
            src = make_sources(k, zeta=0.7)
            rcm = opt.Rcm(phi=np.zeros(m), mode="active", a_max=1.0, p_out_budget=1.0)
            u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            inst = qcqp(u, ch, src, noise, rcm)
            trace = float(np.trace(inst.s).real)
            certified = inst.floor > 2 * opt.SINGULAR_RTOL * trace
            branches[certified] += 1
            lam = np.linalg.eigvalsh(0.5 * (inst.s + inst.s.conj().T))
            if certified:
                assert lam[0] > opt.SINGULAR_RTOL * lam[-1]  # eigvalsh: non-singular
                assert lam[0] >= inst.floor - 1e-12 * lam[-1]  # the floor bounds it
                assert (inst.lam_min, inst.lam_max) == (inst.floor, trace)
            else:
                assert (inst.lam_min, inst.lam_max) == (lam[0], lam[-1])
            assert (inst.lam_min > opt.SINGULAR_RTOL * inst.lam_max) == \
                (lam[0] > opt.SINGULAR_RTOL * lam[-1])
        assert min(branches.values()) >= 5, branches

    @pytest.mark.parametrize("margin, fallback", [(1 + 1e-9, False), (1 - 1e-9, True),
                                                  (None, True)],
                             ids=["just-above", "just-below", "no-floor"])
    def test_the_fallback_runs_below_the_margin(self, rng, monkeypatch, margin, fallback):
        # S = (a rank-2 PSD part) + d I, d set against 2 SINGULAR_RTOL tr S
        m = 6
        a = rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2))
        psd = a @ a.conj().T
        c = 2 * opt.SINGULAR_RTOL * (1.0 if margin is None else margin)
        d = c * float(np.trace(psd).real) / (1 - c * m)  # d = c tr(psd + d I)
        s = psd + d * np.eye(m)
        floor = {} if margin is None else {"floor": d}
        calls = counting_eigvalsh(monkeypatch)
        inst = opt.QcqpInstance(s=s, g=np.ones(m, dtype=complex), const=0.0, j=np.ones(m),
                                p_out=None, a_max=1.0, **floor)
        assert len(calls) == fallback
        assert inst.lam_min > opt.SINGULAR_RTOL * inst.lam_max  # non-singular either way

    def test_a_passive_instance_runs_the_fallback(self, rng, monkeypatch):
        inst = oracle_case(rng, "rank-deficient")  # no forwarded noise: floor 0
        calls = counting_eigvalsh(monkeypatch)
        opt.QcqpInstance(s=inst.s, g=inst.g, const=inst.const, j=inst.j, p_out=inst.p_out,
                         a_max=inst.a_max, floor=inst.floor)
        assert inst.floor == 0.0 and len(calls) == 1


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
        u = receiver(res.rcm, ch, src, noise)
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
        u = receiver(rcm, ch, src, noise)
        inst = qcqp(u, ch, src, noise, rcm)
        obj = qcqp_objective(inst, opt.solve_p22p_unit_modulus(inst))

        def score(phis):
            quad = np.einsum("bi,ij,bj->b", phis.conj(), inst.s, phis).real
            return quad + 2 * np.real(phis @ inst.g.conj()) + inst.const

        _, obj_grid = phase_grid_search(score, 2, maximize=False)
        # stationary-point heuristic: allow a small documented gap
        assert obj <= obj_grid + 0.02 * abs(obj_grid)

    def test_unit_modulus_exact(self, rng):
        inst, _ = build_instance(rng, m=4, k=1)
        phi = opt.solve_p22p_unit_modulus(inst)
        assert np.max(np.abs(np.abs(phi) - 1.0)) < 1e-12


class TestWmmseActive:
    def test_matches_closed_form_on_interference_free_los(self, rng):
        n, m, bf, bg = 8, 4, 0.5, 0.8
        ch = make_los_channelset(rng, n=n, m=m, k=0, beta_f=bf, beta_g=bg)
        src, noise = make_sources(0), make_noise(sigma1_sq=0.02, sigma2_sq=0.1)
        p_out = 0.4
        res = opt.wmmse_active(ch, src, noise, p_out, a_max=1e3)
        p_in = src.p[0] * bf + noise.sigma1_sq
        a = np.sqrt(p_out / (m * p_in))

        class Ctx:
            n_antennas, beta_g = n, bg
            beta_f = (bf,)
            p = src.p
            sigma1_sq, sigma2_sq = noise.sigma1_sq, noise.sigma2_sq

        eta_cf = eta_active_no_interference(Ctx, n, m, a)
        assert res.eta == pytest.approx(eta_cf, rel=5e-3)

    def test_single_element_matches_polar_grid(self, rng):
        ch = make_random_channelset(rng, n=4, m=1, k=1)
        src, noise = make_sources(1), make_noise()
        p_out, a_max = 0.3, 1.2
        res = opt.wmmse_active(ch, src, noise, p_out, a_max)
        j = opt.power_weights(ch, src, noise.sigma1_sq)
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
        assert np.all(np.abs(res.rcm.phi) <= 0.7 * (1 + 1e-9))

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
        eps_star = np.exp(res.trace[-1] - 1.0)  # the last surrogate value is 1 - log(omega)
        assert -np.log(eps_star / src.p[0]) == pytest.approx(np.log1p(res.eta), abs=1e-6)

    def test_converged_flag(self, rng):
        ch = make_random_channelset(rng, n=5, m=4, k=1)
        src, noise = make_sources(1), make_noise()
        res = opt.wmmse_active(ch, src, noise, 0.5, 1.0)
        assert res.converged and len(res.trace) < 3 * 500
        capped = opt.wmmse_active(ch, src, noise, 0.5, 1.0, max_iter=2)
        assert not capped.converged and len(capped.trace) == 6

    def test_silent_primary_returns_the_start(self, rng):
        # p_0 = 0: every coefficient vector gives eta = 0, so no step is taken
        ch = make_random_channelset(rng, n=4, m=3, k=1)
        src, noise = make_sources(1, p0=0.0), make_noise()
        rcm0 = opt.Rcm(phi=np.full(3, 0.1 + 0.2j), mode="active", a_max=1.0, p_out_budget=0.5)

        def no_step(instance, x0=None):
            raise AssertionError("a coefficient step was taken for a silent primary")

        res = opt._wmmse_loop(ch, src, noise, rcm0, no_step, tol=1e-6, max_iter=50)
        assert res.rcm is rcm0 and res.eta == 0.0 and res.trace == []
        u = receiver(res.rcm, ch, src, noise)  # zero MSE at u = 0: omega = 1/eps is infinite
        assert not u.any() and mse(u, res.rcm, ch, src, noise) == 0.0
        assert opt.wmmse_active(ch, src, noise, 0.5, 1.0, init_phi=rcm0.phi).trace == []


class TestCoefficientStep:
    @pytest.mark.parametrize("run, solver", [
        (lambda *a: opt.wmmse_active(*a, 0.5, 1.0), "solve_p22"),
        (lambda *a: opt.wmmse_passive(*a, mode="passive-relaxed"), "solve_p22"),
        (lambda *a: opt.wmmse_passive(*a, mode="passive-unit"), "solve_p22p_unit_modulus")],
        ids=["active", "passive-relaxed", "passive-unit"])
    def test_solver_is_looked_up_when_called(self, rng, monkeypatch, run, solver):
        # a step bound at import (a default argument, a table of functions) would
        # bypass a module attribute replaced later, as the benchmark's tracer replaces it
        calls = []
        solve = getattr(opt, solver)

        def counting(instance, x0=None):
            calls.append(solver)
            return solve(instance, x0)

        monkeypatch.setattr(opt, solver, counting)
        ch = make_random_channelset(rng, n=4, m=3, k=1)
        res = run(ch, make_sources(1), make_noise())
        assert len(res.trace) >= 3 and len(calls) == len(res.trace) // 3


class TestWmmsePassive:
    def test_unit_mode_contract(self, rng):
        ch = make_random_channelset(rng, n=4, m=3, k=1)
        src, noise = make_sources(1), make_noise()
        res = opt.wmmse_passive(ch, src, noise, mode="passive-unit")
        assert np.max(np.abs(np.abs(res.rcm.phi) - 1.0)) < 1e-9

    def test_relaxation_dominates(self, rng, monkeypatch):
        # the unit solution is feasible for the relaxed problem; starting the
        # relaxed solver there, surrogate descent can only improve on it. The
        # relaxed subproblems have a rank-deficient S (sigma1 = 0): each converges
        # under its step caps, on the proximal path
        counts = {"solves": 0, "capped": 0, "newton": 0}
        solve, newton = opt.solve_p22, opt._dual_newton

        def counting_solve(instance, x0=None):
            counts["solves"] += 1
            try:
                return solve(instance, x0)
            except NumericalError:  # a capped solve: count it and keep the feasible start
                counts["capped"] += 1
                return x0

        def counting_newton(*args):
            counts["newton"] += 1
            return newton(*args)

        monkeypatch.setattr(opt, "solve_p22", counting_solve)
        monkeypatch.setattr(opt, "_dual_newton", counting_newton)
        for _ in range(5):
            ch = make_random_channelset(rng, n=4, m=3, k=1)
            src, noise = make_sources(1), make_noise()
            r_unit = opt.wmmse_passive(ch, src, noise, mode="passive-unit")
            r_rel = opt.wmmse_passive(ch, src, noise, mode="passive-relaxed",
                                      init_phi=r_unit.rcm.phi)
            assert r_rel.eta >= r_unit.eta - 1e-6
        assert counts["solves"] > 0 and counts["capped"] == 0, counts
        assert counts["newton"] > counts["solves"]  # several proximal steps per solve

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
        sigma1 = rcm.sigma1_sq(noise)
        assert_matches(sns.equivalent_channels(ch, rcm.phi), loop_channels(ch, rcm.phi))
        assert_matches(sns.noise_covariance(ch, rcm, src, noise),
                       loop_covariance(ch, rcm, src, noise, primary=False))
        # the receiver update's matrix: the primary's term included
        assert_matches(sns.covariance(ch, rcm.phi, src.zeta * src.p, sigma1, noise.sigma2_sq),
                       loop_covariance(ch, rcm, src, noise, primary=True))
        inst = qcqp(u, ch, src, noise, rcm)
        s, g, const = loop_qcqp(u, ch, src, noise, rcm)
        assert_matches(inst.s, s)
        assert_matches(inst.g, g)
        assert_matches(inst.const, const)
        # the subproblem's objective is the weighted MSE of the coefficients
        for _ in range(3):
            phi = rng.standard_normal(ch.n_elements) + 1j * rng.standard_normal(ch.n_elements)
            eps = mse(u, dataclasses.replace(rcm, phi=phi), ch, src, noise)
            assert qcqp_objective(inst, phi) == pytest.approx(eps, rel=1e-12)
        assert_matches(opt.power_weights(ch, src, sigma1),
                       loop_power_weights(ch, src, noise, rcm.mode == "active"))
        assert_matches(mse(u, rcm, ch, src, noise), loop_mse(u, rcm, ch, src, noise))


class TestIndexedBuilders:
    """Formed once per draw, the solve's invariants leave the builders' bits unchanged."""

    def test_bit_for_bit_with_the_indexed_formulas(self, rng):
        for i in range(60):  # desk-sized draws: N = 32, M = 16, K = 5
            ch = make_random_channelset(rng, n=32, m=16, k=5)
            src = sns.SourceModel(p=10.0 ** rng.uniform(-2, 1, 6),
                                  zeta=np.append(1.0, rng.uniform(0, 1, 5)))
            noise = make_noise(sigma1_sq=10.0 ** rng.uniform(-3, 0),
                               sigma2_sq=10.0 ** rng.uniform(-3, 0))
            phi = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            u = rng.standard_normal(32) + 1j * rng.standard_normal(32)
            rcm = opt.Rcm(phi=phi, mode="passive-relaxed" if i % 5 == 0 else "active")
            draw = draw_of(ch, src, noise, rcm)
            inst = opt.build_qcqp(u, draw, rcm)
            s, g, const = indexed_qcqp(u, ch, src, noise, draw.sigma1_sq)
            assert np.array_equal(inst.s, s) and np.array_equal(inst.g, g)
            assert inst.const == const
            weights = src.zeta * src.p
            assert np.array_equal(
                sns.covariance(ch, phi, weights, draw.sigma1_sq, noise.sigma2_sq),
                indexed_covariance(ch, phi, weights, draw.sigma1_sq, noise.sigma2_sq))
