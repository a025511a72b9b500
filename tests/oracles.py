"""Independent oracles used by the test suite.

Everything here deliberately avoids the library's own computational paths:
the Tracy-Widom CDF is evaluated as an Airy-kernel Fredholm determinant, the
largest eigenvalue via characteristic-polynomial roots, optimizers are
checked against exhaustive polar-grid searches and a projected-gradient
QCQP solver, the closed forms against the dense interference matrix, the
stacked covariance and QCQP builders against per-source loops, and the
Monte Carlo harness against a plain per-hypothesis trial loop.
"""

from __future__ import annotations

import numpy as np
from scipy.special import airy

from risense.budget import ClosedFormContext
from risense.channel import (ChannelSet, LinkGains, LosFactors, sample_rayleigh_channelset,
                             steering_vector_ula)
from risense.errors import NumericalError
from risense.optimizer import QcqpInstance
from risense.sensing import (NoiseModel, SourceModel, detection_threshold, max_eig_statistic,
                             noise_covariance, population_eta, predicted_pd, sample_signals,
                             spiked_stats, whiten)


def tw2_cdf_fredholm(s: float, n: int = 100, span: float = 30.0) -> float:
    """Order-2 Tracy-Widom CDF via the Airy-kernel Fredholm determinant."""
    x, w = np.polynomial.legendre.leggauss(n)
    t = s + 0.5 * span * (x + 1.0)
    wt = 0.5 * span * w
    ai, aip, _, _ = airy(t)
    diff = np.subtract.outer(t, t)
    num = np.multiply.outer(ai, aip) - np.multiply.outer(aip, ai)
    with np.errstate(divide="ignore", invalid="ignore"):
        kernel = num / diff
    kernel[np.diag_indices_from(kernel)] = aip**2 - t * ai**2
    sw = np.sqrt(wt)
    a = np.eye(n) - sw[:, None] * kernel * sw[None, :]
    sign, logdet = np.linalg.slogdet(a)
    return float(sign * np.exp(logdet))


def char_poly_max_eig(s: np.ndarray) -> float:
    """Largest eigenvalue of a Hermitian 2x2/3x3 matrix via its characteristic polynomial."""
    n = s.shape[0]
    tr = np.trace(s).real
    if n == 2:
        det = np.linalg.det(s).real
        coeffs = [1.0, -tr, det]
    elif n == 3:
        minors = 0.0
        for i in range(3):
            idx = [j for j in range(3) if j != i]
            minors += np.linalg.det(s[np.ix_(idx, idx)]).real
        coeffs = [1.0, -tr, minors, -np.linalg.det(s).real]
    else:
        raise ValueError("oracle covers n <= 3 only")
    roots = np.roots(coeffs)
    return float(np.max(roots.real))


def make_random_channelset(rng: np.random.Generator, n: int, m: int, k: int,
                           direct: bool = True, beta: float = 1.0) -> ChannelSet:
    """Unstructured random channels at O(1) scales."""
    def cn(shape, var):
        return np.sqrt(var / 2) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    d = tuple(cn(n, beta) if direct else np.zeros(n, dtype=complex) for _ in range(k + 1))
    f = tuple(cn(m, beta) for _ in range(k + 1))
    g = cn((n, m), beta)
    gains = LinkGains(beta_d=np.full(k + 1, beta if direct else 0.0),
                      beta_f=np.full(k + 1, beta), beta_g=beta)
    return ChannelSet(d=d, f=f, g_matrix=g, gains=gains)


def make_los_channelset(rng: np.random.Generator, n: int, m: int, k: int,
                        beta_f: float = 1.0, beta_g: float = 1.0) -> ChannelSet:
    """Rank-one LoS channels with random angles and no direct links."""
    az = rng.uniform(-np.pi / 2, np.pi / 2, size=k + 1)
    a_f = tuple(steering_vector_ula(m, np.pi * np.sin(az[i])) for i in range(k + 1))
    a_su = steering_vector_ula(n, np.pi * np.sin(rng.uniform(-np.pi / 2, np.pi / 2)))
    b_ris = steering_vector_ula(m, np.pi * np.sin(rng.uniform(-np.pi / 2, np.pi / 2)))
    f = tuple(np.sqrt(beta_f) * v for v in a_f)
    g = np.sqrt(beta_g) * np.outer(a_su, b_ris.conj())
    d = tuple(np.zeros(n, dtype=complex) for _ in range(k + 1))
    gains = LinkGains(beta_d=np.zeros(k + 1), beta_f=np.full(k + 1, beta_f), beta_g=beta_g)
    return ChannelSet(d=d, f=f, g_matrix=g, gains=gains,
                      los=LosFactors(a_su=a_su, b_ris=b_ris, a_f=a_f))


def batch_population_eta(phis: np.ndarray, channels: ChannelSet, sources: SourceModel,
                         noise: NoiseModel, forwards_noise: bool = True) -> np.ndarray:
    """population_eta evaluated from scratch for a batch of coefficient vectors."""
    n = channels.n_antennas
    b = phis.shape[0]
    cks = [channels.g_matrix * fk[None, :] for fk in channels.f]  # columns g_m f_k[m]
    h = [dk[None, :] + phis @ ck.T for dk, ck in zip(channels.d, cks)]  # (B, N)
    r = np.broadcast_to(noise.sigma2_sq * np.eye(n, dtype=complex), (b, n, n)).copy()
    for k in range(1, len(h)):
        w = sources.zeta[k] * sources.p[k]
        if w > 0:
            r += w * np.einsum("bi,bj->bij", h[k], h[k].conj())
    if forwards_noise and noise.sigma1_sq > 0:
        g_phi = phis[:, None, :] * channels.g_matrix[None, :, :]  # (B, N, M)
        r += noise.sigma1_sq * np.einsum("bim,bjm->bij", g_phi, g_phi.conj())
    z = np.linalg.solve(r, h[0][:, :, None])[:, :, 0]
    return sources.p[0] * np.real(np.einsum("bi,bi->b", h[0].conj(), z))


def loop_channels(channels: ChannelSet, phi: np.ndarray) -> list[np.ndarray]:
    """h_k = d_k + G (phi * f_k), one source at a time."""
    return [dk + channels.g_matrix @ (phi * fk) for dk, fk in zip(channels.d, channels.f)]


def loop_covariance(channels: ChannelSet, rcm, sources: SourceModel, noise: NoiseModel,
                    primary: bool) -> np.ndarray:
    """sigma2^2 I + sum_k zeta_k p_k h_k h_k^H + sigma1^2 (G Phi)(G Phi)^H, one outer
    product per source; the primary's term only when ``primary`` (the receiver
    update's matrix), without it the noise covariance R."""
    phi = np.asarray(rcm.phi, dtype=complex)
    h = loop_channels(channels, phi)
    r = noise.sigma2_sq * np.eye(channels.n_antennas, dtype=complex)
    for k in range(0 if primary else 1, len(h)):
        w = sources.zeta[k] * sources.p[k]
        if w > 0:
            r += w * np.outer(h[k], h[k].conj())
    if rcm.forwards_noise and noise.sigma1_sq > 0:
        g_phi = channels.g_matrix * phi[np.newaxis, :]
        r += noise.sigma1_sq * (g_phi @ g_phi.conj().T)
    return r


def loop_qcqp(u: np.ndarray, channels: ChannelSet, sources: SourceModel, noise: NoiseModel,
              rcm) -> tuple[np.ndarray, np.ndarray]:
    """(quad, lin) of the reflecting-coefficient subproblem, one source at a time.

    v_k = A_k^H u = [conj(f_k) * (G^H u); d_k^H u]; quad = sum_k w_k v_k v_k^H
    (w_0 = p_0) plus sigma1^2 diag(|u^H G|^2), and lin = p_0 v_0.
    """
    m = channels.n_elements
    ug = u.conj() @ channels.g_matrix
    quad = np.zeros((m + 1, m + 1), dtype=complex)
    if rcm.forwards_noise and noise.sigma1_sq > 0:
        quad[:m, :m] += noise.sigma1_sq * np.diag(np.abs(ug) ** 2)
    lin = np.zeros(m + 1, dtype=complex)
    for k in range(len(channels.f)):
        w = sources.p[k] if k == 0 else sources.zeta[k] * sources.p[k]
        v = np.concatenate([channels.f[k].conj() * (channels.g_matrix.conj().T @ u),
                            [np.vdot(channels.d[k], u)]])
        quad += w * np.outer(v, v.conj())
        if k == 0:
            lin = sources.p[0] * v
    return quad, lin


def loop_power_weights(channels: ChannelSet, sources: SourceModel, noise: NoiseModel,
                       forwards_noise: bool) -> np.ndarray:
    """sigma1^2 + sum_k zeta_k p_k |f_k|^2 per element, one source at a time."""
    w = np.full(channels.n_elements, noise.sigma1_sq if forwards_noise else 0.0)
    for k, fk in enumerate(channels.f):
        w = w + sources.zeta[k] * sources.p[k] * np.abs(fk) ** 2
    return w


def loop_mse(u: np.ndarray, rcm, channels: ChannelSet, sources: SourceModel,
             noise: NoiseModel) -> float:
    """p_0 |u^H h_0 - 1|^2 + sum_k zeta_k p_k |u^H h_k|^2 + sigma1^2 ||u^H G Phi||^2
    + sigma2^2 ||u||^2, one source at a time."""
    h = loop_channels(channels, np.asarray(rcm.phi, dtype=complex))
    eps = sources.p[0] * abs(np.vdot(u, h[0]) - 1.0) ** 2
    for k in range(1, len(h)):
        eps += sources.zeta[k] * sources.p[k] * abs(np.vdot(u, h[k])) ** 2
    if rcm.forwards_noise:
        eps += noise.sigma1_sq * float(np.sum(np.abs((u.conj() @ channels.g_matrix)
                                                     * rcm.phi) ** 2))
    return float(eps + noise.sigma2_sq * np.real(np.vdot(u, u)))


def _polar_candidates(centers_a, centers_t, half_a, half_t, a_hi, na, nt):
    """Per-element (amplitude, phase) grids around the current best."""
    grids = []
    for ca, ct, hi in zip(centers_a, centers_t, a_hi):
        a_lo = max(0.0, ca - half_a * hi)
        a_up = min(hi, ca + half_a * hi)
        amps = np.linspace(a_lo, a_up, na)
        phases = ct + np.linspace(-half_t, half_t, nt)
        grids.append((amps, phases))
    return grids


def _combine(grids) -> np.ndarray:
    """Cartesian product of per-element polar grids -> (B, M) complex array."""
    per_elem = []
    for amps, phases in grids:
        vals = (amps[:, None] * np.exp(1j * phases[None, :])).ravel()
        per_elem.append(vals)
    mesh = np.meshgrid(*per_elem, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def polar_grid_search(score, m: int, a_hi, j_diag=None, p_out=None,
                      rounds: int = 6, na: int = 9, nt: int = 16,
                      maximize: bool = True):
    """Exhaustive polar-grid optimization with refinement (M <= 2).

    ``score`` maps a (B, M) batch of coefficient vectors to (B,) values.
    Candidates violating the power cap are rescaled onto the cap (when the
    amplitude caps allow) instead of being discarded, so boundary optima are
    represented exactly.
    """
    a_hi = np.asarray(a_hi, dtype=float)
    centers_a = 0.5 * a_hi
    centers_t = np.zeros(m)
    half_a, half_t = 0.5, np.pi
    sign = 1.0 if maximize else -1.0
    best_phi, best_val = None, -np.inf
    for _ in range(rounds):
        grids = _polar_candidates(centers_a, centers_t, half_a, half_t, a_hi, na, nt)
        phis = _combine(grids)
        if p_out is not None:
            power = np.sum(j_diag[None, :] * np.abs(phis) ** 2, axis=1)
            over = power > p_out
            scaled = phis[over] * np.sqrt(p_out / power[over])[:, None]
            keep_idx = ~over
            extras = scaled[np.all(np.abs(scaled) <= a_hi[None, :] * (1 + 1e-12), axis=1)]
            phis = np.concatenate([phis[keep_idx], extras], axis=0)
        if phis.shape[0] == 0:
            break
        vals = sign * score(phis)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            best_phi = phis[i]
        centers_a = np.abs(best_phi)
        centers_t = np.angle(best_phi)
        half_a *= 0.35
        half_t *= 0.35
    return best_phi, sign * best_val


def phase_grid_search(score, m: int, rounds: int = 6, nt: int = 24,
                      maximize: bool = False):
    """Exhaustive unit-modulus phase grid with refinement (M <= 3)."""
    centers = np.zeros(m)
    half = np.pi
    sign = 1.0 if maximize else -1.0
    best_phi, best_val = None, -np.inf
    for _ in range(rounds):
        axes = [c + np.linspace(-half, half, nt) for c in centers]
        mesh = np.meshgrid(*axes, indexing="ij")
        thetas = np.stack([m_.ravel() for m_ in mesh], axis=-1)
        phis = np.exp(1j * thetas)
        vals = sign * score(phis)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            best_phi = phis[i]
        centers = np.angle(best_phi)
        half *= 0.35
    return best_phi, sign * best_val


def project_feasible(y: np.ndarray, j_diag: np.ndarray, p_out: float | None,
                     a_max: float | None) -> np.ndarray:
    """Euclidean projection onto {sum j|x|^2 <= p_out} intersect {|x_m| <= a_max}.

    Both sets act radially per element, so for a fixed power multiplier nu the
    projection is the clipped shrinkage min(a_max, |y_m|/(1 + nu j_m)); nu is
    found by bisection on the power.
    """
    mag = np.abs(y)
    phase = np.where(mag > 0, y / np.where(mag > 0, mag, 1.0), 1.0)

    def shrink(nu: float) -> np.ndarray:
        r = mag / (1.0 + nu * j_diag)
        if a_max is not None:
            r = np.minimum(r, a_max)
        return r

    r0 = shrink(0.0)
    if p_out is None or float(np.sum(j_diag * r0**2)) <= p_out * (1 + 1e-14):
        return phase * r0
    lo, hi = 0.0, 1.0
    while float(np.sum(j_diag * shrink(hi) ** 2)) > p_out:
        hi *= 4.0
        if hi > 1e200:
            raise NumericalError("projection multiplier diverged")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(np.sum(j_diag * shrink(mid) ** 2)) > p_out:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, hi):
            break
    return phase * shrink(hi)


def solve_p22_pg(instance: QcqpInstance, x0: np.ndarray | None = None,
                 max_iter: int = 20000, tol: float = 1e-12) -> np.ndarray:
    """Accelerated projected gradient for the QCQP subproblem of ``solve_p22``."""
    s, g, _ = instance.reduced()
    j = instance.j_diag[:-1]
    m = instance.m
    x = np.zeros(m, dtype=complex) if x0 is None else np.asarray(x0, dtype=complex)[:m].copy()
    x = project_feasible(x, j, instance.p_out, instance.a_max)
    lam = float(np.linalg.eigvalsh(0.5 * (s + s.conj().T))[-1])
    step = 1.0 / (2.0 * lam + 1e-300)
    z, t = x.copy(), 1.0
    for _ in range(max_iter):
        grad = 2.0 * (s @ z + g)
        x_new = project_feasible(z - step * grad, j, instance.p_out, instance.a_max)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        z = x_new + ((t - 1.0) / t_new) * (x_new - x)
        if np.max(np.abs(x_new - x)) <= tol * (1.0 + np.max(np.abs(x_new))):
            x = x_new
            break
        x, t = x_new, t_new
    return np.concatenate([x, [1.0 + 0.0j]])


def kkt_residual(instance: QcqpInstance, phi_bar: np.ndarray) -> float:
    """Fixed-point optimality residual, relative to the solution scale.

    ||x - P(x - grad/L)|| / (1 + ||x||) with P the exact projection onto the
    feasible set; zero exactly at the constrained minimizer.
    """
    s, g, _ = instance.reduced()
    x = np.asarray(phi_bar, dtype=complex)[:instance.m]
    lam = float(np.linalg.eigvalsh(0.5 * (s + s.conj().T))[-1])
    lam = lam + float(np.max(instance.j_diag)) + 1e-300
    step = 1.0 / (2.0 * lam)
    proj = project_feasible(x - step * 2.0 * (s @ x + g), instance.j_diag[:-1],
                            instance.p_out, instance.a_max)
    return float(np.linalg.norm(x - proj) / (1.0 + np.linalg.norm(x)))


def big_d(ctx: ClosedFormContext) -> np.ndarray:
    """D = (sigma1^2 I + sum_k zeta_k p_k f_k f_k^H) / sigma2^2 over interferers, dense.

    O(M^2) memory; the closed forms use its diagonal-plus-low-rank structure
    instead of materializing it.
    """
    d = ctx.sigma1_sq * np.eye(ctx.m, dtype=complex)
    for k in range(1, len(ctx.a_f)):
        w = ctx.zeta[k] * ctx.p[k]
        if w > 0:
            fk = np.sqrt(ctx.beta_f[k]) * ctx.a_f[k]
            d += w * np.outer(fk, fk.conj())
    return d / ctx.sigma2_sq


def reference_detection_mc(scenario, hypothesis: str, rcm_for_trial) -> tuple[float, float, float]:
    """(rate, mean eta, mean predicted Pd) of one hypothesis, one trial at a time.

    Every trial starts from scratch: it draws its channels (LoS channels are
    rebuilt), solves for its coefficients with ``rcm_for_trial(scenario,
    channels)``, builds R, synthesizes the hypothesis' snapshots from
    substream (seed, trial, 1), whitens them with R and compares the largest
    eigenvalue with the threshold.
    """
    cfg = scenario.detector()
    gamma = detection_threshold(cfg)
    sources, noise = scenario.sources(), scenario.noise()
    n = scenario.trials
    hits = 0
    etas, pds = np.empty(n), np.empty(n)
    for t in range(n):
        channels = scenario.build_channels() if scenario.channel_model == "los" \
            else sample_rayleigh_channelset(scenario, (scenario.seed, t))
        rcm = rcm_for_trial(scenario, channels)
        r = noise_covariance(channels, rcm, sources, noise)
        y = sample_signals(channels, rcm, sources, noise, hypothesis, scenario.t_samples,
                           (scenario.seed, t, 1))
        hits += max_eig_statistic(whiten(y, r)) > gamma
        etas[t] = population_eta(channels, rcm, sources, noise)
        pds[t] = predicted_pd(spiked_stats(etas[t], cfg.c, cfg.n_antennas,
                                           gamma_th=gamma, alpha=cfg.alpha))
    return hits / n, float(etas.mean()), float(pds.mean())
