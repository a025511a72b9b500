"""Independent oracles used by the test suite.

Everything here deliberately avoids the library's own computational paths:
the Tracy-Widom CDF is evaluated as an Airy-kernel Fredholm determinant, the
largest eigenvalue via characteristic-polynomial roots, optimizers are
checked against exhaustive polar-grid searches and against projected-gradient
and coordinate-descent QCQP solvers, the closed forms against the dense
interference matrix, the planner's element counts against the paper's
interference-free forms, the stacked covariance and QCQP builders against
per-source loops, and the Monte Carlo harness against a plain per-hypothesis
trial loop that synthesizes, whitens and scores the N x T snapshots
themselves. Two exceptions: the forced-Bartlett sampler (bartlett_blocks,
bartlett_signals), a seed-level composition of the package's Bartlett draw
and scorer that takes that path on every activity draw, for the law and
exactness tests; and the indexed builders (indexed_covariance,
indexed_qcqp), the stacked formulas as they stood before the invariants of a
WMMSE solve were formed once per draw, for the bit-for-bit tests.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.special import airy

from risense import budget as bdg
from risense import sensing
from risense.budget import ClosedFormContext
from risense.channel import (ChannelSet, LosFactors, sample_rayleigh_channelset,
                             steering_vector_ula)
from risense.errors import InfeasibleError, NumericalError
from risense.optimizer import QcqpInstance
from risense.rng import substream
from risense.sensing import (NoiseModel, SourceModel, detection_threshold, noise_covariance,
                             population_eta, predicted_pd, psd_sqrt_inverse, solve_min_eta,
                             spiked_stats)


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
    return ChannelSet(d=d, f=f, g_matrix=g)


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
    return ChannelSet(d=d, f=f, g_matrix=g, los=LosFactors(a_su=a_su, b_ris=b_ris, a_f=a_f))


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
    if rcm.mode == "active" and noise.sigma1_sq > 0:
        g_phi = channels.g_matrix * phi[np.newaxis, :]
        r += noise.sigma1_sq * (g_phi @ g_phi.conj().T)
    return r


def loop_qcqp(u: np.ndarray, channels: ChannelSet, sources: SourceModel, noise: NoiseModel,
              rcm) -> tuple[np.ndarray, np.ndarray, float]:
    """(s, g, const) of the reflecting-coefficient subproblem, one source at a time.

    u^H h_k = conj(c_k) + v_k^H phi with v_k = conj(f_k) * (G^H u) and
    c_k = d_k^H u. Each source adds w_k |u^H h_k|^2 (w_0 = p_0), the primary
    also -2 p_0 Re(u^H h_0) + p_0; the surface noise adds
    sigma1^2 diag(|u^H G|^2) to s and the receiver noise sigma2^2 ||u||^2 to
    const.
    """
    m = channels.n_elements
    ug = u.conj() @ channels.g_matrix
    s = np.zeros((m, m), dtype=complex)
    if rcm.mode == "active" and noise.sigma1_sq > 0:
        s += noise.sigma1_sq * np.diag(np.abs(ug) ** 2)
    g = np.zeros(m, dtype=complex)
    const = sources.p[0] + noise.sigma2_sq * np.vdot(u, u).real
    for k in range(len(channels.f)):
        w = sources.p[k] if k == 0 else sources.zeta[k] * sources.p[k]
        v = channels.f[k].conj() * (channels.g_matrix.conj().T @ u)
        c = np.vdot(channels.d[k], u)
        s += w * np.outer(v, v.conj())
        g += w * v * np.conj(c)
        const += w * abs(c) ** 2
        if k == 0:
            g -= sources.p[0] * v
            const -= 2.0 * sources.p[0] * c.real
    return s, g, float(const)


def indexed_covariance(channels: ChannelSet, phi: np.ndarray, weights: np.ndarray,
                       sigma1_sq: float, sigma2_sq: float) -> np.ndarray:
    """sensing.covariance with its diagonal added through index arrays."""
    h = channels.d + channels.f @ (channels.g_matrix * phi[np.newaxis, :]).T
    g_phi = channels.g_matrix * phi[np.newaxis, :]
    a = np.concatenate([h.T * np.sqrt(weights), np.sqrt(sigma1_sq) * g_phi], axis=1)
    r = a @ a.conj().T
    r[np.diag_indices_from(r)] += sigma2_sq
    return r


def indexed_qcqp(u: np.ndarray, channels: ChannelSet, sources: SourceModel, noise: NoiseModel,
                 sigma1_sq: float) -> tuple[np.ndarray, np.ndarray, float]:
    """(s, g, const) of optimizer.build_qcqp, every conjugate formed in place and the
    forwarded noise added to the diagonal through index arrays."""
    m = channels.n_elements
    v = channels.f.conj() * (channels.g_matrix.conj().T @ u)
    c = channels.d.conj() @ u
    w = sources.zeta * sources.p
    vw = v.T * w
    s = vw @ v.conj()
    if sigma1_sq > 0:
        s[np.diag_indices(m)] += sigma1_sq * np.abs(u.conj() @ channels.g_matrix) ** 2
    g = vw @ c.conj() - sources.p[0] * v[0]
    const = float(w @ np.abs(c) ** 2) - 2.0 * float(sources.p[0] * np.real(c[0])) \
        + float(sources.p[0]) + noise.sigma2_sq * float(np.real(np.vdot(u, u)))
    return s, g, const


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
    if rcm.mode == "active":
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


def qcqp_objective(instance: QcqpInstance, phi: np.ndarray) -> float:
    """The subproblem's objective phi^H S phi + 2 Re(g^H phi) + const."""
    q = float(np.real(phi.conj() @ instance.s @ phi))
    return q + 2.0 * float(np.real(instance.g.conj() @ phi)) + instance.const


def solve_p22_pg(instance: QcqpInstance, x0: np.ndarray | None = None,
                 max_iter: int = 20000, tol: float = 1e-12) -> np.ndarray:
    """Accelerated projected gradient for the QCQP subproblem of ``solve_p22``."""
    s, g, j = instance.s, instance.g, instance.j
    x = np.zeros(g.size, dtype=complex) if x0 is None else np.asarray(x0, dtype=complex)
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
    return x


def box_qp_cd(s: np.ndarray, g: np.ndarray, a_max: float | None, x0: np.ndarray,
              max_sweeps: int = 2000) -> np.ndarray:
    """Cyclic exact coordinate descent for min x^H S x + 2 Re(g^H x), |x_m| <= a_max.

    Each coordinate problem is a paraboloid in one complex variable; its
    disk-constrained minimum is the radial clip of the unconstrained one.
    Zero-curvature coordinates keep their previous value. Sweeps stop when no
    coordinate moves by more than 1e-13 of the iterate's scale, or after
    max_sweeps.
    """
    x = x0.astype(complex).copy()
    if a_max is not None:
        mag = np.abs(x)
        over = mag > a_max
        x[over] *= a_max / mag[over]
    diag = np.real(np.diag(s))
    r = s @ x + g
    for _ in range(max_sweeps):
        delta = 0.0
        for i in range(x.size):
            if diag[i] <= 1e-300:
                continue
            xi = -(r[i] - diag[i] * x[i]) / diag[i]
            if a_max is not None and abs(xi) > a_max:
                xi *= a_max / abs(xi)
            step = xi - x[i]
            if step != 0:
                r += s[:, i] * step
                x[i] = xi
                delta = max(delta, abs(step))
        if delta <= 1e-13 * (1.0 + float(np.max(np.abs(x)))):
            break
    return x


def solve_p22_cd(instance: QcqpInstance, x0: np.ndarray | None = None) -> np.ndarray:
    """The QCQP subproblem by coordinate descent under the caps and bisection on mu.

    For a power multiplier mu the cap-constrained problem in S + mu J is
    solved by ``box_qp_cd`` (by a ridged linear solve when no cap binds); mu
    is bracketed by doubling octaves and bisected until the budget is tight.
    """
    s, g, j = instance.s, instance.g, instance.j
    a_max, p_out = instance.a_max, instance.p_out
    m = g.size

    def shifted(mu, start):
        h = s + np.diag(mu * j)
        x = np.linalg.solve(h + 1e-14 * np.trace(h).real * np.eye(m) / m, -g)
        if a_max is None or np.all(np.abs(x) <= a_max * (1 + 1e-12)):
            return project_feasible(x, j, None, a_max)
        return box_qp_cd(h, g, a_max, x if start is None else start)

    def power(x):
        return float(np.sum(j * np.abs(x) ** 2))

    x = shifted(0.0, x0)
    if p_out is None or power(x) <= p_out * (1 + 1e-12):
        return x
    lo, hi = 0.0, max(1.0, float(np.linalg.norm(g)) / max(float(np.sum(j)), 1e-300))
    x = shifted(hi, x)
    while power(x) > p_out:
        lo, hi = hi, 8.0 * hi
        if hi > 1e250:
            raise NumericalError("power multiplier diverged")
        x = shifted(hi, x)
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        xm = shifted(mid, x)
        pm = power(xm)
        if pm > p_out:
            lo = mid
        else:
            hi, x = mid, xm
        if (abs(pm - p_out) <= 1e-11 * p_out or hi - lo <= 1e-15 * hi) and pm <= p_out:
            break
    return x


def kkt_residual(instance: QcqpInstance, phi: np.ndarray) -> float:
    """Fixed-point optimality residual, relative to the solution scale.

    ||x - P(x - grad/L)|| / (1 + ||x||) with P the exact projection onto the
    feasible set; zero exactly at the constrained minimizer.
    """
    s, g = instance.s, instance.g
    x = np.asarray(phi, dtype=complex)
    lam = float(np.linalg.eigvalsh(0.5 * (s + s.conj().T))[-1])
    lam = lam + float(np.max(instance.j)) + 1e-300
    step = 1.0 / (2.0 * lam)
    proj = project_feasible(x - step * 2.0 * (s @ x + g), instance.j,
                            instance.p_out, instance.a_max)
    return float(np.linalg.norm(x - proj) / (1.0 + np.linalg.norm(x)))


def q_matrix(channels: ChannelSet) -> np.ndarray:
    """Q = [q_0 ... q_K] with q_k = B^H f_k, B = diag(b_ris), from a LoS channel set's vectors."""
    return (channels.los.b_ris.conj() * channels.f).T


def dense_zf_peak(channels: ChannelSet, coef: np.ndarray) -> tuple[float, float]:
    """max_i |w_i| of w = Q coef over the m elements of a LoS channel set, and its scale.

    Each w_i sums its rounded products coef_k q_k,i exactly (``math.fsum`` on the
    real and the imaginary parts), so it errs from the exact sum by at most
    about one unit in the last place of the scale max_i sum_k |coef_k q_k,i|.
    """
    products = q_matrix(channels) * coef
    w = np.array([complex(math.fsum(row.real), math.fsum(row.imag)) for row in products])
    return float(np.max(np.abs(w))), float(np.max(np.sum(np.abs(products), axis=1)))


def big_d(ctx: ClosedFormContext, channels: ChannelSet) -> np.ndarray:
    """D = (sigma1^2 I + sum_k zeta_k p_k f_k f_k^H) / sigma2^2 over interferers, dense.

    O(M^2) memory, from the incident channels of ``channels``; the closed
    forms read its array-factor kernels instead of materializing it.
    """
    d = ctx.sigma1_sq * np.eye(channels.n_elements, dtype=complex)
    for k in range(1, len(channels.f)):
        w = ctx.zeta[k] * ctx.p[k]
        if w > 0:
            fk = channels.f[k]
            d += w * np.outer(fk, fk.conj())
    return d / ctx.sigma2_sq


def vector_excess(method: str, ctx: ClosedFormContext, channels: ChannelSet, a_max: float,
                  p_out: float) -> float:
    """Closed-form excess of ``method`` from the m-element vectors of a LoS channel set.

    Sums over the elements where the package reads array-factor kernels:
    a_f[0]^H D a_f[0] for mf and passive (passive ignores a_max and p_out and
    needs ctx.sigma1_sq = 0); for zf, w = Q (Q^H Q)^-1 e_1 from the
    pseudo-inverse of Q, whose ||w||^2 is [(Q^H Q)^-1]_00; for mmse,
    q_0^H (c I + sum_k w_k q_k q_k^H)^-1 q_0 in the orthonormal basis of a QR
    factorization of Q, in place of Woodbury's identity on the Gram.
    """
    q, m = q_matrix(channels), channels.n_elements
    nb, ratio = ctx.n_antennas * ctx.beta_g, p_out / ctx.p_in_bar
    if method in ("mf", "passive"):
        a_f = channels.los.a_f
        power = ctx.zeta[1:] * ctx.p[1:] * ctx.beta_f[1:]
        quad = (ctx.sigma1_sq * float(np.real(a_f[0].conj() @ a_f[0]))
                + float(power @ np.abs(a_f[1:].conj() @ a_f[0]) ** 2)) / ctx.sigma2_sq
        a = 1.0 if method == "passive" else min(a_max, math.sqrt(p_out / (m * ctx.p_in_bar)))
        return nb * m * m * a * a * ctx.beta_f[0] * ctx.p[0] / (
            (1.0 + nb * a * a * quad) * ctx.sigma2_sq)
    if method == "zf":
        w = np.linalg.pinv(q)[0].conj()
        norm_w_sq = float(np.real(w.conj() @ w))
        rho2 = min(ratio, a_max**2 * norm_w_sq / float(np.max(np.abs(w)) ** 2))
        return nb * ctx.p[0] * rho2 / ((ctx.sigma2_sq + nb * ctx.sigma1_sq * rho2) * norm_w_sq)
    rho1 = min(ratio, m * a_max**2)
    weights = nb * ctx.zeta[1:] * ctx.p[1:] / ctx.sigma2_sq
    _, r = np.linalg.qr(q)
    core = (1.0 / rho1 + nb * ctx.sigma1_sq / ctx.sigma2_sq) * np.eye(len(r)) + \
        (r[:, 1:] * weights) @ r[:, 1:].conj().T
    quad = r[:, 0].conj() @ np.linalg.solve(core, r[:, 0])
    return nb * ctx.p[0] / ctx.sigma2_sq * float(np.real(quad))


def c0(ctx: ClosedFormContext) -> float:
    """Interference-free constant C0 = N beta_g sigma1^2 / sigma2^2."""
    return ctx.n_antennas * ctx.beta_g * ctx.sigma1_sq / ctx.sigma2_sq


def c2(ctx: ClosedFormContext) -> float:
    """Interference-free constant C2 = beta_f0 p_0 + sigma1^2, the incident power."""
    return ctx.beta_f[0] * ctx.p[0] + ctx.sigma1_sq


def optimal_amplitude(ctx: ClosedFormContext, p_aris: float,
                      a_max: float) -> tuple[float, float]:
    """Interference-free optimal squared amplitude A0 and the capped a_opt.

    A0 = C1 C2^(-1/2) (C2 + C0 P)^(-1/2); a_opt = min(a_max, sqrt(A0)).
    """
    if p_aris < 0:
        raise ValueError("budget must be nonnegative")
    a0 = ctx.c1 / np.sqrt(c2(ctx) * (c2(ctx) + c0(ctx) * p_aris))
    return float(a0), float(min(a_max, np.sqrt(a0)))


def eta_active_no_interference(ctx, n: int, m: float, a: float) -> float:
    """Population excess of the interference-free active configuration.

    eta = a^2 M^2 N beta_f0 beta_g p_0 / (M N sigma1^2 a^2 beta_g + sigma2^2);
    continuous at sigma1 = 0, where it matches the passive form. ``ctx`` needs
    only beta_f, beta_g, p, sigma1_sq and sigma2_sq.
    """
    num = a * a * m * m * n * ctx.beta_f[0] * ctx.beta_g * ctx.p[0]
    den = m * n * ctx.sigma1_sq * a * a * ctx.beta_g + ctx.sigma2_sq
    return float(num / den)


class OptimalM(NamedTuple):
    m_opt: float
    m_bar: int
    a_bar: float


def xi(ctx: ClosedFormContext, p_aris: float, m: int) -> float:
    """Amplitude that makes M elements consume the whole budget."""
    rem = p_aris - m * ctx.c1
    return float(np.sqrt(rem / (m * c2(ctx)))) if rem > 0 else 0.0


def q_gain(ctx: ClosedFormContext, m: float, a: float) -> float:
    """Coherent-combination figure of merit M^2 a^2 / (1 + C0 M a^2)."""
    return m * m * a * a / (1.0 + c0(ctx) * m * a * a)


def optimal_m(ctx: ClosedFormContext, p_aris: float, a_opt: float,
              a_max: float) -> OptimalM:
    """Interference-free element count spending the whole budget at a_opt, made integer.

    The real optimum satisfies M (C1 + C2 a_opt^2) = P. When it is fractional,
    the figure of merit q(M, min(a_max, xi(M))) increases up to floor(M) and
    decreases beyond, so the integer optimum is whichever neighbor scores
    higher. (Keeping the floor unconditionally whenever the amplitude cap
    binds can lose badly: the budget-exhausting M0+1 configuration often
    dominates; the exhaustive-scan test pins this down.) With no interferer
    the planner's matched-filter count maximizes the same figure of merit.
    """
    denom = ctx.c1 + c2(ctx) * a_opt**2
    if denom <= 0:
        raise ValueError("nonpositive per-element consumption")
    m_opt = p_aris / denom
    if m_opt < 1.0:
        if p_aris <= ctx.c1:
            raise InfeasibleError("budget cannot power a single element")
        return OptimalM(m_opt, 1, min(a_max, xi(ctx, p_aris, 1)))
    if float(m_opt).is_integer():
        return OptimalM(m_opt, int(m_opt), a_opt)
    m0 = int(math.floor(m_opt))
    a_lo = min(a_max, xi(ctx, p_aris, m0))
    a_hi = min(a_max, xi(ctx, p_aris, m0 + 1))
    if a_hi <= 0 or q_gain(ctx, m0, a_lo) > q_gain(ctx, m0 + 1, a_hi):
        return OptimalM(m_opt, m0, a_lo)
    return OptimalM(m_opt, m0 + 1, a_hi)


def eta_passive(n: int, m: float, beta_f0: float, beta_g: float, p0: float,
                sigma2_sq: float) -> float:
    """Population excess of the interference-free passive surface with aligned phases."""
    return float(n * m * m * beta_f0 * beta_g * p0 / sigma2_sq)


def passive_m_for_eta(eta_target: float, n: int, beta_f0: float, beta_g: float,
                      p0: float, sigma2_sq: float) -> int:
    """Smallest interference-free passive element count reaching the target excess."""
    m = np.sqrt(eta_target * sigma2_sq / (n * beta_f0 * beta_g * p0))
    return int(math.ceil(m - 1e-12))


def scan_per_probe_budget(method: str, pd_target: float, scenario) -> bdg.BudgetResult:
    """The planner as a plain bisection that rescans the element counts at every probe.

    Each probe scans every element count that the probed budget affords on
    the scenario's one context and keeps the best excess: the active forms
    on the ladder, by the excess that ``coefficients`` reads, with the best
    count's coefficients; passive by ``coefficients`` at every whole-column
    count up to passive_m(p) (a running max). No count is inverted and no
    probe decided without a scan; the bisection on the budget runs exactly
    as the planner's, so its result fields must match the planner's bit for
    bit.
    """
    if method not in ("mf", "zf", "mmse", "passive"):
        raise ValueError(f"the reference plans the closed forms only, got {method!r}")
    stop_tol, p_high = scenario.stop_tol, scenario.bisect_p_high
    eta0 = solve_min_eta(pd_target, scenario.detector())
    power = scenario.power_model()
    k, m_v = scenario.geometry.n_interferers, scenario.m_v

    def affords(p: float) -> int:
        m = power.passive_m(p) if method == "passive" else power.m_max(p)
        return m // m_v * m_v

    ctx = ClosedFormContext.from_scenario(scenario)
    designs: dict[int, bdg.Design] = {}  # passive designs are budget-free: each count once

    def probe(p: float):
        best = (0.0, 0, None)
        if method == "passive":
            for m in range(m_v, affords(p) + 1, m_v):
                if m not in designs:
                    designs[m] = bdg.coefficients(method, scenario, m, None, ctx=ctx)
                if designs[m].eta > best[0]:
                    best = (designs[m].eta, m, designs[m].rcm)
            return best
        for m in bdg._m_ladder(affords(p), bdg.EXACT_SCAN_CAP, m_v):
            p_out = power.p_out_budget(p, m)
            if p_out <= 0 or (method == "zf" and m < k + 1):
                continue
            terms = bdg._kernel_terms(method, ctx, [m], scenario.a_max).read(0)
            eta = float(bdg._excess(method, ctx, m, terms, bdg._over(p_out, ctx.p_in_bar),
                                    scenario.a_max)[0])
            if eta > best[0]:
                best = (eta, m, None)
        if best[1]:
            m = best[1]
            best = (best[0], m, bdg.coefficients(method, scenario, m, power.p_out_budget(p, m),
                                                  ctx=ctx).rcm)
        return best

    eta_hi, m_hi, rcm_hi = probe(p_high)
    probes = [(p_high, eta_hi)]
    if eta_hi <= eta0:
        floor = (k + 1) * (power.p_c + power.p_dc)
        hint = f" (zero-forcing needs at least {floor:.6g} W for K+1 elements)" \
            if method == "zf" else ""
        raise InfeasibleError(
            f"target Pd {pd_target} unreachable with budget {p_high} W: "
            f"best excess {eta_hi:.6g} < required {eta0:.6g}{hint}")
    p_low = 0.0
    best = (p_high, eta_hi, m_hi, rcm_hi)
    while p_high - p_low > stop_tol:
        mid = 0.5 * (p_low + p_high)
        if mid in (p_low, p_high):
            break
        eta_mid, m_mid, rcm_mid = probe(mid)
        probes.append((mid, eta_mid))
        if eta_mid > eta0:
            p_high = mid
            best = (mid, eta_mid, m_mid, rcm_mid)
        else:
            p_low = mid
    note = ""
    if method == "mmse":
        over = float(np.max(np.abs(best[3].phi))) / scenario.a_max
        if over > 1.0:
            note = f"relaxed norm-ball solution exceeds the per-element cap by x{over:.3f}"
    return bdg.BudgetResult(method=method, required_power=best[0], m_star=best[2],
                            phi_star=best[3], eta_star=best[1], eta_target=eta0,
                            probes=tuple(sorted(probes)), note=note)


def sample_cn_two_calls(rng: np.random.Generator, variance: float, shape) -> np.ndarray:
    """CN(0, variance) variates: the real parts in one call, the imaginary in a second."""
    scale = np.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def snapshot_draw(channels: ChannelSet, rcm, sources: SourceModel, noise: NoiseModel,
                  n_samples: int, rng_seed) -> tuple[np.ndarray, np.ndarray | None]:
    """Signal-free snapshots Y0 (N x T), one source term at a time, and the
    primary's T symbols s0 (None for a silent primary).

    Draw order: receiver noise, surface noise, activity, active interferers,
    primary; each term is added to the array in turn, the interferers as outer
    products h_k s_k^T.
    """
    phi = np.asarray(rcm.phi, dtype=complex)
    h = loop_channels(channels, phi)
    rng = substream(rng_seed, 0x51)
    y = sample_cn_two_calls(rng, noise.sigma2_sq, (channels.n_antennas, n_samples))
    if rcm.mode == "active" and noise.sigma1_sq > 0:
        g_phi = channels.g_matrix * phi[np.newaxis, :]
        y += g_phi @ sample_cn_two_calls(rng, noise.sigma1_sq, (channels.n_elements, n_samples))
    active = rng.random(len(h)) < sources.zeta
    for k in range(1, len(h)):
        if active[k] and sources.p[k] > 0:
            y += np.outer(h[k], sample_cn_two_calls(rng, sources.p[k], n_samples))
    return y, sample_cn_two_calls(rng, sources.p[0], n_samples) if sources.p[0] > 0 else None


def snapshot_signals(channels: ChannelSet, rcm, sources: SourceModel, noise: NoiseModel,
                     hypothesis: str, n_samples: int, rng_seed) -> np.ndarray:
    """The snapshots of one hypothesis: Y0 under "h0", Y0 + h_0 s0^T under "h1"."""
    y, s0 = snapshot_draw(channels, rcm, sources, noise, n_samples, rng_seed)
    if hypothesis == "h1" and s0 is not None:
        y += np.outer(loop_channels(channels, np.asarray(rcm.phi, dtype=complex))[0], s0)
    return y


def snapshot_blocks(channels: ChannelSet, rcm, sources: SourceModel, noise: NoiseModel,
                    n_samples: int, rng_seed, q_inv: np.ndarray) -> tuple:
    """gram_blocks' (W0, v, ||s0||^2), formed from snapshot_draw's snapshots:
    W0 = X0 X0^H and v = X0 conj(s0) with X0 = Q^-1 Y0 (v = 0 for a silent primary)."""
    y0, s0 = snapshot_draw(channels, rcm, sources, noise, n_samples, rng_seed)
    x0 = q_inv @ y0
    if s0 is None:
        s0 = np.zeros(n_samples, dtype=complex)
    return x0 @ x0.conj().T, x0 @ s0.conj(), float(np.vdot(s0, s0).real)


def bartlett_blocks(channels: ChannelSet, rcm, sources: SourceModel, noise: NoiseModel,
                    hypothesis: str, n_samples: int, rng_seed,
                    q_inv: np.ndarray | None = None) -> tuple:
    """Whitened Gram blocks (W0, v, ||s0||^2) of one sensing interval on sample_signals'
    Bartlett path, whatever its activity draw: the interferers' activity from
    substream(seed, 0x51), then sensing.gram_blocks on the same generator with
    C = Q^-1 R_active Q^-1. Under "h0" v is None and ||s0||^2 is 0; W0 is the same
    under both hypotheses. ``q_inv`` defaults to the whitening factor of noise_covariance.
    """
    if hypothesis not in ("h0", "h1"):
        raise ValueError("hypothesis must be 'h0' or 'h1'")
    if n_samples < channels.n_antennas:
        raise ValueError("the Wishart draw needs n_samples >= n_antennas")
    if q_inv is None:
        q_inv = psd_sqrt_inverse(noise_covariance(channels, rcm, sources, noise))
    rng = substream(rng_seed, 0x51)
    active = rng.random(sources.n_interferers + 1) < sources.zeta
    weights = np.where(active, sources.p, 0.0)
    weights[0] = 0.0  # the primary is the signal, not noise
    r_active = sensing.covariance(channels, np.asarray(rcm.phi, dtype=complex), weights,
                                  rcm.sigma1_sq(noise), noise.sigma2_sq)
    w0, v, s2 = sensing.gram_blocks(rng, sensing.whiten(r_active, q_inv), sources.p[0],
                                    n_samples)
    return (w0, v, s2) if hypothesis == "h1" else (w0, None, 0.0)


def whitening_factor(channels: ChannelSet, rcm, sources: SourceModel, noise: NoiseModel,
                     whitening: sensing.Whitening | None = None) -> np.ndarray:
    """Q^-1 = psd_sqrt_inverse(noise_covariance(...)): that of ``whitening``, the
    sample_signals argument the trial loop hands a stand-in sampler, when given."""
    if whitening is not None:
        return whitening.q_inv
    return psd_sqrt_inverse(noise_covariance(channels, rcm, sources, noise))


def bartlett_signals(channels: ChannelSet, rcm, sources: SourceModel, noise: NoiseModel,
                     hypothesis: str, n_samples: int, rng_seed,
                     whitening: sensing.Whitening | None = None) -> tuple:
    """sample_signals' (lambda_1, lambda_0) on its Bartlett path, whatever the activity
    draw: bartlett_blocks scored by sensing.bartlett_statistics (lambda_1 is None
    under "h0")."""
    q_inv = whitening_factor(channels, rcm, sources, noise, whitening)
    w0, v, s2 = bartlett_blocks(channels, rcm, sources, noise, "h1", n_samples, rng_seed, q_inv)
    b = q_inv @ sensing.equivalent_channels(channels, np.asarray(rcm.phi, dtype=complex))[0]
    lam1, lam0 = sensing.bartlett_statistics(w0, v, s2, b, n_samples)
    return (lam1 if hypothesis == "h1" else None), lam0


def snapshot_statistics(channels: ChannelSet, rcm, sources: SourceModel, noise: NoiseModel,
                        hypothesis: str, n_samples: int, rng_seed,
                        whitening: sensing.Whitening | None = None) -> tuple:
    """sample_signals' (lambda_1, lambda_0), from snapshot_draw's N x T snapshots:
    the largest eigenvalues of (1/T) X X^H for X0 = Q^-1 Y0 and X1 = Q^-1 (Y0 + h_0 s0^T)
    (lambda_1 is None under "h0")."""
    q_inv = whitening_factor(channels, rcm, sources, noise, whitening)
    y0, s0 = snapshot_draw(channels, rcm, sources, noise, n_samples, rng_seed)
    lam0 = snapshot_max_eig(q_inv @ y0)
    if hypothesis == "h0":
        return None, lam0
    if s0 is not None:
        y0 = y0 + np.outer(loop_channels(channels, np.asarray(rcm.phi, dtype=complex))[0], s0)
    return snapshot_max_eig(q_inv @ y0), lam0


def whiten(y: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Whitened snapshots Q^-1 Y, with Q the PSD square root of r."""
    return psd_sqrt_inverse(r) @ y


def snapshot_max_eig(x: np.ndarray) -> float:
    """Largest eigenvalue of the sample covariance (1/T) X X^H of the snapshots X."""
    return float(np.linalg.eigvalsh((x @ x.conj().T) / x.shape[1])[-1])


def reference_statistic(scenario, hypothesis: str, trial: int, channels, rcm) -> float:
    """The detection statistic of one trial and hypothesis, from its whitened snapshots."""
    r = noise_covariance(channels, rcm, scenario.sources(), scenario.noise())
    y = snapshot_signals(channels, rcm, scenario.sources(), scenario.noise(), hypothesis,
                         scenario.t_samples, (scenario.seed, trial, 1))
    return snapshot_max_eig(whiten(y, r))


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
        hits += reference_statistic(scenario, hypothesis, t, channels, rcm) > gamma
        etas[t] = population_eta(channels, rcm, sources, noise)
        pds[t] = predicted_pd(spiked_stats(etas[t], cfg.c, cfg.n_antennas,
                                           gamma_th=gamma, alpha=cfg.alpha))
    return hits / n, float(etas.mean()), float(pds.mean())
