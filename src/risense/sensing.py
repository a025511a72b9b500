"""Maximum-eigenvalue detection with noise pre-whitening.

The receiver collects T snapshots, whitens them with the analytic
noise-plus-interference covariance (the detector is genie-aided: channels
are assumed known), and compares the largest eigenvalue of the whitened
sample covariance against a Tracy-Widom threshold. Under the alternative,
that eigenvalue separates from the bulk once the population excess ``eta``
crosses the phase transition sqrt(chi), after which its law is Gaussian and
the detection probability has a closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq
from scipy.stats import norm

from . import _tw2_table
from .channel import ChannelSet
from .errors import InfeasibleError, NumericalError
from .rng import sample_cn, substream

PSD_RTOL = 1e-12  # reject covariances with lam_min < PSD_RTOL * lam_max


@dataclass(frozen=True)
class NoiseModel:
    """Thermal noise at the surface (sigma1_sq) and receiver AWGN (sigma2_sq), Watts."""

    sigma1_sq: float
    sigma2_sq: float

    def __post_init__(self):
        if self.sigma1_sq < 0 or self.sigma2_sq <= 0:
            raise ValueError("need sigma1_sq >= 0 and sigma2_sq > 0")


@dataclass(frozen=True)
class SourceModel:
    """Transmit powers p[k] (Watts) and activity probabilities zeta[k].

    Index 0 is the primary transmitter and is always active (zeta[0] = 1).
    """

    p: np.ndarray
    zeta: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        z = np.asarray(self.zeta, dtype=float)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "zeta", z)
        if p.shape != z.shape or p.ndim != 1 or p.size < 1:
            raise ValueError("p and zeta must be 1-D arrays of equal length >= 1")
        if np.any(p < 0) or np.any((z < 0) | (z > 1)):
            raise ValueError("powers must be >= 0 and activities in [0, 1]")
        if z[0] != 1.0:
            raise ValueError("the primary source must have zeta[0] = 1")

    @property
    def n_interferers(self) -> int:
        return self.p.size - 1


def alpha_supported(alpha: float) -> bool:
    """Whether alpha is a probability whose threshold quantile 1 - alpha is tabulated."""
    return 0.0 < alpha < 1.0 and _tw2_table.CDF[0] <= 1.0 - alpha <= _tw2_table.CDF[-1]


@dataclass(frozen=True)
class DetectorConfig:
    """Detector shape: N antennas, T snapshots, target false-alarm alpha."""

    n_antennas: int
    n_samples: int
    alpha: float

    def __post_init__(self):
        if self.n_antennas < 1 or self.n_samples < 1:
            raise ValueError("n_antennas and n_samples must be >= 1")
        if not alpha_supported(self.alpha):
            raise ValueError(f"alpha must lie in (0, 1) with 1 - alpha inside the Tracy-Widom "
                             f"table, i.e. in [{1 - _tw2_table.CDF[-1]:.3g}, "
                             f"{1 - _tw2_table.CDF[0]:.12g}]; got {self.alpha}")

    @property
    def c(self) -> float:
        return self.n_antennas / self.n_samples


@dataclass(frozen=True)
class SpikedStats:
    """Largest-sample-eigenvalue statistics for a given population excess.

    On the Gaussian branch (eta > sqrt(chi)) ``mu_a``/``v_a`` hold the mean
    and variance; below the transition they are None and the Tracy-Widom
    branch applies (the detector is then blind: Pd collapses to the
    false-alarm level).
    """

    eta: float
    chi: float
    n_antennas: int
    mu_a: float | None
    v_a: float | None
    gamma_th: float | None = None
    alpha: float | None = None

    @property
    def gaussian_branch(self) -> bool:
        return self.mu_a is not None


def equivalent_channels(channels: ChannelSet, phi: np.ndarray) -> np.ndarray:
    """Rows h_k = d_k + G diag(phi) f_k, one per source: D + F (G Phi)^T."""
    g_phi = channels.g_matrix * phi[np.newaxis, :]
    return channels.d + channels.f @ g_phi.T


def covariance(channels: ChannelSet, phi: np.ndarray, weights: np.ndarray,
               sigma1_sq: float, sigma2_sq: float) -> np.ndarray:
    """sum_k w_k h_k h_k^H + sigma2^2 I + sigma1^2 (G Phi)(G Phi)^H.

    One product A A^H with A = [h_0 sqrt(w_0) ... h_K sqrt(w_K) | sigma1 G Phi];
    the weights are nonnegative, one per source.
    """
    h = equivalent_channels(channels, phi)
    g_phi = channels.g_matrix * phi[np.newaxis, :]
    a = np.concatenate([h.T * np.sqrt(weights), np.sqrt(sigma1_sq) * g_phi], axis=1)
    r = a @ a.conj().T
    r[np.diag_indices_from(r)] += sigma2_sq
    return r


def noise_covariance(channels: ChannelSet, rcm, sources: SourceModel,
                     noise: NoiseModel) -> np.ndarray:
    """Population covariance of the signal-free snapshots.

    R = sum_k zeta_k p_k h_k h_k^H  +  sigma2^2 I  +  sigma1^2 (G Phi)(G Phi)^H,
    summing over interferers only. Passive surfaces forward no thermal noise
    (their modes carry sigma1_sq = 0 through ``rcm.forwards_noise``).
    """
    phi = np.asarray(rcm.phi, dtype=complex)
    if phi.shape != (channels.n_elements,):
        raise ValueError("reflecting coefficients do not match the channel set")
    if sources.n_interferers != channels.n_interferers:
        raise ValueError("source model does not match the channel set")
    weights = sources.zeta * sources.p
    weights[0] = 0.0  # the primary is the signal, not noise
    r = covariance(channels, phi, weights, noise.sigma1_sq if rcm.forwards_noise else 0.0,
                   noise.sigma2_sq)
    return 0.5 * (r + r.conj().T)


def sample_signals(channels: ChannelSet, rcm, sources: SourceModel, noise: NoiseModel,
                   hypothesis: str, n_samples: int, rng_seed: int) -> np.ndarray:
    """Synthesize one sensing interval of T snapshots (columns).

    Interferer activity is drawn once per interval; symbol and noise
    processes are i.i.d. across snapshots. Deterministic given the seed.
    The primary's symbols are drawn last, so ``hypothesis="both"`` returns
    the signal-free snapshots Y0 with the primary's symbol stream s0 (None
    for a silent primary), and Y0 + outer(h_0, s0) is the "h1" draw bit for
    bit.
    """
    if hypothesis not in ("h0", "h1", "both"):
        raise ValueError("hypothesis must be 'h0', 'h1' or 'both'")
    phi = np.asarray(rcm.phi, dtype=complex)
    n, m = channels.n_antennas, channels.n_elements
    rng = substream(rng_seed, 0x51)
    h = equivalent_channels(channels, phi)

    y = sample_cn(rng, noise.sigma2_sq, (n, n_samples))
    sigma1 = noise.sigma1_sq if rcm.forwards_noise else 0.0
    if sigma1 > 0:
        g_phi = channels.g_matrix * phi[np.newaxis, :]
        y += g_phi @ sample_cn(rng, sigma1, (m, n_samples))
    active = rng.random(sources.n_interferers + 1) < sources.zeta
    for k in range(1, len(h)):
        if active[k] and sources.p[k] > 0:
            y += np.outer(h[k], sample_cn(rng, sources.p[k], n_samples))
    s0 = None
    if hypothesis != "h0" and sources.p[0] > 0:
        s0 = sample_cn(rng, sources.p[0], n_samples)
    if hypothesis == "both":
        return y, s0
    if s0 is not None:
        y += np.outer(h[0], s0)
    return y


def psd_sqrt_inverse(r: np.ndarray) -> np.ndarray:
    """Inverse of the Hermitian PSD square root of r (r = Q^2, returns Q^-1)."""
    lam, u = np.linalg.eigh(r)
    if lam[0] < PSD_RTOL * lam[-1]:
        raise NumericalError(
            f"covariance not positive definite: lam_min/lam_max = {lam[0] / lam[-1]:.3e}")
    return (u / np.sqrt(lam)) @ u.conj().T


def whiten(y: np.ndarray, r: np.ndarray | None = None,
           q_inv: np.ndarray | None = None) -> np.ndarray:
    """Whiten snapshots with the PSD square root of r: X = Q^-1 Y.

    Pass ``q_inv = psd_sqrt_inverse(r)`` instead of r to reuse the factor.
    """
    return (psd_sqrt_inverse(r) if q_inv is None else q_inv) @ y


def max_eig_statistic(x: np.ndarray) -> float:
    """Largest eigenvalue of the sample covariance (1/T) X X^H."""
    n, t = x.shape
    s = (x @ x.conj().T) / t
    return float(np.linalg.eigvalsh(s)[-1])


_TW2_INTERP: PchipInterpolator | None = None


def _tw2_interp() -> PchipInterpolator:
    global _TW2_INTERP
    if _TW2_INTERP is None:
        _TW2_INTERP = PchipInterpolator(_tw2_table.S_GRID, _tw2_table.CDF)
    return _TW2_INTERP


def tw2_quantile(p: float) -> float:
    """Quantile of the order-2 Tracy-Widom law, from the embedded table.

    Monotone cubic interpolation of the tabulated CDF, inverted by root
    finding. Supported for p within the table range (~[1e-10, 1 - 2e-14]).
    """
    grid, cdf = _tw2_table.S_GRID, _tw2_table.CDF
    if not cdf[0] <= p <= cdf[-1]:
        raise ValueError(f"p = {p} outside the tabulated range [{cdf[0]:.3e}, {cdf[-1]:.17f}]")
    interp = _tw2_interp()
    return float(brentq(lambda s: interp(s) - p, grid[0], grid[-1], xtol=1e-12))


def detection_threshold(cfg: DetectorConfig) -> float:
    """False-alarm threshold for the largest whitened sample eigenvalue.

    gamma_th = N^(-2/3) (1+sqrt(c))^(4/3) sqrt(c) F2^-1(1-alpha) + (1+sqrt(c))^2
    with c = N/T.
    """
    c = cfg.c
    sc = np.sqrt(c)
    return (cfg.n_antennas ** (-2.0 / 3.0) * (1 + sc) ** (4.0 / 3.0) * sc
            * tw2_quantile(1.0 - cfg.alpha) + (1 + sc) ** 2)


def population_eta(channels: ChannelSet, rcm, sources: SourceModel,
                   noise: NoiseModel) -> float:
    """Excess of the largest population eigenvalue under the alternative.

    eta = p_0 h_0^H R^-1 h_0; the largest eigenvalue of the whitened
    population covariance under the alternative is 1 + eta.
    """
    r = noise_covariance(channels, rcm, sources, noise)
    h0 = equivalent_channels(channels, np.asarray(rcm.phi, dtype=complex))[0]
    return eta_from_covariance(r, h0, sources.p[0])


def eta_from_covariance(r: np.ndarray, h0: np.ndarray, p0: float) -> float:
    """eta = p_0 h_0^H R^-1 h_0 for a noise covariance R already built."""
    try:
        z = np.linalg.solve(r, h0)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("noise covariance is singular") from exc
    return float(p0 * np.real(h0.conj() @ z))


def spiked_stats(eta: float, chi: float, n_antennas: int,
                 gamma_th: float | None = None, alpha: float | None = None) -> SpikedStats:
    """Mean/variance of the largest sample eigenvalue for population excess eta.

    Gaussian branch (eta > sqrt(chi)):
        mu_a = eta + 1 + chi + chi/eta
        v_a  = (eta + 1)^2 / T * (1 - chi/eta),  T = N/chi.
    Below the transition the Tracy-Widom branch applies and both are None.
    """
    if eta < 0 or chi <= 0 or n_antennas < 1:
        raise ValueError("need eta >= 0, chi > 0, n_antennas >= 1")
    if eta <= np.sqrt(chi):
        return SpikedStats(eta=eta, chi=chi, n_antennas=n_antennas, mu_a=None, v_a=None,
                           gamma_th=gamma_th, alpha=alpha)
    t = n_antennas / chi
    mu = eta + 1.0 + chi + chi / eta
    v = (eta + 1.0) ** 2 / t * (1.0 - chi / eta)
    return SpikedStats(eta=eta, chi=chi, n_antennas=n_antennas, mu_a=mu, v_a=v,
                       gamma_th=gamma_th, alpha=alpha)


def spiked_stats_for(cfg: DetectorConfig, eta: float) -> SpikedStats:
    """Spiked statistics bundled with the detector's threshold."""
    return spiked_stats(eta, cfg.c, cfg.n_antennas,
                        gamma_th=detection_threshold(cfg), alpha=cfg.alpha)


def predicted_pd(stats: SpikedStats) -> float:
    """Predicted detection probability Q((gamma_th - mu_a) / sqrt(v_a)).

    On the Tracy-Widom branch the statistic is distributed as under the
    null, so the prediction collapses to the false-alarm probability.
    """
    if stats.gamma_th is None:
        raise ValueError("stats carry no threshold; build them with spiked_stats_for")
    if not stats.gaussian_branch:
        if stats.alpha is None:
            raise ValueError("Tracy-Widom branch needs the false-alarm level alpha")
        return stats.alpha
    return float(norm.sf((stats.gamma_th - stats.mu_a) / np.sqrt(stats.v_a)))


def solve_min_eta(pd_target: float, cfg: DetectorConfig) -> float:
    """Smallest population excess achieving the target detection probability.

    Solves predicted_pd(eta) = pd_target on the Gaussian branch by monotone
    root finding. Raises InfeasibleError when the target is not reachable
    there (at or below the false-alarm level, or below the value attained at
    the phase transition).
    """
    if not 0.0 < pd_target < 1.0:
        raise ValueError("pd_target must lie in (0, 1)")
    if pd_target <= cfg.alpha:
        raise InfeasibleError(
            f"target Pd {pd_target} does not exceed the false-alarm level {cfg.alpha}")
    chi = cfg.c
    gamma_th = detection_threshold(cfg)

    def pd_of(eta: float) -> float:
        return predicted_pd(spiked_stats(eta, chi, cfg.n_antennas,
                                         gamma_th=gamma_th, alpha=cfg.alpha))

    lo = np.sqrt(chi) * (1 + 1e-12) + 1e-300
    pd_lo = pd_of(lo)
    if pd_target <= pd_lo:
        raise InfeasibleError(
            f"target Pd {pd_target} is below the value {pd_lo:.4f} attained at the "
            "spiked-model phase transition; no Gaussian-branch solution exists")
    hi = max(1.0, 2.0 * np.sqrt(chi))
    while pd_of(hi) < pd_target:
        hi *= 2.0
        if hi > 1e12:
            raise InfeasibleError("target Pd not reachable for any finite eta")
    return float(brentq(lambda e: pd_of(e) - pd_target, lo, hi, rtol=1e-10, xtol=1e-300))
