"""Maximum-eigenvalue detection with noise pre-whitening.

The receiver collects T snapshots, whitens them with the analytic
noise-plus-interference covariance (the detector is genie-aided: channels
are assumed known), and compares the largest eigenvalue of the whitened
sample covariance against a Tracy-Widom threshold. sample_signals draws a
sensing interval's statistics, or given the threshold its decisions, without
its N x T snapshots. It draws the interval's interferer activity once, and
that draw selects one of two paths on the same generator:

- when the draw leaves the interference covariance equal to its mean
  (always, when every activity zeta is 1), the whitened snapshots are white
  under H0 and carry one spike under H1, and each statistic is the top
  eigenvalue of an N x N tridiagonal spiked-Laguerre matrix (2N - 1 gamma
  variates, shared by both hypotheses); a decision counts that matrix's
  eigenvalues above the threshold (Sturm counts) and bisects for the top
  eigenvalue only when one lies within 1e-10 of it (relative);
- otherwise gram_blocks draws the whitened Gram blocks as a complex Wishart
  matrix from its Bartlett factor, and bartlett_statistics scores the given
  blocks: H0 from W0, H1 from its rank-2 update, both diagonalized in full.

The trials of one channel draw share a Whitening: R, the excess eta that
sets the first path's spike, and the whitening factor Q^-1, which only the
second path reads and forms. The tests' forced-Bartlett sampler, which takes
the second path on every draw, lives in tests/oracles.py.

Under the alternative, the largest eigenvalue separates from the bulk once
the population excess ``eta`` crosses the phase transition sqrt(chi), after
which its law is Gaussian and the detection probability has a closed form.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.linalg.lapack import dstebz
from scipy.optimize import brentq
from scipy.special import ndtr

from . import _tw2_table
from .channel import ChannelSet
from .errors import InfeasibleError, NumericalError
from .rng import sample_cn, substream

PSD_RTOL = 1e-12  # reject covariances with lam_min < PSD_RTOL * lam_max
# a tridiagonal decision bisects for the top eigenvalue only when the Sturm counts at
# gamma T (1 - BAND_RTOL) and gamma T (1 + BAND_RTOL) differ; counts and bisection
# agree to a few ulps of the top eigenvalue, far inside this band
BAND_RTOL = 1e-10


@dataclass(frozen=True)
class NoiseModel:
    """Thermal noise at the surface (sigma1_sq) and receiver AWGN (sigma2_sq), Watts."""

    sigma1_sq: float
    sigma2_sq: float

    def __post_init__(self):
        if not (self.sigma1_sq >= 0 and self.sigma2_sq > 0):
            raise ValueError("noise powers must be nonnegative (sigma2 positive)")


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
        if not np.all((0 <= p) & (p < np.inf)):
            raise ValueError("source powers must be finite and nonnegative")
        if not (np.all((0 <= z) & (z <= 1)) and z[0] == 1.0):
            raise ValueError("activities zeta must lie in [0, 1], with zeta = 1 for the primary")

    @property
    def n_interferers(self) -> int:
        return self.p.size - 1


@dataclass(frozen=True)
class DetectorConfig:
    """Detector shape: N antennas, T snapshots, target false-alarm alpha."""

    n_antennas: int
    n_samples: int
    alpha: float

    def __post_init__(self):
        if self.n_antennas < 1 or self.n_samples < 1:
            raise ValueError("n_antennas and n_samples must be >= 1")
        if not _tw2_table.CDF[0] <= 1.0 - self.alpha <= _tw2_table.CDF[-1]:
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
    false-alarm level). ``gamma_th`` and ``alpha`` are the detector's
    threshold and false-alarm level.
    """

    mu_a: float | None
    v_a: float | None
    gamma_th: float
    alpha: float

    @property
    def gaussian_branch(self) -> bool:
        return self.mu_a is not None


def equivalent_channels(channels: ChannelSet, phi: np.ndarray) -> np.ndarray:
    """Rows h_k = d_k + G diag(phi) f_k, one per source: D + F (G Phi)^T."""
    g_phi = channels.g_matrix * phi[np.newaxis, :]
    return channels.d + channels.f @ g_phi.T


def covariance(channels: ChannelSet, phi: np.ndarray, weights: np.ndarray,
               sigma1_sq: float, sigma2_sq: float, h: np.ndarray | None = None) -> np.ndarray:
    """sum_k w_k h_k h_k^H + sigma2^2 I + sigma1^2 (G Phi)(G Phi)^H.

    One product A A^H with A = [h_0 sqrt(w_0) ... h_K sqrt(w_K) | sigma1 G Phi];
    the weights are nonnegative, one per source. h, when given, holds the
    rows ``equivalent_channels(channels, phi)``.
    """
    if h is None:
        h = equivalent_channels(channels, phi)
    g_phi = channels.g_matrix * phi[np.newaxis, :]
    a = np.concatenate([h.T * np.sqrt(weights), np.sqrt(sigma1_sq) * g_phi], axis=1)
    r = a @ a.conj().T
    r.reshape(-1)[::r.shape[0] + 1] += sigma2_sq
    return r


def _phi(channels: ChannelSet, rcm) -> np.ndarray:
    """rcm.phi as a complex array; a ValueError unless it holds one entry per element."""
    phi = np.asarray(rcm.phi, dtype=complex)
    if phi.shape != (channels.n_elements,):
        raise ValueError("reflecting coefficients do not match the channel set")
    return phi


def noise_covariance(channels: ChannelSet, rcm, sources: SourceModel,
                     noise: NoiseModel, h: np.ndarray | None = None) -> np.ndarray:
    """Population covariance of the signal-free snapshots.

    R = sum_k zeta_k p_k h_k h_k^H  +  sigma2^2 I  +  sigma1^2 (G Phi)(G Phi)^H,
    summing over interferers only. Passive surfaces forward no thermal noise
    (``rcm.sigma1_sq``). h, when given, holds the rows
    ``equivalent_channels(channels, phi)``.
    """
    phi = _phi(channels, rcm)
    if sources.n_interferers != channels.n_interferers:
        raise ValueError("source model does not match the channel set")
    r = covariance(channels, phi, _noise_weights(sources, sources.zeta), rcm.sigma1_sq(noise),
                   noise.sigma2_sq, h)
    return 0.5 * (r + r.conj().T)


def _noise_weights(sources: SourceModel, activity: np.ndarray) -> np.ndarray:
    """Weights activity_k p_k of the interferers' terms in a noise covariance: zeta for
    R's mean weights, a sensing interval's activity draw for its R_active."""
    weights = activity * sources.p
    weights[0] = 0.0  # the primary is the signal, not noise
    return weights


@dataclass(frozen=True, eq=False)
class Whitening:
    """What the trials on one channel draw and coefficients read of the noise covariance R.

    ``h`` holds the rows equivalent_channels(channels, phi), h[0] the primary's, and
    ``p0`` its power. Each derived quantity is formed on first use, then kept: ``eta``
    (the tridiagonal draw's spike is 1 + eta), and the whitening factor ``q_inv`` and
    whitened channel ``b``, which only a Bartlett draw reads.
    """

    r: np.ndarray
    h: np.ndarray
    p0: float

    @classmethod
    def of(cls, channels: ChannelSet, rcm, sources: SourceModel,
           noise: NoiseModel) -> "Whitening":
        """The Whitening of a channel set and coefficients. NumericalError when R is too
        ill-conditioned to whiten, by psd_sqrt_inverse's check.

        R = sigma2^2 I + a PSD sum, so lam_min(R) >= sigma2^2 and lam_max(R) <= tr R:
        when sigma2^2 >= 2 PSD_RTOL tr R the check passes without an eigendecomposition
        (the factor 2 leaves room for its rounding). Otherwise Q^-1 is formed here.
        """
        h = equivalent_channels(channels, _phi(channels, rcm))
        r = noise_covariance(channels, rcm, sources, noise, h)
        whitening = cls(r=r, h=h, p0=float(sources.p[0]))
        if not noise.sigma2_sq >= 2.0 * PSD_RTOL * np.trace(r).real:
            whitening.q_inv  # noqa: B018 -- formed now: its eigenvalue check decides
        return whitening

    @functools.cached_property
    def eta(self) -> float:
        """The population excess p_0 h_0^H R^-1 h_0."""
        try:
            z = np.linalg.solve(self.r, self.h[0])
        except np.linalg.LinAlgError as exc:
            raise NumericalError("noise covariance is singular") from exc
        return float(self.p0 * np.real(self.h[0].conj() @ z))

    @functools.cached_property
    def q_inv(self) -> np.ndarray:
        return psd_sqrt_inverse(self.r)

    @functools.cached_property
    def b(self) -> np.ndarray:
        return self.q_inv @ self.h[0]


def sample_signals(channels: ChannelSet, rcm, sources: SourceModel, noise: NoiseModel,
                   hypothesis: str, n_samples: int, rng_seed,
                   whitening: Whitening | None = None, gamma_th: float | None = None) -> tuple:
    """The statistics (lambda_1, lambda_0) of one sensing interval, no N x T array; given
    the threshold ``gamma_th``, its decisions (lambda_1 > gamma_th, lambda_0 > gamma_th).

    lambda is the largest eigenvalue of (1/T) X X^H for the interval's whitened
    snapshots X: X0 = Q^-1 Y0 under H0 and X0 + b s0^T, b = Q^-1 h0, under H1.
    Given the activity draw the columns of X0 are i.i.d. CN(0, C) with
    C = Q^-1 R_active Q^-1. When the draw leaves R_active = R, C = I, and under
    H1 the covariance is I plus one spike eta = p_0 ||b||^2 = p_0 h_0^H R^-1 h_0,
    so the spectrum of X X^H is that of B B^T with B lower bidiagonal,
    |B_ii|^2 ~ Gamma(T - i) and |B_i+1,i|^2 ~ Gamma(N - 1 - i) (Dumitriu & Edelman
    2002); the spike along e_1 scales B_11 by sqrt(1 + eta) (Bloemendal & Virag
    2013). Both hypotheses share these 2N - 1 variates, and this path reads only
    ``whitening.eta``: it forms no Q^-1. It takes each statistic by bisection
    (_top_eigenvalue) and each decision by Sturm counts (_exceeds). Any other draw
    continues on the same generator with the Bartlett draw of the Gram blocks
    (gram_blocks), scored by bartlett_statistics, which compares its statistics
    with the threshold; only this path forms Q^-1, once per ``whitening``.

    Deterministic given the seed, and a decision is its statistic's comparison
    bit for bit. Draw order: the interferers' activity (once per interval), then
    the sampler's variates. Under "h0" the first entry is None, and the second is
    the same under both hypotheses. ``whitening`` is
    Whitening.of(channels, rcm, sources, noise), computed when not given.
    """
    if hypothesis not in ("h0", "h1"):
        raise ValueError("hypothesis must be 'h0' or 'h1'")
    n = channels.n_antennas
    if n_samples < n:
        raise ValueError("the Wishart draw needs n_samples >= n_antennas")
    if whitening is None:
        whitening = Whitening.of(channels, rcm, sources, noise)
    rng = substream(rng_seed, 0x51)
    active = rng.random(sources.n_interferers + 1) < sources.zeta
    weights = _noise_weights(sources, active)
    if np.array_equal(weights, _noise_weights(sources, sources.zeta)):  # R_active = R: tridiagonal
        diag = rng.standard_gamma(n_samples - np.arange(n))  # |B_ii|^2
        sub = rng.standard_gamma(n - 1 - np.arange(n - 1))  # |B_i+1,i|^2
        d = diag.copy()  # B B^T: the tridiagonal matrix (d, e)
        d[1:] += sub
        e = np.sqrt(diag[:-1] * sub) if n > 1 else np.zeros(1)  # dstebz takes no empty e

        def score():  # reads d and e as they stand: H0's, then H1's once spiked
            if gamma_th is None:
                return _top_eigenvalue(d, e) / n_samples
            return _exceeds(d, e, n_samples, gamma_th)

        out0 = score()
        if hypothesis == "h0":
            return None, out0
        spike = 1.0 + whitening.eta
        d[0] *= spike
        e[:1] *= np.sqrt(spike)
        return score(), out0
    r_active = covariance(channels, np.asarray(rcm.phi, dtype=complex), weights,
                          rcm.sigma1_sq(noise), noise.sigma2_sq, whitening.h)
    lam1, lam0 = bartlett_statistics(
        *gram_blocks(rng, whiten(r_active, whitening.q_inv), sources.p[0], n_samples),
        whitening.b, n_samples)
    if gamma_th is not None:
        lam1, lam0 = bool(lam1 > gamma_th), bool(lam0 > gamma_th)
    return (lam1 if hypothesis == "h1" else None), lam0


def _top_eigenvalue(d: np.ndarray, e: np.ndarray) -> float:
    """Largest eigenvalue of the symmetric tridiagonal matrix with diagonal d and
    off-diagonal e (padded to one entry when d has one), by bisection (LAPACK dstebz)."""
    n = d.size
    found, w, _, _, info = dstebz(d, e, 2, 0.0, 0.0, n, n, 0.0, "E")
    if info != 0 or found != 1:
        raise NumericalError(f"tridiagonal eigenvalue bisection failed (info {info})")
    return float(w[0])


def _count_above(d: np.ndarray, e: np.ndarray, x: float) -> int:
    """How many eigenvalues of the tridiagonal (d, e) exceed x: dstebz's Sturm counts on
    (x, inf] (RANGE 'V'), with an abstol that leaves nothing to bisect."""
    found, _, _, _, info = dstebz(d, e, 1, x, np.inf, 0, 0, np.finfo(float).max, "E")
    if info != 0:
        raise NumericalError(f"tridiagonal eigenvalue count failed (info {info})")
    return found


def _exceeds(d: np.ndarray, e: np.ndarray, n_samples: int, gamma_th: float) -> bool:
    """_top_eigenvalue(d, e) / n_samples > gamma_th, from Sturm counts where they decide it.

    Sturm counts are monotone in floating point (Demmel, Dhillon & Ren 1995), and the
    bisection's top eigenvalue is within a few ulps of the matrix norm (the top
    eigenvalue of B B^T) of the count's, so no eigenvalue above gamma T (1 - BAND_RTOL)
    means "no" and one above gamma T (1 + BAND_RTOL) means "yes". Only an eigenvalue
    between the two bisects, and is compared as the statistic is.
    """
    level = gamma_th * n_samples
    if not _count_above(d, e, level * (1.0 - BAND_RTOL)):
        return False
    if _count_above(d, e, level * (1.0 + BAND_RTOL)):
        return True
    return bool(_top_eigenvalue(d, e) / n_samples > gamma_th)


def gram_blocks(rng: np.random.Generator, c: np.ndarray, p0: float, n_samples: int) -> tuple:
    """Whitened Gram blocks (W0, v, ||s0||^2) of one sensing interval, no N x T array.

    With X0 the whitened signal-free snapshots (N x T), i.i.d. CN(0, C) columns,
    and s0 the primary's T symbols, W0 = X0 X0^H and v = X0 conj(s0). The columns
    of [X0; s0^T] are i.i.d. CN(0, blockdiag(C, p_0)), so their Gram is complex
    Wishart CW_{N+1}(T, .) (Goodman 1963). It is drawn from its Bartlett factor L,
    lower triangular with |L_ii|^2 ~ Gamma(T - i) and L_ij ~ CN(0, 1) below the
    diagonal. Draw order: the N x N block's Bartlett variates, then the primary's row.
    """
    n = c.shape[0]
    try:
        factor = np.linalg.cholesky(c)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("whitened interval covariance is not positive definite") from exc
    bartlett = np.diag(np.sqrt(rng.standard_gamma(n_samples - np.arange(n)))).astype(complex)
    bartlett[np.tril_indices(n, -1)] = sample_cn(rng, 1.0, n * (n - 1) // 2)
    x = factor @ bartlett  # X0 X0^H = x x^H in distribution
    row = sample_cn(rng, p0, n)  # sqrt(p_0) times the primary's Bartlett row
    s2 = float(np.vdot(row, row).real + p0 * rng.standard_gamma(n_samples - n))
    return x @ x.conj().T, x @ row.conj(), s2


def bartlett_statistics(w0: np.ndarray, v: np.ndarray, s2: float, b: np.ndarray,
                        n_samples: int) -> tuple:
    """(lambda_1, lambda_0) of given Gram blocks (gram_blocks) and whitened channel b.

    H0 is scored from W0 = X0 X0^H, H1 from its rank-2 update
    (X0 + b s0^T)(X0 + b s0^T)^H; both by a full eigendecomposition.
    """
    bv = np.outer(b, v.conj())
    w1 = w0 + bv + bv.conj().T + s2 * np.outer(b, b.conj())
    return max_eig_statistic(w1, n_samples), max_eig_statistic(w0, n_samples)


def psd_sqrt_inverse(r: np.ndarray) -> np.ndarray:
    """Inverse of the Hermitian PSD square root of r (r = Q^2, returns Q^-1)."""
    lam, u = np.linalg.eigh(r)
    if lam[0] < PSD_RTOL * lam[-1]:
        raise NumericalError(
            f"covariance not positive definite: lam_min/lam_max = {lam[0] / lam[-1]:.3e}")
    return (u / np.sqrt(lam)) @ u.conj().T


def whiten(g: np.ndarray, q_inv: np.ndarray) -> np.ndarray:
    """Q^-1 G Q^-1: a covariance or Gram matrix G of vectors y, for the whitened Q^-1 y."""
    return q_inv @ g @ q_inv


def max_eig_statistic(w: np.ndarray, n_samples: int) -> float:
    """Largest eigenvalue of (1/T) W, W the Gram matrix of T whitened snapshots."""
    return float(np.linalg.eigvalsh(w / n_samples)[-1])


@functools.cache  # built by the first threshold, not at import
def _tw2_interp() -> PchipInterpolator:
    return PchipInterpolator(_tw2_table.S_GRID, _tw2_table.CDF)


@functools.lru_cache(maxsize=64)  # bounded: a process thresholds at few probabilities
def tw2_quantile(p: float) -> float:
    """Quantile of the order-2 Tracy-Widom law, from the embedded table.

    Monotone cubic interpolation of the tabulated CDF, inverted by root
    finding. Supported for p within the table range (~[1e-10, 1 - 2e-14]).
    Memoized per p (the 64 most recent), as the interpolator is: a process
    that thresholds at one alpha runs one root find.
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
    population covariance under the alternative is 1 + eta. Whitening.eta,
    without Whitening.of's conditioning check.
    """
    h = equivalent_channels(channels, _phi(channels, rcm))
    return Whitening(r=noise_covariance(channels, rcm, sources, noise, h), h=h,
                     p0=float(sources.p[0])).eta


def spiked_stats(eta: float, chi: float, n_antennas: int, gamma_th: float,
                 alpha: float) -> SpikedStats:
    """Mean/variance of the largest sample eigenvalue for population excess eta.

    Gaussian branch (eta > sqrt(chi)):
        mu_a = eta + 1 + chi + chi/eta
        v_a  = (eta + 1)^2 / T * (1 - chi/eta),  T = N/chi.
    Below the transition the Tracy-Widom branch applies and both are None.
    """
    if eta < 0 or chi <= 0 or n_antennas < 1:
        raise ValueError("need eta >= 0, chi > 0, n_antennas >= 1")
    if eta <= np.sqrt(chi):
        return SpikedStats(mu_a=None, v_a=None, gamma_th=gamma_th, alpha=alpha)
    t = n_antennas / chi
    mu = eta + 1.0 + chi + chi / eta
    v = (eta + 1.0) ** 2 / t * (1.0 - chi / eta)
    return SpikedStats(mu_a=mu, v_a=v, gamma_th=gamma_th, alpha=alpha)


def spiked_stats_for(cfg: DetectorConfig, eta: float) -> SpikedStats:
    """Spiked statistics bundled with the detector's threshold."""
    return spiked_stats(eta, cfg.c, cfg.n_antennas, detection_threshold(cfg), cfg.alpha)


def predicted_pd(stats: SpikedStats) -> float:
    """Predicted detection probability Q((gamma_th - mu_a) / sqrt(v_a)).

    On the Tracy-Widom branch the statistic is distributed as under the
    null, so the prediction collapses to the false-alarm probability.
    """
    if not stats.gaussian_branch:
        return stats.alpha
    return float(ndtr((stats.mu_a - stats.gamma_th) / np.sqrt(stats.v_a)))


@functools.lru_cache(maxsize=64)  # bounded: a sweep plans few (target, detector) pairs
def solve_min_eta(pd_target: float, cfg: DetectorConfig) -> float:
    """Smallest population excess achieving the target detection probability.

    Solves predicted_pd(eta) = pd_target on the Gaussian branch by monotone
    root finding. Raises InfeasibleError when the target is not reachable
    there (at or below the false-alarm level, or below the value attained at
    the phase transition). Memoized per (pd_target, cfg); errors are not.
    """
    if not 0.0 < pd_target < 1.0:
        raise ValueError("pd_target must lie in (0, 1)")
    if pd_target <= cfg.alpha:
        raise InfeasibleError(
            f"target Pd {pd_target} does not exceed the false-alarm level {cfg.alpha}")
    chi = cfg.c
    gamma_th = detection_threshold(cfg)

    def pd_of(eta: float) -> float:
        return predicted_pd(spiked_stats(eta, chi, cfg.n_antennas, gamma_th, cfg.alpha))

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
