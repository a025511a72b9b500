"""Correctness checkers of the benchmark, written against plain numpy.

None of these calls into ``risense.sensing``: the excess is recomputed from
the channel arrays and the coefficients, and Monte Carlo rates are bounded
with binomial tails. Every checker raises ``CheckError`` with a message
naming what failed; ``test_checks.py`` shows each one accepting a known-good
case and rejecting a perturbed one.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import norm

# Binomial checks use a two-sided normal tail of about 1e-6, so a correct
# program fails one of them about once per million checks.
Z_BINOMIAL = 4.9
# Tracy-Widom calibration error at N = 32..64, T = 100 N: the acceptance gate
# of criterion 01 allows |Pfa - alpha| <= 0.02 over 2000 trials.
PFA_MODEL_TOL = 0.02
# Spiked-model error at the mc_los_fixed operating point (eta = 0.131, just
# above the transition sqrt(c) = 0.1): 1000 trials gave Pd 0.855 against a
# prediction of 0.799, a gap of 0.056 with a binomial sd of 0.011.
PD_MODEL_TOL = 0.08
FEAS_RTOL = 1e-9
ETA_RTOL = 1e-9
ROW_RTOL = 2e-8  # result rows carry 9 significant digits


class CheckError(AssertionError):
    """A program output failed one of the benchmark's checks."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def channel_arrays(channels) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(D, F, G): direct links (K+1, N), incident links (K+1, M), G (N, M)."""
    d = np.asarray(channels.d, dtype=complex)
    f = np.asarray(channels.f, dtype=complex)
    return d, f, np.asarray(channels.g_matrix, dtype=complex)


def excess(channels, phi: np.ndarray, p: np.ndarray, zeta: np.ndarray,
           sigma1_sq: float, sigma2_sq: float) -> float:
    """eta = p_0 h_0^H R^-1 h_0 with h_k = d_k + G diag(phi) f_k and

    R = sigma2^2 I + sum_{k>=1} zeta_k p_k h_k h_k^H + sigma1^2 (G Phi)(G Phi)^H.
    Pass sigma1_sq = 0 for a passive surface, which forwards no noise.
    """
    d, f, g = channel_arrays(channels)
    g_phi = g * np.asarray(phi, dtype=complex)[np.newaxis, :]
    h = d + f @ g_phi.T  # row k is h_k
    w = np.asarray(zeta, dtype=float)[1:] * np.asarray(p, dtype=float)[1:]
    hi = h[1:].T * np.sqrt(w)
    r = sigma2_sq * np.eye(g.shape[0]) + hi @ hi.conj().T + sigma1_sq * (g_phi @ g_phi.conj().T)
    return float(p[0] * np.real(h[0].conj() @ np.linalg.solve(r, h[0])))


def output_power(channels, phi: np.ndarray, p: np.ndarray, zeta: np.ndarray,
                 sigma1_sq: float) -> float:
    """Power an active surface radiates: sum_k zeta_k p_k ||Phi f_k||^2 + sigma1^2 ||phi||^2."""
    _, f, _ = channel_arrays(channels)
    a2 = np.abs(np.asarray(phi)) ** 2
    w = np.asarray(zeta, dtype=float) * np.asarray(p, dtype=float)
    return float(np.sum(w[:, np.newaxis] * np.abs(f) ** 2 * a2) + sigma1_sq * np.sum(a2))


def check_close(name: str, got: float, want: float, rtol: float) -> None:
    require(math.isfinite(got) and abs(got - want) <= rtol * abs(want),
            f"{name}: {got!r} differs from {want!r} by more than {rtol:g} relative")


def check_active_feasible(channels, phi, p, zeta, sigma1_sq, p_out, a_max) -> None:
    """Amplitude cap (when a_max is finite) and output budget of an active surface."""
    amp = float(np.max(np.abs(phi)))
    if a_max is not None and math.isfinite(a_max):
        require(amp <= a_max * (1 + FEAS_RTOL), f"amplitude {amp:.9g} exceeds the cap {a_max:.9g}")
    used = output_power(channels, phi, p, zeta, sigma1_sq)
    require(used <= p_out * (1 + FEAS_RTOL),
            f"output power {used:.9g} W exceeds the budget {p_out:.9g} W")


def binomial_halfwidth(p: float, n: int) -> float:
    return Z_BINOMIAL * math.sqrt(max(p * (1 - p), 1e-12) / n)


def check_rate(name: str, hits: int, n: int, target: float, model_tol: float) -> None:
    """|hits/n - target| <= model_tol + Z sqrt(target (1 - target) / n)."""
    require(n > 0, f"{name}: no trials")
    rate = hits / n
    bound = model_tol + binomial_halfwidth(target, n)
    require(abs(rate - target) <= bound,
            f"{name}: {rate:.4f} over {n} trials is {abs(rate - target):.4f} from "
            f"{target:.4f}, beyond the bound {bound:.4f}")


def spiked_pd(eta: float, n: int, t: int, gamma_th: float) -> float:
    """Spiked-model detection probability Q((gamma - mu) / sqrt(v)) above the transition."""
    c = n / t
    require(eta > math.sqrt(c), f"eta {eta:.6g} lies below the transition {math.sqrt(c):.6g}")
    mu = eta + 1.0 + c + c / eta
    v = (eta + 1.0) ** 2 / t * (1.0 - c / eta)
    return float(norm.sf((gamma_th - mu) / math.sqrt(v)))


def check_bracket(probes, required: float, eta_star: float, eta0: float,
                  stop_tol: float) -> None:
    """The probe history brackets the returned budget within stop_tol.

    ``required`` is the least probed budget whose excess beats eta0, it was
    probed with excess eta_star, and the largest probed budget that falls
    short (or zero, when none does) lies within stop_tol below it.
    """
    above = [p for p, e in probes if e > eta0]
    below = [p for p, e in probes if e <= eta0]
    require(bool(above) and min(above) == required,
            f"returned budget {required!r} is not the least probe above eta0")
    require((required, eta_star) in set(probes),
            f"returned budget {required!r} was not probed with excess {eta_star!r}")
    p_lo = max(below, default=0.0)
    require(p_lo < required and required - p_lo <= stop_tol,
            f"bracket [{p_lo!r}, {required!r}] is wider than stop_tol {stop_tol!r}")
