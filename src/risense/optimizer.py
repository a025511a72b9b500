"""Reflecting-coefficient optimization.

The detection-probability objective is lifted to a weighted-MSE surrogate
(majorization-minimization): alternate a closed-form receiver update, a
convex QCQP in the reflecting coefficients, and a scalar weight update until
the weight converges. Active surfaces carry an output-power budget and a
per-element amplitude cap; passive surfaces drop the budget and either relax
(|phi_m| <= 1) or pin (|phi_m| = 1) the amplitudes, the latter via cyclic
per-element phase minimization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import ChannelSet
from .errors import InfeasibleError, NumericalError
from .sensing import NoiseModel, SourceModel, covariance, equivalent_channels, population_eta

MODES = ("active", "passive-relaxed", "passive-unit")
FEAS_RTOL = 1e-9


@dataclass(frozen=True)
class Rcm:
    """A reflecting-coefficient vector with its operating mode and limits.

    Active mode enforces |phi_m| <= a_max and the output-power budget;
    passive modes forward no thermal noise and cap amplitudes at one
    (relaxed) or pin them to one (unit).
    """

    phi: np.ndarray
    mode: str = "active"
    a_max: float = np.inf
    p_out_budget: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "phi", np.asarray(self.phi, dtype=complex))
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")

    def sigma1_sq(self, noise: NoiseModel) -> float:
        """The surface thermal noise it forwards: sigma1^2 if active, none if passive."""
        return noise.sigma1_sq if self.mode == "active" else 0.0

    @property
    def amplitudes(self) -> np.ndarray:
        return np.abs(self.phi)

    def check_feasible(self, channels: ChannelSet, sources: SourceModel,
                       noise: NoiseModel) -> None:
        """Raise if the coefficients violate the mode's constraints."""
        a = self.amplitudes
        if self.mode == "active":
            if np.any(a > self.a_max * (1 + FEAS_RTOL)):
                raise ValueError("amplitude cap violated")
            if self.p_out_budget is not None:
                p = ris_output_power(self.phi, channels, sources, noise)
                if p > self.p_out_budget * (1 + FEAS_RTOL) + 1e-300:
                    raise ValueError(
                        f"output power {p:.6e} exceeds budget {self.p_out_budget:.6e}")
        elif self.mode == "passive-unit":
            if np.any(np.abs(a - 1.0) > FEAS_RTOL):
                raise ValueError("unit-modulus constraint violated")
        else:
            if np.any(a > 1.0 + FEAS_RTOL):
                raise ValueError("passive amplitudes must not exceed one")


class WmmseResult(NamedTuple):
    """A WMMSE solve's coefficients and excess, and its final receiver u and MSE weight omega.

    ``trace`` holds three surrogate values per outer iteration.
    """

    rcm: Rcm
    eta: float
    trace: list[float]
    u: np.ndarray
    omega: float


def power_weights(channels: ChannelSet, sources: SourceModel, sigma1_sq: float) -> np.ndarray:
    """Per-element output-power weights: power = sum_m w_m |phi_m|^2.

    sigma1_sq is the surface thermal noise forwarded (``Rcm.sigma1_sq``).
    """
    return sigma1_sq + (sources.zeta * sources.p) @ np.abs(channels.f) ** 2


def ris_output_power(phi: np.ndarray, channels: ChannelSet, sources: SourceModel,
                     noise: NoiseModel) -> float:
    """Radiated power of the surface: sum_k zeta_k p_k ||Phi f_k||^2 + sigma1^2 ||Phi 1||^2."""
    w = power_weights(channels, sources, noise.sigma1_sq)
    return float(np.sum(w * np.abs(np.asarray(phi)) ** 2))


def mse_epsilon(u: np.ndarray, rcm: Rcm, channels: ChannelSet, sources: SourceModel,
                noise: NoiseModel) -> float:
    """Weighted MSE of the receiver u against the primary symbol.

    p_0 |u^H h_0 - 1|^2 + sum_k zeta_k p_k |u^H h_k|^2
    + sigma1^2 ||u^H G Phi||^2 + sigma2^2 ||u||^2.
    """
    uh = equivalent_channels(channels, rcm.phi) @ u.conj()  # u^H h_k per source
    eps = sources.p[0] * abs(uh[0] - 1.0) ** 2
    eps += float((sources.zeta[1:] * sources.p[1:]) @ np.abs(uh[1:]) ** 2)
    sigma1 = rcm.sigma1_sq(noise)
    if sigma1 > 0:
        row = (u.conj() @ channels.g_matrix) * rcm.phi
        eps += sigma1 * float(np.sum(np.abs(row) ** 2))
    eps += noise.sigma2_sq * float(np.real(np.vdot(u, u)))
    return float(eps)


def update_u(rcm: Rcm, channels: ChannelSet, sources: SourceModel,
             noise: NoiseModel) -> np.ndarray:
    """Receiver minimizing the weighted MSE for fixed reflecting coefficients.

    u = p_0 (sum_k zeta_k p_k h_k h_k^H + sigma1^2 GPhi(GPhi)^H + sigma2^2 I)^-1 h_0,
    the sum including the primary term k = 0.
    """
    a = covariance(channels, rcm.phi, sources.zeta * sources.p, rcm.sigma1_sq(noise),
                   noise.sigma2_sq)
    h0 = equivalent_channels(channels, rcm.phi)[0]
    try:
        return sources.p[0] * np.linalg.solve(a, h0)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("receiver update: covariance is singular") from exc


def update_omega(epsilon: float) -> float:
    """Surrogate weight minimizing omega*eps - log(omega): omega = 1/eps."""
    if epsilon <= 0:
        raise ValueError(f"MSE must be positive, got {epsilon}")
    return 1.0 / epsilon


@dataclass(frozen=True)
class QcqpInstance:
    """The convex reflecting-coefficient subproblem for a fixed receiver.

    Minimize the weighted MSE phi^H s phi + 2 Re(g^H phi) + const subject to
    sum_m j_m |phi_m|^2 <= p_out (dropped when None) and |phi_m| <= a_max
    (dropped when None).
    """

    s: np.ndarray
    g: np.ndarray
    const: float
    j: np.ndarray
    p_out: float | None
    a_max: float | None

    def __post_init__(self):
        lam = np.linalg.eigvalsh(0.5 * (self.s + self.s.conj().T))
        if lam[0] < -1e-10 * max(lam[-1], 1e-300):
            raise NumericalError("QCQP quadratic form is not PSD")


def build_qcqp(u: np.ndarray, channels: ChannelSet, sources: SourceModel,
               noise: NoiseModel, rcm: Rcm) -> QcqpInstance:
    """Assemble the reflecting-coefficient subproblem for a fixed receiver."""
    m = channels.n_elements
    # u^H h_k = conj(c_k) + v_k^H phi with c_k = d_k^H u and v_k = conj(f_k) * (G^H u),
    # row k of V; the MSE sums w_k |u^H h_k|^2, -2 p_0 Re(u^H h_0) + p_0 and the noise
    v = channels.f.conj() * (channels.g_matrix.conj().T @ u)
    c = channels.d.conj() @ u
    w = sources.zeta * sources.p  # zeta_0 = 1
    vw = v.T * w
    s = vw @ v.conj()
    sigma1 = rcm.sigma1_sq(noise)
    if sigma1 > 0:
        s[np.diag_indices(m)] += sigma1 * np.abs(u.conj() @ channels.g_matrix) ** 2
    g = vw @ c.conj() - sources.p[0] * v[0]
    const = float(w @ np.abs(c) ** 2) - 2.0 * float(sources.p[0] * np.real(c[0])) \
        + float(sources.p[0]) + noise.sigma2_sq * float(np.real(np.vdot(u, u)))
    j = power_weights(channels, sources, sigma1)
    p_out = rcm.p_out_budget if rcm.mode == "active" else None
    a_max = rcm.a_max if np.isfinite(rcm.a_max) else None
    return QcqpInstance(s=s, g=g, const=const, j=j, p_out=p_out, a_max=a_max)


def _box_qp_cd(s: np.ndarray, g: np.ndarray, a_max: float | None,
               x0: np.ndarray) -> np.ndarray:
    """Cyclic exact coordinate descent for min x^H S x + 2 Re(g^H x), |x_m| <= a_max.

    Each coordinate problem is a paraboloid in one complex variable; its
    disk-constrained minimum is the radial clip of the unconstrained one.
    Zero-curvature coordinates keep their previous value. Sweeps stop when no
    coordinate moves by more than 1e-13 of the iterate's scale, or after 2000.
    """
    x = x0.astype(complex).copy()
    if a_max is not None:
        mag = np.abs(x)
        over = mag > a_max
        if np.any(over):
            x[over] *= a_max / mag[over]
    m = x.size
    diag = np.real(np.diag(s))
    floor = 1e-300
    r = s @ x + g
    for _ in range(2000):
        delta = 0.0
        for i in range(m):
            if diag[i] <= floor:
                continue
            c = r[i] - diag[i] * x[i]
            xi = -c / diag[i]
            if a_max is not None:
                mag = abs(xi)
                if mag > a_max:
                    xi *= a_max / mag
            step = xi - x[i]
            if step != 0:
                r += s[:, i] * step
                x[i] = xi
                delta = max(delta, abs(step))
        if delta <= 1e-13 * (1.0 + float(np.max(np.abs(x)))):
            break
    return x


def _shifted_solve(s: np.ndarray, g: np.ndarray, j: np.ndarray, mu: float,
                   a_max: float | None, x0: np.ndarray | None) -> np.ndarray:
    """Minimize x^H (S + mu J) x + 2 Re(g^H x) under the amplitude caps.

    Tries the unconstrained solution first; falls back to coordinate descent
    only when a cap binds.
    """
    h = s + np.diag(mu * j) if mu > 0 else s
    m = s.shape[0]
    try:
        x = np.linalg.solve(h + 1e-14 * np.trace(h).real * np.eye(m) / max(m, 1), -g)
    except np.linalg.LinAlgError:
        x = None
    if x is not None and (a_max is None or np.all(np.abs(x) <= a_max * (1 + 1e-12))):
        if a_max is not None:
            mag = np.abs(x)
            over = mag > a_max
            if np.any(over):
                x[over] *= a_max / mag[over]
        return x
    start = x0 if x0 is not None else (x if x is not None else np.zeros(m, dtype=complex))
    return _box_qp_cd(h, g, a_max, start)


def solve_p22(instance: QcqpInstance, x0: np.ndarray | None = None) -> np.ndarray:
    """Solve the convex reflecting-coefficient subproblem.

    Lagrangian dual over the power-ball multiplier: for each multiplier the
    inner cap-constrained problem is solved exactly, and the multiplier is
    bisected until the power constraint is tight (or slack at zero).
    """
    s, g, j = instance.s, instance.g, instance.j
    a_max, p_out = instance.a_max, instance.p_out
    start = None if x0 is None else np.asarray(x0, dtype=complex)

    x = _shifted_solve(s, g, j, 0.0, a_max, start)
    if p_out is not None:
        power = float(np.sum(j * np.abs(x) ** 2))
        if power > p_out * (1 + 1e-12):
            mu_lo, mu_hi = 0.0, max(1.0, float(np.linalg.norm(g))
                                    / max(float(np.sum(j)), 1e-300))
            x_hi = _shifted_solve(s, g, j, mu_hi, a_max, x)
            while float(np.sum(j * np.abs(x_hi) ** 2)) > p_out:
                mu_lo, mu_hi = mu_hi, mu_hi * 8.0
                if mu_hi > 1e250:
                    raise NumericalError("power multiplier diverged")
                x_hi = _shifted_solve(s, g, j, mu_hi, a_max, x_hi)
            x = x_hi
            for _ in range(120):
                mu = 0.5 * (mu_lo + mu_hi)
                xm = _shifted_solve(s, g, j, mu, a_max, x)
                power = float(np.sum(j * np.abs(xm) ** 2))
                if power > p_out:
                    mu_lo = mu
                else:
                    mu_hi, x = mu, xm
                if abs(power - p_out) <= 1e-11 * p_out or (mu_hi - mu_lo) <= 1e-15 * mu_hi:
                    if power <= p_out:
                        break
    return x


def solve_p22p_unit_modulus(instance: QcqpInstance, x0: np.ndarray | None = None) -> np.ndarray:
    """Cyclic exact per-element minimization on the unit circle.

    For each element the objective is linear in the phase once |phi_m| = 1,
    so the minimizer is the phase of the negated linear coefficient; elements
    with a vanishing coefficient keep their previous phase. Sweeps stop when
    the per-sweep objective decrease drops below 1e-12 (relative), or after 500.
    """
    s, g, const = instance.s, instance.g, instance.const
    m = g.size
    if x0 is None:
        x = np.ones(m, dtype=complex)
    else:
        x = np.asarray(x0, dtype=complex)
        mag = np.abs(x)
        x = np.where(mag > 0, x / np.where(mag > 0, mag, 1.0), 1.0)
    r = s @ x + g
    obj = float(np.real(x.conj() @ (s @ x) + 2.0 * np.real(g.conj() @ x))) + const
    for _ in range(500):
        prev = obj
        for i in range(m):
            c = r[i] - np.real(s[i, i]) * x[i]
            if abs(c) == 0.0:
                continue
            xi = -c / abs(c)
            step = xi - x[i]
            if step != 0:
                r += s[:, i] * step
                x[i] = xi
        obj = float(np.real(x.conj() @ (s @ x) + 2.0 * np.real(g.conj() @ x))) + const
        if prev - obj <= 1e-12 * (abs(prev) + 1e-300):
            break
    return x


def mf_init_phi(channels: ChannelSet, sources: SourceModel, noise: NoiseModel,
                p_out_budget: float | None, a_max: float) -> np.ndarray:
    """Matched-filter-style initialization.

    Phases align every element's cascaded contribution with the direct link
    (or with the surface-receiver principal direction when there is none); the
    common amplitude fills 90% of the power budget. For rank-one
    LoS surface channels this reproduces the closed-form optimal phases.
    """
    d0 = channels.d[0]
    if np.linalg.norm(d0) > 0:
        w = d0
    else:
        w = np.linalg.svd(channels.g_matrix, compute_uv=True)[0][:, 0]
    t = (w.conj() @ channels.g_matrix) * channels.f[0]
    phases = np.where(np.abs(t) > 0, np.exp(-1j * np.angle(t)), 1.0)
    weights = power_weights(channels, sources, noise.sigma1_sq)
    total = float(np.sum(weights))
    if p_out_budget is None or total <= 0:
        amp = a_max if np.isfinite(a_max) else 1.0
    else:
        amp = min(a_max, float(np.sqrt(0.9 * p_out_budget / total)))
    return amp * phases


def _surrogate(omega: float, eps: float) -> float:
    return omega * eps - np.log(omega)


def _wmmse_loop(channels: ChannelSet, sources: SourceModel, noise: NoiseModel,
                rcm0: Rcm, phi_step, tol: float, max_iter: int) -> WmmseResult:
    if sources.p[0] == 0:  # a silent primary: every coefficient vector gives eta = 0
        u = np.zeros(channels.n_antennas, dtype=complex)  # and zero MSE, at u = 0
        return WmmseResult(rcm=rcm0, eta=0.0, trace=[], u=u, omega=np.inf)
    phi = rcm0.phi.copy()
    mode, a_max, p_out = rcm0.mode, rcm0.a_max, rcm0.p_out_budget
    omega = None
    trace: list[float] = []
    u = None
    for _ in range(max_iter):
        rcm = Rcm(phi=phi, mode=mode, a_max=a_max, p_out_budget=p_out)
        u = update_u(rcm, channels, sources, noise)
        eps = mse_epsilon(u, rcm, channels, sources, noise)
        if omega is None:
            omega = update_omega(eps)
        trace.append(_surrogate(omega, eps))

        instance = build_qcqp(u, channels, sources, noise, rcm)
        candidate = phi_step(instance, phi)
        cand_rcm = Rcm(phi=candidate, mode=mode, a_max=a_max, p_out_budget=p_out)
        cand_eps = mse_epsilon(u, cand_rcm, channels, sources, noise)
        if cand_eps <= eps:  # solver returns a feasible point; keep only improvements
            phi, eps = candidate, cand_eps
        trace.append(_surrogate(omega, eps))

        omega_new = update_omega(eps)
        trace.append(_surrogate(omega_new, eps))
        rel = abs(omega_new - omega) / omega
        omega = omega_new
        if rel < tol:
            break
    rcm = Rcm(phi=phi, mode=mode, a_max=a_max, p_out_budget=p_out)
    rcm.check_feasible(channels, sources, noise)
    eta = population_eta(channels, rcm, sources, noise)
    return WmmseResult(rcm=rcm, eta=eta, trace=trace, u=u, omega=omega)


def wmmse_active(channels: ChannelSet, sources: SourceModel, noise: NoiseModel,
                 p_out_budget: float, a_max: float, init_phi: np.ndarray | None = None,
                 tol: float = 1e-6, max_iter: int = 500) -> WmmseResult:
    """Iterative surrogate minimization for the active surface.

    Alternates receiver update, convex coefficient subproblem and weight
    update until the weight's relative change drops below tol. The returned
    coefficients are feasible and the surrogate trace is nonincreasing. With a
    silent primary (p_0 = 0) the feasible start is returned with an empty trace.
    """
    if not p_out_budget > 0:
        raise InfeasibleError(f"the output budget must be positive, got {p_out_budget:.6g} W")
    if init_phi is None:
        init_phi = mf_init_phi(channels, sources, noise, p_out_budget, a_max)
    rcm0 = Rcm(phi=init_phi, mode="active", a_max=a_max, p_out_budget=p_out_budget)
    rcm0.check_feasible(channels, sources, noise)
    return _wmmse_loop(channels, sources, noise, rcm0,
                       lambda inst, phi: solve_p22(inst, x0=phi), tol, max_iter)


def wmmse_passive(channels: ChannelSet, sources: SourceModel, noise: NoiseModel,
                  mode: str = "passive-unit", init_phi: np.ndarray | None = None,
                  tol: float = 1e-6, max_iter: int = 500) -> WmmseResult:
    """Passive-surface variant: no forwarded noise, no power budget.

    passive-relaxed caps amplitudes at one and reuses the convex subproblem;
    passive-unit pins them to one via cyclic phase minimization.
    """
    if mode not in ("passive-relaxed", "passive-unit"):
        raise ValueError("mode must be 'passive-relaxed' or 'passive-unit'")
    if init_phi is None:
        init_phi = mf_init_phi(channels, sources, noise, None, 1.0)  # unit modulus
    rcm0 = Rcm(phi=init_phi, mode=mode, a_max=1.0, p_out_budget=None)
    rcm0.check_feasible(channels, sources, noise)
    if mode == "passive-unit":
        step = lambda inst, phi: solve_p22p_unit_modulus(inst, x0=phi)
    else:
        step = lambda inst, phi: solve_p22(inst, x0=phi)
    return _wmmse_loop(channels, sources, noise, rcm0, step, tol, max_iter)
