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

import functools
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dposv, zposv

from .channel import ChannelSet
from .errors import InfeasibleError, NumericalError
from .sensing import NoiseModel, SourceModel, covariance, equivalent_channels, population_eta

MODES = ("active", "passive-relaxed", "passive-unit")
FEAS_RTOL = 1e-9
NEWTON_MAX_STEPS = 50  # projected Newton steps per QCQP (or proximal) solve
PROX_MAX_STEPS = 50  # proximal steps per QCQP solve on a singular quadratic form
UNIT_MODULUS_MAX_SWEEPS = 500  # cyclic sweeps per unit-modulus QCQP solve
SINGULAR_RTOL = 1e-8  # S is singular when its smallest eigenvalue is at most this of its largest


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

    def check_feasible(self, channels: ChannelSet, sources: SourceModel,
                       noise: NoiseModel) -> None:
        """Raise if the coefficients violate the mode's constraints."""
        a = np.abs(self.phi)
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
    """A WMMSE solve's coefficients and excess.

    ``trace`` holds three surrogate values per outer iteration; the last is
    1 - log(omega) for the final MSE weight omega. ``converged`` is False
    when the solve stopped at its iteration cap before the weight settled.
    """

    rcm: Rcm
    eta: float
    trace: list[float]
    converged: bool


class Draw(NamedTuple):
    """One channel draw with the invariants of its WMMSE solve, formed once per solve.

    sigma1_sq is the surface thermal noise forwarded (``Rcm.sigma1_sq``), j the
    power weights ``power_weights(channels, sources, sigma1_sq)``, g_h = G^H,
    f_bar = conj(F), d_bar = conj(D) and zp = zeta p (zeta_0 = 1), one entry
    per source.
    """

    channels: ChannelSet
    sources: SourceModel
    noise: NoiseModel
    sigma1_sq: float
    j: np.ndarray
    g_h: np.ndarray
    f_bar: np.ndarray
    d_bar: np.ndarray
    zp: np.ndarray

    @classmethod
    def of(cls, channels: ChannelSet, sources: SourceModel, noise: NoiseModel,
           sigma1_sq: float) -> Draw:
        return cls(channels, sources, noise, sigma1_sq,
                   power_weights(channels, sources, sigma1_sq), channels.g_matrix.conj().T,
                   channels.f.conj(), channels.d.conj(), sources.zeta * sources.p)


@functools.cache
def _identity(m: int) -> np.ndarray:
    """The m x m identity, formed once per size and read-only."""
    eye = np.eye(m)
    eye.flags.writeable = False
    return eye


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


def mse_epsilon(u: np.ndarray, phi: np.ndarray, draw: Draw, h: np.ndarray) -> float:
    """Weighted MSE of the receiver u against the primary symbol.

    p_0 |u^H h_0 - 1|^2 + sum_k zeta_k p_k |u^H h_k|^2
    + sigma1^2 ||u^H G Phi||^2 + sigma2^2 ||u||^2, sigma1^2 = ``draw.sigma1_sq``.
    h holds the rows ``equivalent_channels(draw.channels, phi)``.
    """
    u_bar = u.conj()
    uh = h @ u_bar  # u^H h_k per source
    p = draw.sources.p
    eps = p[0] * abs(uh[0] - 1.0) ** 2
    eps += float(draw.zp[1:] @ np.abs(uh[1:]) ** 2)
    if draw.sigma1_sq > 0:
        row = (u_bar @ draw.channels.g_matrix) * phi
        eps += draw.sigma1_sq * float((np.abs(row) ** 2).sum())
    eps += draw.noise.sigma2_sq * float(np.vdot(u, u).real)
    return float(eps)


def update_u(phi: np.ndarray, draw: Draw, h: np.ndarray) -> np.ndarray:
    """Receiver minimizing the weighted MSE for fixed reflecting coefficients phi.

    u = p_0 (sum_k zeta_k p_k h_k h_k^H + sigma1^2 GPhi(GPhi)^H + sigma2^2 I)^-1 h_0,
    the sum including the primary term k = 0, sigma1^2 = ``draw.sigma1_sq``.
    h holds the rows ``equivalent_channels(draw.channels, phi)``.
    """
    a = covariance(draw.channels, phi, draw.zp, draw.sigma1_sq, draw.noise.sigma2_sq, h)
    try:
        return draw.sources.p[0] * np.linalg.solve(a, h[0])
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
    (dropped when None). floor is a lower bound on the eigenvalues of S known
    from its construction (0 when none is). The PSD check keeps the extreme
    eigenvalues of S, unless floor > 2 SINGULAR_RTOL tr S: that certifies S
    positive definite and non-singular (tr S bounds its largest eigenvalue),
    and lam_min and lam_max keep floor and tr S, which pick the same branch.
    """

    s: np.ndarray
    g: np.ndarray
    const: float
    j: np.ndarray
    p_out: float | None
    a_max: float | None
    floor: float = 0.0
    lam_min: float = field(init=False, repr=False)
    lam_max: float = field(init=False, repr=False)

    def __post_init__(self):
        trace = float(self.s.trace().real)
        if self.floor > 2.0 * SINGULAR_RTOL * trace:
            lam_min, lam_max = self.floor, trace
        else:
            lam = np.linalg.eigvalsh(0.5 * (self.s + self.s.conj().T))
            if lam[0] < -1e-10 * max(lam[-1], 1e-300):
                raise NumericalError("QCQP quadratic form is not PSD")
            lam_min, lam_max = float(lam[0]), float(lam[-1])
        object.__setattr__(self, "lam_min", lam_min)
        object.__setattr__(self, "lam_max", lam_max)


def build_qcqp(u: np.ndarray, draw: Draw, rcm: Rcm) -> QcqpInstance:
    """Assemble the reflecting-coefficient subproblem for a fixed receiver.

    Reads rcm's mode and limits, not its phi; draw's sigma1_sq is rcm's.
    The forwarded noise adds sigma1^2 diag(|G^H u|^2) to a PSD S, so its
    smallest entry is the instance's eigenvalue floor.
    """
    m = draw.channels.n_elements
    p0 = draw.sources.p[0]
    # u^H h_k = conj(c_k) + v_k^H phi with c_k = d_k^H u and v_k = conj(f_k) * (G^H u),
    # row k of V; the MSE sums w_k |u^H h_k|^2, -2 p_0 Re(u^H h_0) + p_0 and the noise
    v = draw.f_bar * (draw.g_h @ u)
    c = draw.d_bar @ u
    w = draw.zp
    vw = v.T * w
    s = vw @ v.conj()
    floor = 0.0
    if draw.sigma1_sq > 0:
        noise_diag = draw.sigma1_sq * np.abs(u.conj() @ draw.channels.g_matrix) ** 2
        s.reshape(-1)[::m + 1] += noise_diag
        floor = float(noise_diag.min())
    g = vw @ c.conj() - p0 * v[0]
    const = float(w @ np.abs(c) ** 2) - 2.0 * float(p0 * c[0].real) \
        + float(p0) + draw.noise.sigma2_sq * float(np.vdot(u, u).real)
    p_out = rcm.p_out_budget if rcm.mode == "active" else None
    a_max = rcm.a_max if np.isfinite(rcm.a_max) else None
    return QcqpInstance(s=s, g=g, const=const, j=draw.j, p_out=p_out, a_max=a_max, floor=floor)


def _dual_newton(s: np.ndarray, g: np.ndarray, rows: np.ndarray | None, bound: np.ndarray,
                 y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Projected Newton ascent on the multipliers y >= 0 of rows |x|^2 <= bound.

    rows is None for the caps alone (the identity). For multipliers y the
    Lagrangian's minimizer is x(y) = -H^-1 g with H = S + diag(rows^T y); the
    dual value is Re(g^H x) - y.bound, its gradient r = rows |x|^2 - bound and
    its Hessian -rows W rows^T with W = 2 Re(conj(x) x^T * H^-1). A step solves
    the Hessian for the secular residual r * 2v / (sqrt(b) (sqrt(v) + sqrt(b))),
    v = rows |x|^2: Newton's step on 1/sqrt(b) - 1/sqrt(v), exact for one
    element and equal to the plain step at the solution. When it finds no
    ascent above 1e-3 of a step, the plain Newton step on r takes over.
    Multipliers that a step would drive through zero take a scaled gradient
    step instead (Bertsekas 1982); steps backtrack on the dual value along
    the projection arc. Stops when the relative projected gradient is 1e-12,
    or at the rounding floor of x(y): below 1e-8, a step that no longer cuts
    it tenfold. Returns x(y) and y.
    """
    m = g.size
    rhs = np.concatenate((_identity(m), -g[:, np.newaxis]), axis=1)
    sqrt_b = np.sqrt(bound)
    both = y.size > m  # every cap and the budget: the Hessian has rank m at most
    j = rows[m] if both else None

    def at(y):
        h = s.copy()
        h.reshape(-1)[::m + 1] += y if rows is None else y @ rows
        _, sol, info = zposv(h, rhs)
        if info:  # H is not numerically positive definite
            return -np.inf, None, None
        x = sol[:, m]
        return float(np.vdot(g, x).real - y @ bound), x, sol[:, :m]

    value, x, h_inv = at(y)
    if x is None:
        raise NumericalError("QCQP subproblem: the shifted quadratic form is singular")
    prev = np.inf
    for _ in range(NEWTON_MAX_STEPS):
        if both and np.all(y[:m][j > 0] > 0):
            # moving t j from nu to mu keeps H and x and raises the dual value
            # by t (sum(j) a_max^2 - p_out) > 0: move until a cap multiplier is 0
            t = float(np.min(y[:m][j > 0] / j[j > 0]))
            y[:m] = np.maximum(y[:m] - t * j, 0.0)
            y[m] += t
            value = float(np.vdot(g, x).real - y @ bound)
        v = np.abs(x) ** 2
        if rows is not None:
            v = rows @ v
        r = v - bound
        res = float(np.maximum.reduce(np.maximum(r, np.where(y > 0, -r, 0.0)) / bound))
        if res <= 1e-12 or 1e-8 >= res > 0.1 * prev:
            return x, y
        prev = res
        w = 2.0 * (h_inv * np.outer(x.conj(), x)).real
        hess = w if rows is None else rows @ w @ rows.T  # minus the dual Hessian
        diag = hess.diagonal()
        step = r * (2.0 * v / (sqrt_b * (np.sqrt(v) + sqrt_b)))
        held = (r < 0) & ((diag <= 0) | (y * diag + step <= 0))
        slack = 1e-15 * (abs(value) + abs(float(y @ bound)))
        # no multiplier is held on most steps: then the step is the free solve alone
        n_held = np.count_nonzero(held)
        free = ~held if n_held else None
        if n_held:
            p = np.where(held, step / np.where(diag > 0, diag, 1.0), 0.0)
        for target, alpha_min in ((step, 1e-3), (r, 1e-10)):  # secular Newton, else plain
            gain_free, alpha = 0.0, 1.0
            if n_held < y.size:
                pf = _free_step(hess, target, free, both)
                if n_held:
                    p[free] = pf
                    gain_free = float(r[free] @ pf)
                else:
                    p = pf
                    gain_free = float(r @ pf)
                alpha = 1.0 if gain_free > 0 else 0.0  # no ascent: skip the direction
            while alpha >= alpha_min:
                y_new = np.maximum(y + alpha * p, 0.0)
                v_new, x_new, inv_new = at(y_new)
                gain = alpha * gain_free
                if n_held:
                    gain += float(r[held] @ (y_new[held] - y[held]))
                if v_new - value >= 1e-4 * gain - slack:
                    break
                alpha *= 0.5
            else:
                continue
            break
        else:  # no ascent above rounding is left
            if res <= 1e-8:
                return x, y
            raise NumericalError(f"QCQP subproblem: the multiplier line search stalled "
                                 f"at relative residual {res:.3g}")
        y, value, x, h_inv = y_new, v_new, x_new, inv_new
    raise NumericalError(f"QCQP subproblem: projected Newton did not converge in "
                         f"{NEWTON_MAX_STEPS} steps (relative residual {res:.3g})")


def _free_step(hess: np.ndarray, rhs: np.ndarray, free: np.ndarray | None,
               both: bool) -> np.ndarray:
    """Solve the free multipliers' block of hess (``free`` marks them, None all) for rhs.

    By Cholesky, or by least squares when the block is singular, as it is
    with every cap and the budget free.
    """
    all_free = free is None
    sub, sub_rhs = (hess, rhs) if all_free else (hess[np.ix_(free, free)], rhs[free])
    if not (both and all_free):
        _, pf, info = dposv(sub, sub_rhs)
        if not info:
            return pf
    return np.linalg.lstsq(sub, sub_rhs, rcond=1e-13)[0]


def _start_multipliers(s: np.ndarray, g: np.ndarray, x: np.ndarray, j: np.ndarray,
                       a_max: float | None, p_out: float | None) -> np.ndarray:
    """Multipliers read off a feasible x.

    When x spends the budget, mu is the least-squares fit of mu j to the
    multipliers d_i = -Re(conj(x_i) (S x + g)_i) / |x_i|^2 >= 0 that make x
    stationary, over the elements off their caps (zero otherwise). Cap i
    takes the multiplier of an exact coordinate step from x: with
    c_i = (S x + g)_i - S_ii x_i, nu_i = max(0, |c_i| / a_max - S_ii - mu j_i).
    """
    sx_g = s @ x + g
    mu = 0.0
    if p_out is not None:
        mag2 = np.abs(x) ** 2
        if float(j @ mag2) >= p_out * (1 - 1e-6):
            off = mag2 < a_max ** 2 * (1 - 1e-6) if a_max is not None else np.ones(x.size, bool)
            d = np.maximum(-np.real(np.conj(x) * sx_g)[off] / np.maximum(mag2[off], 1e-300), 0.0)
            mu = float(j[off] @ d) / max(float(j[off] @ j[off]), 1e-300)
        if a_max is None:
            return np.array([mu])
    s_ii = s.diagonal().real
    nu = np.maximum(np.abs(sx_g - s_ii * x) / a_max - s_ii - mu * j, 0.0)
    return nu if p_out is None else np.append(nu, mu)


def solve_p22(instance: QcqpInstance, x0: np.ndarray | None = None) -> np.ndarray:
    """Solve the convex reflecting-coefficient subproblem.

    When neither the caps nor the budget bind, the ridged linear solve is the
    answer. Given x0, that solve is skipped where ||g|| > (1 + 1e-6) sqrt(M)
    a_max lam_max: the solution's norm is at least ||g|| / lam_max, so it
    breaks a cap. Otherwise the Lagrange dual over the cap multipliers nu and the
    power multiplier mu is maximized by projected Newton (``_dual_newton``),
    started from multipliers read off x0 (or off the clipped linear solve,
    ``_start_multipliers``); a budget that the caps already imply is dropped. A singular
    S (smallest eigenvalue at most SINGULAR_RTOL of the largest, as passive
    surfaces give) takes proximal steps x_k+1 = argmin f(x) + rho ||x - x_k||^2,
    each a Newton solve on S + rho I, with rho falling tenfold from 1e-3 to
    1e-7 of the largest eigenvalue, until the stationarity residual
    rho ||x_k+1 - x_k|| is 1e-15 of it. Either loop raises NumericalError at
    its step cap. Their result is clipped onto the caps and scaled into the
    budget.
    """
    s, g, j = instance.s, instance.g, instance.j
    a_max, p_out = instance.a_max, instance.p_out
    m = g.size
    x = None
    if x0 is None or a_max is None or \
            float(np.vdot(g, g).real) <= m * ((1 + 1e-6) * a_max * instance.lam_max) ** 2:
        try:  # the unconstrained minimizer, S ridged by 1e-14 of its mean diagonal
            x = np.linalg.solve(s + 1e-14 * s.trace().real * _identity(m) / max(m, 1), -g)
        except np.linalg.LinAlgError:
            pass
    if x is not None and (a_max is None or (np.abs(x) <= a_max * (1 + 1e-12)).all()) and (
            p_out is None or float(j @ np.abs(x) ** 2) <= p_out * (1 + 1e-12)):
        return _feasible(x, j, a_max, None)
    if a_max is not None and p_out is not None and float(j.sum()) * a_max ** 2 <= p_out:
        p_out = None  # the caps imply the budget
    if p_out is None:
        if a_max is None:
            raise NumericalError("QCQP subproblem: the quadratic form is singular")
        rows, bound = None, np.full(m, a_max ** 2)
    elif a_max is None:
        rows, bound = j[np.newaxis, :], np.array([p_out])
    else:
        rows, bound = np.vstack([_identity(m), j]), np.append(np.full(m, a_max ** 2), p_out)
    start = x0 if x0 is not None else x if x is not None else np.zeros(m)
    start = _feasible(np.asarray(start, dtype=complex), j, a_max, None)
    y = _start_multipliers(s, g, start, j, a_max, p_out)
    if instance.lam_min > SINGULAR_RTOL * instance.lam_max:
        return _feasible(_dual_newton(s, g, rows, bound, y)[0], j, a_max, p_out)
    x, lam = start, instance.lam_max
    rho = 1e-3 * lam
    for _ in range(PROX_MAX_STEPS):
        x_new, y = _dual_newton(s + rho * _identity(m), g - rho * x, rows, bound, y)
        moved = float(np.max(np.abs(x_new - x)))
        x = x_new
        if rho * moved <= 1e-15 * lam * (1.0 + float(np.max(np.abs(x)))):
            return _feasible(x, j, a_max, p_out)
        rho = max(0.1 * rho, 1e-7 * lam)
    raise NumericalError(f"QCQP subproblem: proximal steps did not converge in "
                         f"{PROX_MAX_STEPS} steps on the singular quadratic form")


def _feasible(x: np.ndarray, j: np.ndarray, a_max: float | None,
              p_out: float | None) -> np.ndarray:
    """x clipped radially onto the caps, then scaled into the budget."""
    if a_max is not None:
        mag = np.abs(x)
        over = mag > a_max
        if over.any():
            x = x.copy()
            x[over] *= a_max / mag[over]
    if p_out is not None:
        power = float((j * np.abs(x) ** 2).sum())
        if power > p_out:
            x = x * np.sqrt(p_out / power)
    return x


def solve_p22p_unit_modulus(instance: QcqpInstance, x0: np.ndarray | None = None) -> np.ndarray:
    """Cyclic exact per-element minimization on the unit circle.

    For each element the objective is linear in the phase once |phi_m| = 1,
    so the minimizer is the phase of the negated linear coefficient; elements
    with a vanishing coefficient keep their previous phase. Sweeps stop when
    the per-sweep objective decrease drops below 1e-12 (relative); a NumericalError
    when that takes more than UNIT_MODULUS_MAX_SWEEPS.
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
    for _ in range(UNIT_MODULUS_MAX_SWEEPS):
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
            return x
    raise NumericalError(f"QCQP subproblem: unit-modulus sweeps did not converge in "
                         f"{UNIT_MODULUS_MAX_SWEEPS} sweeps")


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
        return WmmseResult(rcm=rcm0, eta=0.0, trace=[], converged=True)
    phi = rcm0.phi.copy()
    draw = Draw.of(channels, sources, noise, rcm0.sigma1_sq(noise))
    h = equivalent_channels(channels, phi)  # the rows of the current phi
    omega = None
    trace: list[float] = []
    converged = False
    for _ in range(max_iter):
        u = update_u(phi, draw, h)
        eps = mse_epsilon(u, phi, draw, h)
        if omega is None:
            omega = update_omega(eps)
        trace.append(_surrogate(omega, eps))

        instance = build_qcqp(u, draw, rcm0)
        candidate = phi_step(instance, x0=phi)
        cand_h = equivalent_channels(channels, candidate)
        cand_eps = mse_epsilon(u, candidate, draw, cand_h)
        if cand_eps <= eps:  # solver returns a feasible point; keep only improvements
            phi, eps, h = candidate, cand_eps, cand_h
        trace.append(_surrogate(omega, eps))

        omega_new = update_omega(eps)
        trace.append(_surrogate(omega_new, eps))
        converged = abs(omega_new - omega) / omega < tol
        omega = omega_new
        if converged:
            break
    rcm = replace(rcm0, phi=phi)
    rcm.check_feasible(channels, sources, noise)
    eta = population_eta(channels, rcm, sources, noise)
    return WmmseResult(rcm=rcm, eta=eta, trace=trace, converged=converged)


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
    return _wmmse_loop(channels, sources, noise, rcm0, solve_p22, tol, max_iter)


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
    # looked up at each call, not bound at import: perfbench's tracer rebinds both names
    step = solve_p22p_unit_modulus if mode == "passive-unit" else solve_p22
    return _wmmse_loop(channels, sources, noise, rcm0, step, tol, max_iter)
