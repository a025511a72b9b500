"""Power-budget analysis for the no-direct-link LoS regime.

Closed forms for the matched-filter / zero-forcing / minimum-MSE coefficient
configurations with interferers, a bisection planner for the minimum budget
that reaches a target detection probability, and ``coefficients``: the one
method table that simulate, optimize and the planner share.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import brentq

from . import channel as chan
from .errors import ConfigError, InfeasibleError, NumericalError
from .optimizer import Rcm, ris_output_power, wmmse_active, wmmse_passive
from .sensing import solve_min_eta


@dataclass(frozen=True)
class RisPowerModel:
    """Per-element power draw: p_c for control circuits, p_dc for amplification.

    An active surface with M elements and budget p_aris can radiate
    p_out_budget(p_aris, m) = p_aris - m (p_c + p_dc); a passive surface
    supports floor(p_pris / p_c) elements.
    """

    p_c: float
    p_dc: float

    def __post_init__(self):
        if not (self.p_c >= 0 and self.p_dc >= 0 and self.p_c + self.p_dc > 0):
            raise ConfigError(f"element powers p_c = {self.p_c!r} W and p_dc = {self.p_dc!r} W "
                              "must be nonnegative with a positive sum")

    def p_out_budget(self, p_aris: float, m: int) -> float:
        return p_aris - m * (self.p_c + self.p_dc)

    def elements(self, p: float, passive: bool = False) -> float:
        """Budget p over the per-element draw (p_c alone when passive), not rounded.

        Infinite for a budget near the float maximum, so compare it with a
        ceiling before rounding it to a count.
        """
        if passive and self.p_c <= 0:
            raise ConfigError(f"a passive surface needs p_c > 0 to size its elements, "
                              f"got p_c = {self.p_c!r} W")
        return p / (self.p_c if passive else self.p_c + self.p_dc)

    def m_max(self, p_aris: float) -> int:
        """Largest active element count whose circuit power fits the budget."""
        return int(math.floor(self.elements(p_aris)))

    def passive_m(self, p_pris: float) -> int:
        return int(math.floor(self.elements(p_pris, passive=True)))


def upa_dims(sc, m: int) -> tuple[int, int]:
    """(columns, rows) of an m-element surface with the scenario's m_v rows."""
    m_v = int(sc.m_v)
    if m % m_v:
        raise ValueError(f"element count {m} not divisible by the vertical dimension {m_v}")
    return m // m_v, m_v


@dataclass(frozen=True)
class ClosedFormContext:
    """LoS constants and M-dependent pieces used by the closed forms.

    b_g is the surface-side steering factor of the rank-one surface-receiver
    channel; a_f the (K+1) x m array whose row k is the unit-modulus incident
    steering of source k (f_k = sqrt(beta_f[k]) a_f[k]). Only these factored
    vectors are kept, never an N x m matrix. The m elements form m // m_v
    columns of m_v.
    """

    n_antennas: int
    m: int
    beta_g: float
    beta_f: np.ndarray
    p: np.ndarray
    zeta: np.ndarray
    sigma1_sq: float
    sigma2_sq: float
    p_c: float
    p_dc: float
    b_g: np.ndarray
    a_f: np.ndarray
    m_v: int = 1

    def __post_init__(self):
        object.__setattr__(self, "a_f", np.asarray(self.a_f, dtype=complex))

    @classmethod
    def from_scenario(cls, sc, m: int) -> "ClosedFormContext":
        """Build the context at a given element count from a scenario."""
        m_h, m_v = upa_dims(sc, m)
        gains, los = chan.los_factors(sc, m_h, m_v)
        noise, src, power = sc.noise(), sc.sources(), sc.power_model()
        return cls(n_antennas=sc.n_antennas, m=m, beta_g=gains.beta_g, beta_f=gains.beta_f,
                   p=src.p, zeta=src.zeta, sigma1_sq=noise.sigma1_sq,
                   sigma2_sq=noise.sigma2_sq, p_c=power.p_c, p_dc=power.p_dc,
                   b_g=los.b_ris, a_f=los.a_f, m_v=m_v)

    def prefix(self, m: int) -> "ClosedFormContext":
        """The context of the first m elements, equal to ``from_scenario`` at m.

        The horizontal index is the outer one of the planar steering vectors,
        so for whole columns (m a multiple of m_v) their first m entries are
        the m-element vectors, bit for bit.
        """
        if not 1 <= m <= self.m or m % self.m_v:
            raise ValueError(f"cannot take {m} of {self.m} elements in columns of {self.m_v}")
        return dataclasses.replace(self, m=m, b_g=self.b_g[:m], a_f=self.a_f[:, :m])

    @property
    def c1(self) -> float:
        """Circuit power per active element."""
        return self.p_c + self.p_dc

    @property
    def p_in_bar(self) -> float:
        """Incident power per unit reflection gain."""
        return float(np.sum(self.zeta * self.beta_f * self.p) + self.sigma1_sq)

    def q_vec(self, k) -> np.ndarray:
        """q_k = B^H f_k with B = diag(b_g); an index array or slice k gives one row per source."""
        return self.b_g.conj() * (np.sqrt(self.beta_f[k])[..., np.newaxis] * self.a_f[k])

    def quad_d(self, x: np.ndarray) -> float:
        """x^H D x without building D.

        D = (sigma1^2 I + sum_k zeta_k p_k f_k f_k^H) / sigma2^2 over interferers.
        """
        proj = x.conj() @ self.a_f[1:].T  # x^H a_f[k] per interferer, no (K, m) temporary
        w = self.zeta[1:] * self.p[1:] * self.beta_f[1:]
        out = self.sigma1_sq * float(np.real(x.conj() @ x)) + float(w @ np.abs(proj) ** 2)
        return out / self.sigma2_sq

    def solve_ball_system(self, c: float, rhs: np.ndarray) -> np.ndarray:
        """Solve (c I + sum_k w_k q_k q_k^H) x = rhs over the interferers.

        w_k = N beta_g zeta_k p_k / sigma2^2; the Woodbury identity keeps the
        work in the K-dimensional interferer space, never forming M x M.
        """
        weights = self.n_antennas * self.beta_g * self.zeta[1:] * self.p[1:] / self.sigma2_sq
        live = np.nonzero(weights > 0)[0]
        if live.size == 0:
            return rhs / c
        u = self.q_vec(live + 1).T
        z_inv = np.diag(1.0 / weights[live])
        core = z_inv + (u.conj().T @ u) / c
        y = np.linalg.solve(core, u.conj().T @ rhs)
        return rhs / c - (u @ y) / c**2


def mf_phases(b_g: np.ndarray, a_f: np.ndarray) -> np.ndarray:
    """Phases aligning every reflected path: theta_m = arg(b_g_m) - arg(a_f_m)."""
    return np.angle(b_g) - np.angle(a_f)


def _over(p_out: float, p_in: float) -> float:
    """p_out / p_in, or infinity when nothing is incident: the surface then radiates nothing."""
    return p_out / p_in if p_in > 0 else math.inf


class ClosedForm(NamedTuple):
    """Coefficients diag(Phi) of a closed-form design and their excess."""

    phi: np.ndarray
    eta: float


def mmse_phi(ctx: ClosedFormContext, rho1: float) -> ClosedForm:
    """Balanced (MMSE-style) coefficients under the relaxed norm-ball cap.

    phi = (I/rho1 + N beta_g B^H D B)^-1 B^H f_0; the excess is evaluated
    exactly as the relaxed-problem optimum and upper-bounds every feasible
    configuration. Per-element cap violations are reported, not repaired.
    The solve exploits the diagonal-plus-rank-K structure of D.
    """
    if rho1 <= 0:
        raise ValueError("rho1 must be positive")
    # B^H D B = (sigma1^2 I + sum_k zeta_k p_k q_k q_k^H) / sigma2^2 since |b_g| = 1
    c = 1.0 / rho1 + ctx.n_antennas * ctx.beta_g * ctx.sigma1_sq / ctx.sigma2_sq
    q0 = ctx.q_vec(0)
    try:
        raw = ctx.solve_ball_system(c, q0)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("MMSE system is singular") from exc
    eta = ctx.n_antennas * ctx.beta_g * ctx.p[0] / ctx.sigma2_sq * float(
        np.real(q0.conj() @ raw))
    # the closed form fixes only the direction; on the ball boundary
    # ||phi||^2 = rho1 the achieved excess equals the value computed above
    phi = raw * np.sqrt(rho1 / float(np.real(raw.conj() @ raw)))
    # the ball-coordinate vector is the diagonal of Phi^H; return diag(Phi)
    return ClosedForm(phi=phi.conj(), eta=eta)


def _zf_direction(ctx: ClosedFormContext, a_max: float) -> tuple[np.ndarray, float, float]:
    """w, the first column of Q (Q^H Q)^-1 with Q = [q_0 ... q_K], ||w||^2 and the cap on rho2.

    rho2 is ||phi||^2; the cap is the largest rho2 whose peak amplitude stays
    within a_max. Needs M >= K+1 (a ConfigError otherwise).
    """
    k = len(ctx.a_f) - 1
    if ctx.m < k + 1:
        raise ConfigError(f"zero-forcing needs M >= K+1 = {k + 1} elements, got M = {ctx.m}")
    q = ctx.q_vec(slice(None)).T  # columns q_0 ... q_K
    gram = q.conj().T @ q
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > 1e12:
        raise NumericalError("zero-forcing geometry is degenerate (ill-conditioned Gram)")
    e1 = np.zeros(k + 1, dtype=complex)
    e1[0] = 1.0
    w = q @ np.linalg.solve(gram, e1)
    norm_w_sq = float(np.real(w.conj() @ w))
    return w, norm_w_sq, a_max**2 * norm_w_sq / float(np.max(np.abs(w)) ** 2)


def _zf_eta(ctx: ClosedFormContext, rho2: float, norm_w_sq: float) -> float:
    """Excess of the zero-forcing coefficients with ||phi||^2 = rho2."""
    # [(Q^H Q)^-1]_{11} equals ||w||^2
    return float(ctx.n_antennas * ctx.beta_g * ctx.p[0] / (
        (ctx.sigma2_sq / rho2 + ctx.n_antennas * ctx.beta_g * ctx.sigma1_sq) * norm_w_sq))


def zf_phi(ctx: ClosedFormContext, a_max: float, p_out: float, p_in: float) -> ClosedForm:
    """Interference-nulling coefficients.

    phi = sqrt(rho2) w / ||w|| with w the first column of Q (Q^H Q)^-1,
    Q = [q_0 ... q_K]; every interferer direction q_k is nulled exactly.
    Needs M >= K+1 (a ConfigError otherwise).
    """
    w, norm_w_sq, rho2_cap = _zf_direction(ctx, a_max)
    rho2 = min(_over(p_out, p_in), rho2_cap)
    phi = np.sqrt(rho2) * w / np.sqrt(norm_w_sq)
    # phi above is the diagonal of Phi^H; return diag(Phi)
    return ClosedForm(phi=phi.conj(), eta=_zf_eta(ctx, rho2, norm_w_sq))


def mf_phi(ctx: ClosedFormContext, a_max: float, p_out: float, p_in: float) -> ClosedForm:
    """Signal-aligned coefficients: phi = a B^H a_f with the budget-filling a."""
    m = ctx.m
    a = min(a_max, np.sqrt(_over(p_out, m * p_in))) if p_out > 0 else 0.0
    a_f0 = ctx.a_f[0]
    phi = a * ctx.b_g * a_f0.conj()  # diag(Phi): theta_m = arg(b_g_m) - arg(a_f_m)
    denom = (1.0 + ctx.n_antennas * a * a * ctx.beta_g * ctx.quad_d(a_f0)) * ctx.sigma2_sq
    eta = ctx.n_antennas * m * m * a * a * ctx.beta_f[0] * ctx.beta_g * ctx.p[0] / denom
    return ClosedForm(phi=phi, eta=float(eta))


def passive_mf_eta(ctx: ClosedFormContext) -> float:
    """Excess of the unit-amplitude aligned passive surface, interferers included.

    Reduces to the closed passive form when no interferer is active.
    """
    a_f0 = ctx.a_f[0]
    denom = (1.0 + ctx.n_antennas * ctx.beta_g * ctx.quad_d(a_f0)) * ctx.sigma2_sq
    return float(ctx.n_antennas * ctx.m**2 * ctx.beta_f[0] * ctx.beta_g * ctx.p[0] / denom)


METHODS = ("wmmse", "mf", "zf", "mmse", "passive", "passive-unit", "passive-relaxed")
# The planner sizes a passive surface by its circuit power alone; the
# iterative passive designs have no such rule, so it plans the first five.
PLANNER_METHODS = METHODS[:5]


class Design(NamedTuple):
    """Coefficients of one method, their excess and (iterative methods) outer iterations."""

    rcm: Rcm
    eta: float
    iterations: int | None = None


def coefficients(method: str, scenario, m: int, p_out: float | None,
                 channels: chan.ChannelSet | None = None, *,
                 init_phi: np.ndarray | None = None, max_iter: int = 200,
                 ctx: ClosedFormContext | None = None) -> Design:
    """Reflecting coefficients of ``method`` for an m-element surface.

    The one map from a method name to its solver, shared by simulate,
    optimize and the budget planner. Active methods spend the output budget
    p_out; passive ones ignore it. The iterative methods (wmmse,
    passive-unit, passive-relaxed) solve on ``channels``, or on the
    scenario's LoS channels at m elements when none are given, for at most
    max_iter outer iterations; a WMMSE warm start ``init_phi`` is first
    scaled into feasibility. The closed forms (mf, zf, mmse, passive) follow
    from the LoS geometry, so ``channels``, when given, must be LoS; they
    read the first m elements of ``ctx``, a context of the scenario at m or
    more elements, or of a context built at m when none is given.
    """
    if method not in METHODS:
        raise ConfigError(f"method must be one of {METHODS}, got {method!r}")
    iterative = method in ("wmmse", "passive-unit", "passive-relaxed")
    if not iterative and channels is not None and channels.los is None:
        raise ConfigError(f"method '{method}' needs channel_model: los")
    if method in ("wmmse", "mf", "zf", "mmse") and p_out <= 0:
        raise InfeasibleError(f"the budget leaves {p_out:.6g} W of output power "
                              f"for {m} active elements")
    a_max = scenario.a_max
    if iterative:
        sources, noise = scenario.sources(), scenario.noise()
        if channels is None:
            m_h, m_v = upa_dims(scenario, m)
            channels = chan.build_los_channelset(dataclasses.replace(scenario, m_h=m_h, m_v=m_v))
        if method != "wmmse":
            res = wmmse_passive(channels, sources, noise, mode=method, max_iter=max_iter)
        else:
            if init_phi is not None:
                peak = float(np.max(np.abs(init_phi), initial=0.0))
                if peak > a_max:
                    init_phi = init_phi * (a_max / peak)
                used = ris_output_power(init_phi, channels, sources, noise)
                if used > p_out:
                    init_phi = init_phi * np.sqrt(0.999 * p_out / used)
            res = wmmse_active(channels, sources, noise, p_out, a_max,
                               init_phi=init_phi, max_iter=max_iter)
        return Design(res.rcm, res.eta, len(res.trace) // 3)
    ctx = (ctx or ClosedFormContext.from_scenario(scenario, m)).prefix(m)
    if method == "passive":
        rcm = Rcm(phi=np.exp(1j * mf_phases(ctx.b_g, ctx.a_f[0])), mode="passive-unit", a_max=1.0)
        ctx = dataclasses.replace(ctx, sigma1_sq=rcm.sigma1_sq(scenario.noise()))
        return Design(rcm, passive_mf_eta(ctx))
    p_in = ctx.p_in_bar
    if method == "mmse":  # the relaxed norm-ball solution may exceed the per-element cap
        sol = mmse_phi(ctx, min(_over(p_out, p_in), m * a_max**2))
        return Design(Rcm(phi=sol.phi, mode="active", a_max=np.inf), sol.eta)
    sol = (zf_phi if method == "zf" else mf_phi)(ctx, a_max, p_out, p_in)
    return Design(Rcm(phi=sol.phi, mode="active", a_max=a_max, p_out_budget=p_out), sol.eta)


def planner_method(method: str) -> str:
    """The planner's lower-case name for ``method``; ConfigError if it cannot plan it."""
    name = method.lower()
    if name not in PLANNER_METHODS:
        raise ConfigError(f"the budget planner plans {', '.join(PLANNER_METHODS)}; "
                          f"got {method!r}")
    return name


@dataclass(frozen=True)
class BudgetResult:
    """Outcome of the bisection planner.

    ``probes`` holds the (budget, best excess) pairs that were scanned: every
    probe of a wmmse or passive plan, and for the closed forms the returned
    budget, the last probe below it and any probe near the inverted budget.
    """

    method: str
    required_power: float
    m_star: int
    phi_star: Rcm | None
    eta_star: float
    eta_target: float
    probes: tuple[tuple[float, float], ...]
    note: str = ""


EXACT_SCAN_CAP = 256  # every integer element count is probed up to here
LADDER_RATIO = 1.05


def _m_ladder(m_top: int, cap: int = EXACT_SCAN_CAP, m_v: int = 1) -> list[int]:
    """Element counts to scan: exhaustive up to ``cap``, geometric above.

    Counts come in whole columns of m_v elements. The ladder is a fixed
    sequence truncated at m_top, so a larger budget always scans a superset
    of a smaller one and the best excess stays monotone in the budget.
    """
    top, cap = m_top // m_v, max(1, cap // m_v)
    ms = list(range(1, min(top, cap) + 1))
    m = cap
    while m < top:
        m = max(m + 1, int(round(m * LADDER_RATIO)))
        if m <= top:
            ms.append(m)
    return [m_v * j for j in ms]


CLOSED_FORMS = ("mf", "zf", "mmse")
INVERSION_GUARD = 1e-9  # budgets this close (relative) to the inverted one are scanned


def _least_budget_at(method: str, ctx: ClosedFormContext, eta0: float, a_max: float) -> float:
    """p_m(eta0): the budget above which the m-element closed form beats eta0.

    Each excess rises with the output power until the amplitude cap: mf
    through a^2, zf through rho2 = ||phi||^2, mmse through rho1. The output
    power needed is inverted from the excess and the circuit power added;
    the result is infinite when even the cap stays at or below eta0. A
    count whose excess cannot be inverted is a NumericalError.
    """
    m, p_in = ctx.m, ctx.p_in_bar
    if method == "mf":  # eta = A a^2 / (1 + B a^2), with p_out = m p_in a^2
        if not mf_phi(ctx, a_max, math.inf, p_in).eta > eta0:
            return math.inf
        gain = ctx.n_antennas * m * m * ctx.beta_f[0] * ctx.beta_g * ctx.p[0] / ctx.sigma2_sq
        gap = gain - eta0 * ctx.n_antennas * ctx.beta_g * ctx.quad_d(ctx.a_f[0])
        ratio = m * min(eta0 / gap if gap > 0 else math.inf, a_max**2)
    elif method == "zf":  # eta rises through rho2 = p_out / p_in
        _, norm_w_sq, cap = _zf_direction(ctx, a_max)
        if not _zf_eta(ctx, cap, norm_w_sq) > eta0:
            return math.inf
        nb = ctx.n_antennas * ctx.beta_g
        gap = nb * ctx.p[0] / (eta0 * norm_w_sq) - nb * ctx.sigma1_sq
        ratio = min(ctx.sigma2_sq / gap if gap > 0 else math.inf, cap)
    else:  # mmse: eta rises through rho1 = p_out / p_in
        cap = m * a_max**2
        if not mmse_phi(ctx, cap).eta > eta0:
            return math.inf
        t_cap = 1.0 / cap

        def short(t: float) -> float:  # eta0 / eta - 1 at rho1 = 1/t, rising in t
            return eta0 / mmse_phi(ctx, cap if t <= t_cap else 1.0 / t).eta - 1.0

        # 1/eta is concave and near linear in t; with the interferers silent
        # eta would be N beta_g p_0 ||q_0||^2 / (sigma2^2 (t + const)), a bound
        q0 = ctx.q_vec(0)
        t_hi = ctx.n_antennas * ctx.beta_g * ctx.p[0] * float(np.real(q0.conj() @ q0)) / (
            ctx.sigma2_sq * eta0)
        while math.isfinite(t_hi) and t_hi > 0 and short(t_hi) < 0:  # rounding only
            t_hi *= 2.0
        ratio = 1.0 / brentq(short, t_cap, t_hi, xtol=1e-300, rtol=1e-13, disp=False) \
            if math.isfinite(t_hi) and t_hi > 0 else math.nan
    if not 0 <= ratio < math.inf:
        raise NumericalError(f"{method}: the excess at M = {m} cannot be inverted for the "
                             f"budget (output-power ratio {ratio})")
    return m * ctx.c1 + p_in * ratio


def required_budget(method: str, pd_target: float, scenario) -> BudgetResult:
    """Minimum surface power budget achieving the target detection probability.

    Bisection on the budget, from the scenario's bisect_p_high down to its
    stop_tol. A probe scans the element count in whole columns of m_v
    elements (exhaustively up to 256 elements, on a geometric ladder above)
    and compares the best reachable excess with the target excess eta_0. A
    passive surface spends the whole budget on element circuits instead,
    rounded down to whole columns; WMMSE solves at each element count start
    from the previous probe's solution there.

    The closed forms (mf, zf, mmse) instead invert each count for p_m, the
    least budget that beats eta_0, walking the ladder upwards until the
    circuit power alone exceeds the best p_m. A probe beats eta_0 exactly
    when it lies above p* = min p_m, so it is scanned only within a guard
    band around p*, at the returned budget and at the last probe below it.
    End scans that contradict the inversion are a NumericalError. The
    scanned probe history is checked for monotonicity.
    """
    method = planner_method(method)
    stop_tol, p_high = scenario.stop_tol, scenario.bisect_p_high
    eta0 = solve_min_eta(pd_target, scenario.detector())
    power = scenario.power_model()
    a_max = scenario.a_max
    k = scenario.geometry.n_interferers
    m_v = scenario.m_v
    warm: dict[int, np.ndarray] = {}

    def columns(m: int) -> int:
        """m rounded down to whole columns of m_v elements."""
        return m // m_v * m_v

    # Every probe scans element counts up to those of p_high, and the closed
    # forms read their first m elements from one context, grown as needed.
    affords = power.elements(p_high, passive=method == "passive")
    m_top = columns(math.floor(affords)) if affords < math.inf else affords
    if (k + 1) * m_top > chan.MAX_PLANNED_STEERING:
        raise ConfigError(f"planner.p_high_w = {p_high!r} W affords {m_top:.4g} elements; "
                          f"for {k + 1} sources that exceeds the planner's ceiling of "
                          f"{chan.MAX_PLANNED_STEERING} steering entries")
    ctx = None

    def context(m: int) -> ClosedFormContext:
        """A context of at least m elements: doubled, from 256 elements, up to m_top."""
        nonlocal ctx
        if ctx is None or ctx.m < m:
            grown = 2 * ctx.m if ctx is not None else columns(EXACT_SCAN_CAP)
            ctx = ClosedFormContext.from_scenario(scenario, min(m_top, max(m, grown)))
        return ctx

    def probe(p: float) -> tuple[float, int, Rcm | None]:
        if method == "passive":
            m = columns(power.passive_m(p))
            if m < 1:
                return 0.0, 0, None
            res = coefficients(method, scenario, m, None, ctx=context(m))
            return res.eta, m, res.rcm
        best = (0.0, 0, None)
        # iterative optimization above the exact region is impractical; the
        # planner's WMMSE branch is meant for budgets with modest m_max
        cap = EXACT_SCAN_CAP if method != "wmmse" else 64
        for m in _m_ladder(power.m_max(p), cap, m_v):
            p_out = power.p_out_budget(p, m)
            if p_out <= 0 or (method == "zf" and m < k + 1):
                continue
            res = coefficients(method, scenario, m, p_out, init_phi=warm.get(m),
                               ctx=None if method == "wmmse" else context(m))
            if method == "wmmse":
                warm[m] = res.rcm.phi
            if res.eta > best[0]:
                best = (res.eta, m, res.rcm)
        return best

    def least_budget() -> float:
        """p* = min over the ladder of p_high of p_m(eta0)."""
        best = math.inf
        for m in _m_ladder(m_top, EXACT_SCAN_CAP, m_v):
            if power.p_out_budget(min(best, p_high), m) <= 0:
                break  # p_m > m (p_c + p_dc) >= best, and counts only grow
            if method == "zf" and m < k + 1:
                continue
            best = min(best, _least_budget_at(method, context(m).prefix(m), eta0, a_max))
        return best

    scans: dict[float, tuple[float, int, Rcm | None]] = {}

    def scan(p: float) -> tuple[float, int, Rcm | None]:
        """The probe at budget p, once; the history is checked for monotonicity."""
        if p not in scans:
            scans[p] = probe(p)
            ordered = sorted((q, res[0]) for q, res in scans.items())
            slack = 1e-6 if method == "wmmse" else 1e-9
            for (p1, e1), (p2, e2) in zip(ordered, ordered[1:]):
                if e2 < e1 * (1 - slack) - 1e-300:
                    raise NumericalError(
                        f"excess not monotone in the budget: eta({p1})={e1}, eta({p2})={e2}")
        return scans[p]

    if method in CLOSED_FORMS:
        p_star = least_budget()

        def beats(p: float) -> bool:
            if abs(p - p_star) > INVERSION_GUARD * p_star:
                return p > p_star
            return scan(p)[0] > eta0
    else:
        def beats(p: float) -> bool:
            return scan(p)[0] > eta0

    if not beats(p_high):
        eta_hi = scan(p_high)[0]  # the message reports the scanned excess
        if eta_hi <= eta0:
            floor = (k + 1) * (power.p_c + power.p_dc)
            hint = f" (zero-forcing needs at least {floor:.6g} W for K+1 elements)" \
                if method == "zf" else ""
            raise InfeasibleError(
                f"target Pd {pd_target} unreachable with budget {p_high} W: "
                f"best excess {eta_hi:.6g} < required {eta0:.6g}{hint}")
    p_low, p_top = 0.0, p_high
    while p_top - p_low > stop_tol:
        mid = 0.5 * (p_low + p_top)
        if mid in (p_low, p_top):  # the gap is down to the float spacing of the budget
            break
        if beats(mid):
            p_top = mid
        else:
            p_low = mid
    if method in CLOSED_FORMS and not (
            scan(p_top)[0] > eta0 and (p_low == 0 or scan(p_low)[0] <= eta0)):
        raise NumericalError(f"the end scans contradict the inverted budget p* = {p_star!r} W: "
                             f"p_low = {p_low!r} W, p_top = {p_top!r} W")
    eta_star, m_star, rcm_star = scan(p_top)
    note = ""
    if method == "mmse" and rcm_star is not None:
        over = float(np.max(np.abs(rcm_star.phi))) / a_max
        if over > 1.0:
            note = f"relaxed norm-ball solution exceeds the per-element cap by x{over:.3f}"
    return BudgetResult(method=method, required_power=p_top, m_star=m_star,
                        phi_star=rcm_star, eta_star=eta_star, eta_target=eta0,
                        probes=tuple(sorted((p, res[0]) for p, res in scans.items())),
                        note=note)
