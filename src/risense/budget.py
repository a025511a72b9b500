"""Power-budget analysis for the no-direct-link LoS regime.

Closed forms for the interference-free optimum (amplification factor and
element count splitting a fixed budget), matched-filter / zero-forcing /
minimum-MSE coefficient configurations with interferers, a bisection
planner for the minimum budget that reaches a target detection probability,
and ``coefficients``: the one method table that simulate, optimize and the
planner share.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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
        if self.p_c < 0 or self.p_dc < 0 or self.p_c + self.p_dc <= 0:
            raise ValueError("element powers must be nonnegative with a positive sum")

    def p_out_budget(self, p_aris: float, m: int) -> float:
        return p_aris - m * (self.p_c + self.p_dc)

    def m_max(self, p_aris: float) -> int:
        return m_max(p_aris, self.p_c, self.p_dc)

    def passive_m(self, p_pris: float) -> int:
        if self.p_c <= 0:
            raise ValueError("passive element count needs p_c > 0")
        return int(math.floor(p_pris / self.p_c))


def m_max(p_aris: float, p_c: float, p_dc: float) -> int:
    """Largest element count whose circuit power fits the budget."""
    if p_c + p_dc <= 0:
        raise ValueError("p_c + p_dc must be positive")
    return int(math.floor(p_aris / (p_c + p_dc)))


def upa_dims(sc, m: int) -> tuple[int, int]:
    """(columns, rows) of an m-element surface with the scenario's m_v rows."""
    m_v = int(getattr(sc, "m_v", 1))
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

    # interference-free constants
    @property
    def c0(self) -> float:
        return self.n_antennas * self.beta_g * self.sigma1_sq / self.sigma2_sq

    @property
    def c1(self) -> float:
        return self.p_c + self.p_dc

    @property
    def c2(self) -> float:
        return self.beta_f[0] * self.p[0] + self.sigma1_sq

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


def optimal_amplitude(ctx: ClosedFormContext, p_aris: float,
                      a_max: float) -> tuple[float, float]:
    """Interference-free optimal squared amplitude A0 and the capped a_opt.

    A0 = C1 C2^(-1/2) (C2 + C0 P)^(-1/2); a_opt = min(a_max, sqrt(A0)).
    """
    if p_aris < 0:
        raise ValueError("budget must be nonnegative")
    a0 = ctx.c1 / np.sqrt(ctx.c2 * (ctx.c2 + ctx.c0 * p_aris))
    return float(a0), float(min(a_max, np.sqrt(a0)))


class OptimalM(NamedTuple):
    m_opt: float
    m_bar: int
    a_bar: float


def _xi(ctx: ClosedFormContext, p_aris: float, m: int) -> float:
    """Amplitude that makes M elements consume the whole budget."""
    rem = p_aris - m * ctx.c1
    return float(np.sqrt(rem / (m * ctx.c2))) if rem > 0 else 0.0


def _q_gain(ctx: ClosedFormContext, m: float, a: float) -> float:
    """Coherent-combination figure of merit M^2 a^2 / (1 + C0 M a^2)."""
    return m * m * a * a / (1.0 + ctx.c0 * m * a * a)


def optimal_m(ctx: ClosedFormContext, p_aris: float, a_opt: float,
              a_max: float) -> OptimalM:
    """Element count consuming the whole budget at a_opt, and its integer recovery.

    The real optimum satisfies M (C1 + C2 a_opt^2) = P. When it is fractional,
    the figure of merit q(M, min(a_max, xi(M))) increases up to floor(M) and
    decreases beyond, so the integer optimum is whichever neighbor scores
    higher. (Keeping the floor unconditionally whenever the amplitude cap
    binds can lose badly: the budget-exhausting M0+1 configuration often
    dominates; the exhaustive-scan test pins this down.)
    """
    denom = ctx.c1 + ctx.c2 * a_opt**2
    if denom <= 0:
        raise ValueError("nonpositive per-element consumption")
    m_opt = p_aris / denom
    if m_opt < 1.0:
        if p_aris <= ctx.c1:
            raise InfeasibleError("budget cannot power a single element")
        return OptimalM(m_opt, 1, min(a_max, _xi(ctx, p_aris, 1)))
    if float(m_opt).is_integer():
        return OptimalM(m_opt, int(m_opt), a_opt)
    m0 = int(math.floor(m_opt))
    a_lo = min(a_max, _xi(ctx, p_aris, m0))
    a_hi = min(a_max, _xi(ctx, p_aris, m0 + 1))
    if a_hi <= 0 or _q_gain(ctx, m0, a_lo) > _q_gain(ctx, m0 + 1, a_hi):
        return OptimalM(m_opt, m0, a_lo)
    return OptimalM(m_opt, m0 + 1, a_hi)


def eta_active_no_interference(ctx: ClosedFormContext, n: int, m: float, a: float) -> float:
    """Population excess of the interference-free active configuration.

    eta = a^2 M^2 N beta_f0 beta_g p_0 / (M N sigma1^2 a^2 beta_g + sigma2^2);
    continuous at sigma1 = 0, where it matches the passive form.
    """
    num = a * a * m * m * n * ctx.beta_f[0] * ctx.beta_g * ctx.p[0]
    den = m * n * ctx.sigma1_sq * a * a * ctx.beta_g + ctx.sigma2_sq
    return float(num / den)


def eta_passive(n: int, m: float, beta_f0: float, beta_g: float, p0: float,
                sigma2_sq: float) -> float:
    """Population excess of the passive surface with aligned phases."""
    return float(n * m * m * beta_f0 * beta_g * p0 / sigma2_sq)


def passive_m_for_eta(eta_target: float, n: int, beta_f0: float, beta_g: float,
                      p0: float, sigma2_sq: float) -> int:
    """Smallest passive element count reaching the target excess."""
    m = np.sqrt(eta_target * sigma2_sq / (n * beta_f0 * beta_g * p0))
    return int(math.ceil(m - 1e-12))


class MmseSolution(NamedTuple):
    phi: np.ndarray
    eta: float
    rho: float


def mmse_phi(ctx: ClosedFormContext, rho1: float) -> MmseSolution:
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
    return MmseSolution(phi=phi.conj(), eta=eta, rho=rho1)


class ZfSolution(NamedTuple):
    phi: np.ndarray
    eta: float
    rho: float


def zf_phi(ctx: ClosedFormContext, a_max: float, p_out: float, p_in: float) -> ZfSolution:
    """Interference-nulling coefficients.

    phi = sqrt(rho2) w / ||w|| with w the first column of Q (Q^H Q)^-1,
    Q = [q_0 ... q_K]; every interferer direction q_k is nulled exactly.
    Needs M >= K+1.
    """
    k = len(ctx.a_f) - 1
    if ctx.m < k + 1:
        raise ValueError(f"zero-forcing needs M >= K+1 = {k + 1}, got M = {ctx.m}")
    q = ctx.q_vec(slice(None)).T  # columns q_0 ... q_K
    gram = q.conj().T @ q
    cond = np.linalg.cond(gram)
    if not np.isfinite(cond) or cond > 1e12:
        raise NumericalError("zero-forcing geometry is degenerate (ill-conditioned Gram)")
    e1 = np.zeros(k + 1, dtype=complex)
    e1[0] = 1.0
    w = q @ np.linalg.solve(gram, e1)
    norm_w_sq = float(np.real(w.conj() @ w))
    rho2 = min(p_out / p_in, a_max**2 * norm_w_sq / float(np.max(np.abs(w)) ** 2))
    phi = np.sqrt(rho2) * w / np.sqrt(norm_w_sq)
    # [(Q^H Q)^-1]_{11} equals ||w||^2
    eta = ctx.n_antennas * ctx.beta_g * ctx.p[0] / (
        (ctx.sigma2_sq / rho2 + ctx.n_antennas * ctx.beta_g * ctx.sigma1_sq) * norm_w_sq)
    # phi above is the diagonal of Phi^H; return diag(Phi)
    return ZfSolution(phi=phi.conj(), eta=float(eta), rho=float(rho2))


class MfSolution(NamedTuple):
    phi: np.ndarray
    eta: float
    a: float


def mf_phi(ctx: ClosedFormContext, a_max: float, p_out: float, p_in: float) -> MfSolution:
    """Signal-aligned coefficients: phi = a B^H a_f with the budget-filling a."""
    m = ctx.m
    a = min(a_max, np.sqrt(p_out / (m * p_in))) if p_out > 0 else 0.0
    a_f0 = ctx.a_f[0]
    phi = a * ctx.b_g * a_f0.conj()  # diag(Phi): theta_m = arg(b_g_m) - arg(a_f_m)
    denom = (1.0 + ctx.n_antennas * a * a * ctx.beta_g * ctx.quad_d(a_f0)) * ctx.sigma2_sq
    eta = ctx.n_antennas * m * m * a * a * ctx.beta_f[0] * ctx.beta_g * ctx.p[0] / denom
    return MfSolution(phi=phi, eta=float(eta), a=float(a))


def passive_mf_eta(ctx: ClosedFormContext) -> float:
    """Excess of the unit-amplitude aligned passive surface, interferers included.

    Reduces to the closed passive form when no interferer is active. Build
    the context with sigma1_sq = 0 (a passive surface forwards no noise).
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
    k = scenario.geometry.n_interferers
    if method == "zf" and m < k + 1:
        raise ConfigError(f"zero-forcing needs M >= K+1 = {k + 1} elements, got M = {m}")
    ctx = (ctx or ClosedFormContext.from_scenario(scenario, m)).prefix(m)
    if method == "passive":  # a passive surface forwards no noise
        ctx = dataclasses.replace(ctx, sigma1_sq=0.0)
        phi = np.exp(1j * mf_phases(ctx.b_g, ctx.a_f[0]))
        return Design(Rcm(phi=phi, mode="passive-unit", a_max=1.0), passive_mf_eta(ctx))
    p_in = ctx.p_in_bar
    if method == "mmse":  # the relaxed norm-ball solution may exceed the per-element cap
        sol = mmse_phi(ctx, min(p_out / p_in, m * a_max**2))
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
    """Outcome of the bisection planner."""

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


def required_budget(method: str, pd_target: float, scenario, stop_tol: float | None = None,
                    p_high: float | None = None) -> BudgetResult:
    """Minimum surface power budget achieving the target detection probability.

    Bisection on the budget; at each probe the element count is scanned in
    whole columns of m_v elements (exhaustively up to 256 elements, on a
    geometric ladder above) and the best reachable excess compared against
    the target excess eta_0. A passive surface spends the whole budget on
    element circuits instead, rounded down to whole columns. The closed
    forms share one context, built at the largest count p_high affords.
    WMMSE solves at each element count start from the previous probe's
    solution there. The probe history is checked for monotonicity.
    """
    method = planner_method(method)
    stop_tol = scenario.stop_tol if stop_tol is None else stop_tol
    p_high = scenario.bisect_p_high if p_high is None else p_high
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
    # forms read their first m elements: one context serves the whole plan.
    ctx = None
    if method != "wmmse":
        m_top = columns(power.passive_m(p_high) if method == "passive" else power.m_max(p_high))
        if m_top >= 1:
            ctx = ClosedFormContext.from_scenario(scenario, m_top)

    def probe(p: float) -> tuple[float, int, Rcm | None]:
        if method == "passive":
            m = columns(power.passive_m(p))
            if m < 1:
                return 0.0, 0, None
            res = coefficients(method, scenario, m, None, ctx=ctx)
            return res.eta, m, res.rcm
        best = (0.0, 0, None)
        # iterative optimization above the exact region is impractical; the
        # planner's WMMSE branch is meant for budgets with modest m_max
        cap = EXACT_SCAN_CAP if method != "wmmse" else 64
        for m in _m_ladder(power.m_max(p), cap, m_v):
            p_out = power.p_out_budget(p, m)
            if p_out <= 0 or (method == "zf" and m < k + 1):
                continue
            res = coefficients(method, scenario, m, p_out, init_phi=warm.get(m), ctx=ctx)
            if method == "wmmse":
                warm[m] = res.rcm.phi
            if res.eta > best[0]:
                best = (res.eta, m, res.rcm)
        return best

    history: list[tuple[float, float]] = []

    def record(p: float, eta: float) -> None:
        history.append((p, eta))
        ordered = sorted(history)
        slack = 1e-6 if method == "wmmse" else 1e-9
        for (p1, e1), (p2, e2) in zip(ordered, ordered[1:]):
            if e2 < e1 * (1 - slack) - 1e-300:
                raise NumericalError(
                    f"excess not monotone in the budget: eta({p1})={e1}, eta({p2})={e2}")

    eta_hi, m_hi, rcm_hi = probe(p_high)
    record(p_high, eta_hi)
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
        eta_mid, m_mid, rcm_mid = probe(mid)
        record(mid, eta_mid)
        if eta_mid > eta0:
            p_high = mid
            best = (mid, eta_mid, m_mid, rcm_mid)
        else:
            p_low = mid
    note = ""
    if method == "mmse" and best[3] is not None:
        over = float(np.max(np.abs(best[3].phi))) / a_max
        if over > 1.0:
            note = f"relaxed norm-ball solution exceeds the per-element cap by x{over:.3f}"
    return BudgetResult(method=method, required_power=best[0], m_star=best[2],
                        phi_star=best[3], eta_star=best[1], eta_target=eta0,
                        probes=tuple(sorted(history)), note=note)
