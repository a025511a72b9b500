"""Power-budget analysis for the no-direct-link LoS regime.

Closed forms for the matched-filter / zero-forcing / minimum-MSE coefficient
configurations with interferers, a bisection planner for the minimum budget
that reaches a target detection probability, and ``coefficients``: the one
method table that simulate, optimize and the planner share.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import functools
import itertools
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


def dirichlet(n, delta):
    """sin(n delta / 2) / sin(delta / 2), exactly n at delta = 0.

    Times exp(j (n - 1) delta / 2) it is the Dirichlet kernel sum_{i<n}
    exp(j i delta), the array factor of an n-element line; the quotient
    (1 - z^n) / (1 - z) would lose digits as delta -> 0.
    """
    half = 0.5 * np.asarray(delta, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(half == 0, n, np.sin(n * half) / np.sin(half))


@dataclass(frozen=True)
class ClosedFormContext:
    """LoS constants of the closed forms, for a surface of any whole-column count.

    The closed forms read the surface channels only through the Gram
    q_k^H q_l of q_k = B^H f_k, with B = diag(b_g) the unit-modulus surface
    factor of the rank-one surface-receiver channel and f_k = sqrt(beta_f[k])
    a_f[k] the incident channel of source k. Over m elements, m // m_v
    columns of m_v, a_f[k] = exp(-j i_h psi_h[k]) kron exp(-j i_v psi_v[k]),
    so that Gram is a product of array-factor kernels of the phase steps
    ``steps[k] = (psi_h[k], psi_v[k])`` (``gram``, ``kernel_quad_d``), and
    the context holds no element count and no steering vector.
    """

    n_antennas: int
    beta_g: float
    beta_f: np.ndarray
    p: np.ndarray
    zeta: np.ndarray
    sigma1_sq: float
    sigma2_sq: float
    p_c: float
    p_dc: float
    steps: np.ndarray
    m_v: int = 1

    @classmethod
    def from_scenario(cls, sc) -> "ClosedFormContext":
        """The context of a scenario's LoS channels: its link gains and phase steps."""
        noise, src, power = sc.noise(), sc.sources(), sc.power_model()
        return cls(n_antennas=sc.n_antennas, beta_g=sc.gains.beta_g, beta_f=sc.gains.beta_f,
                   p=src.p, zeta=src.zeta, sigma1_sq=noise.sigma1_sq,
                   sigma2_sq=noise.sigma2_sq, p_c=power.p_c, p_dc=power.p_dc,
                   steps=sc.geometry.steps, m_v=int(sc.m_v))

    def gram(self, ms) -> np.ndarray:
        """The (K+1) x (K+1) Grams q_k^H q_l over the first m elements, one per count of ms.

        |b_g| = 1, so q_k^H q_l = sqrt(beta_f[k] beta_f[l]) D_{m_h'}(psi_h[k] -
        psi_h[l]) D_{m_v}(psi_v[k] - psi_v[l]) over m_h' = m // m_v columns.
        """
        n_h, root = (np.asarray(ms) // self.m_v)[..., None], np.sqrt(self.beta_f)
        i, j = np.triu_indices(len(root), 1)
        d_h, d_v = (psi[i] - psi[j] for psi in self.steps.T)
        upper = root[i] * root[j] * np.exp(0.5j * (n_h - 1) * d_h) * dirichlet(n_h, d_h)
        if self.m_v > 1:
            vertical = np.exp(0.5j * (self.m_v - 1) * d_v) * dirichlet(self.m_v, d_v)
            # count by count, as numpy may round a product over a stack otherwise
            for row in upper.reshape(n_h.size, len(i)):
                row *= vertical
        gram = (np.eye(len(root)) * self.beta_f * np.asarray(ms)[..., None, None]).astype(complex)
        gram[..., i, j], gram[..., j, i] = upper, upper.conj()
        return gram

    def kernel_quad_d(self, m):
        """a_f[0]^H D a_f[0] over the first m elements (an int or an array of counts).

        D = (sigma1^2 I + sum_k zeta_k p_k f_k f_k^H) / sigma2^2 over interferers.
        One 1 x K product per count: a matrix-vector product would round by stack.
        """
        d_h, d_v = (self.steps[0] - self.steps[1:]).T
        amp = dirichlet((np.asarray(m) // self.m_v)[..., None], d_h) * dirichlet(self.m_v, d_v)
        w = self.zeta[1:] * self.p[1:] * self.beta_f[1:]
        return (self.sigma1_sq * np.asarray(m)
                + ((amp**2)[..., None, :] @ w[:, None])[..., 0, 0]) / self.sigma2_sq

    @property
    def c1(self) -> float:
        """Circuit power per active element."""
        return self.p_c + self.p_dc

    @property
    def p_in_bar(self) -> float:
        """Incident power per unit reflection gain."""
        return float(np.sum(self.zeta * self.beta_f * self.p) + self.sigma1_sq)

    @functools.cached_property
    def ball_weights(self) -> tuple[np.ndarray, np.ndarray]:
        """The interferers with a positive w_k = N beta_g zeta_k p_k / sigma2^2, and their w_k."""
        weights = self.n_antennas * self.beta_g * self.zeta[1:] * self.p[1:] / self.sigma2_sq
        live = np.nonzero(weights > 0)[0]
        return live, weights[live]

    def steering_sum(self, m: int, coef: np.ndarray) -> np.ndarray:
        """sum_k coef_k f_k over the first m elements, as an m // m_v x m_v matrix.

        Built from the phase steps, one horizontal and one vertical factor per
        source; raveled it is the m-element vector.
        """
        a_h, a_v = (np.exp(-1j * psi[:, None] * np.arange(n))
                    for psi, n in zip(self.steps.T, (m // self.m_v, self.m_v)))
        return a_h.T @ ((coef * np.sqrt(self.beta_f))[:, None] * a_v)

    def steering_peaks(self, ms, coef: np.ndarray) -> np.ndarray:
        """max |sum_k coef[i, k] f_k| over the first ms[i] elements, for each count of ms.

        One product of the horizontal factors with the counts' vertical sums per
        stack of counts whose sums take at most BLOCK_ENTRIES entries (or one
        count); rows past a count's columns are masked, so each count's peak is
        that of the count alone.
        """
        n_h = np.asarray(ms) // self.m_v
        psi_h, psi_v = self.steps.T
        sums = (coef * np.sqrt(self.beta_f))[..., None] * np.exp(-1j * psi_v[:, None]
                                                                 * np.arange(self.m_v))
        size = max(1, BLOCK_ENTRIES // (self.m_v * int(n_h.max(initial=1))))
        peaks = np.empty(n_h.size)
        for s in range(0, n_h.size, size):
            rows = np.arange(n_h[s:s + size].max())
            # rows by sources in C order: an entry rounds alike in any stack (TestCountBlocks)
            a_h = np.exp(-1j * psi_h * rows[:, None])
            peaks[s:s + size] = np.max(np.abs(a_h @ sums[s:s + size]), axis=(1, 2), initial=0.0,
                                       where=(rows < n_h[s:s + size, None])[..., None])
        return peaks


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


def _aligned_eta(ctx: ClosedFormContext, m, a: float, quad):
    """Excess of m aligned elements of amplitude a, given quad = kernel_quad_d(m); arrays too."""
    denom = (1.0 + ctx.n_antennas * a * a * ctx.beta_g * quad) * ctx.sigma2_sq
    return ctx.n_antennas * m * m * a * a * ctx.beta_f[0] * ctx.beta_g * ctx.p[0] / denom


CLOSED_FORMS = ("mf", "zf", "mmse")


class CountTerms(NamedTuple):
    """Terms stacked over counts (kernel terms, or passive's excess), and errors by count."""

    terms: tuple
    errors: dict[int, Exception]  # position of the count -> its error

    def read(self, at: int | slice) -> tuple:
        """The terms of the count at position ``at`` (or of a slice of positions)."""
        span = range(len(self.terms[0]))[at] if isinstance(at, slice) else (at,)
        if errors := [self.errors[i] for i in span if i in self.errors]:
            raise errors[0]
        # one count's terms are copies: what holds them (brentq's last callable) holds no block
        return tuple(t[at] if isinstance(at, slice) else t[at].copy() for t in self.terms)


def _kernel_terms(method: str, ctx: ClosedFormContext, ms, a_max: float) -> CountTerms:
    """The budget-free part of closed form ``method`` at each count of ms, from the kernels.

    kernel_quad_d(m) for mf; for mmse the Gram's G_00 and its blocks G_UU,
    G_U0 and G_0U on the interferers with a ball weight. For zf, with
    Q = [q_0 ... q_K] and coef = (Q^H Q)^-1 e_1: ||w||^2 = coef_0 for
    w = Q coef, the cap on rho2 = ||phi||^2 that keeps max_i |w_i| scaled
    within a_max, and coef. Zero-forcing needs m >= K+1 (a ConfigError) and
    a well-conditioned Gram (a NumericalError). LAPACK runs once per count.
    """
    ms = np.asarray(ms)
    if method == "mf":
        return CountTerms((ctx.kernel_quad_d(ms),), {})
    k1, gram = len(ctx.beta_f), ctx.gram(ms)
    if method == "mmse":
        u = ctx.ball_weights[0] + 1
        # C order, so each count's vectors have unit stride (a BLAS dot rounds by stride)
        return CountTerms(tuple(np.ascontiguousarray(t) for t in (
            gram[:, 0, 0], gram[:, u[:, None], u], gram[:, u, 0], gram[:, 0, u])), {})
    cond = np.full(len(ms), np.inf)
    cond[ms >= k1] = np.linalg.cond(gram[ms >= k1])
    ok = cond <= 1e12  # else not finite or too large
    errors = {i: ConfigError(f"zero-forcing needs M >= K+1 = {k1} elements, got M = {ms[i]}")
              if ms[i] < k1 else
              NumericalError("zero-forcing geometry is degenerate (ill-conditioned Gram)")
              for i in np.flatnonzero(~ok).tolist()}
    coef = np.full(gram.shape[:-1], np.nan, dtype=complex)
    coef[ok] = np.linalg.solve(gram[ok], np.eye(k1)[:, :1])[..., 0]  # (Q^H Q)^-1 e_1
    peak = np.full(len(ms), np.nan)  # max |w_i|, as |b_g| = 1
    peak[ok] = ctx.steering_peaks(ms[ok], coef[ok])
    norm_w_sq = np.real(coef[:, 0])  # the cap squares by pow, as _excess does
    return CountTerms((norm_w_sq, a_max**2 * norm_w_sq / np.float_power(peak, 2), coef), errors)


def _excess(method: str, ctx: ClosedFormContext, m, terms, ratio, a_max: float):
    """The excess of closed form ``method`` at count m and output-power ratio p_out / p_in.

    The one evaluation of each closed form, for one count or elementwise over
    stacked ``terms`` (``CountTerms.read``): the planner and the emitted
    coefficients all read it. Returns (excess, what the coefficients need):
    mf's amplitude a, zf's rho2 = ||phi||^2, mmse's (rho1 = ||phi||^2, c, y)
    with y Woodbury's solve, None when no interferer has a ball weight.
    """
    if method == "mf":  # p_out = m p_in a^2
        a = np.minimum(a_max, np.sqrt(ratio / m))
        return _aligned_eta(ctx, m, a, terms[0]), a
    if method == "zf":
        rho2 = np.minimum(ratio, terms[1])
        # [(Q^H Q)^-1]_{11} equals ||w||^2
        return ctx.n_antennas * ctx.beta_g * ctx.p[0] / (
            (ctx.sigma2_sq / rho2 + ctx.n_antennas * ctx.beta_g * ctx.sigma1_sq) * terms[0]), rho2
    (g_00, g_uu, g_u0, g_0u), weights = terms, ctx.ball_weights[1]
    nb = ctx.n_antennas * ctx.beta_g
    rho1 = np.minimum(ratio, m * a_max**2)
    c = 1.0 / rho1 + nb * ctx.sigma1_sq / ctx.sigma2_sq
    # q_0^H (c I + U W U^H)^-1 q_0 by Woodbury on the Gram, with
    # y = (diag(1/w) + U^H U / c)^-1 U^H q_0 solved in the interferer space
    quad, y = g_00 / c, None
    if weights.size:
        try:
            y = np.linalg.solve(np.diag(1.0 / weights) + g_uu / c[..., None, None],
                                g_u0[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise NumericalError("MMSE system is singular") from exc
        # float_power is libm's pow, as a float's c**2 (an array's c**2 is c * c)
        quad = quad - (g_0u[..., None, :] @ y[..., None])[..., 0, 0] / np.float_power(c, 2)
    return nb * ctx.p[0] / ctx.sigma2_sq * np.real(quad), (rho1, c, y)


def mf_phi(ctx: ClosedFormContext, los: chan.LosFactors, a_max: float,
           p_out: float, terms: tuple | None = None) -> ClosedForm:
    """Signal-aligned coefficients phi = a B^H a_f[0] with the budget-filling a.

    ``los`` are the m-element LoS factors of the context's scenario; ``terms``
    the count's kernel terms (``CountTerms.read``), else built here.
    """
    m = los.b_ris.size
    terms = _kernel_terms("mf", ctx, [m], a_max).read(0) if terms is None else terms
    eta, a = _excess("mf", ctx, m, terms, _over(p_out, ctx.p_in_bar), a_max)
    # diag(Phi): theta_m = arg(b_g_m) - arg(a_f_m)
    return ClosedForm(phi=a * los.b_ris * los.a_f[0].conj(), eta=float(eta))


def zf_phi(ctx: ClosedFormContext, los: chan.LosFactors, a_max: float,
           p_out: float, terms: tuple | None = None) -> ClosedForm:
    """Interference-nulling coefficients.

    phi = sqrt(rho2) w / ||w|| with w = Q (Q^H Q)^-1 e_1 the first column,
    Q = [q_0 ... q_K]; every interferer direction q_k is nulled exactly.
    ``los`` are the m-element LoS factors, ``terms`` as for ``mf_phi``; needs
    m >= K+1 (a ConfigError).
    """
    m = los.b_ris.size
    terms = _kernel_terms("zf", ctx, [m], a_max).read(0) if terms is None else terms
    eta, rho2 = _excess("zf", ctx, m, terms, _over(p_out, ctx.p_in_bar), a_max)
    w = los.b_ris.conj() * ctx.steering_sum(m, terms[2]).ravel()
    # phi above is the diagonal of Phi^H; return diag(Phi)
    return ClosedForm(phi=(np.sqrt(rho2) * w / np.sqrt(terms[0])).conj(), eta=float(eta))


def mmse_phi(ctx: ClosedFormContext, los: chan.LosFactors, a_max: float,
             p_out: float, terms: tuple | None = None) -> ClosedForm:
    """Balanced (MMSE-style) coefficients under the relaxed norm-ball cap.

    phi = (I/rho1 + N beta_g B^H D B)^-1 B^H f_0 scaled onto the ball
    ||phi||^2 = rho1 = min(p_out / p_in, m a_max^2), where the excess is the
    relaxed-problem optimum and upper-bounds every feasible configuration.
    Per-element cap violations are reported, not repaired. ``los`` are the
    m-element LoS factors, ``terms`` as for ``mf_phi``.
    """
    m = los.b_ris.size
    terms = _kernel_terms("mmse", ctx, [m], a_max).read(0) if terms is None else terms
    eta, (rho1, c, y) = _excess("mmse", ctx, m, terms, _over(p_out, ctx.p_in_bar), a_max)
    # B^H D B = (sigma1^2 I + sum_k zeta_k p_k q_k q_k^H) / sigma2^2 since |b_g| = 1;
    # Woodbury: (c I + U W U^H)^-1 q_0 = q_0 / c - U y / c^2
    q = los.b_ris.conj() * (np.sqrt(ctx.beta_f)[:, np.newaxis] * los.a_f)
    raw = q[0] / c
    if y is not None:
        raw = raw - (q[ctx.ball_weights[0] + 1].T @ y) / c**2
    # the closed form fixes only the direction; on the ball boundary
    # ||phi||^2 = rho1 the achieved excess equals the value computed above
    phi = raw * np.sqrt(rho1 / float(np.real(raw.conj() @ raw)))
    # the ball-coordinate vector is the diagonal of Phi^H; return diag(Phi)
    return ClosedForm(phi=phi.conj(), eta=float(eta))


def passive_mf_eta(ctx: ClosedFormContext, m):
    """Excess of m unit-amplitude aligned passive elements, interferers included.

    m is a whole-column count or an array of them; the context carries the
    passive surface's sigma1^2 = 0. Reduces to the closed passive form when
    no interferer is active.
    """
    return _aligned_eta(ctx, m, 1.0, ctx.kernel_quad_d(m))


METHODS = ("wmmse", "mf", "zf", "mmse", "passive", "passive-unit", "passive-relaxed")
# The planner sizes a passive surface by its circuit power alone; the
# iterative passive designs have no such rule, so it plans the first five.
PLANNER_METHODS = METHODS[:5]
WMMSE_MAX_ITER = 200  # outer iterations of an iterative design in simulate, sweeps and plans


class Design(NamedTuple):
    """Coefficients of one method and their excess; an iterative method adds its outer
    iterations and whether it converged before its iteration cap."""

    rcm: Rcm
    eta: float
    iterations: int | None = None
    converged: bool = True


def coefficients(method: str, scenario, m: int, p_out: float | None,
                 channels: chan.ChannelSet | None = None, *,
                 init_phi: np.ndarray | None = None, max_iter: int = WMMSE_MAX_ITER,
                 ctx: ClosedFormContext | None = None, terms: tuple | None = None) -> Design:
    """Reflecting coefficients of ``method`` for an m-element surface.

    The one map from a method name to its solver, shared by simulate,
    optimize and the budget planner. Active methods spend the output budget
    p_out; passive ones ignore it. The iterative methods (wmmse,
    passive-unit, passive-relaxed) solve on ``channels``, or on the
    scenario's LoS channels at m elements when none are given, for at most
    max_iter outer iterations; a WMMSE warm start ``init_phi`` is first
    scaled into feasibility. The closed forms (mf, zf, mmse, passive) take
    their excess from ``ctx`` (else the scenario's context) and the count's
    ``terms`` (``CountTerms.read``: the planner's, else built here), and their
    coefficients from the m-element LoS factors of ``channels`` (which must
    be LoS), else from the scenario's.
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
        return Design(res.rcm, res.eta, len(res.trace) // 3, res.converged)
    if ctx is None:
        ctx = ClosedFormContext.from_scenario(scenario)
    los = chan.steering_factors(scenario, *upa_dims(scenario, m)) if channels is None \
        else channels.los
    if method == "passive":
        rcm = Rcm(phi=np.exp(1j * mf_phases(los.b_ris, los.a_f[0])), mode="passive-unit",
                  a_max=1.0)
        ctx = dataclasses.replace(ctx, sigma1_sq=rcm.sigma1_sq(scenario.noise()))
        return Design(rcm, float(passive_mf_eta(ctx, m) if terms is None else terms[0]))
    sol = (mf_phi if method == "mf" else zf_phi if method == "zf" else mmse_phi)(
        ctx, los, a_max, p_out, terms)
    if method == "mmse":  # the relaxed norm-ball solution may exceed the per-element cap
        return Design(Rcm(phi=sol.phi, mode="active", a_max=np.inf), sol.eta)
    return Design(Rcm(phi=sol.phi, mode="active", a_max=a_max, p_out_budget=p_out), sol.eta)


@dataclass(frozen=True)
class BudgetResult:
    """Outcome of the bisection planner.

    ``probes`` holds the (budget, best excess) pairs that were scanned: every
    probe of a wmmse plan, and for the others the returned budget (at its
    coefficients' excess), the last probe below it and any probe near p*.
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
BLOCK_COUNTS = 16  # counts in a plan's first block; each next block doubles while
BLOCK_ENTRIES = 2**18  # building its terms takes at most this many entries


def _m_ladder(m_top: int, cap: int = EXACT_SCAN_CAP, m_v: int = 1):
    """Element counts to scan, in order: exhaustive up to ``cap``, geometric above.

    Counts come in whole columns of m_v elements. The ladder is a fixed
    sequence truncated at m_top, so a larger budget always scans a superset
    of a smaller one and the best excess stays monotone in the budget.
    """
    top, cap = m_top // m_v, max(1, cap // m_v)

    def above(m: int = cap):  # the rungs past cap; the run below stays a range, drawn in C
        while (m := max(m + 1, int(round(m * LADDER_RATIO)))) <= top:
            yield m_v * m

    return itertools.chain(range(m_v, m_v * min(top, cap) + 1, m_v), above())


INVERSION_GUARD = 1e-9  # budgets this close (relative) to the inverted one are scanned


def _least_budget_at(method: str, ctx: ClosedFormContext, m: int, terms, eta0: float,
                     a_max: float) -> float:
    """p_m(eta0): the budget above which the m-element closed form beats eta0.

    ``terms`` are the count's ``CountTerms.read``. Each excess rises with the
    output power until the amplitude cap, so the power ratio p_out / p_in
    that reaches eta0 is a root, and the circuit power is added; infinite
    when even the cap stays at or below eta0, a NumericalError when the
    excess cannot be inverted or its root stops at brentq's iteration cap.
    """
    def excess(t: float) -> float:  # at p_out / p_in = 1/t, falling in t
        return _excess(method, ctx, m, terms, 1.0 / t if t > 0 else math.inf, a_max)[0]

    if not (cap := excess(0.0)) > eta0:
        return math.inf

    def short(t: float) -> float:  # eta0 / eta - 1, rising in t; brentq starts at t = 0
        return eta0 / (excess(t) if t > 0 else cap) - 1.0

    # 1/eta is concave and near linear in t; with the interferers silent
    # eta would be N beta_g p_0 ||q_0||^2 / (sigma2^2 (t + const)), a bound
    t_hi = ctx.n_antennas * ctx.beta_g * ctx.p[0] * ctx.beta_f[0] * m / (ctx.sigma2_sq * eta0)
    while math.isfinite(t_hi) and t_hi > 0 and short(t_hi) < 0:  # rounding only
        t_hi *= 2.0
    root, info = brentq(short, 0.0, t_hi, xtol=1e-300, rtol=1e-13, full_output=True,
                        disp=False) if math.isfinite(t_hi) and t_hi > 0 else (math.nan, None)
    if info is not None and not info.converged:
        raise NumericalError(f"{method}: the excess at M = {m} cannot be inverted for the "
                             f"budget (no root within {info.iterations} iterations)")
    ratio = 1.0 / root
    if not 0 <= ratio < math.inf:
        raise NumericalError(f"{method}: the excess at M = {m} cannot be inverted for the "
                             f"budget (output-power ratio {ratio})")
    return m * ctx.c1 + ctx.p_in_bar * ratio


def required_budget(method: str, pd_target: float, scenario) -> BudgetResult:
    """Minimum surface power budget achieving the target detection probability.

    Bisection on the budget, from the scenario's bisect_p_high down to its
    stop_tol. A probe's excess is the best over the whole-column element
    counts its budget affords: on the ladder (``_m_ladder``) for active
    surfaces, every count up to passive_m(p) for a passive one, each read
    through the plan's one walk over them. The closed forms and passive are
    inverted for p* on the array-factor kernels (the README's planner notes):
    a probe beats eta_0 exactly when it lies above p*. Probes within a guard
    band around p*, the end probes p_top and p_low, and every wmmse probe
    (p* = inf) are scanned. The closed forms emit coefficients once, at
    p_top's best count.
    """
    if method not in PLANNER_METHODS:
        raise ConfigError(f"the budget planner plans {', '.join(PLANNER_METHODS)}; "
                          f"got {method!r}")
    stop_tol, p_high = scenario.stop_tol, scenario.bisect_p_high
    eta0 = solve_min_eta(pd_target, scenario.detector())
    power = scenario.power_model()
    a_max, k, m_v = scenario.a_max, scenario.geometry.n_interferers, scenario.m_v
    warm: dict[int, np.ndarray] = {}

    # Every probe reads element counts up to those of p_high; the ceiling
    # bounds the kernel terms of the walk over them.
    affords = power.elements(p_high, passive=method == "passive")
    m_top = math.floor(affords) // m_v * m_v if affords < math.inf else affords
    if (k + 1) * m_top > chan.MAX_ARRAY_ENTRIES:
        raise ConfigError(f"planner.p_high_w = {p_high!r} W affords {m_top:.4g} elements; "
                          f"for {k + 1} sources that exceeds the planner's ceiling of "
                          f"{chan.MAX_ARRAY_ENTRIES} array-factor terms")
    ctx = ClosedFormContext.from_scenario(scenario)
    p_in = ctx.p_in_bar
    if method == "passive":
        unit = Rcm(phi=np.ones(1), mode="passive-unit", a_max=1.0)
        ctx = dataclasses.replace(ctx, sigma1_sq=unit.sigma1_sq(scenario.noise()))

    # One walk over p_high's counts serves every method: every whole column for passive, else
    # the ladder (short for wmmse: its solves are dear, its terms unread). Its blocks double
    # from BLOCK_COUNTS counts while their terms take at most BLOCK_ENTRIES, ``entries`` a count.
    entries = (k + 1) ** 2 if method in ("zf", "mmse") else k + 1
    kept: dict[int, CountTerms] = {}
    kept_entries = 0

    def walk(m_cap: int):
        """(b, block b's counts, those up to m_cap) per block that holds one, drawn afresh."""
        counts = _m_ladder(m_top, {"passive": m_top, "wmmse": 64}.get(method, EXACT_SCAN_CAP), m_v)
        for b in itertools.count():
            size = min(BLOCK_COUNTS << b, max(1, BLOCK_ENTRIES // entries))
            block = np.fromiter(itertools.islice(counts, size), dtype=int)
            if not block.size or block[0] > m_cap:
                return
            yield b, block, block[:np.searchsorted(block, m_cap, side="right")]

    def terms(b: int, block: np.ndarray) -> CountTerms:
        """Block b's terms, built at its first read and kept while the kept terms hold at
        most BLOCK_ENTRIES * BLOCK_COUNTS entries; past that, built again at every read."""
        nonlocal kept_entries
        if b in kept:
            return kept[b]
        got = CountTerms((passive_mf_eta(ctx, block),), {}) if method == "passive" \
            else _kernel_terms(method, ctx, block, a_max)
        size = sum(np.size(t) for t in got.terms)
        if kept_entries + size <= BLOCK_ENTRIES * BLOCK_COUNTS:
            kept[b], kept_entries = got, kept_entries + size
        return got

    def first_best(best: tuple, etas: np.ndarray, ms: np.ndarray) -> tuple:
        """best, or the first maximum of etas (at counts ms) where that beats it."""
        i = int(np.argmax(etas))
        return (float(etas[i]), int(ms[i]), None) if etas[i] > best[0] else best

    def probe(p: float) -> tuple[float, int, Rcm | None]:
        """The first best (excess, count) budget p affords, and wmmse's coefficients."""
        best = (0.0, 0, None)
        for b, block, ms in walk(power.passive_m(p) if method == "passive" else power.m_max(p)):
            if method == "passive":
                best = first_best(best, terms(b, block).terms[0][:ms.size], ms)
                continue
            p_out = power.p_out_budget(p, ms)
            # p_out falls with m and zf needs m >= K+1: the counts read are one run of ms
            live = np.flatnonzero((p_out > 0) & (ms >= (k + 1 if method == "zf" else 0)))
            if not live.size:
                continue
            if method == "wmmse":
                for m, p_m in zip(ms[live].tolist(), p_out[live].tolist()):
                    res = coefficients(method, scenario, m, p_m, init_phi=warm.get(m))
                    warm[m] = res.rcm.phi
                    if res.eta > best[0]:
                        best = (res.eta, m, res.rcm)
                continue
            run = slice(int(live[0]), int(live[-1]) + 1)
            best = first_best(best, _excess(method, ctx, ms[run], terms(b, block).read(run),
                                            _over(p_out[run], p_in), a_max)[0], ms[run])
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

    p_star = math.inf  # wmmse inverts nothing: every probe is scanned

    def least(b: int, block: np.ndarray) -> bool:
        """Lower p* to p_m at each count of block b whose cap excess beats eta0, screened
        by one stacked excess; True once a count's circuit power alone reaches p*."""
        nonlocal p_star
        got = caps = None
        for j, m in enumerate(block.tolist()):
            if power.p_out_budget(min(p_star, p_high), m) <= 0:
                return True  # p_m > m (p_c + p_dc) >= p*, and counts only grow
            if method == "zf" and m < k + 1:
                continue
            if got is None:
                got = terms(b, block)
                # a singular stacked solve leaves each count to its own read, as it is reached
                with contextlib.suppress(NumericalError):
                    caps = _excess(method, ctx, block, got.terms, math.inf, a_max)[0]
            cap = caps[j] if caps is not None and j not in got.errors else \
                _excess(method, ctx, m, got.read(j), math.inf, a_max)[0]  # a read raises its error
            if cap > eta0:
                p_star = min(p_star, _least_budget_at(method, ctx, m, got.read(j), eta0, a_max))
        return False

    if method == "passive":
        best = (0.0, 0, None)
        for b, block, _ in walk(m_top):
            etas = terms(b, block).terms[0]
            if (up := etas > eta0).any():
                p_star = int(block[np.argmax(up)]) * power.p_c  # the least budget affording m_1
                break
            best = first_best(best, etas, block)
        else:  # no count beats eta0: the walk read every count p_high affords, as its scan would
            scans[p_high] = best
    elif method in CLOSED_FORMS:
        for b, block, _ in walk(m_top):
            if least(b, block):
                break

    def beats(p: float) -> bool:
        """p > p* outside the guard band around p*; inside it (always for p* = inf), a scan."""
        if abs(p - p_star) > INVERSION_GUARD * p_star:
            return p > p_star
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
    if method != "wmmse" and not (
            scan(p_top)[0] > eta0 and (p_low == 0 or scan(p_low)[0] <= eta0)):
        raise NumericalError(f"the end scans contradict the inverted budget p* = {p_star!r} W: "
                             f"p_low = {p_low!r} W, p_top = {p_top!r} W")
    eta_star, m_star, rcm_star = scan(p_top)
    if method != "wmmse":  # the one emission, from the walk's terms: p_top's probe records it
        b, block, ms = collections.deque(walk(m_star), maxlen=1).pop()  # m_star's block
        res = coefficients(method, scenario, m_star, None if method == "passive"
                           else power.p_out_budget(p_top, m_star), ctx=ctx,
                           terms=terms(b, block).read(ms.size - 1))
        eta_star, rcm_star = res.eta, res.rcm
        scans[p_top] = (eta_star, m_star, rcm_star)
    note = ""
    if method == "mmse" and rcm_star is not None:
        over = float(np.max(np.abs(rcm_star.phi))) / a_max
        if over > 1.0:
            note = f"relaxed norm-ball solution exceeds the per-element cap by x{over:.3f}"
    return BudgetResult(method=method, required_power=p_top, m_star=m_star,
                        phi_star=rcm_star, eta_star=eta_star, eta_target=eta0,
                        probes=tuple(sorted((p, res[0]) for p, res in scans.items())),
                        note=note)
