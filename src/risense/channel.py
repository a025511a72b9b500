"""Channel synthesis: geometry, pathloss, steering vectors, LoS and Rayleigh links.

The sensing site has one primary transmitter, K interferers, a reflecting
surface with M elements, and an N-antenna receiver. Every operation here is
a pure function of (scenario, seed): LoS channels are deterministic steering
outer products, Rayleigh channels are i.i.d. complex Gaussians with per-entry
variance equal to the link pathloss gain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .rng import sample_cn, substream

FOUR_PI_SQ = (4.0 * np.pi) ** 2


@dataclass(frozen=True)
class Geometry:
    """2-D Cartesian positions of the terminals, in meters.

    ``interferer_pos`` holds K positions; K = 0 is allowed. The link distances
    are computed once, on construction: ``dist_direct[k]`` and ``dist_to_ris[k]``
    from source k (0 = primary transmitter, 1..K = interferers) to the receiver
    and to the surface, ``dist_ris_su`` from the surface to the receiver. So are
    the read-only (K+1) x 2 ``steps``, the horizontal and vertical phase steps of
    each source's incident steering as seen from the surface (zero elevation).
    """

    pu_pos: tuple[float, float] = (0.0, 0.0)
    ris_pos: tuple[float, float] = (100.0, 50.0)
    su_pos: tuple[float, float] = (500.0, 0.0)
    interferer_pos: tuple[tuple[float, float], ...] = ()
    dist_direct: tuple[float, ...] = field(init=False, repr=False, compare=False)
    dist_to_ris: tuple[float, ...] = field(init=False, repr=False, compare=False)
    dist_ris_su: float = field(init=False, repr=False, compare=False)
    steps: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        su, ris = np.asarray(self.su_pos, dtype=float), np.asarray(self.ris_pos, dtype=float)
        sources = [self.source_pos(k) for k in range(self.n_interferers + 1)]
        with np.errstate(over="ignore"):  # coordinates too far apart give an infinite distance
            direct = tuple(float(np.linalg.norm(pos - su)) for pos in sources)
            to_ris = tuple(float(np.linalg.norm(pos - ris)) for pos in sources)
            ris_su = float(np.linalg.norm(su - ris))
        object.__setattr__(self, "dist_direct", direct)
        object.__setattr__(self, "dist_to_ris", to_ris)
        object.__setattr__(self, "dist_ris_su", ris_su)
        links = [("pu-su", direct[0]), ("pu-ris", to_ris[0]), ("ris-su", ris_su)]
        links += [(f"interferer {k}-{end}", dist[k]) for k in range(1, self.n_interferers + 1)
                  for end, dist in (("su", direct), ("ris", to_ris))]
        for name, d in links:
            if not 0.0 < d < np.inf:
                raise ConfigError(f"degenerate geometry: {name} distance is {d}")
        delta = np.array(sources) - ris
        steps = np.array([upa_phase_steps(az, 0.0) for az in np.arctan2(delta[:, 1], delta[:, 0])])
        steps.flags.writeable = False
        object.__setattr__(self, "steps", steps)

    @property
    def n_interferers(self) -> int:
        return len(self.interferer_pos)

    def source_pos(self, k: int) -> np.ndarray:
        """Position of source k (0 = primary transmitter, 1..K = interferers)."""
        pos = self.pu_pos if k == 0 else self.interferer_pos[k - 1]
        return np.asarray(pos, dtype=float)


@dataclass(frozen=True)
class PathlossModel:
    """Power-law pathloss: gain = wavelength^2 / ((4 pi)^2 d^alpha).

    One exponent per link class: source->receiver direct, source->surface,
    surface->receiver.
    """

    wavelength: float = 0.12
    alpha_direct: float = 4.0
    alpha_incident: float = 2.0
    alpha_outgoing: float = 2.0

    def __post_init__(self):
        if self.wavelength <= 0:
            raise ConfigError("wavelength must be positive")
        if min(self.alpha_direct, self.alpha_incident, self.alpha_outgoing) < 1.0:
            raise ConfigError("pathloss exponents must be >= 1")


@dataclass(frozen=True)
class LinkGains:
    """Pathloss gains per link: beta_d/beta_f indexed by source (0..K)."""

    beta_d: np.ndarray
    beta_f: np.ndarray
    beta_g: float


@dataclass(frozen=True)
class LosFactors:
    """Steering factors of a LoS channel set, one row of ``a_f`` per source.

    g_matrix = sqrt(beta_g) * outer(a_su, conj(b_ris)); f[k] = sqrt(beta_f[k]) * a_f[k]
    with a_f the (K+1) x M array of unit-modulus incident steering vectors,
    row k built from ``geometry.steps[k]``.
    """

    a_su: np.ndarray
    b_ris: np.ndarray
    a_f: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a_f", np.asarray(self.a_f, dtype=complex))


@dataclass(frozen=True)
class ChannelSet:
    """All channels of one realization, one row per source (0 = primary).

    d: direct source->receiver links, (K+1) x N; f: source->surface links,
    (K+1) x M; g_matrix: surface->receiver matrix, N x M. Sequences of
    per-source vectors are stacked on construction.
    """

    d: np.ndarray
    f: np.ndarray
    g_matrix: np.ndarray
    gains: LinkGains
    los: LosFactors | None = None

    def __post_init__(self):
        d = np.asarray(self.d, dtype=complex)
        f = np.asarray(self.f, dtype=complex)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "f", f)
        n, m = self.g_matrix.shape
        if d.ndim != 2 or d.shape[1:] != (n,) or f.shape != (len(d), m):
            raise ValueError("channel dimensions inconsistent with G: d must be (K+1) x N "
                             "and f (K+1) x M")
        if not all(np.all(np.isfinite(a)) for a in (self.g_matrix, d, f)):
            raise ValueError("channel entries must be finite")

    @property
    def n_antennas(self) -> int:
        return self.g_matrix.shape[0]

    @property
    def n_elements(self) -> int:
        return self.g_matrix.shape[1]

    @property
    def n_interferers(self) -> int:
        return len(self.d) - 1


def pathloss(wavelength: float, dist: float, alpha: float) -> float:
    """Power-law pathloss gain wavelength^2 / ((4 pi)^2 dist^alpha)."""
    if dist <= 0:
        raise ValueError(f"pathloss needs a positive distance, got {dist}")
    try:
        return wavelength**2 / (FOUR_PI_SQ * dist**alpha)
    except (OverflowError, ZeroDivisionError):  # a power beyond, or below, the float range
        return float("inf")


def link_gains(geom: Geometry, plm: PathlossModel) -> LinkGains:
    """Evaluate the pathloss of every link, in read-only arrays; an infinite or zero gain
    is a ConfigError."""
    beta_d = np.array([pathloss(plm.wavelength, d, plm.alpha_direct) for d in geom.dist_direct])
    beta_f = np.array([pathloss(plm.wavelength, d, plm.alpha_incident) for d in geom.dist_to_ris])
    beta_g = pathloss(plm.wavelength, geom.dist_ris_su, plm.alpha_outgoing)
    for key, gain in (("alpha_direct", beta_d), ("alpha_incident", beta_f),
                      ("alpha_outgoing", beta_g)):
        if not np.all(np.isfinite(gain) & (gain > 0)):
            raise ConfigError(f"pathloss.{key} = {getattr(plm, key)!r} with wavelength "
                              f"{plm.wavelength!r} gives a link gain outside the float range")
    beta_d.flags.writeable = beta_f.flags.writeable = False
    return LinkGains(beta_d=beta_d, beta_f=beta_f, beta_g=beta_g)


def steering_vector_ula(n_elems: int, phase_arg: float) -> np.ndarray:
    """Uniform linear array response: element i is exp(-j * i * phase_arg)."""
    if n_elems < 1:
        raise ValueError("steering vector needs at least one element")
    return np.exp(-1j * phase_arg * np.arange(n_elems))


def steering_vector_upa(mh: int, mv: int, theta: float, psi: float) -> np.ndarray:
    """Planar array response a_h(theta, psi) kron a_v(theta, psi).

    Half-wavelength spacing is assumed, so the per-element phase factors are
    pi*sin(theta)*cos(psi) horizontally and pi*cos(theta)*cos(psi) vertically.
    """
    if mh < 1 or mv < 1:
        raise ValueError("planar array dimensions must be >= 1")
    step_h, step_v = upa_phase_steps(theta, psi)
    return kron_vectors(steering_vector_ula(mh, step_h), steering_vector_ula(mv, step_v))


def kron_vectors(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a kron b of two vectors: their outer product, row by row (np.kron's products)."""
    return np.multiply.outer(a, b).ravel()


def upa_phase_steps(theta: float, psi: float) -> tuple[float, float]:
    """Horizontal and vertical per-element phase steps of a half-wavelength planar array."""
    return np.pi * np.sin(theta) * np.cos(psi), np.pi * np.cos(theta) * np.cos(psi)


MAX_DRAWN_INTERFERERS = 1000  # every channel array holds one row per source
# the most entries of one array: the planner's (K+1) x M array-factor terms, and a
# scenario's trials, N x N covariance, N x M and (K+1) x M channels
MAX_ARRAY_ENTRIES = 2**27


def draw_interferer_positions(ris_pos, k: int, r_min: float, r_max: float,
                              seed: int) -> tuple[tuple[float, float], ...]:
    """Place k interferers uniformly on an annulus centered at the surface."""
    if not 0 <= k <= MAX_DRAWN_INTERFERERS:
        raise ConfigError(f"the interferer count must lie in [0, {MAX_DRAWN_INTERFERERS}], "
                          f"got {k}")
    rng = substream(seed, 0xA17)
    radii = np.sqrt(rng.uniform(r_min**2, r_max**2, size=k))
    angles = rng.uniform(0.0, 2.0 * np.pi, size=k)
    ris = np.asarray(ris_pos, dtype=float)
    return tuple((float(ris[0] + r * np.cos(a)), float(ris[1] + r * np.sin(a)))
                 for r, a in zip(radii, angles))


def steering_factors(sc, m_h: int, m_v: int) -> LosFactors:
    """Steering factors of a scenario's LoS channels on an m_h x m_v surface.

    The incident steering follows the geometry's phase steps; the receiver's
    azimuth is taken from its own broadside, and every elevation is zero.
    """
    geom = sc.geometry
    a_f = np.empty((len(geom.steps), m_h * m_v), dtype=complex)  # row by row: no stacked copy
    for i, (step_h, step_v) in enumerate(geom.steps):
        a_f[i] = kron_vectors(steering_vector_ula(m_h, step_h), steering_vector_ula(m_v, step_v))
    d_su = np.asarray(geom.su_pos, dtype=float) - np.asarray(geom.ris_pos, dtype=float)
    su_aoa = np.arctan2(-d_su[1], -d_su[0])
    return LosFactors(a_su=steering_vector_ula(int(sc.n_antennas), np.pi * np.sin(su_aoa)),
                      b_ris=steering_vector_upa(m_h, m_v, np.arctan2(d_su[1], d_su[0]), 0.0),
                      a_f=a_f)


def build_los_channelset(sc) -> ChannelSet:
    """Build the LoS channel set of a scenario (direct links neglected).

    The surface has ``sc.m_h`` x ``sc.m_v`` elements; the surface->receiver
    matrix comes out rank one by construction.
    """
    gains, los = sc.gains, steering_factors(sc, int(sc.m_h), int(sc.m_v))
    f = np.sqrt(gains.beta_f)[:, np.newaxis] * los.a_f
    g = np.sqrt(gains.beta_g) * np.outer(los.a_su, los.b_ris.conj())
    return ChannelSet(d=np.zeros((len(f), los.a_su.size), dtype=complex), f=f, g_matrix=g,
                      gains=gains, los=los)


def sample_rayleigh_channelset(sc, rng_seed: int) -> ChannelSet:
    """Draw one Rayleigh-fading channel set, deterministic given the seed.

    Every entry is an independent CN(0, beta) variate with beta the pathloss
    gain of its link.
    """
    n, m = int(sc.n_antennas), int(sc.m_h) * int(sc.m_v)
    gains, k = sc.gains, sc.geometry.n_interferers
    rng = substream(rng_seed, 0xC4)
    d = [sample_cn(rng, gains.beta_d[i], n) for i in range(k + 1)]
    f = [sample_cn(rng, gains.beta_f[i], m) for i in range(k + 1)]
    g = sample_cn(rng, gains.beta_g, (n, m))
    return ChannelSet(d=d, f=f, g_matrix=g, gains=gains)  # stacked in order, one row per draw
