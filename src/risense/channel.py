"""Channel synthesis: geometry, pathloss, steering vectors, LoS and Rayleigh links.

The sensing site has one primary transmitter, K interferers, a reflecting
surface with M elements, and an N-antenna receiver. Every operation here is
a pure function of (scenario, seed): LoS channels are deterministic steering
outer products, Rayleigh channels are i.i.d. complex Gaussians with per-entry
variance equal to the link pathloss gain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .rng import sample_cn, substream

FOUR_PI_SQ = (4.0 * np.pi) ** 2


@dataclass(frozen=True)
class Geometry:
    """2-D Cartesian positions of the terminals, in meters.

    ``interferer_pos`` holds K positions; K = 0 is allowed.
    """

    pu_pos: tuple[float, float] = (0.0, 0.0)
    ris_pos: tuple[float, float] = (100.0, 50.0)
    su_pos: tuple[float, float] = (500.0, 0.0)
    interferer_pos: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        with np.errstate(over="ignore"):  # coordinates too far apart give an infinite distance
            links = [("pu-su", self.dist_direct(0)), ("pu-ris", self.dist_to_ris(0)),
                     ("ris-su", self.dist_ris_su())]
            links += [(f"interferer {k}-{end}", dist(k)) for k in range(1, self.n_interferers + 1)
                      for end, dist in (("su", self.dist_direct), ("ris", self.dist_to_ris))]
        for name, d in links:
            if not 0.0 < d < np.inf:
                raise ConfigError(f"degenerate geometry: {name} distance is {d}")

    @property
    def n_interferers(self) -> int:
        return len(self.interferer_pos)

    def source_pos(self, k: int) -> np.ndarray:
        """Position of source k (0 = primary transmitter, 1..K = interferers)."""
        pos = self.pu_pos if k == 0 else self.interferer_pos[k - 1]
        return np.asarray(pos, dtype=float)

    def dist_direct(self, k: int) -> float:
        return float(np.linalg.norm(self.source_pos(k) - np.asarray(self.su_pos)))

    def dist_to_ris(self, k: int) -> float:
        return float(np.linalg.norm(self.source_pos(k) - np.asarray(self.ris_pos)))

    def dist_ris_su(self) -> float:
        return float(np.linalg.norm(np.asarray(self.su_pos) - np.asarray(self.ris_pos)))


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
class AngleSet:
    """Angles (radians) used to build LoS steering vectors.

    ``aoa_azimuth``/``aoa_elevation`` index sources 0..K as seen from the
    surface. Elevations default to zero for the planar geometry.
    """

    aoa_azimuth: np.ndarray
    aoa_elevation: np.ndarray
    aod_azimuth: float
    aod_elevation: float
    su_aoa: float

    @classmethod
    def from_geometry(cls, geom: Geometry) -> "AngleSet":
        """Derive azimuths from the 2-D positions; elevations are zero."""
        ris = np.asarray(geom.ris_pos, dtype=float)
        delta = np.array([geom.source_pos(k) for k in range(geom.n_interferers + 1)]) - ris
        az = np.arctan2(delta[:, 1], delta[:, 0])
        d_su = np.asarray(geom.su_pos, dtype=float) - ris
        aod = np.arctan2(d_su[1], d_su[0])
        # AOA at the receiver, measured from its own broadside
        su_aoa = np.arctan2(-d_su[1], -d_su[0])
        return cls(aoa_azimuth=az, aoa_elevation=np.zeros(len(az)),
                   aod_azimuth=aod, aod_elevation=0.0, su_aoa=su_aoa)


@dataclass(frozen=True)
class LosFactors:
    """Steering factors of a LoS channel set, one row of ``a_f`` per source.

    g_matrix = sqrt(beta_g) * outer(a_su, conj(b_ris)); f[k] = sqrt(beta_f[k]) * a_f[k]
    with a_f the (K+1) x M array of unit-modulus incident steering vectors.
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
    return wavelength**2 / (FOUR_PI_SQ * dist**alpha)


def link_gains(geom: Geometry, plm: PathlossModel) -> LinkGains:
    """Evaluate the pathloss of every link in the scenario."""
    ks = range(geom.n_interferers + 1)
    beta_d = np.array([pathloss(plm.wavelength, geom.dist_direct(k), plm.alpha_direct) for k in ks])
    beta_f = np.array([pathloss(plm.wavelength, geom.dist_to_ris(k), plm.alpha_incident) for k in ks])
    beta_g = pathloss(plm.wavelength, geom.dist_ris_su(), plm.alpha_outgoing)
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
    a_h = steering_vector_ula(mh, np.pi * np.sin(theta) * np.cos(psi))
    a_v = steering_vector_ula(mv, np.pi * np.cos(theta) * np.cos(psi))
    return np.kron(a_h, a_v)


def draw_interferer_positions(ris_pos, k: int, r_min: float, r_max: float,
                              seed: int) -> tuple[tuple[float, float], ...]:
    """Place k interferers uniformly on an annulus centered at the surface."""
    rng = substream(seed, 0xA17)
    radii = np.sqrt(rng.uniform(r_min**2, r_max**2, size=k))
    angles = rng.uniform(0.0, 2.0 * np.pi, size=k)
    ris = np.asarray(ris_pos, dtype=float)
    return tuple((float(ris[0] + r * np.cos(a)), float(ris[1] + r * np.sin(a)))
                 for r, a in zip(radii, angles))


def los_factors(sc, m_h: int, m_v: int) -> tuple[LinkGains, LosFactors]:
    """Link gains and steering factors of a scenario's LoS channels on an m_h x m_v surface.

    Needs ``sc.geometry``, ``sc.pathloss``, ``sc.n_antennas`` and
    ``sc.angles``. The one description of the LoS geometry: the channel set
    and the planner's closed forms both start from it.
    """
    angles: AngleSet | None = getattr(sc, "angles", None)
    if angles is None:
        raise ConfigError("LoS channels need an angle set (derive one with AngleSet.from_geometry)")
    k = sc.geometry.n_interferers
    if len(angles.aoa_azimuth) != k + 1:
        raise ConfigError(f"angle set covers {len(angles.aoa_azimuth)} sources, geometry has {k + 1}")
    a_f = np.empty((k + 1, m_h * m_v), dtype=complex)  # filled row by row: no stacked copy
    for i in range(k + 1):
        a_f[i] = steering_vector_upa(m_h, m_v, angles.aoa_azimuth[i], angles.aoa_elevation[i])
    return link_gains(sc.geometry, sc.pathloss), LosFactors(
        a_su=steering_vector_ula(int(sc.n_antennas), np.pi * np.sin(angles.su_aoa)),
        b_ris=steering_vector_upa(m_h, m_v, angles.aod_azimuth, angles.aod_elevation), a_f=a_f)


def build_los_channelset(sc) -> ChannelSet:
    """Build the LoS channel set of a scenario (direct links neglected).

    Needs what ``los_factors`` needs plus ``sc.m_h`` and ``sc.m_v``; the
    surface->receiver matrix comes out rank one by construction.
    """
    gains, los = los_factors(sc, int(sc.m_h), int(getattr(sc, "m_v", 1)))
    f = np.sqrt(gains.beta_f)[:, np.newaxis] * los.a_f
    g = np.sqrt(gains.beta_g) * np.outer(los.a_su, los.b_ris.conj())
    return ChannelSet(d=np.zeros((len(f), los.a_su.size), dtype=complex), f=f, g_matrix=g,
                      gains=gains, los=los)


def sample_rayleigh_channelset(sc, rng_seed: int) -> ChannelSet:
    """Draw one Rayleigh-fading channel set, deterministic given the seed.

    Every entry is an independent CN(0, beta) variate with beta the pathloss
    gain of its link.
    """
    n, m = int(sc.n_antennas), int(sc.m_h) * int(getattr(sc, "m_v", 1))
    gains = link_gains(sc.geometry, sc.pathloss)
    k = sc.geometry.n_interferers
    rng = substream(rng_seed, 0xC4)
    d = [sample_cn(rng, gains.beta_d[i], n) for i in range(k + 1)]
    f = [sample_cn(rng, gains.beta_f[i], m) for i in range(k + 1)]
    g = sample_cn(rng, gains.beta_g, (n, m))
    return ChannelSet(d=d, f=f, g_matrix=g, gains=gains)  # stacked in order, one row per draw
