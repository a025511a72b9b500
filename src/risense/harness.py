"""Scenario ingestion, Monte Carlo experiments, sweeps and result serialization.

A scenario file is a YAML document with nested sections (documented in the
README and the shipped configs). Powers are written in dBm and converted to
Watts on load; everything downstream works in SI units. All experiments are
deterministic given (config, seed): trials draw from per-trial substreams,
so results do not depend on execution order. A trial's H0 and H1 decisions
share its channels, its coefficients and its noise-plus-interference draw
(common random numbers); H1 adds the primary's term to that draw.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
import yaml

from . import budget as bdg
from . import channel as chan
from . import optimizer as opt
from . import sensing as sns
from .errors import ConfigError, InfeasibleError


def dbm_to_watts(x: float) -> float:
    return 10.0 ** ((x - 30.0) / 10.0)


def watts_to_dbm(w: float) -> float:
    if w <= 0:
        raise ValueError("only positive powers have a dBm value")
    return 30.0 + 10.0 * math.log10(w)


def _annulus_ok(annulus) -> bool:
    r_in, r_out = annulus
    return 0 <= r_in <= r_out and math.isfinite(r_out * r_out)  # the draw squares the radii


DEFAULT_GEOMETRY = chan.Geometry(pu_pos=(0.0, 0.0), ris_pos=(100.0, 50.0), su_pos=(500.0, 0.0))


@dataclass(frozen=True)
class ScenarioConfig:
    """Single source of truth for one experiment (all powers in Watts)."""

    n_antennas: int = 32
    m_h: int = 16
    m_v: int = 1
    geometry: chan.Geometry = DEFAULT_GEOMETRY
    annulus: tuple[float, float] = (50.0, 60.0)  # where drawn interferers lie, in meters
    pathloss: chan.PathlossModel = chan.PathlossModel()
    angles: chan.AngleSet | None = None
    p_w: tuple[float, ...] = (1.0,)
    zeta: tuple[float, ...] = (1.0,)
    sigma1_sq_w: float = 1e-11
    sigma2_sq_w: float = 1e-11
    p_c_w: float = 1e-4
    p_dc_w: float = 10 ** (-3.5)
    a_max: float = 10.0
    ris_budget_w: float = 0.01
    t_samples: int = 3200
    alpha: float = 0.1
    pd_target: float = 0.9
    trials: int = 500
    seed: int = 0
    method: str = "wmmse"
    channel_model: str = "rayleigh"
    stop_tol: float = 1e-6
    bisect_p_high: float = 10.0

    def __post_init__(self):
        problems = []
        k = self.geometry.n_interferers
        if len(self.p_w) != k + 1 or len(self.zeta) != k + 1:
            problems.append(f"powers/activities must cover {k + 1} sources "
                            f"(got {len(self.p_w)}/{len(self.zeta)})")
        if not all(0 <= z <= 1 for z in self.zeta) or list(self.zeta[:1]) != [1.0]:
            problems.append("activities zeta must lie in [0, 1], with zeta = 1 for the primary")
        if not _annulus_ok(self.annulus):
            problems.append(f"annulus needs finite 0 <= r_in <= r_out, got {self.annulus}")
        if self.n_antennas < 1:
            problems.append("n_antennas must be >= 1")
        if self.m_h < 1 or self.m_v < 1:
            problems.append("array dimensions must be >= 1")
        if self.t_samples < 1:
            problems.append("t_samples must be >= 1")
        if not sns.alpha_supported(self.alpha):
            problems.append("alpha must lie in (0, 1) with its threshold quantile tabulated")
        if not 0 < self.pd_target < 1:
            problems.append("pd_target must lie in (0, 1)")
        if self.trials < 1:
            problems.append("trials must be >= 1")
        if self.seed < 0:
            problems.append("seed must be >= 0")
        if self.channel_model not in ("rayleigh", "los"):
            problems.append("channel_model must be 'rayleigh' or 'los'")
        if self.method not in bdg.METHODS:
            problems.append(f"method must be one of {bdg.METHODS}")
        if min(self.sigma1_sq_w, self.p_c_w, self.p_dc_w) < 0 or self.sigma2_sq_w <= 0 \
                or min(self.p_w) < 0 or self.a_max <= 0:
            problems.append("powers must be nonnegative (sigma2 and a_max positive)")
        if problems:
            raise ConfigError("invalid scenario:\n  - " + "\n  - ".join(problems))
        if self.angles is None:
            object.__setattr__(self, "angles", chan.AngleSet.from_geometry(self.geometry))

    @property
    def n_elements(self) -> int:
        return self.m_h * self.m_v

    def detector(self) -> sns.DetectorConfig:
        return sns.DetectorConfig(n_antennas=self.n_antennas, n_samples=self.t_samples,
                                  alpha=self.alpha)

    def sources(self) -> sns.SourceModel:
        return sns.SourceModel(p=np.array(self.p_w), zeta=np.array(self.zeta))

    def noise(self) -> sns.NoiseModel:
        return sns.NoiseModel(sigma1_sq=self.sigma1_sq_w, sigma2_sq=self.sigma2_sq_w)

    def power_model(self) -> bdg.RisPowerModel:
        return bdg.RisPowerModel(p_c=self.p_c_w, p_dc=self.p_dc_w)

    def build_channels(self, trial: int | None = None) -> chan.ChannelSet:
        if self.channel_model == "los":
            return chan.build_los_channelset(self)
        path = (self.seed,) if trial is None else (self.seed, trial)
        return chan.sample_rayleigh_channelset(self, path)


def _expect_mapping(node, name: str):
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise ConfigError(f"section '{name}' must be a mapping")
    return dict(node)


def _take(section: dict, key: str, default):
    return section.pop(key, default)


def _convert(value, kind, key: str):
    """``kind(value)``; a value that is not a finite number is a ConfigError naming ``key``."""
    if not isinstance(value, bool):  # int(True) == 1, but `trials: true` is no count
        try:
            out = kind(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if kind is int or math.isfinite(out):  # int() already rejects nan and inf
                return out
    what = "an integer" if kind is int else "a finite number"
    raise ConfigError(f"{key} must be {what}, got {value!r}")


def _number(section: dict, name: str, key: str, default, kind=float):
    """Take ``key`` from the section called ``name`` as a number of type ``kind``."""
    return _convert(_take(section, key, default), kind, f"{name}.{key}")


def _watts(dbm: float, key: str) -> float:
    """dBm to Watts; a power beyond the float range is a ConfigError naming ``key``."""
    try:
        return dbm_to_watts(dbm)
    except OverflowError:
        raise ConfigError(f"{key} = {dbm!r} dBm is too large a power") from None


def _pair(value, key: str) -> tuple[float, float]:
    """Two numbers such as [x, y]; anything else is a ConfigError naming ``key``."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{key} must be a list of two numbers, got {value!r}")
    return tuple(_convert(v, float, key) for v in value)


def _broadcast(value, k: int, name: str) -> tuple[float, ...]:
    if not isinstance(value, (list, tuple)):
        return (_convert(value, float, name),) * (k + 1)
    vals = [_convert(v, float, name) for v in value]
    if len(vals) == k + 1:
        return tuple(vals)
    if len(vals) == k and k >= 0:
        raise ConfigError(f"'{name}' must list {k + 1} values (source 0 first), got {k}")
    raise ConfigError(f"'{name}' must be a scalar or a list of {k + 1} values")


def load_scenario(path: str) -> ScenarioConfig:
    """Parse and validate a scenario file; dBm fields become Watts."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"scenario file {path} is not valid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("scenario file must be a mapping of sections")
    known = {"scenario", "geometry", "pathloss", "array", "powers", "ris",
             "detector", "planner"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown sections {sorted(unknown)}; expected {sorted(known)}")

    sc = _expect_mapping(raw.get("scenario"), "scenario")
    geo = _expect_mapping(raw.get("geometry"), "geometry")
    plo = _expect_mapping(raw.get("pathloss"), "pathloss")
    arr = _expect_mapping(raw.get("array"), "array")
    pw = _expect_mapping(raw.get("powers"), "powers")
    ris = _expect_mapping(raw.get("ris"), "ris")
    det = _expect_mapping(raw.get("detector"), "detector")
    pln = _expect_mapping(raw.get("planner"), "planner")

    seed = _number(sc, "scenario", "seed", 0, int)
    if seed < 0:  # the interferer draw below needs it
        raise ConfigError(f"scenario.seed must be >= 0, got {seed}")
    trials = _number(sc, "scenario", "trials", 500, int)
    full_scale = bool(_take(sc, "full_scale", False))
    channel_model = str(_take(sc, "channel_model", "rayleigh"))
    method = str(_take(sc, "method", "wmmse"))

    pu = _pair(_take(geo, "pu", (0.0, 0.0)), "geometry.pu")
    ris_pos = _pair(_take(geo, "ris", (100.0, 50.0)), "geometry.ris")
    su = _pair(_take(geo, "su", (500.0, 0.0)), "geometry.su")
    annulus = _pair(_take(geo, "annulus", (50.0, 60.0)), "geometry.annulus")
    if not _annulus_ok(annulus):  # checked before the interferer draw needs it
        raise ConfigError(f"geometry.annulus needs finite 0 <= r_in <= r_out in meters, "
                          f"got {list(annulus)}")
    interferers = _take(geo, "interferers", 5)
    if isinstance(interferers, int) and not isinstance(interferers, bool) and interferers >= 0:
        positions = chan.draw_interferer_positions(ris_pos, interferers, *annulus, seed)
    elif isinstance(interferers, list):
        positions = tuple(_pair(xy, "geometry.interferers") for xy in interferers)
    else:
        raise ConfigError("geometry.interferers must be a count >= 0 or a list of [x, y] "
                          f"positions, got {interferers!r}")
    geometry = chan.Geometry(pu_pos=pu, ris_pos=ris_pos, su_pos=su, interferer_pos=positions)
    k = geometry.n_interferers

    pathloss = chan.PathlossModel(
        wavelength=_number(plo, "pathloss", "wavelength", 0.12),
        alpha_direct=_number(plo, "pathloss", "alpha_direct", 4.0),
        alpha_incident=_number(plo, "pathloss", "alpha_incident", 2.0),
        alpha_outgoing=_number(plo, "pathloss", "alpha_outgoing", 2.0))

    n_default, t_default = (64, 6400) if full_scale else (32, 3200)
    n_antennas = _number(arr, "array", "n_antennas", n_default, int)
    m_h = _number(arr, "array", "m_h", 16, int)
    m_v = _number(arr, "array", "m_v", 1, int)

    p_w = tuple(_watts(v, "powers.p_dbm")
                for v in _broadcast(_take(pw, "p_dbm", 30.0), k, "powers.p_dbm"))
    zeta = _broadcast(_take(pw, "zeta", 1.0), k, "powers.zeta")
    sigma1 = _watts(_number(pw, "powers", "sigma1_dbm", -80.0), "powers.sigma1_dbm")
    sigma2 = _watts(_number(pw, "powers", "sigma2_dbm", -80.0), "powers.sigma2_dbm")

    p_c = _watts(_number(ris, "ris", "p_c_dbm", -10.0), "ris.p_c_dbm")
    p_dc = _watts(_number(ris, "ris", "p_dc_dbm", -5.0), "ris.p_dc_dbm")
    a_max = _number(ris, "ris", "a_max", 10.0)
    budget = _watts(_number(ris, "ris", "budget_dbm", 10.0), "ris.budget_dbm")

    t_samples = _number(det, "detector", "t_samples", t_default, int)
    alpha = _number(det, "detector", "alpha", 0.1)
    pd_target = _number(det, "detector", "pd_target", 0.9)

    stop_tol = _number(pln, "planner", "stop_tol", 1e-6)
    p_high = _number(pln, "planner", "p_high_w", 10.0)

    leftovers = {name: sect for name, sect in
                 (("scenario", sc), ("geometry", geo), ("pathloss", plo), ("array", arr),
                  ("powers", pw), ("ris", ris), ("detector", det), ("planner", pln))
                 if sect}
    if leftovers:
        details = "; ".join(f"{name}: {sorted(sect)}" for name, sect in leftovers.items())
        raise ConfigError(f"unknown keys in scenario file: {details}")

    return ScenarioConfig(
        n_antennas=n_antennas, m_h=m_h, m_v=m_v, geometry=geometry, annulus=annulus,
        pathloss=pathloss,
        p_w=p_w, zeta=tuple(zeta), sigma1_sq_w=sigma1, sigma2_sq_w=sigma2,
        p_c_w=p_c, p_dc_w=p_dc, a_max=a_max, ris_budget_w=budget,
        t_samples=t_samples, alpha=alpha, pd_target=pd_target, trials=trials,
        seed=seed, method=method, channel_model=channel_model,
        stop_tol=stop_tol, bisect_p_high=p_high)


class McResult(NamedTuple):
    rate: float
    stderr: float
    trials: int
    mean_eta: float
    mean_pd_pred: float


def run_hypotheses_mc(scenario: ScenarioConfig, hypotheses: Sequence[str] = ("h1", "h0"),
                      rcm: opt.Rcm | None = None, trials: int | None = None,
                      seed: int | None = None) -> tuple[McResult, ...]:
    """Empirical exceedance rates of the detection pipeline, one per hypothesis.

    Per trial: draw channels (Rayleigh mode redraws, LoS is fixed), fix or
    optimize the reflecting coefficients, build the analytic covariance, its
    whitening factor and the population excess, synthesize T snapshots,
    whiten them and compare the largest sample eigenvalue against the
    threshold. A trial's hypotheses share all of this (common random
    numbers): H0 is scored on the noise-plus-interference draw, H1 on the
    same array once the primary term is added in place.
    """
    if not hypotheses or not set(hypotheses) <= {"h0", "h1"}:
        raise ValueError("hypotheses must be 'h0' and/or 'h1'")
    trials = scenario.trials if trials is None else trials
    seed = scenario.seed if seed is None else seed
    cfg = scenario.detector()
    gamma_th = sns.detection_threshold(cfg)
    sources, noise = scenario.sources(), scenario.noise()
    fixed_channels = scenario.build_channels() if scenario.channel_model == "los" else None
    m = scenario.n_elements
    p_out = scenario.power_model().p_out_budget(scenario.ris_budget_w, m)
    score_h0, score_h1 = "h0" in hypotheses, "h1" in hypotheses
    hits = {"h0": 0, "h1": 0}
    etas = np.empty(trials)
    pd_pred = np.empty(trials)
    for t in range(trials):
        if fixed_channels is None or t == 0:  # fixed channels and coefficients: once
            channels = fixed_channels if fixed_channels is not None \
                else chan.sample_rayleigh_channelset(scenario, (seed, t))
            rcm_t = rcm if rcm is not None else \
                bdg.coefficients(scenario.method, scenario, m, p_out, channels).rcm
            r = sns.noise_covariance(channels, rcm_t, sources, noise)
            q_inv = sns.psd_sqrt_inverse(r)
            h0 = sns.equivalent_channels(channels, np.asarray(rcm_t.phi, dtype=complex))[0]
            etas[t] = sns.eta_from_covariance(r, h0, sources.p[0])
            pd_pred[t] = sns.predicted_pd(sns.spiked_stats(etas[t], cfg.c, cfg.n_antennas,
                                                           gamma_th=gamma_th, alpha=cfg.alpha))
        else:
            etas[t], pd_pred[t] = etas[0], pd_pred[0]
        if score_h1:
            y, s0 = sns.sample_signals(channels, rcm_t, sources, noise, "both",
                                       scenario.t_samples, (seed, t, 1))
        else:
            y, s0 = sns.sample_signals(channels, rcm_t, sources, noise, "h0",
                                       scenario.t_samples, (seed, t, 1)), None
        if score_h0:
            hits["h0"] += sns.max_eig_statistic(sns.whiten(y, q_inv=q_inv)) > gamma_th
        if score_h1:
            if s0 is not None:
                y += np.outer(h0, s0)
            hits["h1"] += sns.max_eig_statistic(sns.whiten(y, q_inv=q_inv)) > gamma_th
        del y  # one snapshot array at a time: the next trial's draw replaces it
    mean_eta, mean_pd_pred = float(etas.mean()), float(pd_pred.mean())
    results = []
    for h in hypotheses:
        rate = hits[h] / trials
        stderr = math.sqrt(max(rate * (1 - rate), 1e-300) / trials)
        results.append(McResult(rate=rate, stderr=stderr, trials=trials,
                                mean_eta=mean_eta, mean_pd_pred=mean_pd_pred))
    return tuple(results)


def run_detection_mc(scenario: ScenarioConfig, rcm: opt.Rcm | None = None,
                     hypothesis: str = "h1", trials: int | None = None,
                     seed: int | None = None) -> McResult:
    """Empirical exceedance rate under one hypothesis (see run_hypotheses_mc)."""
    return run_hypotheses_mc(scenario, (hypothesis,), rcm, trials, seed)[0]


RESULT_COLUMNS = ("experiment", "sweep_name", "sweep_value", "method", "pd_emp",
                  "pfa_emp", "pd_pred", "eta", "required_budget_w", "trials", "seed",
                  "status", "note")


@dataclass(frozen=True)
class ResultRow:
    """One emitted experiment result (missing metrics stay None)."""

    experiment: str
    sweep_name: str | None = None
    sweep_value: float | None = None
    method: str = ""
    pd_emp: float | None = None
    pfa_emp: float | None = None
    pd_pred: float | None = None
    eta: float | None = None
    required_budget_w: float | None = None
    trials: int | None = None
    seed: int | None = None
    status: str = "ok"
    note: str = ""

    def quantized(self) -> dict:
        """Column dict with floats rounded to 9 significant digits."""
        out = {}
        for name in RESULT_COLUMNS:
            v = getattr(self, name)
            if isinstance(v, float):
                v = float(f"{v:.9g}")
            out[name] = v
        return out


def run_m_sweep(scenario: ScenarioConfig) -> list[ResultRow]:
    """Detection probability versus element count at a fixed budget.

    Scans every affordable active element count with per-trial optimization,
    then appends the passive baseline (all budget spent on circuit power) and
    a summary row recording whether the curve came out unimodal.
    """
    power = scenario.power_model()
    m_top = power.m_max(scenario.ris_budget_w)
    if m_top < 1:
        raise InfeasibleError("budget cannot power a single active element")
    rows = []
    pds = []
    for m in range(1, m_top + 1):
        sc_m = dataclasses.replace(scenario, m_h=m, m_v=1, method="wmmse")
        res = run_detection_mc(sc_m, hypothesis="h1")
        pds.append(res.rate)
        rows.append(ResultRow(experiment="m_sweep", sweep_name="m", sweep_value=m,
                              method="wmmse", pd_emp=res.rate, pd_pred=res.mean_pd_pred,
                              eta=res.mean_eta, trials=res.trials, seed=scenario.seed))
    m_passive = power.passive_m(scenario.ris_budget_w)
    if m_passive >= 1:
        sc_p = dataclasses.replace(scenario, m_h=m_passive, m_v=1, method="passive-unit")
        res = run_detection_mc(sc_p, hypothesis="h1")
        rows.append(ResultRow(experiment="m_sweep", sweep_name="m", sweep_value=m_passive,
                              method="passive", pd_emp=res.rate, pd_pred=res.mean_pd_pred,
                              eta=res.mean_eta, trials=res.trials, seed=scenario.seed))
    peak = int(np.argmax(pds))
    tol = 2.0 * math.sqrt(0.25 / scenario.trials)
    unimodal = all(pds[i + 1] >= pds[i] - tol for i in range(peak)) and \
        all(pds[i + 1] <= pds[i] + tol for i in range(peak, len(pds) - 1))
    rows.append(ResultRow(experiment="m_sweep_summary", sweep_name="m",
                          sweep_value=peak + 1, method="wmmse", trials=scenario.trials,
                          seed=scenario.seed, note=f"unimodal={unimodal}"))
    return rows


SWEEPABLE = ("t", "zeta", "p", "k")


def _swept_scenario(scenario: ScenarioConfig, name: str, value) -> ScenarioConfig:
    if name == "t":
        return dataclasses.replace(scenario, t_samples=int(value))
    if name == "zeta":
        z = (1.0,) + tuple(float(value) for _ in range(scenario.geometry.n_interferers))
        return dataclasses.replace(scenario, zeta=z)
    if name == "p":
        p = (scenario.p_w[0],) + tuple(float(value) for _ in range(scenario.geometry.n_interferers))
        return dataclasses.replace(scenario, p_w=p)
    if name == "k":
        k = int(value)
        positions = chan.draw_interferer_positions(scenario.geometry.ris_pos, k,
                                                   *scenario.annulus, scenario.seed)
        geometry = dataclasses.replace(scenario.geometry, interferer_pos=positions)
        p = (scenario.p_w[0],) + tuple(scenario.p_w[1] if len(scenario.p_w) > 1
                                       else scenario.p_w[0] for _ in range(k))
        z = (1.0,) + tuple(scenario.zeta[1] if len(scenario.zeta) > 1 else 1.0
                           for _ in range(k))
        return dataclasses.replace(scenario, geometry=geometry, p_w=p, zeta=z, angles=None)
    raise ConfigError(f"sweep must be one of {SWEEPABLE}")


def run_budget_sweep(scenario: ScenarioConfig, sweep_name: str, values: Sequence,
                     methods: Sequence[str]) -> list[ResultRow]:
    """Required power budget per method over a parameter grid.

    Infeasible cells are recorded with an explicit marker instead of aborting
    the sweep.
    """
    if sweep_name not in SWEEPABLE:
        raise ConfigError(f"sweep must be one of {SWEEPABLE}")
    rows = []
    for value in values:
        sc_v = _swept_scenario(scenario, sweep_name, value)
        for method in methods:
            try:
                res = bdg.required_budget(method, sc_v.pd_target, sc_v)
                rows.append(ResultRow(
                    experiment=f"budget_vs_{sweep_name}", sweep_name=sweep_name,
                    sweep_value=float(value), method=method, eta=res.eta_star,
                    required_budget_w=res.required_power, trials=0, seed=sc_v.seed,
                    note=res.note))
            except InfeasibleError as exc:
                rows.append(ResultRow(
                    experiment=f"budget_vs_{sweep_name}", sweep_name=sweep_name,
                    sweep_value=float(value), method=method, trials=0, seed=sc_v.seed,
                    status="infeasible", note=str(exc)))
    return rows


def render_results(rows: Sequence[ResultRow], fmt: str = "csv") -> str:
    """Serialize rows with a stable column order and 9-significant-digit floats."""
    dicts = [r.quantized() for r in rows]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=RESULT_COLUMNS, lineterminator="\n")
        writer.writeheader()
        for d in dicts:
            writer.writerow({k: ("" if v is None else v) for k, v in d.items()})
        return buf.getvalue()
    if fmt == "json":
        return json.dumps(dicts, indent=2) + "\n"
    raise ConfigError(f"format must be csv or json, got {fmt!r}")


def emit_results(rows: Sequence[ResultRow], path: str, fmt: str = "csv") -> None:
    """Write rows to a file (deterministic bytes for identical rows)."""
    text = render_results(rows, fmt)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
