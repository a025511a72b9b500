"""Scenario ingestion, Monte Carlo experiments, sweeps and result serialization.

A scenario file is a YAML document with nested sections (documented in the
README and the shipped configs). Its ``*_dbm`` powers are converted to Watts
on load; everything downstream works in SI units. All experiments are
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
import reprlib
import sys
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np
import yaml

from . import budget as bdg
from . import channel as chan
from . import optimizer as opt
from . import sensing as sns
from .errors import ConfigError, InfeasibleError, NumericalError


def dbm_to_watts(x: float) -> float:
    return 10.0 ** ((x - 30.0) / 10.0)


def watts_to_dbm(w: float) -> float:
    if w <= 0:
        raise ValueError("only positive powers have a dBm value")
    return 30.0 + 10.0 * math.log10(w)


def _annulus_ok(annulus) -> bool:
    r_in, r_out = annulus
    return 0 <= r_in <= r_out and math.isfinite(r_out * r_out)  # the draw squares the radii


@dataclass(frozen=True)
class ScenarioConfig:
    """Single source of truth for one experiment (all powers in Watts); the read-only
    link ``gains`` are evaluated once, on construction, for every reader."""

    n_antennas: int = 32
    m_h: int = 16
    m_v: int = 1
    geometry: chan.Geometry = chan.Geometry()
    annulus: tuple[float, float] = (50.0, 60.0)  # where drawn interferers lie, in meters
    pathloss: chan.PathlossModel = chan.PathlossModel()
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
    gains: chan.LinkGains = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        problems = []
        k = self.geometry.n_interferers
        if len(self.p_w) != k + 1 or len(self.zeta) != k + 1:
            problems.append(f"powers/activities must cover {k + 1} sources "
                            f"(got {len(self.p_w)}/{len(self.zeta)})")
        if not _annulus_ok(self.annulus):
            problems.append(f"annulus needs finite 0 <= r_in <= r_out, got {self.annulus}")
        if self.m_h < 1 or self.m_v < 1:
            problems.append("array dimensions must be >= 1")
        if self.t_samples < self.n_antennas:  # else the spiked variance can go negative
            problems.append("t_samples must be >= n_antennas: the spiked-model prediction "
                            "needs c = N/T <= 1")
        if not 0 < self.pd_target < 1:
            problems.append("pd_target must lie in (0, 1)")
        if not 0 < self.stop_tol < math.inf:  # the planner bisects down to it
            problems.append(f"planner stop_tol must be positive and finite, got {self.stop_tol}")
        if not 0 < self.bisect_p_high < math.inf:  # and up from zero to it
            problems.append(f"planner p_high_w must be positive and finite, "
                            f"got {self.bisect_p_high}")
        if self.trials < 1:
            problems.append("trials must be >= 1")
        for key, size in (("scenario.trials", self.trials),  # each sizes an array
                          ("array.n_antennas^2", self.n_antennas ** 2),
                          ("array.n_antennas x m_h x m_v", self.n_antennas * self.n_elements),
                          ("(geometry.interferers + 1) x array.m_h x m_v",
                           (k + 1) * self.n_elements)):
            if size > chan.MAX_ARRAY_ENTRIES:  # a size past the float range prints as inf
                problems.append(f"{key} = {size if size < 1e308 else math.inf:.4g} exceeds "
                                f"the ceiling of {chan.MAX_ARRAY_ENTRIES} array entries")
        if self.seed < 0:
            problems.append("seed must be >= 0")
        if self.channel_model not in ("rayleigh", "los"):
            problems.append("channel_model must be 'rayleigh' or 'los'")
        if self.method not in bdg.METHODS:
            problems.append(f"method must be one of {bdg.METHODS}")
        if not (self.a_max > 0 and sys.float_info.min <= self.a_max * self.a_max < math.inf):
            problems.append(f"a_max must be positive with a_max^2 a normal float, "
                            f"got {self.a_max!r}")
        for model in (self.sources, self.noise, self.detector, self.power_model):
            try:  # each model checks its own fields
                model()
            except ValueError as exc:
                problems.append(str(exc))
        try:  # a gain outside the float range fails here, not mid-run
            object.__setattr__(self, "gains", chan.link_gains(self.geometry, self.pathloss))
        except ConfigError as exc:
            if not problems:  # alone, it keeps its own message
                raise
            problems.append(str(exc))
        if problems:
            raise ConfigError("invalid scenario:\n  - " + "\n  - ".join(problems))

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
    raise ConfigError(f"{key} must be {what}, got {reprlib.repr(value)}")


def _watts(dbm: float, key: str) -> float:
    """dBm to Watts; a power beyond the float range is a ConfigError naming ``key``."""
    try:
        return dbm_to_watts(dbm)
    except OverflowError:
        raise ConfigError(f"{key} = {dbm!r} dBm is too large a power") from None


def _pair(value, key: str) -> tuple[float, float]:
    """Two numbers such as [x, y]; anything else is a ConfigError naming ``key``."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"{key} must be a list of two numbers, got {reprlib.repr(value)}")
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


SECTIONS = ("scenario", "geometry", "pathloss", "array", "powers", "ris", "detector", "planner")
# (section, key) -> (ScenarioConfig field, type) of every scalar key; a "dBm" key is
# read in dBm and stored in Watts
SCALAR_KEYS = {
    ("scenario", "seed"): ("seed", int),
    ("scenario", "trials"): ("trials", int),
    ("scenario", "channel_model"): ("channel_model", str),
    ("scenario", "method"): ("method", str),
    ("array", "n_antennas"): ("n_antennas", int),
    ("array", "m_h"): ("m_h", int),
    ("array", "m_v"): ("m_v", int),
    ("powers", "sigma1_dbm"): ("sigma1_sq_w", "dBm"),
    ("powers", "sigma2_dbm"): ("sigma2_sq_w", "dBm"),
    ("ris", "p_c_dbm"): ("p_c_w", "dBm"),
    ("ris", "p_dc_dbm"): ("p_dc_w", "dBm"),
    ("ris", "a_max"): ("a_max", float),
    ("ris", "budget_dbm"): ("ris_budget_w", "dBm"),
    ("detector", "t_samples"): ("t_samples", int),
    ("detector", "alpha"): ("alpha", float),
    ("detector", "pd_target"): ("pd_target", float),
    ("planner", "stop_tol"): ("stop_tol", float),
    ("planner", "p_high_w"): ("bisect_p_high", float),
}


def _scalar(value, kind, key: str):
    """``value`` as ``kind`` (see SCALAR_KEYS); a bad value is a ConfigError naming ``key``."""
    if kind is str:
        if not isinstance(value, str):
            raise ConfigError(f"{key} must be a string, got {reprlib.repr(value)}")
        return value
    if kind == "dBm":
        return _watts(_convert(value, float, key), key)
    return _convert(value, kind, key)


def load_scenario(path: str, **overrides) -> ScenarioConfig:
    """Parse and validate a scenario file; dBm fields become Watts.

    An omitted key takes its ScenarioConfig default (pathloss keys their
    PathlossModel default, positions their Geometry default), except for the
    loader's own: ``full_scale`` means 64 antennas and 6400 snapshots, five
    interferers are drawn, and every source sends 30 dBm with activity 1.
    ``overrides`` (ScenarioConfig fields such as a command line's seed) replace
    the file's values in the one validated construction; drawn interferers
    still lie where the file's seed puts them.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            # libyaml's parser when PyYAML has it: the same mapping, parsed ~7x faster
            raw = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
    except (yaml.YAMLError, UnicodeDecodeError) as exc:  # the file is read as UTF-8
        raise ConfigError(f"scenario file {path} is not valid YAML: {exc}") from exc
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("scenario file must be a mapping of sections")
    unknown = set(raw) - set(SECTIONS)
    if unknown:
        raise ConfigError(f"unknown sections {sorted(unknown)}; expected {sorted(SECTIONS)}")
    sections = {name: _expect_mapping(raw.get(name), name) for name in SECTIONS}

    fields = {field: _scalar(sections[name].pop(key), kind, f"{name}.{key}")
              for (name, key), (field, kind) in SCALAR_KEYS.items() if key in sections[name]}
    if sections["scenario"].pop("full_scale", False):
        fields = {"n_antennas": 64, "t_samples": 6400, **fields}
    seed = fields.get("seed", ScenarioConfig.seed)
    if seed < 0:  # the interferer draw below needs it
        raise ConfigError(f"scenario.seed must be >= 0, got {seed}")

    geo = sections["geometry"]
    pu, ris_pos, su = (_pair(geo.pop(key, getattr(chan.Geometry, f"{key}_pos")), f"geometry.{key}")
                       for key in ("pu", "ris", "su"))
    annulus = _pair(geo.pop("annulus", ScenarioConfig.annulus), "geometry.annulus")
    if not _annulus_ok(annulus):  # checked before the interferer draw needs it
        raise ConfigError(f"geometry.annulus needs finite 0 <= r_in <= r_out in meters, "
                          f"got {list(annulus)}")
    interferers = geo.pop("interferers", 5)
    if isinstance(interferers, int) and not isinstance(interferers, bool) and interferers >= 0:
        positions = chan.draw_interferer_positions(ris_pos, interferers, *annulus, seed)
    elif isinstance(interferers, list):
        positions = tuple(_pair(xy, "geometry.interferers") for xy in interferers)
    else:
        raise ConfigError("geometry.interferers must be a count >= 0 or a list of [x, y] "
                          f"positions, got {reprlib.repr(interferers)}")
    geometry = chan.Geometry(pu_pos=pu, ris_pos=ris_pos, su_pos=su, interferer_pos=positions)
    k = geometry.n_interferers

    plo = sections["pathloss"]
    pathloss = chan.PathlossModel(**{f.name: _convert(plo.pop(f.name), float, f"pathloss.{f.name}")
                                     for f in dataclasses.fields(chan.PathlossModel)
                                     if f.name in plo})

    pw = sections["powers"]
    p_w = tuple(_watts(v, "powers.p_dbm")
                for v in _broadcast(pw.pop("p_dbm", 30.0), k, "powers.p_dbm"))
    zeta = _broadcast(pw.pop("zeta", 1.0), k, "powers.zeta")

    leftovers = {name: sect for name, sect in sections.items() if sect}
    if leftovers:
        details = "; ".join(f"{name}: {sorted(sect)}" for name, sect in leftovers.items())
        raise ConfigError(f"unknown keys in scenario file: {details}")

    return ScenarioConfig(geometry=geometry, annulus=annulus, pathloss=pathloss, p_w=p_w,
                          zeta=zeta, **{**fields, **overrides})


class McResult(NamedTuple):
    """An empirical rate, with the iterative coefficient solves made for it and how
    many of them stopped at their iteration cap."""

    rate: float
    stderr: float
    trials: int
    mean_eta: float
    mean_pd_pred: float
    solves: int
    capped: int


def run_hypotheses_mc(scenario: ScenarioConfig,
                      rcm: opt.Rcm | None = None) -> tuple[McResult, McResult]:
    """Empirical exceedance rates (H1, H0) of the detection pipeline.

    Per trial: draw channels (Rayleigh mode redraws, LoS is fixed), fix or
    optimize the reflecting coefficients, build the analytic covariance and the
    population excess (``sensing.Whitening``), and decide whether the trial's
    largest whitened sample eigenvalue over T exceeds the threshold under H1
    and under H0 (``sensing.sample_signals`` given the threshold, which
    documents its two paths). A trial's hypotheses share all of this (common
    random numbers).
    """
    trials = scenario.trials
    cfg = scenario.detector()
    gamma_th = sns.detection_threshold(cfg)
    sources, noise = scenario.sources(), scenario.noise()
    fixed = scenario.channel_model == "los"  # fixed channels and coefficients: set up once
    m = scenario.n_elements
    p_out = scenario.power_model().p_out_budget(scenario.ris_budget_w, m)
    hits_h1 = hits_h0 = solves = capped = 0
    etas = np.empty(trials)
    pd_pred = np.empty(trials)
    for t in range(trials):
        if t == 0 or not fixed:
            channels = scenario.build_channels(t)
            if rcm is None:
                design = bdg.coefficients(scenario.method, scenario, m, p_out, channels,
                                          max_iter=bdg.WMMSE_MAX_ITER)
                rcm_t = design.rcm
                solves += design.iterations is not None
                capped += not design.converged
            else:
                rcm_t = rcm
            whitening = sns.Whitening.of(channels, rcm_t, sources, noise)
            etas[t] = whitening.eta
            pd_pred[t] = sns.predicted_pd(sns.spiked_stats_for(cfg, etas[t]))
        else:
            etas[t], pd_pred[t] = etas[0], pd_pred[0]
        h1, h0 = sns.sample_signals(channels, rcm_t, sources, noise, "h1", scenario.t_samples,
                                    (scenario.seed, t, 1), whitening, gamma_th)
        hits_h1 += h1
        hits_h0 += h0
    mean_eta, mean_pd_pred = float(etas.mean()), float(pd_pred.mean())

    def result(hits: int) -> McResult:
        rate = hits / trials
        stderr = math.sqrt(max(rate * (1 - rate), 1e-300) / trials)
        return McResult(rate=rate, stderr=stderr, trials=trials, mean_eta=mean_eta,
                        mean_pd_pred=mean_pd_pred, solves=solves, capped=capped)

    return result(hits_h1), result(hits_h0)


def run_detection_mc(scenario: ScenarioConfig, rcm: opt.Rcm | None = None) -> McResult:
    """Empirical detection rate: the H1 result of run_hypotheses_mc."""
    return run_hypotheses_mc(scenario, rcm)[0]


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


RESULT_COLUMNS = tuple(f.name for f in dataclasses.fields(ResultRow))


# an m sweep runs one Monte Carlo experiment per active element count and
# one passive baseline; the budget may afford at most this many of either
MAX_SWEPT_ELEMENTS = 4096


def run_m_sweep(scenario: ScenarioConfig) -> tuple[list[ResultRow], int, int]:
    """Detection probability versus element count at a fixed budget.

    Scans every affordable active element count with per-trial optimization,
    then appends the passive baseline (all budget spent on circuit power) and
    a summary row recording whether the curve came out unimodal. Returns them
    with the count of iterative solves and of those stopped at their cap.
    """
    power = scenario.power_model()
    # ConfigErrors before any trial; the passive count bounds the active one
    affords = power.elements(scenario.ris_budget_w, passive=True)
    if affords > MAX_SWEPT_ELEMENTS:
        raise ConfigError(f"ris.budget_dbm = {watts_to_dbm(scenario.ris_budget_w):.6g} dBm "
                          f"affords {affords:.4g} passive elements; an m sweep allows at most "
                          f"{MAX_SWEPT_ELEMENTS}")
    m_top = power.m_max(scenario.ris_budget_w)
    if m_top < 1:
        raise InfeasibleError("budget cannot power a single active element")
    # (count, method, row label); passive_m >= m_top >= 1, as p_c > 0 was checked above
    runs = [(m, "wmmse", "wmmse") for m in range(1, m_top + 1)]
    runs.append((power.passive_m(scenario.ris_budget_w), "passive-unit", "passive"))
    rows, solves, capped = [], 0, 0
    for m, method, label in runs:
        res = run_detection_mc(dataclasses.replace(scenario, m_h=m, m_v=1, method=method))
        solves, capped = solves + res.solves, capped + res.capped
        rows.append(ResultRow(experiment="m_sweep", sweep_name="m", sweep_value=m,
                              method=label, pd_emp=res.rate, pd_pred=res.mean_pd_pred,
                              eta=res.mean_eta, trials=res.trials, seed=scenario.seed))
    pds = [row.pd_emp for row in rows[:-1]]
    peak = int(np.argmax(pds))
    tol = 2.0 * math.sqrt(0.25 / scenario.trials)
    unimodal = all(pds[i + 1] >= pds[i] - tol for i in range(peak)) and \
        all(pds[i + 1] <= pds[i] + tol for i in range(peak, len(pds) - 1))
    rows.append(ResultRow(experiment="m_sweep_summary", sweep_name="m",
                          sweep_value=peak + 1, method="wmmse", trials=scenario.trials,
                          seed=scenario.seed, note=f"unimodal={unimodal}"))
    return rows, solves, capped


SWEEPABLE = ("t", "zeta", "p", "k")


def _swept_scenario(scenario: ScenarioConfig, name: str, value) -> ScenarioConfig:
    if name in ("t", "k") and not (float(value).is_integer() and value >= 0):
        raise ConfigError(f"--sweep {name} values must be whole counts, got {value!r}")
    k = scenario.geometry.n_interferers
    if name in ("zeta", "p") and k == 0:  # every row would plan the same scenario
        raise ConfigError(f"--sweep {name} sets the interferers' {name}, and the scenario "
                          "has none")
    if name == "t":
        return dataclasses.replace(scenario, t_samples=int(value))
    if name == "zeta":
        return dataclasses.replace(scenario, zeta=(1.0,) + (float(value),) * k)
    if name == "p":
        return dataclasses.replace(scenario, p_w=(scenario.p_w[0],) + (float(value),) * k)
    # name == "k": new interferers copy interferer 1's power and activity, else the primary's
    like, k = min(1, k), int(value)
    positions = chan.draw_interferer_positions(scenario.geometry.ris_pos, k,
                                               *scenario.annulus, scenario.seed)
    geometry = dataclasses.replace(scenario.geometry, interferer_pos=positions)
    return dataclasses.replace(scenario, geometry=geometry,
                               p_w=(scenario.p_w[0],) + (scenario.p_w[like],) * k,
                               zeta=(1.0,) + (scenario.zeta[like],) * k)


def run_budget_sweep(scenario: ScenarioConfig, sweep_name: str, values: Sequence,
                     methods: Sequence[str]) -> list[ResultRow]:
    """Required power budget per method over a parameter grid.

    Infeasible and numerically failed cells are recorded with an explicit
    status (``infeasible``, ``numerical``) instead of aborting the sweep.
    """
    if sweep_name not in SWEEPABLE:
        raise ConfigError(f"sweep must be one of {SWEEPABLE}")
    rows = []
    for value in values:
        sc_v = _swept_scenario(scenario, sweep_name, value)
        for method in methods:
            cell = dict(experiment=f"budget_vs_{sweep_name}", sweep_name=sweep_name,
                        sweep_value=float(value), method=method, trials=0, seed=sc_v.seed)
            try:
                res = bdg.required_budget(method, sc_v.pd_target, sc_v)
            except (InfeasibleError, NumericalError) as exc:
                status = "infeasible" if isinstance(exc, InfeasibleError) else "numerical"
                rows.append(ResultRow(**cell, status=status, note=str(exc)))
            else:
                rows.append(ResultRow(**cell, eta=res.eta_star,
                                      required_budget_w=res.required_power, note=res.note))
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
