"""The benchmark's workloads: their inputs, their rounds and their checks.

A run repeats rounds of the same operations until its time is up. Each
round's inputs come from (seed, round), so a seed always gives the same run.
Only the calls into risense are timed, in wall and in CPU seconds; checks
run between rounds.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import math
import random
import resource
import sys
import time
from pathlib import Path

import checks
import tracing

HERE = Path(__file__).resolve().parent
SCENARIOS = HERE / "scenarios"


def round_seed(seed: int, r: int) -> int:
    """Scenario seed of round r: distinct for every (seed, round) below 10^4 rounds."""
    return seed * 10_000 + r


def cpu_seconds() -> float:
    """CPU time of this process and of its reaped children."""
    ch = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ch.ru_utime + ch.ru_stime


class Stopwatch:
    """Adds up the wall and CPU seconds spent inside its with-blocks."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0

    def __enter__(self):
        self._wall0, self._cpu0 = time.perf_counter(), cpu_seconds()
        return self

    def __exit__(self, *exc):
        self.cpu += cpu_seconds() - self._cpu0
        self.wall += time.perf_counter() - self._wall0


class Capture:
    """Keeps the arguments and result of every call to one risense function."""

    def __init__(self, module: str, name: str):
        self.calls: list[tuple[tuple, dict, object]] = []
        self._rb = tracing.Rebinder()

        def make(fn):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.calls.append((args, kwargs, result))
                return result
            return wrapper

        if not self._rb.replace(module, name, make):
            raise RuntimeError(f"risense.{module}.{name} not found")

    def take(self) -> list:
        out, self.calls = self.calls, []
        return out

    def close(self) -> None:
        self._rb.undo()


class Simulate:
    """`risense simulate` through cli.main, B trial indices per call (one round).

    One operation is one trial index with its H1 and its H0 decision.
    """

    ops_per_round = 8

    def __init__(self, scenario: str):
        from risense import harness, sensing
        self.path = str(SCENARIOS / scenario)
        self.sc = harness.load_scenario(self.path)
        # also the program's lazy set-up: the first threshold builds the
        # Tracy-Widom interpolator, before any timed call
        self.gamma = sensing.detection_threshold(self.sc.detector())
        self.h1_hits = 0
        self.h0_hits = 0
        self.trials = 0

    def run_round(self, seed: int, r: int) -> tuple[int, int, Stopwatch, object]:
        """(operations attempted, operations failed, time in risense, outputs)."""
        from risense import cli
        argv = ["simulate", "--config", self.path, "--seed", str(round_seed(seed, r)),
                "--trials", str(self.ops_per_round), "--format", "csv"]
        out, err = io.StringIO(), io.StringIO()
        elapsed = Stopwatch()
        with elapsed, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            print(f"simulate {argv} exited with {code}: {err.getvalue().strip()}", file=sys.stderr)
            return self.ops_per_round, self.ops_per_round, elapsed, None
        rows = list(csv.DictReader(io.StringIO(out.getvalue())))
        checks.require(len(rows) == 1, f"simulate wrote {len(rows)} rows, expected 1")
        return self.ops_per_round, 0, elapsed, rows[0]

    def count_rates(self, row: dict) -> None:
        n = int(row["trials"])
        checks.require(n == self.ops_per_round, f"row reports {n} trials")
        hits = {}
        for key in ("pd_emp", "pfa_emp"):
            x = float(row[key]) * n
            checks.require(abs(x - round(x)) < 1e-6, f"{key} {row[key]} is not a count / {n}")
            hits[key] = round(x)
        self.h1_hits += hits["pd_emp"]
        self.h0_hits += hits["pfa_emp"]
        self.trials += n

    def close(self) -> None:
        self.capture.close()

    def check_run(self) -> dict:
        """Pfa within the binomial bound of alpha: the Tracy-Widom calibration."""
        alpha = self.sc.alpha
        checks.check_rate("Pfa", self.h0_hits, self.trials, alpha, checks.PFA_MODEL_TOL)
        return {"trials": self.trials, "pd_emp": self.h1_hits / self.trials,
                "pfa_emp": self.h0_hits / self.trials}


class DeskWmmse(Simulate):
    """mc_desk_wmmse: desk Rayleigh scenario, channels redrawn and WMMSE per trial."""

    def __init__(self):
        super().__init__("desk.yaml")
        self.capture = Capture("optimizer", "wmmse_active")

    def check_round(self, row: dict | None) -> None:
        """Every WMMSE surface is feasible and beats its matched-filter start.

        The row's eta is the mean excess of the trials' surfaces.
        """
        from risense import optimizer
        calls = self.capture.take()
        if row is None:
            return
        self.count_rates(row)
        checks.require(len(calls) >= self.ops_per_round,
                       f"{len(calls)} WMMSE solves for {self.ops_per_round} trials")
        sc = self.sc
        p, zeta = sc.sources().p, sc.sources().zeta
        s1, s2 = sc.sigma1_sq_w, sc.sigma2_sq_w
        etas = []
        for args, kwargs, res in calls:
            channels, sources, noise, p_out, a_max = args[:5]
            phi = res.rcm.phi
            checks.check_active_feasible(channels, phi, p, zeta, s1, p_out, a_max)
            eta = checks.excess(channels, phi, p, zeta, s1, s2)
            checks.check_close("WMMSE eta", res.eta, eta, checks.ETA_RTOL)
            start = optimizer.mf_init_phi(channels, sources, noise, p_out, a_max)
            eta_start = checks.excess(channels, start, p, zeta, s1, s2)
            checks.require(eta >= eta_start * (1 - checks.ETA_RTOL),
                           f"WMMSE eta {eta:.9g} below its matched-filter start {eta_start:.9g}")
            etas.append(eta)
        # every trial's solves see the same channels, so the mean over all
        # solves is the mean over trials
        checks.check_close("row eta", float(row["eta"]), sum(etas) / len(etas), checks.ROW_RTOL)


class LosFixed(Simulate):
    """mc_los_fixed: fixed full-scale LoS channels with matched-filter coefficients."""

    def __init__(self):
        super().__init__("los_full_mf.yaml")
        from risense import channel
        self.capture = Capture("budget", "mf_phi")
        self.channels = channel.build_los_channelset(self.sc)
        self.pd_pred = None

    def check_round(self, row: dict | None) -> None:
        """The row's eta equals the checker's eta of the coefficients used."""
        calls = self.capture.take()
        if row is None:
            return
        self.count_rates(row)
        checks.require(len(calls) >= 1, "no matched-filter coefficients were computed")
        sc = self.sc
        p, zeta = sc.sources().p, sc.sources().zeta
        for _, _, sol in calls:
            eta = checks.excess(self.channels, sol.phi, p, zeta, sc.sigma1_sq_w, sc.sigma2_sq_w)
            checks.check_close("row eta", float(row["eta"]), eta, checks.ROW_RTOL)
        pd_pred = checks.spiked_pd(eta, sc.n_antennas, sc.t_samples, self.gamma)
        checks.check_close("row pd_pred", float(row["pd_pred"]), pd_pred, 1e-7)
        self.pd_pred = pd_pred

    def check_run(self) -> dict:
        """Adds: Pd within the binomial bound plus the stated model error of the prediction."""
        out = super().check_run()
        checks.check_rate("Pd", self.h1_hits, self.trials, self.pd_pred, checks.PD_MODEL_TOL)
        out["pd_pred"] = self.pd_pred
        return out


class PlanLos:
    """plan_los: budget.required_budget for four methods on los_budget.yaml at Pd 0.9.

    One operation is one plan. The plans are the same on every seed; the seed
    orders them within each round.
    """

    methods = ("mf", "mmse", "zf", "passive")
    ops_per_round = len(methods)
    pd_target = 0.9

    def __init__(self):
        from risense import harness, sensing
        self.path = str(SCENARIOS / "los_budget.yaml")
        self.sc = harness.load_scenario(self.path)
        self.gamma = sensing.detection_threshold(self.sc.detector())
        self.plans = 0

    def run_round(self, seed: int, r: int) -> tuple[int, int, Stopwatch, object]:
        from risense import RisenseError, budget
        order = list(self.methods)
        random.Random(round_seed(seed, r)).shuffle(order)
        results = []
        elapsed = Stopwatch()
        for method in order:
            try:
                with elapsed:
                    res = budget.required_budget(method, self.pd_target, self.sc)
            except RisenseError as exc:
                print(f"plan {method} failed: {exc}", file=sys.stderr)
                res = None
            if res is not None:
                results.append((method, res))
        return len(order), len(order) - len(results), elapsed, results

    def check_round(self, results) -> None:
        """Each plan reaches eta0 by the checker's eta, is feasible and bracketed."""
        from risense import channel
        if not results:
            return
        sc = self.sc
        p, zeta = sc.sources().p, sc.sources().zeta
        pd0 = checks.spiked_pd(results[0][1].eta_target, sc.n_antennas, sc.t_samples, self.gamma)
        checks.check_close("Pd at eta0", pd0, self.pd_target, 1e-6)
        for method, res in results:
            checks.require(res.method == method, f"plan for {method} reports {res.method}")
            m = res.m_star
            phi = res.phi_star.phi
            budget_w = res.required_power
            channels = channel.build_los_channelset(dataclasses.replace(sc, m_h=m, m_v=1))
            sigma1 = 0.0 if method == "passive" else sc.sigma1_sq_w
            eta = checks.excess(channels, phi, p, zeta, sigma1, sc.sigma2_sq_w)
            checks.check_close(f"{method} eta*", res.eta_star, eta, checks.ETA_RTOL)
            checks.require(eta > res.eta_target,
                           f"{method}: eta {eta:.9g} does not reach eta0 {res.eta_target:.9g}")
            if method == "passive":
                checks.require(m * sc.p_c_w <= budget_w * (1 + checks.FEAS_RTOL),
                               f"passive: {m} elements cost more than {budget_w:.9g} W")
                checks.require(bool(abs(abs(phi) - 1.0).max() <= checks.FEAS_RTOL),
                               "passive: coefficients are not unit-modulus")
            else:
                p_out = budget_w - m * (sc.p_c_w + sc.p_dc_w)
                cap = sc.a_max if method in ("mf", "zf") else math.inf
                checks.check_active_feasible(channels, phi, p, zeta, sc.sigma1_sq_w, p_out, cap)
                over = float(abs(phi).max()) / sc.a_max
                if method == "mmse" and over > 1.0:
                    checks.require("exceeds the per-element cap" in res.note,
                                   f"mmse exceeds the cap x{over:.3f} without saying so")
            checks.check_bracket(res.probes, budget_w, res.eta_star, res.eta_target,
                                 sc.stop_tol)
            self.plans += 1

    def close(self) -> None:
        pass

    def check_run(self) -> dict:
        return {"plans": self.plans}


WORKLOADS = {"mc_desk_wmmse": DeskWmmse, "mc_los_fixed": LosFixed, "plan_los": PlanLos}
