"""Command-line front end.

Subcommands: threshold, optimize, simulate, sweep, budget. Exit codes:
0 success, 2 configuration error, 3 infeasible target, 4 numerical failure;
1 when standard output closes before the command is done.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import budget as bdg
from . import harness as hns
from . import sensing as sns
from .errors import ConfigError, InfeasibleError, NumericalError


# the options several commands take; each command names the ones it reads
SHARED_OPTIONS = {
    "--config": dict(required=True, help="scenario YAML file"),
    "--seed": dict(type=int, help="override the scenario seed"),
    "--trials": dict(type=int, help="override the trial count"),
    "--out": dict(help="write results to this path"),
    "--format": dict(choices=("csv", "json"), help="result format (default csv)"),
    "--method": dict(help=f"coefficient method ({'|'.join(bdg.METHODS)})"),
}


@functools.cache  # one parser per process: parse_args keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="risense",
                                 description="Surface-assisted spectrum sensing simulator")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name: str, help_text: str, *shared: str) -> argparse.ArgumentParser:
        # no abbreviations: a removed option must not parse as a longer kept one
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in shared:
            p.add_argument(flag, **SHARED_OPTIONS[flag])
        return p

    p = command("threshold", "print the detection threshold")
    p.add_argument("--config", help="scenario YAML file (else give -N and -T)")
    p.add_argument("-N", type=int, default=None, help="antennas (overrides config)")
    p.add_argument("-T", type=int, default=None, help="snapshots (overrides config)")
    p.add_argument("--alpha", type=float, default=None, help="false-alarm probability")

    command("optimize", "optimize the reflecting coefficients once",
            "--config", "--seed", "--method")
    command("simulate", "Monte Carlo detection/false-alarm rates",
            "--config", "--seed", "--trials", "--out", "--format", "--method")

    p = command("sweep", "element-count or budget sweeps",
                "--config", "--seed", "--trials", "--out", "--format")
    p.add_argument("--sweep", default="m", choices=("m",) + hns.SWEEPABLE,
                   help="swept variable")
    p.add_argument("--values", default=None,
                   help="comma-separated grid for budget sweeps (e.g. 800,1600,3200)")
    p.add_argument("--methods",
                   help="comma-separated method list for budget sweeps (default mf,mmse,passive)")

    p = command("budget", "required power budget for the target Pd",
                "--config", "--seed", "--out", "--format", "--method")
    p.add_argument("--pd-target", type=float, default=None)
    p.add_argument("--stop-tol", type=float, default=None)
    return ap


def _scenario(args) -> hns.ScenarioConfig:
    patch = {key: getattr(args, key, None)
             for key in ("seed", "trials", "pd_target", "stop_tol", "method")}
    return hns.load_scenario(args.config, **{key: value for key, value in patch.items()
                                             if value is not None})


def _emit(rows, args) -> None:
    if args.out:
        hns.emit_results(rows, args.out, args.format or "csv")
        print(f"wrote {len(rows)} rows to {args.out}")
    else:
        sys.stdout.write(hns.render_results(rows, args.format or "csv"))


def cmd_threshold(args) -> int:
    if args.config:
        cfg = _scenario(args).detector()
        n = cfg.n_antennas if args.N is None else args.N
        t = cfg.n_samples if args.T is None else args.T
        alpha = cfg.alpha if args.alpha is None else args.alpha
    else:
        if args.N is None or args.T is None:
            raise ConfigError("threshold needs --config or both -N and -T")
        n, t, alpha = args.N, args.T, args.alpha if args.alpha is not None else 0.1
    try:  # an N or T beyond the float range overflows
        gamma = sns.detection_threshold(sns.DetectorConfig(n_antennas=n, n_samples=t, alpha=alpha))
    except (ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc
    print(f"gamma_th = {gamma:.9g}  (N={n}, T={t}, alpha={alpha})")
    return 0


OPTIMIZE_MAX_ITER = 500  # outer iterations of an iterative design in optimize


def cmd_optimize(args) -> int:
    sc = _scenario(args)
    channels = sc.build_channels()
    m = channels.n_elements
    p_out = sc.power_model().p_out_budget(sc.ris_budget_w, m)
    res = bdg.coefficients(sc.method, sc, m, p_out, channels, max_iter=OPTIMIZE_MAX_ITER)
    phi = res.rcm.phi
    how = "closed form" if res.iterations is None else f"iterations: {res.iterations}"
    if not res.converged:
        how += f", stopped at the {OPTIMIZE_MAX_ITER}-iteration cap before converging"
    print(f"eta = {res.eta:.9g}  ({how})")
    cfg = sc.detector()
    stats = sns.spiked_stats_for(cfg, res.eta)
    print(f"predicted Pd = {sns.predicted_pd(stats):.6f} at alpha = {cfg.alpha}")
    for i, v in enumerate(phi):
        print(f"phi[{i:3d}] = {np.abs(v):.6f} * exp(j {np.angle(v):+.6f})")
    return 0


def cmd_simulate(args) -> int:
    sc = _scenario(args)
    h1, h0 = hns.run_hypotheses_mc(sc)
    row = hns.ResultRow(experiment="simulate", method=sc.method, pd_emp=h1.rate,
                        pfa_emp=h0.rate, pd_pred=h1.mean_pd_pred, eta=h1.mean_eta,
                        trials=sc.trials, seed=sc.seed)
    _emit([row], args)
    print(f"Pd = {h1.rate:.4f} +- {h1.stderr:.4f}, Pfa = {h0.rate:.4f} +- {h0.stderr:.4f}, "
          f"predicted Pd = {h1.mean_pd_pred:.4f}", file=sys.stderr)
    _report_cap(h1.solves, h1.capped)
    return 0


def _report_cap(solves: int, capped: int) -> None:
    if capped:
        print(f"{capped} of {solves} WMMSE solves stopped at the "
              f"{bdg.WMMSE_MAX_ITER}-iteration cap", file=sys.stderr)


def cmd_sweep(args) -> int:
    m_sweep = args.sweep == "m"
    for flag in ("--values", "--methods") if m_sweep else ("--trials",):
        if getattr(args, flag[2:]) is not None:
            sweeps = "budget sweeps (--sweep t|zeta|p|k)" if m_sweep else "--sweep m"
            raise ConfigError(f"{flag} is for {sweeps}, not --sweep {args.sweep}")
    sc = _scenario(args)
    if m_sweep:
        rows, solves, capped = hns.run_m_sweep(sc)
        _emit(rows, args)
        _report_cap(solves, capped)
        return 0
    if not args.values:
        raise ConfigError("budget sweeps need --values")
    values = [hns._convert(v, float, "--values") for v in args.values.split(",")]
    names = "mf,mmse,passive" if args.methods is None else args.methods
    methods = [m.strip() for m in names.split(",") if m.strip()]
    if not methods:
        raise ConfigError(f"--methods names no method, got {args.methods!r}")
    _emit(hns.run_budget_sweep(sc, args.sweep, values, methods), args)
    return 0


def cmd_budget(args) -> int:
    if args.format is not None and not args.out:
        raise ConfigError("--format sets the --out file's format; budget prints its plan "
                          "as text without --out")
    sc = _scenario(args)
    res = bdg.required_budget(sc.method, sc.pd_target, sc)
    print(f"required budget = {res.required_power:.9g} W "
          f"({hns.watts_to_dbm(res.required_power):.4f} dBm) with M = {res.m_star}, "
          f"eta = {res.eta_star:.6g} >= target {res.eta_target:.6g}")
    if res.note:
        print(f"note: {res.note}")
    if args.out:
        row = hns.ResultRow(experiment="budget", method=res.method, eta=res.eta_star,
                            required_budget_w=res.required_power, trials=0, seed=sc.seed,
                            note=res.note)
        _emit([row], args)
    return 0


COMMANDS = {"threshold": cmd_threshold, "optimize": cmd_optimize,
            "simulate": cmd_simulate, "sweep": cmd_sweep, "budget": cmd_budget}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "out", None) == "":
            raise ConfigError("--out needs a file path")
        code = COMMANDS[args.command](args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # stdout's reader is gone (`risense ... | head -1`): what is still buffered goes
        # to devnull, so the flush at exit cannot fail again (Python's SIGPIPE note)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
