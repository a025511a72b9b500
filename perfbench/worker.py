"""One benchmark process: set up, run a workload's rounds, check, report JSON.

Started by run.py, which pins the BLAS and OpenMP pools to one thread before
this process loads numpy. Modes:

  --probe          set up only, then print "ready" and the CPU seconds used
  (default)        untraced rounds until --seconds of timed calls
  --trace          a fixed number of rounds untraced, then the same rounds
                   traced; reports per-layer metrics per operation
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

# Rounds of a traced run: a fixed count, so two traced runs with one seed
# repeat every count exactly.
TRACE_ROUNDS = {"mc_desk_wmmse": 8, "mc_los_fixed": 12, "plan_los": 2}


def import_risense() -> None:
    """Import every risense module, from ./src and nowhere else."""
    import risense
    here = Path(risense.__file__).resolve()
    if ROOT / "src" not in here.parents:
        raise SystemExit(f"risense was imported from {here}, not from {ROOT / 'src'}")
    from risense import cli  # noqa: F401


def probe(workload: str) -> None:
    """Set up as a run would, then report the CPU seconds this process has used."""
    import_risense()
    import workloads
    workloads.WORKLOADS[workload]().close()
    print(f"ready {workloads.cpu_seconds()!r}", flush=True)


def run_rounds(wl, seed: int, rounds=None, seconds=None, tracer=None) -> dict:
    """Run rounds 0, 1, ... (a fixed count, or until the calls took seconds of wall time).

    Returns operations attempted and failed, and the wall and CPU seconds the
    calls into risense took, in total and per round.
    """
    out = {"attempted": 0, "failed": 0, "wall_s": 0.0, "cpu_s": 0.0,
           "round_wall_s": [], "round_cpu_s": []}
    r = 0
    while (rounds is not None and r < rounds) or (seconds is not None and out["wall_s"] < seconds):
        if tracer is not None:
            tracer.round = r
        n, n_failed, watch, outputs = wl.run_round(seed, r)
        if tracer is not None:
            tracer.paused = True
        wl.check_round(outputs)
        if tracer is not None:
            tracer.paused = False
        out["attempted"] += n
        out["failed"] += n_failed
        out["wall_s"] += watch.wall
        out["cpu_s"] += watch.cpu
        out["round_wall_s"].append(watch.wall)
        out["round_cpu_s"].append(watch.cpu)
        r += 1
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def os_threads() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return -1


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "os_threads": os_threads(),
            **{k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                               "MKL_NUM_THREADS")}}


def timed_run(make, args) -> dict:
    """Untraced rounds until --seconds of calls into risense."""
    wl = make()
    try:
        out = run_rounds(wl, args.seed, seconds=args.seconds)
    finally:
        wl.close()
    done = out["attempted"] - out["failed"]
    return {**out, "ops_per_s": done / out["cpu_s"], "ops_per_wall_s": done / out["wall_s"],
            "peak_rss_mb": peak_rss_mb(), "checks": wl.check_run()}


def traced_run(make, args) -> dict:
    """The workload's trace rounds untraced, then again traced, in a new instance.

    Both passes run the same inputs, so their outputs must agree; the
    difference in CPU time per operation is the tracing overhead.
    """
    import checks
    import tracing
    rounds = TRACE_ROUNDS[args.workload]
    plain = make()
    try:
        untraced = run_rounds(plain, args.seed, rounds=rounds)
    finally:
        plain.close()
    plain_checks = plain.check_run()
    traced = make()
    tracer = tracing.Tracer()
    missing = tracer.install()
    try:
        again = run_rounds(traced, args.seed, rounds=rounds, tracer=tracer)
    finally:
        tracer.uninstall()
        traced.close()
    traced_checks = traced.check_run()
    counts = ("attempted", "failed")
    checks.require([again[k] for k in counts] == [untraced[k] for k in counts]
                   and traced_checks == plain_checks,
                   f"traced rounds gave {traced_checks}, untraced {plain_checks}")
    done = untraced["attempted"] - untraced["failed"]
    report = {**untraced, "traced_cpu_s": again["cpu_s"], "traced_wall_s": again["wall_s"],
              "checks": plain_checks, "untraced_names": missing,
              "per_layer": tracer.metrics(done, again["cpu_s"] - untraced["cpu_s"])}
    if args.spans:
        report["spans"] = tracer.write_spans(args.spans)
    return report


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None, help="traced runs: write spans here")
    args = ap.parse_args()
    if args.probe:
        probe(args.workload)
        return 0

    import_risense()
    import checks
    import workloads
    make = workloads.WORKLOADS[args.workload]
    report = {"workload": args.workload, "seed": args.seed, "env": environment()}
    try:
        report.update((traced_run if args.trace else timed_run)(make, args), correct=True)
    except checks.CheckError as exc:
        report.update(correct=False, error=str(exc))
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
