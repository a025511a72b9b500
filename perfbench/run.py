"""Benchmark launcher for risense.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The launcher pins the BLAS and OpenMP
thread pools to one thread before any process loads numpy, measures set-up
time in fresh probe processes, runs the workload in one fresh worker process
and prints one JSON object as the last line of standard output: the
end-to-end metrics of BENCHMARK.json with --trace 0, the per-layer metrics
with --trace 1. Each run's record, with the environment it ran in, goes to
perfbench/out/.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402  (the thread pins come first)
import hashlib  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = HERE / "out"
SETUP_PROBES = 3
DEADLINE_S = 175.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def worker_cmd(*args: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), *args]


def setup_seconds(workload: str) -> tuple[float, float]:
    """(CPU, wall) seconds from starting a fresh process until it can run the first operation."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(worker_cmd("--workload", workload, "--seed", "0", "--probe"),
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    line = proc.stdout.readline().split()
    wall = time.perf_counter() - t0
    proc.stdout.close()
    if proc.wait(timeout=60) != 0 or len(line) != 2 or line[0] != "ready":
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return float(line[1]), wall


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_stats() -> dict:
    """Digest of src/risense and its line count without the generated Tracy-Widom table."""
    h = hashlib.sha256()
    lines = 0
    for path in sorted((ROOT / "src" / "risense").glob("*.py")):
        data = path.read_bytes()
        h.update(path.name.encode())
        h.update(data)
        if path.name != "_tw2_table.py":
            lines += len(data.splitlines())
    return {"src_sha256": h.hexdigest()[:16], "src_lines": lines}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "risense" / "__init__.py").is_file():
        return fail(f"no risense sources under {ROOT / 'src'}; run from a checkout root")
    if not spec_path.is_file():
        return fail(f"no BENCHMARK.json in {ROOT}")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        return fail(f"unknown workload {args.workload!r}")
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    setups = []
    if not args.trace:
        setups = [setup_seconds(args.workload) for _ in range(SETUP_PROBES)]
    cmd = worker_cmd("--workload", args.workload, "--seed", str(args.seed),
                     "--seconds", str(args.seconds))
    if args.trace:
        cmd += ["--trace", "--spans", str(OUT / f"{tag}-spans.tsv.gz")]
    timeout = DEADLINE_S - (time.monotonic() - started)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return fail(f"worker exited with {proc.returncode}")
    report = json.loads(lines[-1])
    report.update(setup_samples=[{"cpu_s": c, "wall_s": w} for c, w in setups],
                  nproc=os.cpu_count(), commit=git_commit(), **source_stats(),
                  threads={v: os.environ[v] for v in THREAD_VARS})
    (OUT / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    if not report["correct"]:
        print(f"perfbench: check failed: {report['error']}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": report.get("attempted", 1),
                          "failed": report.get("failed", 0), "metrics": {}}))
        return 1

    if args.trace:
        values = report.get("per_layer", {})
        wanted = spec["per_layer"]
    else:
        values = {"setup_s": statistics.median(cpu for cpu, _ in setups),
                  "ops_per_s": report.get("ops_per_s"), "peak_rss_mb": report.get("peak_rss_mb")}
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if values.get(m["name"]) is None:
            return fail(f"the worker reported no {m['name']}")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": True, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
