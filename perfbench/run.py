"""qnslab benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Workloads (see BENCHMARK.json and
workloads.py): run-2d, run-1d, verify-ensemble, and dynamics-1d (not listed
in BENCHMARK.json: it fails at every pass, see notes.json).

Every process runs with one BLAS/OpenMP thread. The benchmark first times the
set-up in SETUP_SAMPLES fresh interpreters, then runs the workload in one more
fresh interpreter (worker.py). Times are scaled to a reference machine speed
(calibrate.py). It prints the environment and a summary, and as its last line
one JSON object with the end-to-end metrics (--trace 0) or the per-layer
metrics (--trace 1).
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from calibrate import REFERENCE_S
from workloads import NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def environment(args):
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(), "cpu": cpu,
            "workload": args.workload, "seed": args.seed,
            "trace": bool(args.trace)}


def worker(args, workdir, timeout, setup_only=False):
    env = dict(os.environ)
    env.update({"PYTHONPATH": SRC, "OMP_NUM_THREADS": "1",
                "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", workdir, "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report(args, env, setups, res):
    attempted, failed = res["attempted"], res["failed"]
    problems = list(res["problems"])
    if res["canary_problems"]:
        problems = res["canary_problems"] + problems
        failed = attempted
    ops = res["ops"]
    untraced = [p for p in res["passes"] if not p["traced"]]
    raw = [ops / p["seconds"] for p in untraced]
    scaled = [ops * p["kernel_s"] / (p["seconds"] * REFERENCE_S)
              for p in untraced]
    setup_scaled = [s * REFERENCE_S / k for s, k in setups]
    print("perfbench: environment " + json.dumps(env))
    print(f"perfbench: setup_s raw {[round(s, 4) for s, _ in setups]}, "
          f"scaled {[round(s, 4) for s in setup_scaled]}")
    for label, rates in (("raw", raw), ("scaled", scaled)):
        q1, q2, q3 = quartiles(rates)
        print(f"perfbench: {len(rates)} untraced passes of {ops} ops; {label} "
              f"ops_per_s median {q2:.4g} (q1 {q1:.4g}, q3 {q3:.4g})")
    print(f"perfbench: attempted {attempted}, failed {failed}, fail_frac "
          f"{failed / attempted:.4g}, canary "
          f"{'ok' if not res['canary_problems'] else 'NOT TRIPPED'}")
    for p in problems[:10]:
        print(f"perfbench: problem: {p}")
    if args.trace:
        metrics = res["layers"]
    else:
        metrics = {
            "ops_per_s": {"value": statistics.median(scaled), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_scaled),
                        "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"perfbench: {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "qnslab", "__init__.py")):
        return fail(f"no qnslab sources under {SRC}; run from a checkout")
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    start = time.monotonic()
    workdir = os.path.join(ROOT, ".perfbench_work",
                           f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(workdir)
    try:
        setups = []
        for k in range(SETUP_SAMPLES):
            res = worker(args, os.path.join(workdir, f"setup{k}"),
                         DEADLINE_S - (time.monotonic() - start),
                         setup_only=True)
            setups.append((res["setup_s"], res["setup_kernel_s"]))
        res = worker(args, os.path.join(workdir, "run"),
                     DEADLINE_S - (time.monotonic() - start))
        setups.append((res["setup_s"], res["setup_kernel_s"]))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return fail(f"benchmark did not complete: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    report(args, environment(args), setups, res)
    return 0


if __name__ == "__main__":
    sys.exit(main())
