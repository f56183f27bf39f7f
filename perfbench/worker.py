"""One benchmark process, started by run.py in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --workdir DIR
        [--setup-only] [--seconds S] [--trace 0|1]

Times the set-up (``import qnslab`` plus building the workload's inputs).
Unless ``--setup-only``, it then runs the identity canary once, untimed, and
timed passes of the workload until ``--seconds`` have elapsed, checking every
pass's outputs. With ``--trace 1`` the passes alternate untraced and traced,
and the layer probe runs at the end. The last stdout line is a JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time

import calibrate
import workloads

MIN_PASSES = 3
KERNEL_SHARE = 0.5


def call_cli(argv):
    """(exit code, error) of one in-process ``qnslab`` invocation; the
    command's own stdout is discarded."""
    from qnslab import cli
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv), None
    except Exception as exc:  # a crash fails the pass; the run goes on
        return None, f"{type(exc).__name__}: {exc}"


def one_pass(inputs, outdir, refs):
    """(seconds, problems) of one pass, timed around the command only."""
    t0 = time.perf_counter()
    code, error = call_cli(workloads.argv_for(inputs, outdir))
    seconds = time.perf_counter() - t0
    if error is not None:
        return seconds, [error]
    try:
        problems = workloads.check_pass(inputs, outdir, code, refs)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return seconds, problems


def canary(inputs, workdir):
    outdir = os.path.join(workdir, "canary-out")
    code, error = call_cli(["verify", "--config", inputs["canary"],
                            "--out", outdir])
    if error is not None:
        return [error]
    try:
        return workloads.check_canary(outdir, code, inputs["canary_seeds"])
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable canary output: {type(exc).__name__}: {exc}"]


def kernel_burst(budget_s):
    """Median time of reference-kernel runs repeated until their total time
    reaches ``budget_s`` (at least one run)."""
    times = [calibrate.kernel_s()]
    while sum(times) < budget_s:
        times.append(calibrate.kernel_s())
    return statistics.median(times)


def measure(inputs, workdir, seconds, tracer):
    """Timed passes, each preceded by reference-kernel runs that take about
    KERNEL_SHARE of the pass time; the machine's speed is taken from them."""
    refs = workloads.load_references()
    ops = inputs["ops"]
    passes, layers, problems = [], [], []
    last_pass_s = 0.0
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    min_passes = 2 * MIN_PASSES if tracer else MIN_PASSES
    i = 0
    while i < min_passes or time.perf_counter() < deadline:
        kernel_s = kernel_burst(KERNEL_SHARE * last_pass_s)
        outdir = os.path.join(workdir, f"pass{i}")
        tracing = tracer is not None and i % 2 == 1
        if tracing:
            tracer.reset()
            tracer.install()
        try:
            pass_s, pass_problems = one_pass(inputs, outdir, refs)
        finally:
            if tracing:
                tracer.uninstall()
        last_pass_s = pass_s
        passes.append({"seconds": pass_s, "kernel_s": kernel_s,
                       "traced": tracing})
        if tracing:
            import spans
            layers.append(spans.layer_metrics(tracer.spans, pass_s, ops))
            tracer.reset()
        attempted += ops
        if pass_problems:
            failed += ops
            problems.extend(p for p in pass_problems if p not in problems)
        shutil.rmtree(outdir, ignore_errors=True)
        i += 1
    return {"passes": passes, "layers": layers, "attempted": attempted,
            "failed": failed, "problems": problems}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    os.makedirs(args.workdir, exist_ok=True)

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.add_transforms()
        tracer.install()
    t0 = time.perf_counter()
    inputs = workloads.setup(args.workload, args.seed, args.workdir)
    result = {"setup_s": time.perf_counter() - t0}
    result["setup_kernel_s"] = kernel_burst(3 * calibrate.REFERENCE_S)
    if args.setup_only:
        print(json.dumps(result))
        return 0
    if tracer is not None:
        tracer.add_program()
        tracer.uninstall()
        tracer.reset()

    result["canary_problems"] = canary(inputs, args.workdir)
    result.update(measure(inputs, args.workdir, args.seconds, tracer))
    result["ops"] = inputs["ops"]
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        import probe
        layer = {key: statistics.median(m[key] for m in result["layers"])
                 for key in result["layers"][0]}
        median_s = {flag: statistics.median(
            p["seconds"] for p in result["passes"] if p["traced"] == flag)
            for flag in (True, False)}
        layer["trace.overhead_frac"] = median_s[True] / median_s[False] - 1.0
        layer.update(probe.run_probe(tracer, args.seed))
        result["layers"] = {
            key: {"value": value, "unit": spans.UNITS[key.rsplit(".", 1)[1]]}
            for key, value in layer.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
