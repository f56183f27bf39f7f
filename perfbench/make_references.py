"""Regenerate references.json: the outputs of every pool member.

    PYTHONPATH=src python3 perfbench/make_references.py

Runs the program once per run-workload pool member and once over the whole
verify-ensemble pool, through the same command-line entry point the
benchmark times. Regenerate only when a change is meant to alter results by
more than roundoff, and say so where the change is described.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile

import workloads


def cli(argv):
    from qnslab import cli as qcli
    with contextlib.redirect_stdout(io.StringIO()):
        return qcli.main(argv)


def run_references(name, workdir):
    refs = {}
    for member in range(workloads.RUN_POOL):
        config = workloads.run_config(name, member, workdir)
        out = os.path.join(workdir, f"{name}-out{member}")
        if cli(["run", "--config", config, "--out", out]) != 0:
            raise RuntimeError(f"{name} member {member} did not complete")
        refs[str(member)] = workloads.run_observables(out)
    return refs


def ensemble_references(workdir):
    pool = list(range(workloads.ENSEMBLE_POOL))
    config = workloads.verify_config(
        workdir, "pool", ["identity", "inequality"], pool,
        workloads.ENSEMBLE_GRIDS)
    out = os.path.join(workdir, "pool-out")
    if cli(["verify", "--config", config, "--out", out]) != 0:
        raise RuntimeError("the verify-ensemble pool does not pass")
    refs = {}
    for suite in ("identity", "inequality"):
        _, results = workloads.verify_results(out, suite)
        table = refs.setdefault(suite, {})
        for r in results:
            margins = table.setdefault(workloads.grid_key(r["grid"]), {}) \
                .setdefault(r["check"], [None] * len(pool))
            margins[r["seed"]] = r["margin"]
    return refs


def main():
    with tempfile.TemporaryDirectory(dir=workloads.HERE) as workdir:
        refs = {name: run_references(name, workdir)
                for name in ("run-2d", "run-1d")}
        refs["verify-ensemble"] = ensemble_references(workdir)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
