"""Workload definitions: seeded inputs, one timed pass, and its output check.

Every workload drives the public command-line entry point
``qnslab.cli.main`` in process. A pass is one ``qnslab run`` or
``qnslab verify`` invocation; its operations are counted per workload:

* ``run-2d`` / ``run-1d``: one accepted time step;
* ``verify-ensemble`` / ``dynamics-1d``: one check instance
  (seed x grid x check).

Inputs come from a per-workload pool of member seeds. The workload seed picks
members from the pool, so every seed has recorded reference outputs in
``references.json`` (written by ``make_references.py``) and a pass can be
checked against them to roundoff tolerance.

Nothing here imports numpy or qnslab at module level: set-up time includes
those imports.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "references.json")

# u-form IMEX runs with the eps > 0 regularization switched on
RUN_PARAMS = {"nu": 1.0, "kappa": 1.0 / 11.0, "eps": 1e-3}
RUN_MODES = 6
RUN_FLOOR = 4.0
RUN_POOL = 16

ENSEMBLE_POOL = 400
ENSEMBLE_SIZE = 25
ENSEMBLE_GRIDS = ((128,), (64, 64))
CANARY_SIZE = 4

# Reference tolerances. A time-stepped functional may move by roundoff
# amplified over the run; an inequality margin by roundoff of its two sides.
# An identity margin is (allowance - residual) where the residual itself is
# roundoff, so only its order of magnitude is stable.
RUN_RTOL = 1e-8
RUN_DRIFT_ATOL = 1e-12
INEQUALITY_RTOL = 1e-8
INEQUALITY_ATOL = 1e-12
IDENTITY_RTOL = 0.5

IDENTITY_CHECKS = ("bohm-forms", "flux-identity-0", "flux-identity-2",
                   "grad-sqrtrho-u")
INEQUALITY_CHECKS = ("jungel-quartic", "jungel-hessian", "grad6", "div-vs-D")
DYNAMICS_CHECKS = ("steady-battery", "mass-balance", "equivalence",
                   "vacuum-band")

# Workload names; why each exists, what its operation is and what each
# layer metric should move sit in notes.json.
NAMES = ("run-2d", "run-1d", "verify-ensemble", "dynamics-1d")

# `qnslab run` passes: fixed dt, so both commits compared take the same steps
RUNS = {
    "run-2d": {"grid": (128, 128), "dt": 2e-4, "steps": 10,
               "monitor_every": 10},
    "run-1d": {"grid": (128,), "dt": 2e-4, "steps": 100, "monitor_every": 1},
}


def run_member(seed):
    return seed % RUN_POOL


def ensemble_members(seed, size=ENSEMBLE_SIZE):
    return sorted(random.Random(seed).sample(range(ENSEMBLE_POOL), size))


def grid_key(spec):
    return "x".join(str(m) for m in spec)


def load_references():
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def run_config(name, member, workdir):
    """Write the seeded snapshots and the run config; return the config path.

    Builds the state through the public field generators, writes it as
    qnslab-field snapshots and reads it back, so a snapshot that does not
    round-trip exactly stops the benchmark before any timing.
    """
    import numpy as np
    import qnslab

    spec = RUNS[name]
    grid = qnslab.Grid(spec["grid"])
    rho = qnslab.random_smooth_positive(grid, member, RUN_MODES, RUN_FLOOR)
    vel = qnslab.random_smooth_vector(grid, member, RUN_MODES)
    paths = {}
    for key, field in (("rho", rho), ("vel", vel)):
        paths[key] = os.path.join(workdir, f"{name}-m{member}-{key}.dat")
        qnslab.write_field(paths[key], field, key)
        back, _, _ = qnslab.read_field(paths[key])
        if back.grid != grid or not np.array_equal(back.values, field.values):
            raise RuntimeError(f"snapshot did not round-trip: {paths[key]}")
    dt = spec["dt"]
    cfg = {
        "snapshot": paths["rho"],
        "snapshot_velocity": paths["vel"],
        "params": dict(RUN_PARAMS),
        "integrator": {
            "scheme": "imex", "dt_init": dt, "dt_min": dt, "dt_max": dt,
            "t_end": spec["steps"] * dt,
            "monitor_every": spec["monitor_every"],
        },
    }
    qnslab.QnsParams(**cfg["params"])
    qnslab.IntegratorConfig(**cfg["integrator"])
    path = os.path.join(workdir, f"{name}-m{member}.json")
    _write_json(path, cfg)
    return path


def verify_config(workdir, label, suites, seeds, grids, canary=False):
    """Write a suite config after validating it through SuiteConfig."""
    import qnslab

    checks = {"identity": IDENTITY_CHECKS, "inequality": INEQUALITY_CHECKS,
              "dynamics": DYNAMICS_CHECKS}
    for spec in grids:
        qnslab.Grid(spec)
    for suite in suites:
        qnslab.SuiteConfig(seeds=tuple(seeds), grids=tuple(grids),
                           checks=checks[suite], canary=canary)
    cfg = {"suites": list(suites), "seeds": list(seeds),
           "grids": [list(g) for g in grids]}
    if canary:
        cfg["canary"] = True
    path = os.path.join(workdir, f"{label}.json")
    _write_json(path, cfg)
    return path


def setup(name, seed, workdir):
    """Build the workload's inputs; returns what a pass and its check need."""
    import qnslab  # noqa: F401  (set-up time includes the import)

    canary_seeds = ensemble_members(seed, CANARY_SIZE)
    inputs = {
        "name": name,
        "seed": seed,
        "canary": verify_config(workdir, "canary", ["identity"], canary_seeds,
                                ENSEMBLE_GRIDS, canary=True),
        "canary_seeds": canary_seeds,
    }
    if name in RUNS:
        member = run_member(seed)
        inputs["member"] = member
        inputs["config"] = run_config(name, member, workdir)
        inputs["ops"] = RUNS[name]["steps"]
    elif name == "verify-ensemble":
        members = ensemble_members(seed)
        inputs["members"] = members
        inputs["config"] = verify_config(
            workdir, "ensemble", ["identity", "inequality"], members,
            ENSEMBLE_GRIDS)
        inputs["ops"] = (len(members) * len(ENSEMBLE_GRIDS)
                         * (len(IDENTITY_CHECKS) + len(INEQUALITY_CHECKS)))
    elif name == "dynamics-1d":
        for scen in ("uniform-rest", "acoustic-1d", "vacuum-bump-1d"):
            qnslab.scenario(scen, n=128)
        inputs["config"] = verify_config(workdir, "dynamics", ["dynamics"],
                                         [0], ENSEMBLE_GRIDS)
        inputs["ops"] = len(DYNAMICS_CHECKS)
    else:
        raise KeyError(f"unknown workload {name!r}")
    return inputs


def argv_for(inputs, outdir):
    command = "run" if inputs["name"] in RUNS else "verify"
    return [command, "--config", inputs["config"], "--out", outdir]


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems (empty means correct)
# ---------------------------------------------------------------------------

def _close(value, ref, rtol, atol):
    return (isinstance(value, (int, float)) and math.isfinite(value)
            and abs(value - ref) <= rtol * abs(ref) + atol)


def run_outputs(outdir):
    """(summary, monitor rows) of one ``qnslab run`` output directory."""
    with open(os.path.join(outdir, "summary.json")) as fh:
        summary = json.load(fh)
    with open(os.path.join(outdir, "monitors.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    return summary, rows


def run_observables(outdir):
    summary, rows = run_outputs(outdir)
    mass0 = float(rows[0]["mass"])
    return {
        "mass_drift": (summary["final"]["mass"] - mass0) / mass0,
        "energy": summary["final"]["energy"],
        "bd_entropy": summary["final"]["bd_entropy"],
    }


def check_run(inputs, outdir, code, refs):
    spec = RUNS[inputs["name"]]
    problems = []
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    summary, rows = run_outputs(outdir)
    if summary.get("status") != "completed":
        problems.append(f"status {summary.get('status')!r}")
    t_end = spec["steps"] * spec["dt"]
    if not _close(summary.get("final_time"), t_end, 1e-12, 0.0):
        problems.append(f"final_time {summary.get('final_time')} != {t_end}")
    records = 1 + spec["steps"] // spec["monitor_every"]
    if len(rows) != records:
        problems.append(f"{len(rows)} monitor rows, expected {records}")
    ref = refs[inputs["name"]][str(inputs["member"])]
    got = run_observables(outdir)
    for key, value in got.items():
        atol = RUN_DRIFT_ATOL if key == "mass_drift" else 0.0
        if not _close(value, ref[key], RUN_RTOL, atol):
            problems.append(f"{key} {value!r} differs from reference "
                            f"{ref[key]!r}")
    return problems


def verify_results(outdir, suite):
    """(report dict, list of per-instance result dicts) of one suite."""
    with open(os.path.join(outdir, f"{suite}_report.json")) as fh:
        report = json.load(fh)
    with open(os.path.join(outdir, f"{suite}_results.jsonl")) as fh:
        results = [json.loads(line) for line in fh if line.strip()]
    return report, results


def _margin_ok(check, margin, ref):
    if check in IDENTITY_CHECKS:
        return _close(margin, ref, IDENTITY_RTOL, 0.0)
    return _close(margin, ref, INEQUALITY_RTOL, INEQUALITY_ATOL)


def check_ensemble(inputs, outdir, code, refs):
    problems = []
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    members = inputs["members"]
    for suite, checks in (("identity", IDENTITY_CHECKS),
                          ("inequality", INEQUALITY_CHECKS)):
        report, results = verify_results(outdir, suite)
        suite_refs = refs["verify-ensemble"][suite]
        if report.get("overall_pass") is not True:
            problems.append(f"{suite}: overall_pass is not true")
        expected = len(members) * len(ENSEMBLE_GRIDS) * len(checks)
        if len(results) != expected:
            problems.append(f"{suite}: {len(results)} results, "
                            f"expected {expected}")
        counts = {a["check"]: a["count"] for a in report.get("checks", [])}
        for check in checks:
            if counts.get(check) != len(members) * len(ENSEMBLE_GRIDS):
                problems.append(f"{suite}/{check}: count {counts.get(check)}")
        for agg in report.get("checks", []):
            worst = min(suite_refs[grid_key(g)][agg["check"]][m]
                        for g in ENSEMBLE_GRIDS for m in members)
            if not _margin_ok(agg["check"], agg["worst_margin"], worst):
                problems.append(f"{suite}/{agg['check']}: worst margin "
                                f"{agg['worst_margin']!r}, reference {worst!r}")
        for r in results:
            ref = suite_refs[grid_key(r["grid"])][r["check"]][r["seed"]]
            if r["passed"] is not True or not _margin_ok(
                    r["check"], r["margin"], ref):
                problems.append(f"{suite}/{r['check']} seed {r['seed']} grid "
                                f"{r['grid']}: margin {r['margin']!r}, "
                                f"reference {ref!r}, passed {r['passed']}")
    return problems[:20]


def check_dynamics(inputs, outdir, code, refs):
    problems = []
    if code != 0:
        problems.append(f"exit code {code}, expected 0")
    report, results = verify_results(outdir, "dynamics")
    if report.get("overall_pass") is not True:
        problems.append("dynamics: overall_pass is not true")
    if sorted(r["check"] for r in results) != sorted(DYNAMICS_CHECKS):
        problems.append("dynamics: unexpected result set")
    return problems


def check_pass(inputs, outdir, code, refs):
    name = inputs["name"]
    if name in RUNS:
        return check_run(inputs, outdir, code, refs)
    if name == "verify-ensemble":
        return check_ensemble(inputs, outdir, code, refs)
    return check_dynamics(inputs, outdir, code, refs)


def check_canary(outdir, code, seeds):
    """The corrupted Bohm form must fail every bohm-forms instance and only
    those; otherwise the identity checks have become vacuous."""
    problems = []
    if code != 1:
        problems.append(f"canary exit code {code}, expected 1")
    _, results = verify_results(outdir, "identity")
    bohm = [r for r in results if r["check"] == "bohm-forms"]
    if len(bohm) != len(seeds) * len(ENSEMBLE_GRIDS):
        problems.append(f"canary: {len(bohm)} bohm-forms results")
    if any(r["passed"] for r in bohm):
        problems.append("canary: a corrupted bohm-forms instance passed")
    if any(not r["passed"] for r in results if r["check"] != "bohm-forms"):
        problems.append("canary: an uncorrupted identity check failed")
    return problems
