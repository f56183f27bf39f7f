"""Command-line entry point.

Subcommands:
  run     integrate a scenario, writing monitors.csv, a final snapshot, and
          summary.json into the output directory
  verify  execute the verification suites from a suite config, writing
          report.json and results.jsonl
  sweep   cartesian sweep over (kappa, r0, r1, eps) axes; one run per point,
          aggregated sup-in-time functional table as sweep.csv
  report  render a monitors.csv into a human-readable summary table

Exit codes: 0 success; 1 verification/run check failure; 2 configuration
error; 3 positivity failure during integration. Configs are JSON files; the
QNSLAB_OUT environment variable may override the output directory (nothing
else is overridable from the environment). The output directory is created
only once the config is validated, so a configuration error writes nothing.

The run-only modules (the time integrator, the scenarios, snapshot I/O)
are imported by the functions that use them, so `verify` without the
dynamics suite loads none of them.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys

import numpy as np

from .fields import VectorField, as_bool, as_int, fork_map
from .functionals import MONITOR_COLUMNS
from .physics import (MODES, AdmissibilityError, QnsParams, State,
                      VacuumError, check_constraints, paper_params)
from .verify import SUITE_CHECKS, SuiteConfig, check_suites, run_suites

EXIT_OK = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_POSITIVITY = 3

# The keys a config may hold. run and sweep read one format (run ignores the
# sweep block); a verify config takes SUITE_KEYS, at the top level and in a
# block for each suite it runs.
RUN_KEYS = ("scenario", "n", "snapshot", "snapshot_velocity", "mollify",
            "strict", "mode", "params", "integrator", "sweep", "out")
SUITE_KEYS = ("seeds", "num_seeds", "grids", "modes", "floor", "rel_tol",
              "canary", "checks")


class ConfigError(ValueError):
    pass


def _load_config(path):
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _block(cfg, key):
    """A copy of the object cfg[key], empty if the key is absent."""
    block = cfg.get(key, {})
    if not isinstance(block, dict):
        raise ConfigError(f"{key!r} must be an object, got {block!r}")
    return dict(block)


def _require_known(cfg, keys, where):
    """Raise ConfigError naming the keys of cfg that are not among keys."""
    unknown = sorted(set(cfg) - set(keys))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}; "
                          f"allowed: {sorted(keys)}")


def _path(cfg, key):
    """cfg[key], which must be a path (a string), or None if the key is
    absent."""
    if key not in cfg:
        return None
    path = cfg[key]
    if not isinstance(path, str):
        raise ConfigError(f"{key} must be a path, got {path!r}")
    return path


def _out_dir(cfg, args):
    """The output directory, created; called once the config is valid."""
    out = os.environ.get("QNSLAB_OUT") or args.out or _path(cfg, "out") or "."
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory: {exc}") from exc
    return out


def _mode(cfg, args):
    mode = args.mode or cfg.get("mode", "desk")
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; known: {MODES}")
    return mode


def _build_params(cfg, mode, overrides=()):
    """The params of the params block with the overrides, in the mode; a
    top-level strict sets params.strict. Call it after _shared(cfg)."""
    block = _block(cfg, "params")
    block.update(overrides)
    if cfg.get("strict", False):
        block["strict"] = True
    try:
        return (paper_params if mode == "paper" else QnsParams)(**block)
    except AdmissibilityError as exc:
        raise ConfigError(str(exc)) from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid params block: {exc}") from exc


def _build_integrator(cfg):
    from .timeloop import IntegratorConfig
    block = _block(cfg, "integrator")
    try:
        return IntegratorConfig(**block)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid integrator block: {exc}") from exc


def _read_snapshot(path):
    from .snapshots import read_field
    if not os.path.exists(path):
        raise ConfigError(f"snapshot not found: {path}")
    try:
        return read_field(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"bad snapshot: {exc}") from exc


def _initial_source(cfg):
    """The snapshot State, or the raw data of the scenario: the part of the
    initial state that no params override changes."""
    from .initdata import SCENARIOS, scenario
    if "snapshot" in cfg:
        rho, _, time = _read_snapshot(_path(cfg, "snapshot"))
        vel_path = _path(cfg, "snapshot_velocity")
        vel = (_read_snapshot(vel_path)[0] if vel_path
               else VectorField.zero(rho.grid))
        try:
            return State(rho, vel, form="u", time=time)
        except ValueError as exc:
            raise ConfigError(f"snapshots do not match: {exc}") from exc
    name = cfg.get("scenario")
    if name not in SCENARIOS:
        raise ConfigError(f"unknown scenario {name!r}; known: {SCENARIOS}")
    try:
        raw, _ = scenario(name, n=cfg.get("n", 128))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad grid for scenario {name!r}: {exc}") from exc
    return raw


def _build_initial(cfg, params, raw):
    """The initial State from _initial_source: a snapshot as it is, scenario
    data mollified if it asks for it or touches vacuum."""
    from .initdata import mollify
    if isinstance(raw, State):
        return raw
    if cfg.get("mollify", False) or np.min(raw.rho0.values) <= 0:
        if params.eps <= 0:
            raise ConfigError("mollification requires eps > 0")
        return mollify(raw, params.eps, params)
    return State(raw.rho0, raw.m0, form="u")


def _write_monitors(path, records):
    """monitors.csv as csv.writer writes it: a header and one row per
    record, each cell the repr of a float, which never needs quoting, and
    CRLF line ends; built as one string and written at once."""
    lines = [",".join(MONITOR_COLUMNS)]
    for r in records:
        lines.append(",".join(map(repr, map(float, r.row()))))
    lines.append("")
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines))


def _shared(cfg):
    """(integrator config, initial source) of a config: what every sweep
    point shares, its mollify and strict flags checked, no mode in its
    params block, and a snapshot's time not beyond t_end."""
    from .timeloop import T_END_TOL
    try:
        for key in ("mollify", "strict"):
            as_bool(key, cfg.get(key, False))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if "mode" in _block(cfg, "params"):
        raise ConfigError("the params block takes no 'mode': set the mode "
                          "with the top-level 'mode' key or --mode")
    config, source = _build_integrator(cfg), _initial_source(cfg)
    if isinstance(source, State) and source.time > config.t_end + T_END_TOL:
        # no step would run, and the run would report completed
        raise ConfigError(f"snapshot time {source.time!r} is beyond t_end "
                          f"{config.t_end!r}")
    return config, source


def _prepare_run(cfg, mode, overrides=(), shared=None):
    """(params, integrator config, initial state, constraint report,
    initial-data report) of a run config with the params overrides applied;
    raises ConfigError unless the run may start. shared is _shared(cfg),
    built here if not given."""
    from .initdata import validate_initial
    config, raw = shared or _shared(cfg)
    params = _build_params(cfg, mode, overrides)
    constraint_report = check_constraints(params)
    try:
        # mollify raises VacuumError where its floor underflows
        initial = _build_initial(cfg, params, raw)
        init_report = validate_initial(initial, params)
    except VacuumError as exc:
        raise ConfigError(f"initial density must be positive and finite: "
                          f"{exc}") from exc
    vel = initial.vel.values
    bad = vel.size - np.count_nonzero(np.isfinite(vel))
    if bad:
        raise ConfigError(f"initial velocity must be finite: {bad} "
                          f"non-finite node value(s)")
    return params, config, initial, constraint_report, init_report


def cmd_run(args):
    from .snapshots import write_field
    from .timeloop import PositivityError, integrate
    cfg = _load_config(args.config)
    _require_known(cfg, RUN_KEYS, "the run config")
    params, config, initial, constraint_report, init_report = _prepare_run(
        cfg, _mode(cfg, args))
    out = _out_dir(cfg, args)
    traj = integrate(initial, params, config)
    _write_monitors(os.path.join(out, "monitors.csv"), traj.records)
    for key in ("rho", "vel"):
        write_field(os.path.join(out, f"final_{key}.dat"),
                    getattr(traj.final, key), key, traj.final.time)
    final_rec = traj.records[-1]
    summary = {
        "status": traj.status,
        "final_time": final_rec.time,
        "final": {key: getattr(final_rec, key) for key in (
            "mass", "energy", "bd_entropy", "mv", "rho_min", "rho_max")},
        "initial_norms": init_report.norms,
        "constraints": [{
            "name": c.name, "lhs": c.lhs, "rhs": c.rhs,
            "passed": c.passed, "informational": c.informational,
        } for c in constraint_report.checks],
        "mode": params.mode,
    }
    with open(os.path.join(out, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"run: status={traj.status} t={final_rec.time:g} "
          f"mass={final_rec.mass:.6g} energy={final_rec.energy:.6g}")
    if isinstance(traj.failure, PositivityError):
        return EXIT_POSITIVITY
    return EXIT_OK if traj.failure is None else EXIT_CHECK_FAILURE


def _suite_config(block):
    """The SuiteConfig of a block of SUITE_KEYS; seeds win over num_seeds."""
    kwargs = {key: block[key] for key in SUITE_KEYS if key in block}
    try:
        if "num_seeds" in kwargs:
            count = as_int("num_seeds", kwargs.pop("num_seeds"))
            kwargs.setdefault("seeds", range(count))
        for key in ("seeds", "checks"):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        if "grids" in kwargs:
            kwargs["grids"] = tuple(tuple(g) for g in kwargs["grids"])
        return SuiteConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid suite config: {exc}") from exc


def cmd_verify(args):
    cfg = _load_config(args.config)
    suites = cfg.get("suites", ["identity", "inequality"])
    if not isinstance(suites, list) or not suites:
        raise ConfigError(f"suites must be a nonempty list, got {suites!r}")
    for name in suites:
        if not isinstance(name, str) or name not in SUITE_CHECKS:
            raise ConfigError(f"unknown suite {name!r}")
    _require_known(cfg, ("suites", "out", *SUITE_KEYS, *suites),
                   "the verify config")
    shared = {key: cfg[key] for key in SUITE_KEYS if key in cfg}
    configs = {}
    for name in suites:
        block = _block(cfg, name)
        _require_known(block, SUITE_KEYS, f"the {name!r} block")
        configs[name] = _suite_config(
            {"checks": SUITE_CHECKS[name], **shared, **block})
    try:
        check_suites(configs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out = _out_dir(cfg, args)
    overall = True
    for name, report in run_suites(configs).items():
        aggregates = report.aggregates()
        with open(os.path.join(out, f"{name}_report.json"), "w") as fh:
            fh.write(report.to_json(aggregates) + "\n")
        with open(os.path.join(out, f"{name}_results.jsonl"), "w") as fh:
            fh.write(report.to_jsonl() + "\n")
        for agg in aggregates:
            status = "ok" if agg.failures == 0 else "FAIL"
            print(f"verify[{name}] {agg.check}: {agg.count} checks, "
                  f"{agg.failures} failures, worst margin "
                  f"{agg.worst_margin:.3e} (seed {agg.worst_seed}) [{status}]")
        overall &= report.overall_pass
    return EXIT_OK if overall else EXIT_CHECK_FAILURE


SWEEP_AXES = ("kappa", "r0", "r1", "eps")


def cmd_sweep(args):
    import csv

    from .timeloop import integrate
    if args.threads < 1:
        raise ConfigError(f"--threads must be at least 1, got {args.threads}")
    cfg = _load_config(args.config)
    _require_known(cfg, RUN_KEYS, "the sweep config")
    mode = _mode(cfg, args)
    shared = _shared(cfg)
    sweep = _block(cfg, "sweep")
    for key, vals in sweep.items():
        if key not in SWEEP_AXES:
            raise ConfigError(f"unknown sweep axis {key!r}; "
                              f"allowed: {SWEEP_AXES}")
        if not isinstance(vals, list):
            raise ConfigError(f"sweep axis {key!r} must be a list of values")
        if not vals:
            # an empty axis leaves no point to run, and the sweep would pass
            raise ConfigError(f"sweep axis {key!r} lists no values")
    axes = [(k, sweep[k]) for k in SWEEP_AXES if k in sweep]
    if not axes:
        axes = [("eps", [_build_params(cfg, mode).eps])]
    points = list(itertools.product(*(vals for _, vals in axes)))
    names = [k for k, _ in axes]
    out = _out_dir(cfg, args)

    def one_point(point):
        """(row of sweep.csv, whether the point failed): the point run as
        `run` would run it, or an error row if the point fails validation
        or the run raises."""
        values = dict(zip(names, point))
        try:
            params, config, initial, _, _ = _prepare_run(cfg, mode, values,
                                                         shared)
            traj = integrate(initial, params, config)
        except (ValueError, RuntimeError) as exc:
            return {**values, "status": f"error: {exc}"}, True
        recs = traj.records
        return {
            **values,
            "status": traj.status,
            "sup_energy": max(r.energy for r in recs),
            "sup_bd_entropy": max(r.bd_entropy for r in recs),
            "sup_mv": max(r.mv for r in recs),
            "min_rho": min(r.rho_min for r in recs),
            "max_rho": max(r.rho_max for r in recs),
            "final_mass": recs[-1].mass,
        }, traj.failure is not None

    results = fork_map(one_point, points, [1] * len(points), args.threads)
    rows = [row for row, _ in results]
    failed = sum(bad for _, bad in results)

    columns = names + ["status", "sup_energy", "sup_bd_entropy", "sup_mv",
                       "min_rho", "max_rho", "final_mass"]
    with open(os.path.join(out, "sweep.csv"), "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, restval="")
        writer.writeheader()
        writer.writerows(rows)
    print(f"sweep: {len(rows)} runs, {failed} failed")
    return EXIT_CHECK_FAILURE if failed else EXIT_OK


def cmd_report(args):
    import csv
    cfg = _load_config(args.config) if args.config else {}
    path = _path(cfg, "monitors") or args.monitors
    _require_known(cfg, ("monitors",), "the report config")
    if not path or not os.path.exists(path):
        raise ConfigError(f"monitors CSV not found: {path}")
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        cols = [c for c in MONITOR_COLUMNS if rows and c in rows[0]]
        table = {c: [float(r[c]) for r in rows] for c in cols}
    except (OSError, ValueError, TypeError, csv.Error) as exc:
        raise ConfigError(f"unreadable monitors CSV {path}: {exc}") from exc
    if not rows:
        raise ConfigError("monitors CSV is empty")
    if "time" not in table:
        raise ConfigError(f"monitors CSV has no time column: {path}")
    print(f"{'column':<28}{'initial':>15}{'final':>15}"
          f"{'sup':>15}{'time-integral':>17}")
    times = table.pop("time")
    for col, vals in table.items():
        ti = float(np.trapezoid(vals, times)) if len(vals) > 1 else 0.0
        print(f"{col:<28}{vals[0]:>15.6e}{vals[-1]:>15.6e}"
              f"{max(vals):>15.6e}{ti:>17.6e}")
    return EXIT_OK


@functools.cache
def _parser():
    """The argument parser, built once per process; it names the command,
    and main looks up its cmd_ function when it runs."""
    parser = argparse.ArgumentParser(
        prog="qnslab",
        description="Periodic-domain simulator and verification laboratory "
                    "for a regularized quantum Navier-Stokes system.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "verify", "sweep", "report"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config path",
                       required=(name != "report"))
        # each flag only on the subcommands that read it
        if name != "report":
            p.add_argument("--out", help="output directory")
        else:
            p.add_argument("--monitors", help="monitors.csv path")
        if name in ("run", "sweep"):
            p.add_argument("--mode", choices=MODES,
                           help="constant set (overrides config)")
        if name == "sweep":
            p.add_argument("--threads", type=int, default=1)
    return parser


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return globals()[f"cmd_{args.command}"](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
