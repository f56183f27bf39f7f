"""Batch verification suites over seeded field ensembles.

Three suites: identity (exact algebraic identities of the operators),
inequality (the functional inequalities with their stated constants), and
dynamics (time-dependent structure: steady states, mass balance,
formulation equivalence, weak residual). Reports are machine-readable and
every failure carries enough metadata (check, seed, grid) to reproduce it
in isolation. Each identity suite can also run a deliberate "canary"
perturbation that must fail, proving the checks are not vacuous.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .fields import (Grid, check_smooth_args, grad_arr, in_workspace, quad,
                     random_smooth_ensemble, release)
from .functionals import (div_vs_D_batch, flux_identity_batch, grad6_batch,
                          grad_sqrtrho_u_batch, jungel_batch)
from .initdata import mollify, scenario
from .physics import Derived, State, bohm_arr, chunk_size
from .systems import WeakResidual, trig_test_function
from .timeloop import (EnergyBudget, IntegratorConfig, equivalence_run,
                       integrate)

IDENTITY_CHECKS = ("bohm-forms", "flux-identity-0", "flux-identity-2",
                   "grad-sqrtrho-u")
INEQUALITY_CHECKS = ("jungel-quartic", "jungel-hessian", "grad6", "div-vs-D")
DYNAMICS_CHECKS = ("steady-battery", "mass-balance", "equivalence",
                   "vacuum-band")
ALL_CHECKS = IDENTITY_CHECKS + INEQUALITY_CHECKS + DYNAMICS_CHECKS
SUITE_CHECKS = {"identity": IDENTITY_CHECKS, "inequality": INEQUALITY_CHECKS,
                "dynamics": DYNAMICS_CHECKS}


@dataclass(frozen=True)
class SuiteConfig:
    seeds: tuple = tuple(range(100))
    grids: tuple = ((128,), (64, 64))
    modes: int = 6
    floor: float = 4.0
    checks: tuple = IDENTITY_CHECKS
    rel_tol: float = 1e-8
    canary: bool = False

    def __post_init__(self):
        if not self.seeds:
            raise ValueError("seeds must be nonempty")
        if not all(isinstance(s, numbers.Integral) and s >= 0
                   and not isinstance(s, bool) for s in self.seeds):
            raise ValueError(f"seeds must be nonnegative integers: "
                             f"{self.seeds}")
        if not self.checks:
            raise ValueError("checks must be nonempty")
        for c in self.checks:
            if c not in ALL_CHECKS:
                raise ValueError(f"unknown check {c!r}; known: {ALL_CHECKS}")
        if not (isinstance(self.rel_tol, numbers.Real)
                and math.isfinite(self.rel_tol)):
            raise ValueError(f"rel_tol must be a finite number: "
                             f"{self.rel_tol!r}")
        if not self.grids:
            raise ValueError("grids must be nonempty")
        # each grid's ensemble must be one random_smooth_ensemble accepts
        for spec in self.grids:
            check_smooth_args(Grid(spec), self.modes, self.floor)


@dataclass(frozen=True)
class CheckResult:
    check: str
    seed: int
    grid: tuple
    margin: float       # > 0 means pass, with room to spare
    passed: bool
    detail: str = ""

    def __post_init__(self):
        # checks may compute the verdict as numpy.bool, which json rejects
        object.__setattr__(self, "passed", bool(self.passed))

    def to_json(self):
        return json.dumps({
            "check": self.check, "seed": self.seed, "grid": list(self.grid),
            "margin": self.margin, "passed": self.passed,
            "detail": self.detail})


@dataclass(frozen=True)
class CheckAggregate:
    check: str
    count: int
    failures: int
    worst_margin: float
    worst_seed: int
    worst_grid: tuple


@dataclass
class SuiteReport:
    suite: str
    results: list = field(default_factory=list)

    @property
    def overall_pass(self):
        return all(r.passed for r in self.results)

    def aggregates(self):
        by_check = {}
        for r in self.results:
            by_check.setdefault(r.check, []).append(r)
        out = []
        for check in sorted(by_check):
            rs = by_check[check]
            worst = min(rs, key=lambda r: r.margin)
            out.append(CheckAggregate(
                check=check, count=len(rs),
                failures=sum(not r.passed for r in rs),
                worst_margin=worst.margin, worst_seed=worst.seed,
                worst_grid=worst.grid))
        return out

    def failures(self):
        return [r for r in self.results if not r.passed]

    def to_json(self):
        return json.dumps({
            "suite": self.suite,
            "overall_pass": self.overall_pass,
            "checks": [{
                "check": a.check, "count": a.count, "failures": a.failures,
                "worst_margin": a.worst_margin, "worst_seed": a.worst_seed,
                "worst_grid": list(a.worst_grid),
            } for a in self.aggregates()],
        }, indent=2)

    def to_jsonl(self):
        return "\n".join(r.to_json() for r in self.results)


def _rel_l2(grid, a, b):
    """Per-field relative L2 distance of two vector stacks."""
    ca = -grid.dim - 1
    num = np.sqrt(quad(grid, np.sum((a - b) ** 2, axis=ca)))
    den = np.sqrt(quad(grid, np.sum(a * a, axis=ca)))
    return np.where(den > 0, num / np.where(den > 0, den, 1.0), num)


def _canary_bohm(d):
    """Form C deliberately corrupted by +1e-3 * grad(rho)."""
    return bohm_arr(d, form="C") + 1e-3 * grad_arr(d.grid, d.rho)


def _bohm_error(d, canary):
    """Per-field largest pairwise relative L2 distance of the three Bohm
    forms (form C corrupted if canary)."""
    grid = d.grid
    fa = bohm_arr(d, "A")
    fb = bohm_arr(d, "B")
    fc = _canary_bohm(d) if canary else bohm_arr(d, "C")
    errors = np.maximum(np.maximum(_rel_l2(grid, fa, fb),
                                   _rel_l2(grid, fa, fc)),
                        _rel_l2(grid, fb, fc)).tolist()
    release(fa, fb, fc)
    return errors


def _identity_chunk(d, config):
    """{check: [(margin, passed, detail) per seed]} of the exact-identity
    checks (Bohm forms, quartic flux identity, product rule) on the bundle
    of one chunk."""
    checks, tol = config.checks, config.rel_tol
    out = {}
    if "bohm-forms" in checks:
        out["bohm-forms"] = [(tol - e, e < tol,
                              f"max pairwise rel L2 = {e:.3e}")
                             for e in _bohm_error(d, config.canary)]
    flux = {0: "flux-identity-0", 2: "flux-identity-2"}
    exponents = [p for p, name in flux.items() if name in checks]
    if exponents:
        reports = flux_identity_batch(d, exponents, tol)
        for p in exponents:
            out[flux[p]] = [
                (fr.margin, fr.passed,
                 f"|lhs-rhs| = {fr.lhs:.3e}, allowance = {fr.rhs:.3e}")
                for fr in reports[p]]
    if "grad-sqrtrho-u" in checks:
        out["grad-sqrtrho-u"] = [
            (fr.margin, fr.passed,
             f"nodal max = {fr.lhs:.3e}, allowance = {fr.rhs:.3e}")
            for fr in grad_sqrtrho_u_batch(d, tol=tol)]
    return out


def _inequality_chunk(d, config):
    """{check: [(margin, passed, detail) per seed]} of the functional
    inequalities with their stated constants on the bundle of one chunk; a
    check passes when lhs <= rhs."""
    checks = config.checks
    reports = {}
    if "jungel-quartic" in checks or "jungel-hessian" in checks:
        reports["jungel-quartic"], reports["jungel-hessian"] = \
            jungel_batch(d)
    if "grad6" in checks:
        reports["grad6"] = grad6_batch(d)
    if "div-vs-D" in checks:
        reports["div-vs-D"] = div_vs_D_batch(d)
    return {name: [(fr.margin, fr.passed,
                    f"lhs = {fr.lhs:.6e}, rhs = {fr.rhs:.6e}") for fr in frs]
            for name, frs in reports.items() if name in checks}


# The bundle pieces each seeded check reads. A chunk's bundle loads those
# of every check its suites run before any check, so each input is
# transformed once and its pieces are inverted together.
CHECK_PIECES = {
    "bohm-forms": ("lap_sqrt_rho", "hess_log_rho", "grad_sqrt_rho",
                   "lap_rho"),
    "flux-identity-0": ("grad_sqrt_rho", "hess_sqrt_rho"),
    "flux-identity-2": ("grad_sqrt_rho", "hess_sqrt_rho"),
    "grad-sqrtrho-u": ("jac_sqrt_rho_u", "grad_rho14", "jac_u"),
    "jungel-quartic": ("grad_rho14", "hess_sqrt_rho", "hess_log_rho"),
    "jungel-hessian": ("grad_rho14", "hess_sqrt_rho", "hess_log_rho"),
    "grad6": ("grad_sqrt_rho", "lap_sqrt_rho"),
    "div-vs-D": ("jac_u",),
}


SEEDED_SUITES = {"identity": _identity_chunk, "inequality": _inequality_chunk}


def _ensemble_key(config):
    """Seeded suites with equal keys evaluate the same (rho, u) chunks."""
    return (tuple(config.seeds), tuple(map(tuple, config.grids)),
            config.modes, config.floor)


def _run_seeded(names, configs, reports):
    """Evaluate the seeded suites that share one ensemble, chunk by chunk:
    each chunk is generated once and read by every suite of names."""
    config = configs[names[0]]
    seeds = list(config.seeds)
    pieces = [p for name in names for check in SUITE_CHECKS[name]
              if check in configs[name].checks for p in CHECK_PIECES[check]]
    for spec in config.grids:
        grid = Grid(spec)
        size = chunk_size(grid)
        for start in range(0, len(seeds), size):
            _run_chunk(grid, seeds[start:start + size], spec, names, configs,
                       pieces, reports)


@in_workspace
def _run_chunk(grid, chunk, spec, names, configs, pieces, reports):
    """Generate one seed chunk, load its bundle's pieces and append every
    suite's results, in one workspace scope: the chunk's transform stacks
    come from the pool and return to it when the chunk is done. Only
    margins and detail strings leave the chunk."""
    config = configs[names[0]]
    d = Derived.of(grid, *random_smooth_ensemble(
        grid, chunk, config.modes, floor=config.floor, amplitude=1.0))
    d.load(*pieces)
    for name in names:
        out = SEEDED_SUITES[name](d, configs[name])
        results = reports[name].results
        for k, seed in enumerate(chunk):
            for check in SUITE_CHECKS[name]:
                if check in out:
                    margin, passed, detail = out[check][k]
                    results.append(CheckResult(
                        check, seed, spec, margin, passed, detail))


def check_suites(configs):
    """Raise ValueError unless every suite of {name: SuiteConfig} is known
    and lists one of its own checks, and every listed check is one suite's.
    A suite runs only its own checks: one that lists none would run nothing
    and pass, and a check no suite owns would be neither run nor reported."""
    for name, config in configs.items():
        if name not in SUITE_CHECKS:
            raise ValueError(f"unknown suite {name!r}")
        if not set(config.checks) & set(SUITE_CHECKS[name]):
            raise ValueError(
                f"suite {name!r} would run none of {list(config.checks)}; "
                f"its checks are {list(SUITE_CHECKS[name])}")
    owned = {c for name in configs for c in SUITE_CHECKS[name]}
    orphans = sorted({c for config in configs.values()
                      for c in config.checks} - owned)
    if orphans:
        raise ValueError(f"checks {orphans} belong to none of the suites "
                         f"{list(configs)}")


def run_suites(configs):
    """Run several suites, {name: SuiteConfig} -> {name: SuiteReport}.

    Seeded suites (identity, inequality) that agree on seeds, grids, modes
    and floor share one generated ensemble; each grid's seeds are evaluated
    in chunks of chunk_size(grid) seeds. The suites read one Derived bundle
    per chunk, so each input of the checks is transformed once per chunk.
    """
    check_suites(configs)
    reports = {name: SuiteReport(suite=name) for name in configs}
    shared = {}
    for name in configs:
        if name in SEEDED_SUITES:
            shared.setdefault(_ensemble_key(configs[name]), []).append(name)
    for names in shared.values():
        _run_seeded(names, configs, reports)
    if "dynamics" in configs:
        reports["dynamics"] = _run_dynamics(configs["dynamics"])
    return reports


def run_identity_suite(config):
    """Exact-identity checks over the seeded ensemble; optional canary run
    that must fail."""
    return run_suite("identity", config)


def run_inequality_suite(config):
    """Functional inequalities over the seeded ensemble; pass requires every
    report's lhs <= rhs."""
    return run_suite("inequality", config)


def _steady_battery():
    """Constant state: mass, energy-budget, and weak residuals ~ roundoff."""
    raw, params = scenario("uniform-rest", n=64)
    state = State(raw.rho0, raw.m0, form="u")
    config = IntegratorConfig.fixed_dt(1e-3, t_end=2e-2, monitor_every=1)
    budget = EnergyBudget(params, config)
    weak = WeakResidual(trig_test_function(state.grid, config.t_end), params)
    traj = integrate(state, params, config, observers=(budget, weak))
    recs = traj.records
    mass_drift = max(abs(r.mass - recs[0].mass) / recs[0].mass for r in recs)
    budget = budget.report()
    wres = weak.value()
    worst = max(mass_drift, budget.max_residual, wres)
    return CheckResult(
        "steady-battery", -1, state.grid.n, 1e-10 - worst,
        traj.failure is None and worst < 1e-10,
        f"mass drift {mass_drift:.2e}, budget {budget.max_residual:.2e}, "
        f"weak {wres:.2e}, status {traj.status}")


def _mass_balance():
    """eps > 0 continuity-source balance residual stays at truncation level."""
    raw, params = scenario("acoustic-1d", n=128)
    params = params.with_(eps=1e-3)
    state = State(raw.rho0, raw.m0, form="u")
    config = IntegratorConfig.fixed_dt(2e-4, t_end=2e-2, monitor_every=1)
    traj = integrate(state, params, config)
    worst = max(r.mass_balance_residual for r in traj.records)
    return CheckResult(
        "mass-balance", -1, state.grid.n, 1e-4 - worst,
        traj.failure is None and worst < 1e-4,
        f"worst residual {worst:.3e}, status {traj.status}")


def _equivalence():
    """u-form vs w-form short matched run stays within tolerance."""
    raw, params = scenario("acoustic-1d", n=128)
    params = params.with_(eps=1e-3)
    state = State(raw.rho0, raw.m0, form="u")
    config = IntegratorConfig.fixed_dt(1e-4, t_end=2e-2, monitor_every=10)
    rep = equivalence_run(state, params, config)
    return CheckResult(
        "equivalence", -1, state.grid.n, 1e-5 - rep.max_error,
        rep.max_error < 1e-5,
        f"max-in-time L2 discrepancy {rep.max_error:.3e}")


def _vacuum_band():
    """Mollified vacuum data integrates with a strictly positive band."""
    raw, params = scenario("vacuum-bump-1d", n=128)
    state = mollify(raw, params.eps, params)
    config = IntegratorConfig.fixed_dt(1e-4, t_end=1e-2, monitor_every=10)
    traj = integrate(state, params, config)
    rho_min = min(r.rho_min for r in traj.records)
    rho_max = max(r.rho_max for r in traj.records)
    ok = traj.failure is None and rho_min > 0
    return CheckResult(
        "vacuum-band", -1, state.grid.n, rho_min, ok,
        f"band [{rho_min:.4e}, {rho_max:.4e}], status {traj.status}")


# The dynamics checks in report order: each runs its canonical scenario and
# returns one CheckResult.
DYNAMICS = {"steady-battery": _steady_battery, "mass-balance": _mass_balance,
            "equivalence": _equivalence, "vacuum-band": _vacuum_band}


def run_dynamics_suite(config):
    """Time-dependent structure checks on canonical scenarios (seeds unused:
    each check is a deterministic canonical run)."""
    return run_suite("dynamics", config)


def _run_dynamics(config):
    return SuiteReport("dynamics", [run() for check, run in DYNAMICS.items()
                                    if check in config.checks])


def run_suite(name, config):
    return run_suites({name: config})[name]
