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
from dataclasses import dataclass, field

import numpy as np

from .fields import (Grid, ScalarField, VectorField, grad_arr, quad,
                     random_smooth_positive, random_smooth_vector)
from .functionals import (check_div_vs_D, check_flux_identity, check_grad6,
                          check_grad_sqrtrho_u, check_jungel)
from .initdata import mollify, scenario
from .physics import State, bohm_force
from .systems import trig_test_function, weak_residual
from .timeloop import (IntegratorConfig, energy_budget, equivalence_run,
                       integrate)

IDENTITY_CHECKS = ("bohm-forms", "flux-identity-0", "flux-identity-2",
                   "grad-sqrtrho-u")
INEQUALITY_CHECKS = ("jungel-quartic", "jungel-hessian", "grad6", "div-vs-D")
DYNAMICS_CHECKS = ("steady-battery", "mass-balance", "equivalence",
                   "vacuum-band")
ALL_CHECKS = IDENTITY_CHECKS + INEQUALITY_CHECKS + DYNAMICS_CHECKS


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
        if not self.checks:
            raise ValueError("checks must be nonempty")
        for c in self.checks:
            if c not in ALL_CHECKS:
                raise ValueError(f"unknown check {c!r}; known: {ALL_CHECKS}")
        if not self.grids:
            raise ValueError("grids must be nonempty")


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
    num = math.sqrt(quad(grid, np.sum((a - b) ** 2, axis=0)))
    den = math.sqrt(quad(grid, np.sum(a * a, axis=0)))
    return num / den if den > 0 else num


def _canary_bohm(rho):
    """Form C deliberately corrupted by +1e-3 * grad(rho)."""
    out = bohm_force(rho, form="C")
    bad = out.values + 1e-3 * grad_arr(rho.grid, rho.values)
    return VectorField(rho.grid, bad)


def run_identity_suite(config):
    """Exact-identity checks (Bohm forms, quartic flux identity, product rule)
    over the seeded ensemble; optional canary run that must fail."""
    report = SuiteReport(suite="identity")
    for spec in config.grids:
        grid = Grid(spec)
        for seed in config.seeds:
            rho = random_smooth_positive(grid, seed, config.modes,
                                         config.floor)
            u = random_smooth_vector(grid, seed, config.modes)
            v = ScalarField(grid, np.sqrt(rho.values))
            if "bohm-forms" in config.checks:
                fa = bohm_force(rho, "A").values
                fb = bohm_force(rho, "B").values
                fc = (_canary_bohm(rho).values if config.canary
                      else bohm_force(rho, "C").values)
                err = max(_rel_l2(grid, fa, fb), _rel_l2(grid, fa, fc),
                          _rel_l2(grid, fb, fc))
                report.results.append(CheckResult(
                    "bohm-forms", seed, spec, config.rel_tol - err,
                    err < config.rel_tol,
                    f"max pairwise rel L2 = {err:.3e}"))
            for r_exp, name in ((0, "flux-identity-0"), (2, "flux-identity-2")):
                if name not in config.checks:
                    continue
                fr = check_flux_identity(v, r_exp, rel_tol=config.rel_tol)
                report.results.append(CheckResult(
                    name, seed, spec, fr.margin, fr.passed,
                    f"|lhs-rhs| = {fr.lhs:.3e}, allowance = {fr.rhs:.3e}"))
            if "grad-sqrtrho-u" in config.checks:
                fr = check_grad_sqrtrho_u(rho, u, tol=config.rel_tol)
                report.results.append(CheckResult(
                    "grad-sqrtrho-u", seed, spec, fr.margin, fr.passed,
                    f"nodal max = {fr.lhs:.3e}, allowance = {fr.rhs:.3e}"))
    return report


def run_inequality_suite(config):
    """Functional inequalities with their stated constants over the
    ensemble; pass requires every report's lhs <= rhs."""
    report = SuiteReport(suite="inequality")
    for spec in config.grids:
        grid = Grid(spec)
        for seed in config.seeds:
            rho = random_smooth_positive(grid, seed, config.modes,
                                         config.floor)
            v = ScalarField(grid, np.sqrt(rho.values))
            u = random_smooth_vector(grid, seed, config.modes)
            frs = []
            if "jungel-quartic" in config.checks or \
                    "jungel-hessian" in config.checks:
                quartic, hess = check_jungel(rho)
                if "jungel-quartic" in config.checks:
                    frs.append(("jungel-quartic", quartic))
                if "jungel-hessian" in config.checks:
                    frs.append(("jungel-hessian", hess))
            if "grad6" in config.checks:
                frs.append(("grad6", check_grad6(v)))
            if "div-vs-D" in config.checks:
                frs.append(("div-vs-D", check_div_vs_D(rho, u)))
            for name, fr in frs:
                report.results.append(CheckResult(
                    name, seed, spec, fr.margin, fr.passed,
                    f"lhs = {fr.lhs:.6e}, rhs = {fr.rhs:.6e}"))
    return report


def _steady_battery(result_sink, params_kw=None):
    """Constant state: mass, energy-budget, and weak residuals ~ roundoff."""
    raw, params = scenario("uniform-rest", n=64)
    if params_kw:
        params = params.with_(**params_kw)
    state = State(raw.rho0, raw.m0, form="u")
    config = IntegratorConfig.fixed_dt(1e-3, t_end=2e-2, monitor_every=1)
    traj = integrate(state, params, config)
    recs = traj.records
    mass_drift = max(abs(r.mass - recs[0].mass) / recs[0].mass for r in recs)
    budget = energy_budget(traj, params)
    test = trig_test_function(state.grid, config.t_end)
    wres = weak_residual(traj.times, traj.states, test, params)
    worst = max(mass_drift, budget.max_residual, wres)
    result_sink.append(CheckResult(
        "steady-battery", -1, state.grid.n, 1e-10 - worst,
        traj.status == "completed" and worst < 1e-10,
        f"mass drift {mass_drift:.2e}, budget {budget.max_residual:.2e}, "
        f"weak {wres:.2e}, status {traj.status}"))


def _mass_balance(result_sink):
    """eps > 0 continuity-source balance residual stays at truncation level."""
    raw, params = scenario("acoustic-1d", n=128)
    params = params.with_(eps=1e-3)
    state = State(raw.rho0, raw.m0, form="u")
    config = IntegratorConfig.fixed_dt(2e-4, t_end=2e-2, monitor_every=1)
    traj = integrate(state, params, config)
    worst = max(r.mass_balance_residual for r in traj.records)
    result_sink.append(CheckResult(
        "mass-balance", -1, state.grid.n, 1e-4 - worst,
        traj.status == "completed" and worst < 1e-4,
        f"worst residual {worst:.3e}, status {traj.status}"))


def _equivalence(result_sink):
    """u-form vs w-form short matched run stays within tolerance."""
    raw, params = scenario("acoustic-1d", n=128)
    params = params.with_(eps=1e-3)
    state = State(raw.rho0, raw.m0, form="u")
    config = IntegratorConfig.fixed_dt(1e-4, t_end=2e-2, monitor_every=10)
    rep = equivalence_run(state, params, config)
    result_sink.append(CheckResult(
        "equivalence", -1, state.grid.n, 1e-5 - rep.max_error,
        rep.max_error < 1e-5,
        f"max-in-time L2 discrepancy {rep.max_error:.3e}"))


def _vacuum_band(result_sink):
    """Mollified vacuum data integrates with a strictly positive band."""
    raw, params = scenario("vacuum-bump-1d", n=128)
    state = mollify(raw, params.eps, params)
    config = IntegratorConfig.fixed_dt(1e-4, t_end=1e-2, monitor_every=10)
    traj = integrate(state, params, config)
    rho_min = min(r.rho_min for r in traj.records)
    rho_max = max(r.rho_max for r in traj.records)
    ok = traj.status == "completed" and rho_min > 0
    result_sink.append(CheckResult(
        "vacuum-band", -1, state.grid.n, rho_min, ok,
        f"band [{rho_min:.4e}, {rho_max:.4e}], status {traj.status}"))


def run_dynamics_suite(config):
    """Time-dependent structure checks on canonical scenarios (seeds unused:
    each check is a deterministic canonical run)."""
    report = SuiteReport(suite="dynamics")
    if "steady-battery" in config.checks:
        _steady_battery(report.results)
    if "mass-balance" in config.checks:
        _mass_balance(report.results)
    if "equivalence" in config.checks:
        _equivalence(report.results)
    if "vacuum-band" in config.checks:
        _vacuum_band(report.results)
    return report


def run_suite(name, config):
    if name == "identity":
        return run_identity_suite(config)
    if name == "inequality":
        return run_inequality_suite(config)
    if name == "dynamics":
        return run_dynamics_suite(config)
    raise ValueError(f"unknown suite {name!r}")
