"""The dynamics verification suite: time-dependent structure checked on
canonical scenarios (a steady state, the eps > 0 mass balance, u-form vs
w-form equivalence, a mollified vacuum band). Each check is one
deterministic run of the time integrator, so this module, and the
integrator with it, loads only when a dynamics suite runs (see
verify.run_suites).
"""

from __future__ import annotations

from .initdata import mollify, scenario
from .physics import State
from .systems import WeakResidual, trig_test_function
from .timeloop import (EnergyBudget, IntegratorConfig, equivalence_run,
                       integrate)
from .verify import CheckResult, SuiteReport


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
    return state.grid, worst, traj.failure is None, (
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
    return state.grid, worst, traj.failure is None, (
        f"worst residual {worst:.3e}, status {traj.status}")


def _equivalence():
    """u-form vs w-form short matched run stays within tolerance."""
    raw, params = scenario("acoustic-1d", n=128)
    params = params.with_(eps=1e-3)
    state = State(raw.rho0, raw.m0, form="u")
    config = IntegratorConfig.fixed_dt(1e-4, t_end=2e-2, monitor_every=10)
    rep = equivalence_run(state, params, config)
    # equivalence_run raises unless both runs complete
    return state.grid, rep.max_error, True, (
        f"max-in-time L2 discrepancy {rep.max_error:.3e}")


def _vacuum_band():
    """Mollified vacuum data integrates with a strictly positive band."""
    raw, params = scenario("vacuum-bump-1d", n=128)
    state = mollify(raw, params.eps, params)
    config = IntegratorConfig.fixed_dt(1e-4, t_end=1e-2, monitor_every=10)
    traj = integrate(state, params, config)
    rho_min = min(r.rho_min for r in traj.records)
    rho_max = max(r.rho_max for r in traj.records)
    # the band's minimum must stay above 0, so -rho_min is its worst value
    return state.grid, -rho_min, traj.failure is None, (
        f"band [{rho_min:.4e}, {rho_max:.4e}], status {traj.status}")


# The dynamics checks in report order, each with its limit. A check runs its
# canonical scenario and returns (grid, worst value, whether the run
# completed, detail); it passes when the run completed and the worst value
# is below the limit, with margin limit - worst.
DYNAMICS = {"steady-battery": (_steady_battery, 1e-10),
            "mass-balance": (_mass_balance, 1e-4),
            "equivalence": (_equivalence, 1e-5),
            "vacuum-band": (_vacuum_band, 0.0)}


def report(config):
    """The SuiteReport of the dynamics checks config lists, in report
    order."""
    out = SuiteReport("dynamics")
    for check, (run, limit) in DYNAMICS.items():
        if check in config.checks:
            grid, worst, completed, detail = run()
            out.results.append(CheckResult(
                check, -1, grid.n, limit - worst,
                completed and worst < limit, detail))
    return out
