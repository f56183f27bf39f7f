"""Acceptance criteria: one test (and one printed pass/fail line) each.

Every criterion is checked at its stated tolerance; helper `_verdict` prints
the line before asserting so failures still leave a readable record.
"""

import math
import time

import numpy as np

from qnslab.fields import (Grid, ScalarField, VectorField, quad,
                           random_smooth_positive, random_smooth_vector)
from qnslab.functionals import (check_div_vs_D, check_flux_identity,
                                check_grad6, check_grad_sqrtrho_u,
                                check_jungel)
from qnslab.initdata import RawData, mollify, scenario
from qnslab.physics import QnsParams, State, mu_of
from qnslab.systems import (WeakResidual, rhs_approx_u, rhs_target,
                            trig_test_function)
from qnslab.timeloop import (EnergyBudget, IntegratorConfig, equivalence_run,
                             integrate)
from qnslab.verify import SuiteConfig, run_identity_suite

SEEDS = tuple(range(100))
GEN = dict(modes=6, floor=4.0)


def _verdict(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:2d} [{label}]: {status}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} ({label}): {detail}"


def _ensemble(grid):
    for seed in SEEDS:
        yield seed, random_smooth_positive(grid, seed, **GEN)


def test_criterion_01_bohm_forms_and_canary():
    t0 = time.monotonic()
    cfg = SuiteConfig(seeds=SEEDS, grids=((128,), (64, 64)),
                      checks=("bohm-forms",), rel_tol=1e-8, **GEN)
    clean = run_identity_suite(cfg)
    canary = run_identity_suite(cfg.__class__(
        seeds=SEEDS[:5], grids=((128,),), checks=("bohm-forms",),
        rel_tol=1e-8, canary=True, **GEN))
    elapsed = time.monotonic() - t0
    worst = min(a.worst_margin for a in clean.aggregates())
    _verdict(1, "bohm-form agreement + canary",
             clean.overall_pass and not canary.overall_pass and elapsed < 60,
             f"200 fields, worst margin {worst:.2e}, "
             f"canary flipped, {elapsed:.1f}s")


def test_criterion_02_flux_identity():
    ok = True
    worst = np.inf
    for spec in ((128,), (64, 64)):
        grid = Grid(spec)
        for seed, rho in _ensemble(grid):
            v = ScalarField(grid, np.sqrt(rho.values))
            for r in (0, 2):
                rep = check_flux_identity(v, r, rel_tol=1e-8)
                ok &= rep.passed
                worst = min(worst, rep.margin)
    _verdict(2, "quartic-flux pairing identity, r in {0,2}", ok,
             f"400 instances, worst margin {worst:.2e}")


def test_criterion_03_inequality_suite():
    failures = 0
    count = 0
    for spec in ((128,), (64, 64), (32, 32, 32)):
        grid = Grid(spec)
        for seed in SEEDS:
            rho = random_smooth_positive(grid, seed, 6, 0.5)
            u = random_smooth_vector(grid, seed, 6)
            v = ScalarField(grid, np.sqrt(rho.values))
            quartic, hess = check_jungel(rho)
            for rep in (quartic, hess, check_grad6(v),
                        check_div_vs_D(rho, u)):
                count += 1
                failures += not rep.passed
    _verdict(3, "Jungel(8,7) + grad6(2,8) + div-vs-D(3)", failures == 0,
             f"{count} checks across d=1,2,3, {failures} failures")


def test_criterion_04_product_rule():
    ok = True
    for spec in ((128,), (64, 64)):
        grid = Grid(spec)
        for seed, rho in _ensemble(grid):
            u = random_smooth_vector(grid, seed, GEN["modes"])
            ok &= check_grad_sqrtrho_u(rho, u, tol=1e-8).passed
    _verdict(4, "sqrt(rho)u gradient product rule (nodal 1e-8)", ok,
             "200 fields")


def test_criterion_05_constraint_chain():
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(1000):
        nu = rng.uniform(1e-3, 100.0)
        kappa = rng.uniform(1e-12, nu / 11.0)
        mu = mu_of(nu, kappa)
        ok &= (20 * mu < nu) and (400 * mu * mu < kappa * kappa)
    # boundary point kappa = nu / 11: ratio against direct evaluation
    mu_b = mu_of(1.0, 1.0 / 11.0)
    ratio = 400.0 * mu_b ** 2 / (1.0 / 11.0) ** 2
    direct = 400.0 * (1.0 - math.sqrt(120.0) / 11.0) ** 2 * 121.0
    ok &= abs(ratio - direct) < 1e-3 and ratio < 1.0
    _verdict(5, "constraint chain on 10^3 samples + boundary ratio", ok,
             f"boundary 400 mu^2/kappa^2 = {ratio:.6f} < 1")


def test_criterion_06_eps_zero_reduction():
    worst = 0.0
    p = QnsParams(nu=1.0, kappa=1.0 / 11.0, r0=0.1, r1=0.05, eps=0.0)
    for spec in ((128,), (48, 48)):
        grid = Grid(spec)
        for seed in range(20):
            rho = random_smooth_positive(grid, seed, 6, 1.0)
            u = random_smooth_vector(grid, seed, 6)
            st = State(rho, u)
            ra = rhs_approx_u(st, p, use_dealias=False)
            rt = rhs_target(st, p, use_dealias=False)
            worst = max(worst,
                        np.max(np.abs(ra.drho.values - rt.drho.values)),
                        np.max(np.abs(ra.dvel.values - rt.dvel.values)))
    _verdict(6, "eps=0 regularized system reduces to target", worst <= 1e-12,
             f"max nodal difference {worst:.2e}")


def test_criterion_07_mass_conservation_and_balance_order():
    # part 1: eps = 0 exact conservation over T = 1
    raw, p = scenario("acoustic-1d", n=128)
    st = State(raw.rho0, raw.m0)
    cfg = IntegratorConfig(scheme="imex", dt_init=1e-3, dt_min=1e-6,
                           dt_max=1e-3, t_end=1.0, monitor_every=20)
    traj = integrate(st, p.with_(eps=0.0), cfg)
    m0 = traj.records[0].mass
    drift = max(abs(r.mass - m0) / m0 for r in traj.records)
    cons_ok = traj.status == "completed" and drift < 1e-12

    # part 2: eps > 0, discrete balance residual converges at order >= 1.8
    g = Grid(128)
    x = g.coords()[0]
    strong = State(ScalarField(g, 1.0 + 0.5 * np.sin(x) + 0.2 * np.cos(2 * x)),
                   VectorField(g, 0.3 * np.sin(x)[None]))
    peps = QnsParams(nu=1.0, kappa=1.0 / 11.0, eps=1e-2)
    residuals = []
    for dt in (2e-3, 1e-3, 5e-4, 2.5e-4):
        c = IntegratorConfig.fixed_dt(dt, t_end=0.04, monitor_every=1)
        t = integrate(strong, peps, c)
        residuals.append(max(r.mass_balance_residual for r in t.records[1:]))
    orders = [math.log2(residuals[i] / residuals[i + 1]) for i in range(3)]
    order_ok = all(o >= 1.8 for o in orders)
    _verdict(7, "mass conservation (eps=0) + balance order (eps>0)",
             cons_ok and order_ok,
             f"drift {drift:.2e}, orders "
             + ", ".join(f"{o:.2f}" for o in orders))


def test_criterion_08_formulation_equivalence():
    t0 = time.monotonic()
    raw, _ = scenario("acoustic-1d", n=128)
    p = QnsParams(nu=1.0, kappa=1.0 / 11.0, eps=1e-3)
    st = State(raw.rho0, raw.m0)
    errors = []
    for dt in (1e-4, 5e-5, 2.5e-5):
        cfg = IntegratorConfig.fixed_dt(dt, t_end=0.1,
                                        monitor_every=round(1e-3 / dt))
        errors.append(equivalence_run(st, p, cfg).max_error)
    elapsed = time.monotonic() - t0
    ok = errors[0] < 1e-5 and errors[0] > errors[1] > errors[2] \
        and elapsed < 120
    _verdict(8, "u-form vs w-form trajectory equivalence", ok,
             "max-in-time L2 errors "
             + ", ".join(f"{e:.2e}" for e in errors) + f", {elapsed:.1f}s")


def _budget_residual(state, params, config):
    budget = EnergyBudget(params, config)
    integrate(state, params, config, observers=(budget,))
    return budget.report().max_residual


def _weak_value(state, params, config):
    weak = WeakResidual(trig_test_function(state.grid, config.t_end), params)
    integrate(state, params, config, observers=(weak,))
    return weak.value()


def test_criterion_09_energy_budget():
    # steady state: residual at roundoff
    g = Grid(64)
    steady = State(ScalarField.constant(g, 1.0), VectorField.zero(g))
    p = QnsParams(nu=1.0, kappa=1.0 / 11.0)
    cfg = IntegratorConfig.fixed_dt(1e-3, t_end=0.01)
    steady_res = _budget_residual(steady, p, cfg)

    # short viscous run: residual shrinks at the scheme order (2)
    gx = Grid(128)
    x = gx.coords()[0]
    st = State(ScalarField(gx, 1.0 + 0.3 * np.sin(x)),
               VectorField(gx, 0.3 * np.sin(x)[None]))
    peps = QnsParams(nu=1.0, kappa=1.0 / 11.0, eps=1e-3)
    dts = (4e-4, 2e-4, 1e-4, 5e-5)
    res = []
    for dt in dts:
        c = IntegratorConfig.fixed_dt(dt, t_end=0.02)
        res.append(_budget_residual(st, peps, c))
    slope = np.polyfit(np.log(dts), np.log(res), 1)[0]
    ok = steady_res < 1e-10 and abs(slope - 2.0) <= 0.3
    _verdict(9, "energy budget residual (steady + order fit)", ok,
             f"steady {steady_res:.2e}, fitted order {slope:.2f}")


def test_criterion_10_weak_residual():
    g = Grid(64)
    p = QnsParams(nu=1.0, kappa=1.0 / 11.0)
    steady = State(ScalarField.constant(g, 1.0), VectorField.zero(g))
    cfg = IntegratorConfig.fixed_dt(1e-3, t_end=0.02)
    steady_res = _weak_value(steady, p, cfg)

    gx = Grid(128)
    x = gx.coords()[0]
    moving = State(ScalarField(gx, 1.0 + 0.3 * np.sin(x)),
                   VectorField(gx, 0.3 * np.sin(x)[None]))
    pm = QnsParams(nu=1.0, kappa=1.0 / 11.0, r0=0.1, r1=0.1)
    res = []
    for dt in (4e-4, 2e-4, 1e-4):
        c = IntegratorConfig.fixed_dt(dt, t_end=0.05)
        res.append(_weak_value(moving, pm, c))
    ok = steady_res < 1e-10 and res[0] > res[1] > res[2]
    _verdict(10, "weak-form residual (steady + refinement decay)", ok,
             f"steady {steady_res:.2e}, refining "
             + ", ".join(f"{r:.2e}" for r in res))


def test_criterion_11_monitor_boundedness():
    raw, p = scenario("acoustic-1d", n=128)
    p = p.with_(r0=0.0, r1=0.0)
    st = State(raw.rho0, raw.m0)
    cfg = IntegratorConfig(scheme="imex", dt_init=1e-3, dt_min=1e-6,
                           dt_max=1e-3, t_end=1.0, monitor_every=20)
    traj = integrate(st, p, cfg)
    recs = traj.records
    mv_ok = max(r.mv for r in recs) <= 10 * recs[0].mv
    bd0 = recs[0].bd_entropy
    bd_ok = max(r.bd_entropy for r in recs) <= 10 * bd0 if bd0 > 0 else True
    band_min = min(r.rho_min for r in recs)
    band_max = max(r.rho_max for r in recs)
    ok = traj.status == "completed" and mv_ok and bd_ok and band_min > 0
    _verdict(11, "MV + BD entropy bounded, positive density band", ok,
             f"MV x{max(r.mv for r in recs) / recs[0].mv:.3f}, "
             f"BD x{max(r.bd_entropy for r in recs) / bd0:.3f}, "
             f"band [{band_min:.3f}, {band_max:.3f}]")


def test_criterion_12_mollifier():
    raw, params = scenario("vacuum-bump-1d", n=128)
    # positivity for vacuum input at every eps
    pos_ok = all(np.min(mollify(raw, eps, params).rho.values) > 0
                 for eps in (1e-2, 1e-3, 1e-4))
    # L1 error decreases across two decades at the simulation sigma0
    errs = [quad(raw.grid, np.abs(mollify(raw, eps, params).rho.values
                                  - raw.rho0.values))
            for eps in (1e-2, 1e-3, 1e-4)]
    l1_ok = errs[0] > errs[1] > errs[2]
    # analysis constants: floor at eps = 1e-2 equals exp(4e-10 ln 1e-2)
    g = Grid(32)
    vac = RawData(ScalarField.constant(g, 0.0), VectorField.zero(g))
    floor = float(np.min(mollify(vac, 1e-2,
                                 QnsParams(sigma0=1e-10)).rho.values))
    floor_ok = abs(floor - (1.0 - 1.8420680744e-9)) < 1e-12
    _verdict(12, "mollifier positivity + L1 decay + floor value",
             pos_ok and l1_ok and floor_ok,
             f"L1 errors {errs[0]:.3f} > {errs[1]:.3f} > {errs[2]:.3f}, "
             f"floor 1-{1.0 - floor:.4e}")
