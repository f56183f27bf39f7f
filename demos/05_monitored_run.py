"""Monitored integration: conserved mass, dissipated energy, entropy bounds.

Integrates an acoustic perturbation with the exponential IMEX scheme,
printing the monitor row at a few times, then closes the loop with the
discrete energy-budget check: the change of the total energy between
monitor times must match the analytically assembled rate (sources minus
dissipation) up to O(dt^2). The budget observes each monitor record as the
run goes, reading the record's derived bundle; no state is kept.
"""

from qnslab import (EnergyBudget, IntegratorConfig, QnsParams, State,
                    integrate_in_time, scenario)

raw, _ = scenario("acoustic-1d", n=128)
params = QnsParams(nu=1.0, kappa=1.0 / 11.0, r0=0.1, r1=0.05, eps=1e-3)
cfg = IntegratorConfig(scheme="imex", dt_init=5e-4, dt_min=1e-6, dt_max=5e-4,
                       t_end=0.2, monitor_every=1)
budget = EnergyBudget(params, cfg)
traj = integrate_in_time(State(raw.rho0, raw.m0), params, cfg,
                         observers=(budget,))

print(f"status: {traj.status}")
print(f"{'time':>8} {'mass':>18} {'energy':>14} {'bd_entropy':>12} "
      f"{'rho_min':>10}")
for rec in traj.records[:: len(traj.records) // 5]:
    print(f"{rec.time:>8.3f} {rec.mass:>18.12f} {rec.energy:>14.8f} "
          f"{rec.bd_entropy:>12.6f} {rec.rho_min:>10.4f}")

print(f"\nenergy budget: max |dE/dt - analytic rate| = "
      f"{budget.report().max_residual:.3e}")

print("\ntime-integrated dissipation channels:")
for key, value in sorted(traj.dissipation_time_integrals.items()):
    print(f"  {key:<22} {value:.6e}")
