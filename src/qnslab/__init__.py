"""Periodic-domain simulator and verification laboratory for a regularized
compressible quantum Navier-Stokes system with damping."""

from .fields import (Grid, ScalarField, TensorField, VectorField, dealias,
                     div, grad, hessian, integrate, laplacian, lp_norm, quad,
                     random_smooth_ensemble, random_smooth_positive,
                     random_smooth_vector, sym_grad)
from .functionals import (DISSIPATION_KEYS, FunctionalReport, MonitorRecord,
                          bd_entropy, check_div_vs_D, check_flux_identity,
                          check_grad6, check_grad_sqrtrho_u, check_jungel,
                          energy, energy_dissipation, log_minus,
                          mv_functional)
from .initdata import (SCENARIOS, InitialDataReport, RawData, mollify,
                       scenario, validate_initial)
from .physics import (AdmissibilityError, ConstraintReport, QnsParams, State,
                      VacuumError, bohm_arr, bohm_force, check_constraints,
                      mu_of, paper_params, to_u, to_w)
from .snapshots import read_field, write_field
from .systems import (FORMULATIONS, Rhs, SpaceTimeTestFunction, WeakResidual,
                      rhs_approx_u, rhs_approx_w, rhs_target, rhs_terms,
                      trig_test_function)
from .timeloop import (EnergyBudget, EnergyBudgetReport, EquivalenceReport,
                       IntegratorConfig, NonFiniteError, PositivityError,
                       Trajectory, cfl_dt, equivalence_run, step)
from .timeloop import integrate as integrate_in_time
from .verify import (SuiteConfig, SuiteReport, run_dynamics_suite,
                     run_identity_suite, run_inequality_suite, run_suite,
                     run_suites)

__version__ = "0.1.0"
