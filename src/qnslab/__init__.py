"""Periodic-domain simulator and verification laboratory for a regularized
compressible quantum Navier-Stokes system with damping.

The package namespace loads on first use: `import qnslab` imports no
module of the package, and each public name below imports its module when
it is first read (PEP 562), so a process that only checks seeded
identities never compiles the time integrator."""

import importlib

__version__ = "0.1.0"

# The public names of each module, as the package re-exports them.
_PUBLIC = {
    "fields": ("Grid", "ScalarField", "TensorField", "VectorField",
               "dealias", "div", "grad", "hessian", "integrate",
               "laplacian", "lp_norm", "quad", "random_smooth_ensemble",
               "random_smooth_positive", "random_smooth_vector", "sym_grad"),
    "functionals": ("DISSIPATION_KEYS", "FunctionalReport", "MonitorRecord",
                    "bd_entropy", "check_div_vs_D", "check_flux_identity",
                    "check_grad6", "check_grad_sqrtrho_u", "check_jungel",
                    "energy", "energy_dissipation", "log_minus",
                    "mv_functional"),
    "initdata": ("SCENARIOS", "InitialDataReport", "RawData", "mollify",
                 "scenario", "validate_initial"),
    "physics": ("AdmissibilityError", "ConstraintReport", "QnsParams",
                "State", "VacuumError", "bohm_arr", "bohm_force",
                "check_constraints", "mu_of", "paper_params", "to_u",
                "to_w"),
    "snapshots": ("read_field", "write_field"),
    "systems": ("FORMULATIONS", "Rhs", "SpaceTimeTestFunction",
                "WeakResidual", "rhs_approx_u", "rhs_approx_w",
                "rhs_target", "rhs_terms", "trig_test_function"),
    "timeloop": ("EnergyBudget", "EnergyBudgetReport", "EquivalenceReport",
                 "IntegratorConfig", "NonFiniteError", "PositivityError",
                 "Trajectory", "cfl_dt", "equivalence_run", "step"),
    "verify": ("SuiteConfig", "SuiteReport", "run_dynamics_suite",
               "run_identity_suite", "run_inequality_suite", "run_suite",
               "run_suites"),
}
# public name -> (module, attribute); timeloop.integrate is re-exported as
# integrate_in_time, since fields.integrate is the spatial integral
_EXPORTS = {name: (module, name) for module, names in _PUBLIC.items()
            for name in names}
_EXPORTS["integrate_in_time"] = ("timeloop", "integrate")
_SUBMODULES = (*_PUBLIC, "cli", "dynamics")

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    """A public name or a submodule, imported on first use and then held
    by the package, so later reads never come back here."""
    if name in _EXPORTS:
        module, attr = _EXPORTS[name]
        value = getattr(importlib.import_module(f".{module}", __name__), attr)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
