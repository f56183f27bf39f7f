"""The package namespace loads on first use. Each case runs in a fresh
interpreter, with the package on PYTHONPATH, so the modules it finds loaded
are the ones its own imports and calls loaded: `import qnslab` loads none,
a seeded verify loads the four modules its checks need (and cli, called
from the command line), the dynamics suite still loads the time integrator
and runs, and every public name of the package still resolves."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import qnslab

SRC = os.path.dirname(os.path.dirname(qnslab.__file__))

# The names the package exported when it imported every module up front.
PUBLIC = (
    "Grid", "ScalarField", "TensorField", "VectorField", "dealias", "div",
    "grad", "hessian", "integrate", "laplacian", "lp_norm", "quad",
    "random_smooth_ensemble", "random_smooth_positive",
    "random_smooth_vector", "sym_grad",
    "DISSIPATION_KEYS", "FunctionalReport", "MonitorRecord", "bd_entropy",
    "check_div_vs_D", "check_flux_identity", "check_grad6",
    "check_grad_sqrtrho_u", "check_jungel", "energy", "energy_dissipation",
    "log_minus", "mv_functional",
    "SCENARIOS", "InitialDataReport", "RawData", "mollify", "scenario",
    "validate_initial",
    "AdmissibilityError", "ConstraintReport", "QnsParams", "State",
    "VacuumError", "bohm_arr", "bohm_force", "check_constraints", "mu_of",
    "paper_params", "to_u", "to_w",
    "read_field", "write_field",
    "FORMULATIONS", "Rhs", "SpaceTimeTestFunction", "WeakResidual",
    "rhs_approx_u", "rhs_approx_w", "rhs_target", "rhs_terms",
    "trig_test_function",
    "EnergyBudget", "EnergyBudgetReport", "EquivalenceReport",
    "IntegratorConfig", "NonFiniteError", "PositivityError", "Trajectory",
    "cfl_dt", "equivalence_run", "step", "integrate_in_time",
    "SuiteConfig", "SuiteReport", "run_dynamics_suite", "run_identity_suite",
    "run_inequality_suite", "run_suite", "run_suites",
)
SEEDED = ["fields", "functionals", "physics", "verify"]
# a 1-seed identity and inequality config, as `qnslab verify` reads it
SEEDED_CONFIG = {"suites": ["identity", "inequality"], "seeds": [3],
                 "grids": [[128], [64, 64]]}

PRELUDE = """\
import contextlib, io, json, sys

def loaded():
    return sorted(m[len("qnslab."):] for m in sys.modules
                  if m.startswith("qnslab."))

def cli_main(argv):
    from qnslab import cli
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)
"""


def _fresh(code):
    """What code prints as JSON, run after PRELUDE in a fresh interpreter
    that finds the package on PYTHONPATH."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(code)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _config(tmp_path, cfg):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_import_loads_no_module():
    assert _fresh("""
        import qnslab
        print(json.dumps(loaded()))
        """) == []


def test_seeded_suites_load_only_their_modules():
    out = _fresh(f"""
        from qnslab import verify
        configs = {{name: verify.SuiteConfig(
            seeds=(3,), grids=((128,), (64, 64)),
            checks=verify.SUITE_CHECKS[name])
            for name in ("identity", "inequality")}}
        reports = verify.run_suites(configs)
        print(json.dumps([loaded(), {{name: len(r.results)
                                     for name, r in reports.items()}}]))
        """)
    assert out == [SEEDED, {"identity": 8, "inequality": 8}]


def test_seeded_verify_command_loads_only_cli_and_its_modules(tmp_path):
    config = _config(tmp_path, SEEDED_CONFIG)
    out = _fresh(f"""
        code = cli_main(["verify", "--config", {config!r},
                         "--out", {str(tmp_path)!r}])
        print(json.dumps([code, loaded()]))
        """)
    assert out == [0, sorted(SEEDED + ["cli"])]
    assert (tmp_path / "inequality_report.json").exists()


def test_dynamics_verify_loads_the_integrator_and_runs(tmp_path):
    config = _config(tmp_path, {"suites": ["dynamics"]})
    code, modules = _fresh(f"""
        code = cli_main(["verify", "--config", {config!r},
                         "--out", {str(tmp_path)!r}])
        print(json.dumps([code, loaded()]))
        """)
    assert code == 0
    assert {"dynamics", "initdata", "systems", "timeloop"} <= set(modules)
    with open(tmp_path / "dynamics_results.jsonl") as fh:
        results = [json.loads(line) for line in fh]
    assert [r["check"] for r in results] == [
        "steady-battery", "mass-balance", "equivalence", "vacuum-band"]
    assert all(r["passed"] for r in results)


def test_every_public_name_resolves():
    # dir() before any name is read, then `import *`, then each name
    out = _fresh(f"""
        import qnslab
        names = {PUBLIC!r}
        unlisted = [n for n in names if n not in dir(qnslab)]
        star = {{}}
        exec("from qnslab import *", star)
        unbound = [n for n in names if n not in star]
        missing = [n for n in names if not hasattr(qnslab, n)]
        print(json.dumps([unlisted, unbound, missing,
                          qnslab.integrate_in_time.__module__,
                          qnslab.integrate.__module__]))
        """)
    assert out == [[], [], [], "qnslab.timeloop", "qnslab.fields"]


def test_names_resolve_to_their_modules_objects():
    import qnslab.timeloop
    for name in PUBLIC:
        value = getattr(qnslab, name)
        assert name in vars(qnslab)     # held once resolved
        assert value is vars(qnslab)[name]
    assert qnslab.integrate_in_time is qnslab.timeloop.integrate
    assert set(qnslab.__all__) == set(PUBLIC)
    for module in ("cli", "dynamics", "snapshots"):
        assert getattr(qnslab, module).__name__ == f"qnslab.{module}"
        assert module in dir(qnslab)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qnslab.no_such_name
