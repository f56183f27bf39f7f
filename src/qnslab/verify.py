"""Batch verification suites over seeded field ensembles.

Three suites: identity (exact algebraic identities of the operators),
inequality (the functional inequalities with their stated constants), and
dynamics (time-dependent structure: steady states, mass balance,
formulation equivalence, weak residual), whose checks live in the dynamics
module and load only when that suite runs. Reports are machine-readable and
every failure carries enough metadata (check, seed, grid) to reproduce it
in isolation. Each identity suite can also run a deliberate "canary"
perturbation that must fail, proving the checks are not vacuous.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, field

import numpy as np

from .fields import (Grid, as_bool, as_real, check_smooth_args, grad_arr,
                     in_workspace, lend, quad, random_smooth_ensemble,
                     release)
from .functionals import (ABS_TOL, IDENTITY_TOL, REL_TOL, div_vs_D_batch,
                          flux_identity_batch, grad6_batch,
                          grad_sqrtrho_u_batch, jungel_batch, passes)
from .physics import Derived, bohm_arr, chunk_size

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
    rel_tol: float = IDENTITY_TOL
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
        if not as_real("rel_tol", self.rel_tol) > 0:
            raise ValueError(f"rel_tol must be positive: {self.rel_tol!r}")
        as_bool("canary", self.canary)
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

    def to_json(self, aggregates=None):
        """The report as JSON; aggregates, if given, is self.aggregates()
        built already."""
        if aggregates is None:
            aggregates = self.aggregates()
        return json.dumps({
            "suite": self.suite,
            "overall_pass": self.overall_pass,
            "checks": [{
                "check": a.check, "count": a.count, "failures": a.failures,
                "worst_margin": a.worst_margin, "worst_seed": a.worst_seed,
                "worst_grid": list(a.worst_grid),
            } for a in aggregates],
        }, indent=2)

    def to_jsonl(self):
        return "\n".join(r.to_json() for r in self.results)


def _canary_bohm(d):
    """Form C deliberately corrupted by +1e-3 * grad(rho)."""
    return bohm_arr(d, form="C") + 1e-3 * grad_arr(d.grid, d.rho)


def _bohm_error(d, canary):
    """Per-field largest pairwise relative L2 distance of the three Bohm
    forms (form C corrupted if canary); each form's norm is taken once."""
    grid = d.grid
    ca = -grid.dim - 1
    fa = bohm_arr(d, "A")
    fb = bohm_arr(d, "B")
    fc = _canary_bohm(d) if canary else bohm_arr(d, "C")
    # the L2 norms of fa and fb and of the three differences, per field
    work = lend(grid, fa.shape[:-grid.dim])
    norms = []
    for a, b in ((fa, fa), (fb, fb), (fa, fb), (fa, fc), (fb, fc)):
        if a is b:
            np.multiply(a, a, out=work)
        else:
            np.subtract(a, b, out=work)
            work *= work
        norms.append(np.sqrt(quad(grid, np.add.reduce(work, axis=ca))))
    release(fa, fb, fc, work)
    norms = np.array(norms)
    num, den = norms[2:], norms[[0, 0, 1]]
    return np.maximum.reduce(
        np.where(den > 0, num / np.where(den > 0, den, 1.0), num))


def _rows(values, detail, rel_tol=REL_TOL, abs_tol=ABS_TOL):
    """[(margin, passed, detail) per field] of a kernel's per-field (lhs,
    rhs) arrays, as the FunctionalReport of each field gives them; detail
    is a %-format of lhs and rhs."""
    return [(b - a, passes(a, b, rel_tol, abs_tol), detail % (a, b))
            for a, b in zip(values[0].tolist(), values[1].tolist())]


def _identity_chunk(d, config):
    """{check: [(margin, passed, detail) per seed]} of the exact-identity
    checks (Bohm forms, quartic flux identity, product rule) on the bundle
    of one chunk."""
    checks, tol = config.checks, config.rel_tol
    out = {}
    if "bohm-forms" in checks:
        errors = _bohm_error(d, config.canary)
        out["bohm-forms"] = list(zip(
            (tol - errors).tolist(), (errors < tol).tolist(),
            [f"max pairwise rel L2 = {e:.3e}" for e in errors.tolist()]))
    flux = {0: "flux-identity-0", 2: "flux-identity-2"}
    exponents = [p for p, name in flux.items() if name in checks]
    if exponents:
        values = flux_identity_batch(d, exponents, tol)
        for p in exponents:
            out[flux[p]] = _rows(
                values[p], "|lhs-rhs| = %.3e, allowance = %.3e",
                0.0, ABS_TOL)
    if "grad-sqrtrho-u" in checks:
        out["grad-sqrtrho-u"] = _rows(
            grad_sqrtrho_u_batch(d, tol=tol),
            "nodal max = %.3e, allowance = %.3e", 0.0, 0.0)
    return out


def _inequality_chunk(d, config):
    """{check: [(margin, passed, detail) per seed]} of the functional
    inequalities with their stated constants on the bundle of one chunk; a
    check passes when lhs <= rhs."""
    checks = config.checks
    values = {}
    if "jungel-quartic" in checks or "jungel-hessian" in checks:
        values["jungel-quartic"], values["jungel-hessian"] = jungel_batch(d)
    if "grad6" in checks:
        values["grad6"] = grad6_batch(d)
    if "div-vs-D" in checks:
        values["div-vs-D"] = div_vs_D_batch(d)
    return {name: _rows(v, "lhs = %.6e, rhs = %.6e")
            for name, v in values.items() if name in checks}


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
    suite's results, in one workspace scope: the chunk's stacks come from
    the thread's store and return to it when the chunk is done. Only
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
        # the dynamics checks run the time integrator: their module, and the
        # integrator with it, loads only when the suite is asked for
        from . import dynamics
        reports["dynamics"] = dynamics.report(configs["dynamics"])
    return reports


def run_identity_suite(config):
    """Exact-identity checks over the seeded ensemble; optional canary run
    that must fail."""
    return run_suite("identity", config)


def run_inequality_suite(config):
    """Functional inequalities over the seeded ensemble; pass requires every
    report's lhs <= rhs."""
    return run_suite("inequality", config)


def run_dynamics_suite(config):
    """Time-dependent structure checks on canonical scenarios (seeds unused:
    each check is a deterministic canonical run)."""
    return run_suite("dynamics", config)


def run_suite(name, config):
    return run_suites({name: config})[name]
