"""Model parameters, admissibility constraints, and QNS-specific operators.

Houses the derived coefficient mu = nu - sqrt(nu^2 - kappa^2), the three
equivalent algebraic forms of the Bohm (quantum-pressure) force, the quartic
gradient flux used by the parabolic regularization, and the effective-velocity
change of variables w = u + mu * grad(log rho).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fields import (ScalarField, VectorField, div_arr, grad_arr,
                     hess_arr, lap_arr, per_node, tdiv_arr)

# Analysis-mode constants: these make the regularization terms either
# negligible or catastrophically stiff numerically, so simulation defaults
# differ (see QnsParams). Selectable via paper_params().
PAPER_P0 = 50.0
PAPER_EPS_MAX = 1e-10
PAPER_SIGMA0 = 1e-10

DESK_P0 = 4.0
DESK_SIGMA0 = 0.05


class AdmissibilityError(ValueError):
    """A strict-mode parameter constraint is violated."""

    def __init__(self, inequality, detail=""):
        self.inequality = inequality
        super().__init__(f"admissibility violated: {inequality}"
                         + (f" ({detail})" if detail else ""))


class VacuumError(ValueError):
    """Density is nonpositive where strict positivity is required."""

    def __init__(self, bad_nodes, rho_min):
        self.bad_nodes = int(bad_nodes)
        self.rho_min = float(rho_min)
        super().__init__(
            f"nonpositive density at {bad_nodes} node(s), min={rho_min:g}")


def mu_of(nu, kappa):
    """mu = nu - sqrt(nu^2 - kappa^2), requires 0 <= kappa <= nu."""
    if kappa < 0 or kappa > nu:
        raise AdmissibilityError("0 <= kappa <= nu",
                                 f"nu={nu}, kappa={kappa}")
    return nu - math.sqrt(nu * nu - kappa * kappa)


@dataclass(frozen=True)
class QnsParams:
    """Physical and regularization constants.

    mu is always recomputed from (nu, kappa). mode is "desk" or "paper";
    reports carry it so results are never silently mixed.
    """

    nu: float = 1.0
    kappa: float = 0.0
    gamma: float = 2.0
    a: float = 1.0
    r0: float = 0.0
    r1: float = 0.0
    eps: float = 0.0
    p0: float = DESK_P0
    sigma0: float = DESK_SIGMA0
    strict: bool = False
    mode: str = "desk"

    def __post_init__(self):
        if self.nu <= 0:
            raise ValueError("nu must be positive")
        if self.kappa < 0 or self.kappa > self.nu:
            raise AdmissibilityError("0 <= kappa <= nu",
                                     f"nu={self.nu}, kappa={self.kappa}")
        if self.gamma <= 1:
            raise ValueError("gamma must exceed 1")
        if self.r0 < 0 or self.r1 < 0 or self.eps < 0:
            raise ValueError("r0, r1, eps must be nonnegative")
        if self.p0 <= 0 or self.sigma0 <= 0:
            raise ValueError("p0 and sigma0 must be positive")
        if self.strict and 11 * self.kappa > self.nu:
            raise AdmissibilityError("11*kappa <= nu",
                                     f"nu={self.nu}, kappa={self.kappa}")

    @property
    def mu(self):
        return mu_of(self.nu, self.kappa)

    def with_(self, **kw):
        return replace(self, **kw)


def paper_params(**kw):
    """QnsParams with the analysis-mode constants (p0=50, sigma0=1e-10)."""
    kw.setdefault("p0", PAPER_P0)
    kw.setdefault("sigma0", PAPER_SIGMA0)
    kw.setdefault("eps", PAPER_EPS_MAX)
    kw.setdefault("mode", "paper")
    return QnsParams(**kw)


@dataclass(frozen=True)
class ConstraintCheck:
    name: str
    lhs: float
    rhs: float
    passed: bool
    informational: bool = False


@dataclass(frozen=True)
class ConstraintReport:
    checks: tuple
    mode: str

    @property
    def passed(self):
        return all(c.passed or c.informational for c in self.checks)

    def by_name(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def check_constraints(params, strict=None):
    """Admissibility report: 11k <= nu and the two derived inequalities.

    With kappa = 0 the chain 400 mu^2 < kappa^2 degenerates to 0 < 0; it is
    reported as informational rather than a failure (no-dispersion runs).
    """
    if strict is None:
        strict = params.strict
    nu, kappa, mu = params.nu, params.kappa, params.mu
    degenerate = kappa == 0.0
    checks = (
        ConstraintCheck("11*kappa <= nu", 11 * kappa, nu, 11 * kappa <= nu),
        ConstraintCheck("20*mu < nu", 20 * mu, nu, 20 * mu < nu,
                        informational=degenerate and not 20 * mu < nu),
        ConstraintCheck("400*mu^2 < kappa^2", 400 * mu * mu, kappa * kappa,
                        400 * mu * mu < kappa * kappa,
                        informational=degenerate),
        ConstraintCheck("gamma in (1,3)", params.gamma, 3.0,
                        1.0 < params.gamma < 3.0),
    )
    report = ConstraintReport(checks=checks, mode=params.mode)
    if strict and not report.checks[0].passed:
        raise AdmissibilityError("11*kappa <= nu",
                                 f"nu={nu}, kappa={kappa}")
    return report


@dataclass(frozen=True)
class State:
    """Density-velocity pair tagged with its formulation ("u" or "w")."""

    rho: ScalarField
    vel: VectorField
    form: str = "u"
    time: float = 0.0

    def __post_init__(self):
        if self.form not in ("u", "w"):
            raise ValueError(f"form must be 'u' or 'w', got {self.form!r}")
        if self.rho.grid != self.vel.grid:
            raise ValueError("rho and vel must share the grid")

    @property
    def grid(self):
        return self.rho.grid


def require_positive(rho_values):
    """Raise VacuumError unless every value is positive and finite (a NaN
    fails the test as a nonpositive value does)."""
    bad = rho_values.size - np.count_nonzero(
        (rho_values > 0) & np.isfinite(rho_values))
    if bad:
        raise VacuumError(bad, np.min(rho_values))


def bohm_force(rho, form="A", backend="spectral"):
    """The dispersive force 2*rho*grad(lap(sqrt(rho))/sqrt(rho)) of a
    ScalarField, in one of the three forms of bohm_arr."""
    return VectorField(rho.grid, bohm_arr(rho.grid, rho.values, form, backend))


def bohm_arr(grid, r, form="A", backend="spectral"):
    """The Bohm force of a density array or of a stack of densities with
    leading batch axes, as a (..., dim, *n) array.

    Three independently coded algebraic forms:
      A: direct quotient 2 rho grad(lap v / v), v = sqrt(rho);
      B: div(rho * hess(log rho));
      C: grad(lap rho) - 4 div(grad v (x) grad v).
    They agree on resolved strictly positive fields.
    """
    require_positive(r)
    if form == "A":
        v = np.sqrt(r)
        q = lap_arr(grid, v, backend) / v
        return 2.0 * per_node(grid, r) * grad_arr(grid, q, backend)
    if form == "B":
        H = hess_arr(grid, np.log(r), backend)
        return tdiv_arr(grid, per_node(grid, r, 2) * H, backend)
    if form == "C":
        v = np.sqrt(r)
        gv = grad_arr(grid, v, backend)
        ca = -grid.dim - 1
        outer = np.expand_dims(gv, ca) * np.expand_dims(gv, ca - 1)
        return (grad_arr(grid, lap_arr(grid, r, backend), backend)
                - 4.0 * tdiv_arr(grid, outer, backend))
    raise ValueError(f"form must be 'A', 'B', or 'C', got {form!r}")


def p_flux(v, backend="spectral"):
    """Quartic gradient flux |grad v|^2 grad v."""
    grid = v.grid
    gv = grad_arr(grid, v.values, backend)
    g2 = np.sum(gv * gv, axis=0)
    return VectorField(grid, g2 * gv)


def p_flux_div(v, backend="spectral"):
    """div(|grad v|^2 grad v)."""
    grid = v.grid
    gv = grad_arr(grid, v.values, backend)
    g2 = np.sum(gv * gv, axis=0)
    return ScalarField(grid, div_arr(grid, g2 * gv, backend))


def to_w(state, params):
    """u-form -> w-form via w = u + mu * grad(log rho)."""
    if state.form != "u":
        raise ValueError("to_w expects a u-form state")
    require_positive(state.rho.values)
    grid = state.grid
    w = state.vel.values + params.mu * grad_arr(grid, np.log(state.rho.values))
    return State(state.rho, VectorField(grid, w), form="w", time=state.time)


def to_u(state, params):
    """w-form -> u-form via u = w - mu * grad(log rho)."""
    if state.form != "w":
        raise ValueError("to_u expects a w-form state")
    require_positive(state.rho.values)
    grid = state.grid
    u = state.vel.values - params.mu * grad_arr(grid, np.log(state.rho.values))
    return State(state.rho, VectorField(grid, u), form="u", time=state.time)
