"""Right-hand sides of the three formulations and the weak-form residual.

The velocity is evolved nonconservatively (divide by rho nodally); this is
legitimate because the solver operates strictly away from vacuum. Nonlinear
products feeding the dynamics are dealiased by the 2/3 rule; verification
callers pass use_dealias=False to bypass truncation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (ScalarField, VectorField, dealias_arr, div_arr,
                     grad_arr, hess_arr, jac_arr, lap_arr, quad, tdiv_arr)
from .physics import bohm_force, require_positive

FORMULATIONS = ("target", "approx-u", "approx-w")

# Fixed public vocabulary of momentum-term labels (monitor/report columns).
TERM_LABELS_U = (
    "convection", "viscous", "pressure", "bohm", "damping-r0", "damping-r1",
    "eps-viscous", "eps-mu-viscous", "eps-flux-advect", "eps-mu-flux-hesslog",
    "eps-source-drag", "eps-cubic-drag", "eps-mu-pgrad", "eps-mu-flux-grad",
    "eps-mu-flux-gradlog",
)
TERM_LABELS_W = (
    "convection", "pressure", "viscous", "mu-laplace", "eps-viscous",
    "mu-gradrho-gradw", "eps-flux-advect", "eps-cubic-drag", "damping-r0",
    "damping-r1", "eps-source-drag",
)


@dataclass(frozen=True)
class Rhs:
    """Time derivatives (d rho/dt, d vel/dt) plus optional term breakdown.

    breakdown, when present, maps term labels to momentum contributions whose
    sum equals rho * dvel.
    """

    drho: ScalarField
    dvel: VectorField
    formulation: str
    breakdown: dict = None


def _directional(J, b):
    """(b . grad) applied through a Jacobian J[i,j] = d_j F_i."""
    return np.einsum("ij...,j...->i...", J, b)


def rhs_target(state, params, breakdown=False, use_dealias=True):
    """Target system: mass transport plus momentum with pressure a*rho^gamma,
    degenerate viscosity 2*nu*div(rho D u), Bohm force, and damping."""
    if state.form != "u":
        raise ValueError("rhs_target expects a u-form state")
    require_positive(state.rho.values)
    grid = state.grid
    r = state.rho.values
    u = state.vel.values

    J = jac_arr(grid, u)
    D = 0.5 * (J + np.swapaxes(J, 0, 1))

    terms = {}
    terms["convection"] = -r * _directional(J, u)
    terms["viscous"] = 2 * params.nu * tdiv_arr(grid, r * D)
    terms["pressure"] = -grad_arr(grid, params.a * r ** params.gamma)
    if params.kappa > 0:
        terms["bohm"] = params.kappa ** 2 * bohm_force(state.rho).values
    else:
        terms["bohm"] = np.zeros_like(u)
    terms["damping-r0"] = -params.r0 * u
    u2 = np.sum(u * u, axis=0)
    terms["damping-r1"] = -params.r1 * r * u2 * u

    drho = -div_arr(grid, r * u)
    total = sum(terms.values())
    dvel = total / r
    if use_dealias:
        drho = dealias_arr(grid, drho)
        dvel = dealias_arr(grid, dvel)
    return Rhs(ScalarField(grid, drho), VectorField(grid, dvel), "target",
               terms if breakdown else None)


def rhs_approx_u(state, params, breakdown=False, use_dealias=True):
    """Regularized system in (rho, u): parabolic mass regularization
    eps*v*div(|grad v|^2 grad v) + eps*rho^-p0 and the matching
    epsilon-weighted momentum corrections. Setting eps = 0 reproduces
    rhs_target exactly."""
    if state.form != "u":
        raise ValueError("rhs_approx_u expects a u-form state")
    require_positive(state.rho.values)
    grid = state.grid
    r = state.rho.values
    u = state.vel.values
    eps, mu, p0 = params.eps, params.mu, params.p0

    J = jac_arr(grid, u)
    D = 0.5 * (J + np.swapaxes(J, 0, 1))

    terms = {}
    terms["convection"] = -r * _directional(J, u)
    terms["viscous"] = 2 * params.nu * tdiv_arr(grid, r * D)
    terms["pressure"] = -grad_arr(grid, params.a * r ** params.gamma)
    if params.kappa > 0:
        terms["bohm"] = params.kappa ** 2 * bohm_force(state.rho).values
    else:
        terms["bohm"] = np.zeros_like(u)
    terms["damping-r0"] = -params.r0 * u
    u2 = np.sum(u * u, axis=0)
    terms["damping-r1"] = -params.r1 * r * u2 * u

    drho = -div_arr(grid, r * u)

    if eps > 0:
        v = np.sqrt(r)
        gv = grad_arr(grid, v)
        gv2 = np.sum(gv * gv, axis=0)
        flux = gv2 * gv                       # |grad v|^2 grad v
        Q = div_arr(grid, flux)               # div(|grad v|^2 grad v)
        neg_p = r ** (-p0)
        glog = grad_arr(grid, np.log(r))
        w = u + mu * glog
        w3 = np.sum(w * w, axis=0) ** 1.5
        Hlog = hess_arr(grid, np.log(r))

        drho = drho + eps * v * Q + eps * neg_p

        terms["eps-viscous"] = np.sqrt(eps) * tdiv_arr(grid, r * J)
        terms["eps-mu-viscous"] = np.sqrt(eps) * mu * tdiv_arr(grid, r * Hlog)
        terms["eps-flux-advect"] = eps * v * _directional(J, flux)
        terms["eps-mu-flux-hesslog"] = eps * mu * v * _directional(Hlog, flux)
        terms["eps-source-drag"] = -eps * neg_p * u
        terms["eps-cubic-drag"] = -(eps ** 1.5) * r * w3 * u
        terms["eps-mu-pgrad"] = -eps * mu * grad_arr(grid, neg_p)
        terms["eps-mu-flux-grad"] = -eps * mu * grad_arr(grid, v * Q)
        terms["eps-mu-flux-gradlog"] = eps * mu * v * Q * glog

    total = sum(terms.values())
    dvel = total / r
    if use_dealias:
        drho = dealias_arr(grid, drho)
        dvel = dealias_arr(grid, dvel)
    return Rhs(ScalarField(grid, drho), VectorField(grid, dvel), "approx-u",
               terms if breakdown else None)


def rhs_approx_w(state, params, breakdown=False, use_dealias=True):
    """Regularized system in (rho, w): the effective-velocity form. The
    momentum line contains no third-order dispersive operator; the highest
    derivative applied to the velocity is second order and the only density
    operators are first derivatives and one Laplacian."""
    if state.form != "w":
        raise ValueError("rhs_approx_w expects a w-form state")
    require_positive(state.rho.values)
    grid = state.grid
    r = state.rho.values
    w = state.vel.values
    eps, mu, p0 = params.eps, params.mu, params.p0

    glog = grad_arr(grid, np.log(r))
    u = w - mu * glog

    Jw = jac_arr(grid, w)
    Dw = 0.5 * (Jw + np.swapaxes(Jw, 0, 1))

    drho = -div_arr(grid, r * w) + mu * lap_arr(grid, r)

    terms = {}
    terms["convection"] = -r * _directional(Jw, w)
    terms["pressure"] = -grad_arr(grid, params.a * r ** params.gamma)
    terms["viscous"] = 2 * (params.nu - mu) * tdiv_arr(grid, r * Dw)
    terms["mu-laplace"] = mu * r * lap_arr(grid, w)
    gr = grad_arr(grid, r)
    terms["mu-gradrho-gradw"] = 2 * mu * _directional(Jw, gr)
    terms["damping-r0"] = -params.r0 * u
    u2 = np.sum(u * u, axis=0)
    terms["damping-r1"] = -params.r1 * r * u2 * u

    if eps > 0:
        v = np.sqrt(r)
        gv = grad_arr(grid, v)
        gv2 = np.sum(gv * gv, axis=0)
        flux = gv2 * gv
        Q = div_arr(grid, flux)
        neg_p = r ** (-p0)
        w3 = np.sum(w * w, axis=0) ** 1.5

        drho = drho + eps * v * Q + eps * neg_p

        terms["eps-viscous"] = np.sqrt(eps) * tdiv_arr(grid, r * Jw)
        terms["eps-flux-advect"] = eps * v * _directional(Jw, flux)
        terms["eps-cubic-drag"] = -(eps ** 1.5) * r * w3 * u
        terms["eps-source-drag"] = -eps * neg_p * w

    total = sum(terms.values())
    dvel = total / r
    if use_dealias:
        drho = dealias_arr(grid, drho)
        dvel = dealias_arr(grid, dvel)
    return Rhs(ScalarField(grid, drho), VectorField(grid, dvel), "approx-w",
               terms if breakdown else None)


def rhs_for(formulation):
    """Dispatch table for the time loop."""
    return {"target": rhs_target, "approx-u": rhs_approx_u,
            "approx-w": rhs_approx_w}[formulation]


# ---------------------------------------------------------------------------
# weak-formulation residual
# ---------------------------------------------------------------------------

class SpaceTimeTestFunction:
    """phi(x, t) = psi(x) * chi(t), psi a trigonometric-polynomial vector
    field and chi a smooth cutoff with chi(T) = 0 (here cos^2(pi t / 2T))."""

    def __init__(self, psi, t_end, amplitude=1.0):
        self.psi = psi
        self.t_end = float(t_end)
        self.amplitude = float(amplitude)

    def chi(self, t):
        return self.amplitude * np.cos(np.pi * t / (2 * self.t_end)) ** 2

    def chi_t(self, t):
        T = self.t_end
        return -self.amplitude * (np.pi / (2 * T)) * np.sin(np.pi * t / T)


def trig_test_function(grid, t_end, mode=1, amplitude=1.0):
    """Simple single-mode test field: psi_i = sin(mode * 2 pi x_i / L_i)."""
    mesh = grid.meshgrid()
    comps = [np.sin(mode * 2 * np.pi * mesh[i] / grid.length[i])
             for i in range(grid.dim)]
    return SpaceTimeTestFunction(VectorField(grid, np.stack(comps)), t_end,
                                 amplitude)


def weak_residual(times, states, test, params):
    """Residual of the weak momentum formulation over a trajectory.

    times/states: uniform-cadence u-form snapshots. Spatial integrals by
    quadrature, time integral by the trapezoid rule. Returns the residual
    magnitude (zero for an exact solution).
    """
    if len(times) < 2:
        raise ValueError("trajectory must contain at least 2 samples")
    if len(times) != len(states):
        raise ValueError("times and states must align")
    grid = states[0].grid
    psi = test.psi.values
    Jpsi = jac_arr(grid, psi)
    div_psi = np.trace(Jpsi, axis1=0, axis2=1)

    rho0 = states[0].rho.values
    m0 = rho0 * states[0].vel.values
    total = quad(grid, np.sum(m0 * psi, axis=0)) * test.chi(times[0])

    def space_terms(state):
        r = state.rho.values
        u = state.vel.values
        v = np.sqrt(r)
        # transport + pressure (multiply chi), and the phi_t pairing (chi')
        momentum_pair = quad(grid, np.sum(r * u * psi, axis=0))
        conv = quad(grid, np.einsum("i...,j...,ij...->...",
                                    u, u, Jpsi) * r)
        press = quad(grid, params.a * r ** params.gamma * div_psi)
        # split viscous terms in grad(sqrt(rho) u) - u (x) grad(sqrt rho) form
        gsr = grad_arr(grid, v)
        Jsru = jac_arr(grid, v * u)
        A = Jsru - u[:, None] * gsr[None, :]
        B = np.swapaxes(Jsru, 0, 1) - gsr[:, None] * u[None, :]
        visc = params.nu * quad(grid, v * np.sum((A + B) * Jpsi, axis=(0, 1)))
        # damping and the two kappa^2 terms
        lv = lap_arr(grid, v)
        u2 = np.sum(u * u, axis=0)
        rhs = quad(grid, params.r0 * np.sum(u * psi, axis=0)
                   + params.r1 * r * u2 * np.sum(u * psi, axis=0)
                   + 4 * params.kappa ** 2 * lv * np.sum(gsr * psi, axis=0)
                   + 2 * params.kappa ** 2 * lv * v * div_psi)
        return momentum_pair, conv + press - visc - rhs

    pairs = [space_terms(s) for s in states]
    # trapezoid in time of (rho u . psi) chi'(t) + (other terms) chi(t)
    integrand = [m * test.chi_t(t) + o * test.chi(t)
                 for (m, o), t in zip(pairs, times)]
    total += float(np.trapezoid(integrand, times))
    return abs(total)
