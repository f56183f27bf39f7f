"""Scalar functionals and pointwise-integral inequality checkers.

Energy, BD entropy, and Mellet-Vasseur functionals, the named instantaneous
dissipation integrals, and quadrature verifications of the unconditional
functional inequalities (Jungel bounds, the |grad v|^6 bound, the div-vs-D
bound) and exact identities (quartic-flux pairing, the sqrt(rho)u product
rule).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .fields import div_arr, grad_arr, per_node, quad
from .physics import Derived, require_positive

# Inequality pass criterion: quadrature and roundoff must not flag true
# inequalities.
REL_TOL = 1e-10
ABS_TOL = 1e-12

DISSIPATION_KEYS = (
    "nu_rho_Du2",            # nu * int rho |D u|^2
    "r0_u2",                 # r0 * int |u|^2
    "r1_rho_u4",             # r1 * int rho |u|^4
    "sqrt_eps_rho_gradu2",   # sqrt(eps) * int rho |grad u|^2
    "eps_gradv4",            # eps * int |grad v|^4
    "eps_gradv4_u2",         # eps * int |grad v|^4 |u|^2
    "eps_rho_negp_u2",       # eps * int rho^-p0 |u|^2
    "eps32_rho_w3_u2",       # eps^(3/2) * int rho |w|^3 |u|^2
    "kappa_quartic_group",   # (2k^2+2mu*sqrt(eps))*eps * int(|gv|^2|hv|^2
                             #   + |grad|gv|^2|^2 + (2p0+1)|gv|^2 v^(-2p0-2))
    "kappa2_rho_hesslog2",   # kappa^2 * int rho |hess log rho|^2
    "grad_rho_gamma_half2",  # int |grad rho^(gamma/2)|^2
    "grad_sqrtrho_u2",       # int |grad(sqrt(rho) u) - u (x) grad sqrt(rho)|^2
)


@dataclass(frozen=True)
class FunctionalReport:
    """One inequality or identity instance: lhs vs rhs with a margin."""

    name: str
    lhs: float
    rhs: float = None
    rel_tol: float = REL_TOL
    abs_tol: float = ABS_TOL

    @property
    def margin(self):
        return None if self.rhs is None else self.rhs - self.lhs

    @property
    def passed(self):
        if self.rhs is None:
            return True
        return self.lhs <= self.rhs * (1 + self.rel_tol) + self.abs_tol

    def to_json(self):
        return json.dumps({
            "name": self.name, "lhs": self.lhs, "rhs": self.rhs,
            "margin": self.margin, "passed": self.passed,
            "rel_tol": self.rel_tol, "abs_tol": self.abs_tol,
        })


@dataclass(frozen=True)
class MonitorRecord:
    """One time sample of every tracked functional."""

    time: float
    mass: float
    energy: float
    bd_entropy: float
    mv: float
    rho_min: float
    rho_max: float
    mass_balance_residual: float
    dissipation: dict = field(default_factory=dict)

    def is_finite(self):
        vals = [self.mass, self.energy, self.bd_entropy, self.mv,
                self.rho_min, self.rho_max, self.mass_balance_residual]
        vals += list(self.dissipation.values())
        return bool(np.all(np.isfinite(vals)))


def derived(state, params=None):
    """The Derived bundle of a state; a bundle is returned as it is."""
    if isinstance(state, Derived):
        if params is not None and params is not state.params \
                and params != state.params:
            raise ValueError("bundle was built with other params")
        return state
    return Derived(state, params)


def log_minus(rho_values):
    """log_-(g) = log(min(1, g)), i.e. min(log g, 0) nodally."""
    return np.minimum(np.log(rho_values), 0.0)


def energy(state, params):
    """int(rho|u|^2 + rho + a rho^g + eps rho^-p0
           + (2k^2 + 2 mu sqrt(eps)) |grad v|^2 + eps mu |grad v|^4).

    state is a State or its Derived bundle, as for every functional here;
    a stacked bundle gives one value per state of the stack."""
    d = derived(state, params)
    r = d.rho
    gv2 = d.grad_sqrt_rho2
    eps, mu = params.eps, params.mu
    integrand = r * d.u2 + r + params.a * r ** params.gamma
    if eps > 0:
        integrand = integrand + eps * d.rho_neg_p0
    cgrad = 2 * params.kappa ** 2 + 2 * mu * np.sqrt(eps)
    integrand = integrand + cgrad * gv2 + eps * mu * gv2 ** 2
    return quad(d.grid, integrand)


def bd_entropy(state, params):
    """int(|grad v|^2 + eps |grad v|^4 - r0 log_-(rho))."""
    d = derived(state, params)
    gv2 = d.grad_sqrt_rho2
    integrand = gv2 + params.eps * gv2 ** 2 \
        - params.r0 * np.minimum(d.log_rho, 0.0)
    return quad(d.grid, integrand)


def mv_functional(state, params=None):
    """Mellet-Vasseur functional int rho (e + |u|^2) ln(e + |u|^2)."""
    d = derived(state, params)
    arg = np.e + d.u2
    return quad(d.grid, d.rho * arg * np.log(arg))


def _kinetic_dissipation(d, params):
    """The seven channels of energy_dissipation that the energy budget's
    dissipation group sums; they read jac_u, grad_sqrt_rho and
    grad_log_rho."""
    grid, r, u2, J, gv2 = d.grid, d.rho, d.u2, d.jac_u, d.grad_sqrt_rho2
    ca = -grid.dim - 1
    tensor, total, eps = (ca - 1, ca), np.add.reduce, params.eps
    D = 0.5 * (J + np.swapaxes(J, ca - 1, ca))
    w = d.u + params.mu * d.grad_log_rho
    neg_p = d.rho_neg_p0 if eps > 0 else np.zeros_like(r)
    return {
        "nu_rho_Du2": params.nu * quad(grid, r * total(D * D, axis=tensor)),
        "r0_u2": params.r0 * quad(grid, u2),
        "r1_rho_u4": params.r1 * quad(grid, r * u2 ** 2),
        "sqrt_eps_rho_gradu2": np.sqrt(eps) * quad(
            grid, r * total(J * J, axis=tensor)),
        "eps_gradv4_u2": eps * quad(grid, gv2 ** 2 * u2),
        "eps_rho_negp_u2": eps * quad(grid, neg_p * u2),
        "eps32_rho_w3_u2": eps ** 1.5 * quad(
            grid, r * total(w * w, axis=ca) ** 1.5 * u2),
    }


def energy_dissipation(state, params):
    """Instantaneous values of the named dissipation integrals.

    Time integration of these is the time loop's job; this returns the
    integrands' quadratures at the given state, or one value per state of
    a stacked bundle (kappa_quartic_group is 0.0 for all of them at
    eps = 0).
    """
    d = derived(state, params)
    grid = d.grid
    ca = -grid.dim - 1
    r, u, v = d.rho, d.u, d.sqrt_rho
    eps, mu, p0 = params.eps, params.mu, params.p0

    d.load("grad_sqrt_rho", "hess_sqrt_rho", "grad_log_rho", "hess_log_rho",
           "jac_u", "jac_sqrt_rho_u")
    Hv, Hlog, Jsu = d.hess_sqrt_rho, d.hess_log_rho, d.jac_sqrt_rho_u
    gv, gv2 = d.grad_sqrt_rho, d.grad_sqrt_rho2
    g_rg = grad_arr(grid, r ** (params.gamma / 2))
    # grad(sqrt(rho) u) - u (x) grad(sqrt(rho)). Unit axes come by indexing
    # and sums by np.add.reduce (np.sum without its wrapper): a 1D record
    # spends more time in such calls than in the arithmetic.
    nodes = (slice(None),) * grid.dim
    diff = Jsu - (u[(..., None) + nodes]
                  * gv[(..., None, slice(None)) + nodes])
    tensor, total = (ca - 1, ca), np.add.reduce

    out = _kinetic_dissipation(d, params)
    out["eps_gradv4"] = eps * quad(grid, gv2 ** 2)
    out["kappa_quartic_group"] = 0.0
    out["kappa2_rho_hesslog2"] = params.kappa ** 2 * quad(
        grid, r * total(Hlog * Hlog, axis=tensor))
    out["grad_rho_gamma_half2"] = quad(grid, total(g_rg * g_rg, axis=ca))
    out["grad_sqrtrho_u2"] = quad(grid, total(diff * diff, axis=tensor))
    if eps > 0:
        ckap = (2 * params.kappa ** 2 + 2 * mu * np.sqrt(eps)) * eps
        g_gv2 = grad_arr(grid, gv2)
        quartic = (gv2 * total(Hv * Hv, axis=tensor)
                   + total(g_gv2 * g_gv2, axis=ca)
                   + (2 * p0 + 1) * gv2 * v ** (-2 * p0 - 2))
        out["kappa_quartic_group"] = ckap * quad(grid, quartic)
    return out


# ---------------------------------------------------------------------------
# inequality / identity checkers
# ---------------------------------------------------------------------------

# The checkers take fields; each is a wrapper over a batch-aware kernel
# that reads a Derived bundle, of one field or of a stack of them with
# leading batch axes, and returns one FunctionalReport per field of the
# stack. A kernel reads its first-level derivatives from the bundle.

def _reports(name, lhs, rhs, **tols):
    """One FunctionalReport per field from per-field lhs and rhs values."""
    return [FunctionalReport(name, a, b, **tols)
            for a, b in zip(np.ravel(lhs).tolist(), np.ravel(rhs).tolist())]


def jungel_batch(d):
    """int |grad r^(1/4)|^4 <= 8 int r |hess log r|^2 and
       int |hess r^(1/2)|^2 <= 7 int r |hess log r|^2, as two report
       lists."""
    grid = d.grid
    ca = -grid.dim - 1
    g14 = d.grad_rho14
    lhs1 = quad(grid, np.sum(g14 * g14, axis=ca) ** 2)
    Hs = d.hess_sqrt_rho
    lhs2 = quad(grid, np.sum(Hs * Hs, axis=(ca - 1, ca)))
    Hlog = d.hess_log_rho
    base = quad(grid, d.rho * np.sum(Hlog * Hlog, axis=(ca - 1, ca)))
    return (_reports("jungel_quartic", lhs1, 8.0 * base),
            _reports("jungel_hessian", lhs2, 7.0 * base))


def check_jungel(rho):
    """The two Jungel bounds of one density; see jungel_batch."""
    quartic, hessian = jungel_batch(Derived.of(rho.grid, rho.values))
    return quartic[0], hessian[0]


def grad6_batch(d):
    """int v^-2 |grad v|^6 <= 2 int |grad v|^2 |lap v|^2
                              + 8 int |grad |grad v|^2|^2, v = sqrt(rho)."""
    grid, v = d.grid, d.sqrt_rho
    require_positive(v)
    ca = -grid.dim - 1
    gv2 = d.grad_sqrt_rho2
    lhs = quad(grid, v ** -2 * gv2 ** 3)
    lv = d.lap_sqrt_rho
    g_gv2 = grad_arr(grid, gv2)
    rhs = (2.0 * quad(grid, gv2 * lv * lv)
           + 8.0 * quad(grid, np.sum(g_gv2 * g_gv2, axis=ca)))
    return _reports("grad6", lhs, rhs)


def check_grad6(v):
    """The |grad v|^6 bound of one field; see grad6_batch."""
    return grad6_batch(Derived.of(v.grid, sqrt_rho=v.values))[0]


def div_vs_D_batch(d):
    """int rho (div u)^2 <= 3 int rho |D u|^2 (dimension bound, d <= 3)."""
    grid, r = d.grid, d.rho
    ca = -grid.dim - 1
    J = d.jac_u
    divu = np.trace(J, axis1=ca - 1, axis2=ca)
    D = 0.5 * (J + np.swapaxes(J, ca - 1, ca))
    lhs = quad(grid, r * divu ** 2)
    rhs = 3.0 * quad(grid, r * np.sum(D * D, axis=(ca - 1, ca)))
    return _reports("div_vs_D", lhs, rhs)


def check_div_vs_D(rho, u):
    """The div-vs-D bound of one (rho, u) pair; see div_vs_D_batch."""
    return div_vs_D_batch(Derived.of(rho.grid, rho.values, u.values))[0]


def flux_identity_batch(d, exponents, rel_tol=1e-8):
    """Pairing identity for the quartic flux of v = sqrt(rho), for each
    exponent r >= 0:

    int div(|gv|^r gv) div(|gv|^2 gv)
      = int( 2r (gv . Hv gv)^2 |gv|^(r-4) |gv|^2
             + (r+2) |Hv gv|^2 |gv|^r + |gv|^(r+2) |Hv|^2 )

    written with q = Hv gv, the first term is 2r (q.gv)^2 |gv|^(r-2).
    Checked as a two-sided equality within rel_tol. The exponents share
    grad v, Hess v and div(|gv|^2 gv); returns {r: report list}.
    """
    if any(r < 0 for r in exponents):
        raise ValueError("r must be nonnegative")
    grid = d.grid
    ca = -grid.dim - 1
    d.load("grad_sqrt_rho", "hess_sqrt_rho")
    gv, Hv = d.grad_sqrt_rho, d.hess_sqrt_rho
    gv2 = d.grad_sqrt_rho2
    Hv2 = np.sum(Hv * Hv, axis=(ca - 1, ca))
    x = "xyz"[:grid.dim]
    q = np.einsum(f"...ij{x},...j{x}->...i{x}", Hv, gv)
    q2 = np.sum(q * q, axis=ca)
    qg = np.sum(q * gv, axis=ca)
    del q

    # one divergence for the distinct fluxes; the r = 2 flux is the right
    # factor of every pairing
    powers = sorted(set(exponents) | {2})
    fluxes = np.stack([per_node(grid, gv2 ** (r / 2)) * gv for r in powers],
                      axis=ca - 1)
    divs = dict(zip(powers, np.moveaxis(div_arr(grid, fluxes), ca, 0)))

    out = {}
    for r in exponents:
        lhs = quad(grid, divs[r] * divs[2])
        if r == 0:
            first = np.zeros_like(gv2)
        else:
            safe = np.where(gv2 > 0, gv2, 1.0)
            first = np.where(gv2 > 0, 2 * r * qg ** 2 * safe ** (r / 2 - 1),
                             0.0)
        rhs = quad(grid, first + (r + 2) * q2 * gv2 ** (r / 2)
                   + gv2 ** (r / 2 + 1) * Hv2)
        scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
        out[r] = _reports("flux_identity", np.abs(lhs - rhs),
                          rel_tol * scale, rel_tol=0.0, abs_tol=ABS_TOL)
    return out


def check_flux_identity(v, r, rel_tol=1e-8):
    """The quartic-flux pairing identity of one field at exponent r; see
    flux_identity_batch."""
    return flux_identity_batch(Derived.of(v.grid, sqrt_rho=v.values), (r,),
                               rel_tol)[r][0]


def grad_sqrtrho_u_batch(d, tol=1e-8):
    """Nodal product rule grad(sqrt(rho) u) = sqrt(rho) grad u
       + 2 rho^(1/4) u (x) grad rho^(1/4)."""
    grid, r, u = d.grid, d.rho, d.u
    ca = -grid.dim - 1
    lhs = d.jac_sqrt_rho_u
    rhs = per_node(grid, d.sqrt_rho, 2) * d.jac_u \
        + 2 * per_node(grid, d.rho14, 2) * np.expand_dims(u, ca) \
        * np.expand_dims(d.grad_rho14, ca - 1)
    flat = lhs.shape[:r.ndim - grid.dim] + (-1,)
    err = np.max(np.abs(lhs - rhs).reshape(flat), axis=-1)
    scale = np.maximum(np.max(np.abs(lhs).reshape(flat), axis=-1), 1.0)
    return _reports("grad_sqrtrho_u", err, tol * scale,
                    rel_tol=0.0, abs_tol=0.0)


def check_grad_sqrtrho_u(rho, u, tol=1e-8):
    """The sqrt(rho) u product rule of one (rho, u) pair; see
    grad_sqrtrho_u_batch."""
    return grad_sqrtrho_u_batch(Derived.of(rho.grid, rho.values, u.values),
                                tol)[0]
