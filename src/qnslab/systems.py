"""Right-hand sides of the three formulations and the weak-form residual.

The velocity is evolved nonconservatively (divide by rho nodally); this is
legitimate because the solver operates strictly away from vacuum. Nonlinear
products feeding the dynamics are dealiased by the 2/3 rule; verification
callers pass use_dealias=False to bypass truncation. rhs_terms is the same
right-hand side written term by term, independently of the staged ones.

A staged right-hand side works in the stacks of its thread's Arena for its
layout, carved from the thread's store on its first call with their row
views: a call makes no stack. Its result is a copy (an Rhs), or with
spectral=True a stack of that arena, valid until the next call of a
right-hand side of the same layout or the next workspace scope on the
thread. The arithmetic temporaries of the nodal products are plain
arrays.
"""

from __future__ import annotations

import collections
import math
import operator
from dataclasses import dataclass

import numpy as np

from .fields import (ScalarField, VectorField, _symmetric, _table, arena,
                     div_arr, from_spectral, grad_arr, hess_arr, lap_arr,
                     quad, real_rows, to_spectral, to_spectral_masked)
from .physics import bohm_force, require_positive

FORMULATIONS = ("target", "approx-u", "approx-w")


@dataclass(frozen=True)
class Rhs:
    """Time derivatives (d rho/dt, d vel/dt)."""

    drho: ScalarField
    dvel: VectorField


def _directional(J, b):
    """(b . grad) applied through a Jacobian J[i,j] = d_j F_i: the sum over
    j of J[:, j] * b[j], accumulated in the order of j."""
    out = J[:, 0] * b[0]
    for j in range(1, len(b)):
        out += J[:, j] * b[j]
    return out


def continuity_rate(div_flux, eps=0.0, v_q=None, neg_p=None):
    """d rho/dt before dealiasing: -div_flux + eps * (v Q + rho^-p0), where
    div_flux is the divergence of the mass flux and v Q = sqrt(rho) *
    div(|grad sqrt(rho)|^2 grad sqrt(rho))."""
    if eps > 0:
        return eps * (v_q + neg_p) - div_flux
    return -div_flux


def _finish(grid, ar, r, drho, lin, nodal, use_dealias, spectral):
    """The right-hand side from the nodal d rho/dt and the momentum terms
    summed in spectral space (lin) and nodally (nodal): the sum divided by
    rho and [drho, dvel] dealiased as one stack, in the stacks of the arena
    ar that the levels are done with.

    spectral stops at the spectrum of [drho, dvel] in the rfft layout, 2/3
    masked if use_dealias: a stack of the arena, valid until the next call
    of a right-hand side of the same layout (rhs_target and rhs_approx_u at
    eps = 0 share one) or the next workspace scope on the thread. Otherwise
    the spectrum is inverted into an Rhs, which holds copies.
    """
    lin += nodal
    out = ar.fin
    out[0] = drho
    np.divide(lin, r, out=ar.fin_vel)
    if use_dealias or spectral:
        # dealias_arr in the arena, stopping at the spectrum
        hat = (to_spectral_masked if use_dealias else to_spectral)(
            grid, out, ar.fin_hat)
        if spectral:
            return hat
        from_spectral(grid, hat, out)
    return Rhs(ScalarField(grid, out[0]), VectorField(grid, out[1:]))


def _slices(counts):
    """Consecutive row slices, one per count, as one getter: rows(a) is the
    tuple of the views of a, or the one view if there is one count."""
    out, start = [], 0
    for c in counts:
        out.append(slice(start, start + c))
        start += c
    return start, operator.itemgetter(*out) if out else None


_Level = collections.namedtuple(
    "_Level", "lead rows spec_lead runs extras groups")


def _level(counts, *groups):
    """One dependency level of a plan, a _Level: the leading shape of its
    nodal stack (lead) and the getter of its row views, one per count
    (rows, see _slices); the leading shape of its inverse rows, their runs
    and extras; and the getter of its inverse's views, one per group of
    rows (groups). A group lists rows, a row the (multiplier, spectral row)
    terms that it sums; spectral rows count from the level's forward
    transform. A run (m, spectral rows, rows) writes the first terms of
    consecutive rows that share m and read consecutive spectral rows; then
    each extra (m, spectral row, row) adds a further term to its row, in
    the row's order."""
    runs, extras, o = [], [], 0
    for group in groups:
        for (m, i), *rest in group:
            if runs and runs[-1][0] is m and runs[-1][1].stop == i:
                _, src, dst = runs[-1]
                runs[-1] = (m, slice(src.start, i + 1),
                            slice(dst.start, o + 1))
            else:
                runs.append((m, slice(i, i + 1), slice(o, o + 1)))
            extras += [(m, i, o) for m, i in rest]
            o += 1
    count, nodal = _slices(counts)
    return _Level((count,), nodal, (o,), tuple(runs), tuple(extras),
                  _slices(len(g) for g in groups)[1])


def _plan(grid, form, reg, bohm, mu=0.0):
    """The static layout of a staged right-hand side, one _level per
    dependency level, built once per arena (see _build). Level 1's rows
    begin with those of the state that it transforms, in the order of
    [rho, vel]: the velocity's in the u-form, the density's and the
    velocity's in the w-form, so a stage State's spectrum fills their
    spectral rows in one copy. In level 2 of the u-form the last spectral
    row holds the spectrum of P, transformed with the stack without
    regularization and alone with it (then level 3 forms div T + grad P).
    mu weights the one Laplacian of the w-form's rows; the u-form's rows
    read no parameter."""
    d, ik, dd = grid.dim, grid._ik, grid.dim ** 2
    vel = 1 if form == "w" else 0   # the velocity's first row

    def lin(p):
        # div T + grad P of T in rows 0..dd-1 and P in row p
        return [[(ik[j], i * d + j) for j in range(d)] + [(ik[i], p)]
                for i in range(d)]
    jac = [[(ik[j], vel + i)] for i in range(d) for j in range(d)]
    div = [[(k, vel + d + j) for j, k in enumerate(ik)]]
    if form == "w":
        lg, v = 2 * d + 1, 2 * d + 2   # rows of log(rho), sqrt(rho)
        div[0].append((_table(-mu * grid._lap.real, grid._lap.shape), 0))
        one = _level((1, d, d, 1, reg), jac, div,
                     [[(k, 0)] for k in ik], [[(k, lg)] for k in ik],
                     [[(k, v)] for k in ik] if reg else [],
                     [[(grid._lap, 1 + i)] for i in range(d)])
        two = _level((dd, d * reg, 1), lin(dd + d * reg),
                     [[(k, dd + j) for j, k in enumerate(ik)]] if reg else [])
        return one, two
    v, lg = 2 * d, 2 * d + (reg or bohm)    # rows of sqrt(rho), log(rho)
    one = _level((d, d, reg or bohm, reg), jac, div,
                 [[(k, v)] for k in ik] if reg else [],
                 [[(k, lg)] for k in ik] if reg else [],
                 [[(grid._lap, v)]] if bohm else [],
                 [[(m, lg)] for m in grid._hess] if reg else [])
    q = dd + d * reg    # rows of lap sqrt(rho) / sqrt(rho), then P
    two = _level((dd, d * reg, bohm, not reg),
                 [[(k, dd + j) for j, k in enumerate(ik)]] if reg else [],
                 [[(k, q)] for k in ik] if bohm else [],
                 [] if reg else lin(q + bohm))
    return one, two, _level((), lin(q + bohm))


_Bound = collections.namedtuple(
    "_Bound", "rows nodal hat runs extras spec out groups")


def _build(ar, form, reg, bohm, mu=0.0):
    """The stacks of the staged right-hand side of _plan(grid, form, reg,
    bohm, mu) on the Arena ar, and the views of each level, a _Bound: the
    views of its nodal rows (rows, see _slices) and its nodal stack, the
    spectral rows its forward transform writes (hat), its runs and extras
    with their multiplier, spectral input and spectral output views, its
    spectral stack, the real stack of its inverse rows and their views by
    row group.

    One nodal and one spectral stack serve each level in turn, and then
    _finish: a level's nodal rows are dead once transformed, and its
    spectra once its inverse rows are formed (the u-form's level 2
    spectra, with P's row after them, once level 3's are). Each level has
    the spectral stack of its inverse rows and the real stack the inverse
    writes: over the spectral stack's memory (real_rows) in 2D and 3D, a
    stack of its own in 1D, where numpy would copy the overlap. The
    inverse spectra of each later level lie over the first bytes of level
    1's, where the Jacobian's real rows lie in 2D and 3D, if they fit
    there: the Jacobian is read only by level 2's nodal products, and each
    later level's spectra are read before the next level's are formed.
    sqrt(rho), read by every level, has a stack of its own; the Hessian of
    log rho, read only in level 2 before its forward transform, lies over
    the spectral stack, which no level reads then."""
    grid = ar.grid
    plan = _plan(grid, form, reg, bohm, mu)
    m = 1 + grid.dim
    read = [src.stop - 1 for level in plan for _, src, _ in level.runs]
    read += [i for level in plan for _, i, _ in level.extras]
    ar.nodal = ar.stack((max(m, *(level.lead[0] for level in plan)),))
    hat = ar.hat = ar.stack((max(m, grid.dim ** 2, 1 + max(read)),),
                            spectral=True)
    # the bytes of level 1's first d^2 inverse rows, the Jacobian, dead
    # once level 2's nodal rows are formed
    first = ar.stack(plan[0].spec_lead, spectral=True).reshape(-1)
    jac = grid.dim ** 2 * grid._rows[0][1]
    specs = [first.reshape(plan[0].spec_lead + grid._rows[1][0])]
    for level in plan[1:]:
        spec_bytes = level.spec_lead[0] * grid._rows[1][1]
        specs.append(
            first[:spec_bytes // 16].reshape(level.spec_lead
                                            + grid._rows[1][0])
            if spec_bytes <= jac else ar.stack(level.spec_lead, spectral=True))
    ar.levels = []
    for level, spec in zip(plan, specs):
        out = (real_rows(grid, spec) if grid.dim > 1
               else ar.stack(level.spec_lead))
        nodal = ar.nodal[:level.lead[0]]
        ar.levels.append(_Bound(
            level.rows(nodal) if level.rows else None, nodal,
            hat[:level.lead[0]],
            tuple((m, hat[src], spec[dst]) for m, src, dst in level.runs),
            tuple((m, hat[i], spec[o]) for m, i, o in level.extras),
            spec, out, level.groups(out)))
    ar.v = ar.stack(())
    ar.H = real_rows(grid, hat)[:grid.dim ** 2].reshape(
        (grid.dim,) * 2 + grid.shape)
    ar.fin, ar.fin_hat = ar.nodal[:m], hat[:m]
    ar.fin_vel = ar.fin[1:]


def _inverse(grid, bound):
    """A level's inverse rows, formed from the spectral rows of the arena
    and inverse-transformed as one stack, by row group (see _slices)."""
    for m, src, dst in bound.runs:
        np.multiply(m, src, out=dst)
    for m, src, dst in bound.extras:
        dst += m * src
    from_spectral(grid, bound.spec, bound.out)
    return bound.groups


def _rhs_u(state, params, eps, use_dealias, spectral):
    """The u-form right-hand side, evaluated one dependency level at a time
    with one batched forward and one batched inverse transform per level,
    in the stacks and views of its thread's arena for the layout (eps > 0,
    kappa > 0) (see _build): a call does only the arithmetic. eps = 0 is
    the target system."""
    if state.form != "u":
        raise ValueError("rhs_target and rhs_approx_u expect a u-form state")
    rho = state.rho
    r, u, grid = rho.values, state.vel.values, rho.grid
    require_positive(r)
    d = grid.dim
    nu, mu, p0 = params.nu, params.mu, params.p0
    reg, bohm = eps > 0, params.kappa > 0
    se = math.sqrt(eps)
    v_q = neg_p = None
    ar = arena(grid, ("u", reg, bohm), _build, "u", reg, bohm)
    one, two, three = ar.levels

    # level 1: [u, rho u, sqrt(rho), log(rho)] -> J, div(rho u),
    # grad sqrt(rho), grad log(rho), lap sqrt(rho), upper Hess log(rho)
    ua, rua, va, la = one.rows
    np.multiply(r, u, out=rua)
    if reg or bohm:
        v = np.sqrt(r, out=ar.v)  # read after level 2 reuses the stack
        va[0] = v
    if reg:
        np.log(r, out=la[0])
    spectrum = state._spectrum
    if spectrum is None:
        ua[...] = u
        to_spectral(grid, one.nodal, one.hat)
    else:
        # u's spectral rows are those of the stage State's [rho, u]
        one.hat[:d] = spectrum[1:]
        to_spectral(grid, one.nodal[d:], one.hat[d:])
    J, div_ru, gv, glog, lapv, hlog = _inverse(grid, one)
    J = J.reshape((d, d) + grid.shape)

    # level 2: [T, flux, lap sqrt(rho)/sqrt(rho), P if it needs no Q] ->
    # Q = div(flux), grad(lap sqrt(rho)/sqrt(rho)); div T stays a spectrum
    # T = rho (2 nu D + sqrt(eps) J + sqrt(eps) mu Hess log rho)
    tb, fb, qb, pb = two.rows
    T = tb.reshape(J.shape)
    np.multiply(J, nu + se, out=T)
    T += nu * J.swapaxes(0, 1)
    # the momentum terms without an outermost derivative, summed nodally
    nodal = -r * _directional(J, u)
    if params.r0:
        nodal -= params.r0 * u
    if params.r1:
        nodal -= params.r1 * r * np.add.reduce(u * u, axis=0) * u
    if reg:
        H = _symmetric(grid, hlog, ar.H)
        T += se * mu * H
        flux = fb
        np.multiply(np.add.reduce(gv * gv, axis=0), gv, out=flux)
        neg_p = r ** (-p0)
        w = u + mu * glog
        w3 = np.add.reduce(w * w, axis=0) ** 1.5
        nodal += eps * v * _directional(J, flux)
        nodal += eps * mu * v * _directional(H, flux)
        nodal -= eps * neg_p * u
        nodal -= (eps ** 1.5) * r * w3 * u
    T *= r
    if bohm:
        np.divide(lapv[0], v, out=qb[0])
    # the pressure-like terms are grad P, P = -(a rho^gamma + eps mu
    # (rho^-p0 + v Q)); without regularization P needs no Q
    pressure = params.a * r ** params.gamma
    if not reg:
        np.negative(pressure, out=pb[0])
    to_spectral(grid, two.nodal, two.hat)
    Q, gq, lin = _inverse(grid, two)
    if bohm:
        nodal += params.kappa ** 2 * (2.0 * r * gq)
    if reg:
        # level 3: [P] -> div T + grad P; P's spectral row follows level 2's
        v_q = v * Q[0]
        nodal += eps * mu * v_q * glog
        pressure += eps * mu * (neg_p + v_q)
        to_spectral(grid, -pressure, ar.hat[len(two.hat)])
        lin = _inverse(grid, three)
    drho = continuity_rate(div_ru[0], eps, v_q, neg_p)
    return _finish(grid, ar, r, drho, lin, nodal, use_dealias, spectral)


def rhs_target(state, params, use_dealias=True, spectral=False):
    """Target system: mass transport plus momentum with pressure a*rho^gamma,
    degenerate viscosity 2*nu*div(rho D u), Bohm force, and damping; the
    eps = 0 path of the u-form right-hand side."""
    return _rhs_u(state, params, 0.0, use_dealias, spectral)


def rhs_approx_u(state, params, use_dealias=True, spectral=False):
    """Regularized system in (rho, u): parabolic mass regularization
    eps*v*div(|grad v|^2 grad v) + eps*rho^-p0 and the matching
    epsilon-weighted momentum corrections. Setting eps = 0 reproduces
    rhs_target exactly.

    Eight FFT calls: one batched forward and one batched inverse transform
    for each of three dependency levels, and one pair to dealias [drho,
    dvel]. The terms whose derivative is outermost are summed in spectral
    space: div T with T = rho (2 nu D + sqrt(eps) J + sqrt(eps) mu
    Hess log rho), and grad P with the one pressure-like scalar
    P = -(a rho^gamma + eps mu rho^-p0 + eps mu sqrt(rho) Q).

    spectral (for the time step) returns the masked spectrum of [drho,
    dvel] instead, a stack of the thread's arena that the next call of a
    right-hand side of the same layout or the next workspace scope on the
    thread writes over (see _finish), and skips the inverse of the
    dealiasing pair: seven calls. The dealiasing transform passes the
    leading grid axes on the kept modes only (fields.to_spectral_masked).

    A stage State of timeloop.step carries the spectrum of [rho, u]: level
    1 then copies u's spectral rows from it and forward-transforms only
    [rho u, sqrt(rho), log(rho)], with the bits of the call on a State
    without one."""
    return _rhs_u(state, params, params.eps, use_dealias, spectral)


def rhs_approx_w(state, params, use_dealias=True, spectral=False):
    """Regularized system in (rho, w): the effective-velocity form. The
    momentum line contains no third-order dispersive operator; the highest
    derivative applied to the velocity is second order and the only density
    operators are first derivatives and one Laplacian.

    Staged like rhs_approx_u, in the arena of the layout (eps > 0, mu);
    P = -a rho^gamma needs no derivative, so two levels and the dealiasing
    pair take six FFT calls, and five with spectral. Level 1's rows begin
    with [rho, w], so when a stage State of timeloop.step carries their
    spectrum it fills their spectral rows in one copy, and level 1
    forward-transforms only [rho w, log(rho), sqrt(rho)], with the bits of
    the call on a State without one."""
    if state.form != "w":
        raise ValueError("rhs_approx_w expects a w-form state")
    rho = state.rho
    r, w, grid = rho.values, state.vel.values, rho.grid
    require_positive(r)
    d = grid.dim
    eps, mu = params.eps, params.mu
    reg = eps > 0
    v_q = neg_p = None
    ar = arena(grid, ("w", reg, mu), _build, "w", reg, False, mu)
    one, two = ar.levels

    # level 1: [rho, w, rho w, log(rho), sqrt(rho)] -> Jw,
    # div(rho w) - mu lap(rho), grad(rho), grad log(rho), grad sqrt(rho),
    # lap w
    ra, wa, rwa, la, va = one.rows
    np.multiply(r, w, out=rwa)
    np.log(r, out=la[0])
    if reg:
        v = np.sqrt(r, out=ar.v)  # read after level 2 reuses the stack
        va[0] = v
    spectrum = state._spectrum
    if spectrum is None:
        ra[0] = r
        wa[...] = w
        to_spectral(grid, one.nodal, one.hat)
    else:
        # [rho, w]'s spectral rows are the stage State's spectrum
        one.hat[:1 + d] = spectrum
        to_spectral(grid, one.nodal[1 + d:], one.hat[1 + d:])
    Jw, div_m, gr, glog, gv, lapw = _inverse(grid, one)
    Jw = Jw.reshape((d, d) + grid.shape)
    u = w - mu * glog

    # level 2: [T, flux, P] -> div T + grad P, Q = div(flux)
    # T = rho (2 (nu - mu) Dw + sqrt(eps) Jw)
    tb, fb, pb = two.rows
    T = tb.reshape(Jw.shape)
    np.multiply(Jw, params.nu - mu + math.sqrt(eps), out=T)
    T += (params.nu - mu) * Jw.swapaxes(0, 1)
    T *= r
    # the momentum terms without an outermost derivative, summed nodally
    nodal = -r * _directional(Jw, w)
    nodal += mu * r * lapw
    nodal += 2 * mu * _directional(Jw, gr)
    if params.r0:
        nodal -= params.r0 * u
    if params.r1:
        nodal -= params.r1 * r * np.add.reduce(u * u, axis=0) * u
    if reg:
        flux = fb
        np.multiply(np.add.reduce(gv * gv, axis=0), gv, out=flux)
        neg_p = r ** (-params.p0)
        w3 = np.add.reduce(w * w, axis=0) ** 1.5
        nodal += eps * v * _directional(Jw, flux)
        nodal -= (eps ** 1.5) * r * w3 * u
        nodal -= eps * neg_p * w
    np.negative(params.a * r ** params.gamma, out=pb[0])
    to_spectral(grid, two.nodal, two.hat)
    lin, Q = _inverse(grid, two)
    if reg:
        v_q = v * Q[0]
    drho = continuity_rate(div_m[0], eps, v_q, neg_p)
    return _finish(grid, ar, r, drho, lin, nodal, use_dealias, spectral)


def rhs_terms(state, params, formulation):
    """The right-hand side of a formulation term by term: (drho, {label:
    momentum term}), nodal arrays whose terms sum to rho * dvel. Written
    apart from the staged right-hand sides as their reference: one plain
    fields operator (or bohm_force) per term, undealiased and unbatched.
    Every label of the formulation is present, zero where its coefficient
    vanishes; the "eps-" labels only when eps > 0 (never for the target).
    """
    form = "w" if formulation == "approx-w" else "u"
    if formulation not in FORMULATIONS or state.form != form:
        raise ValueError(f"no {formulation!r} right-hand side of a "
                         f"{state.form}-form state")
    require_positive(state.rho.values)
    grid, r, vel = state.grid, state.rho.values, state.vel.values
    eps = 0.0 if formulation == "target" else params.eps
    mu, se = params.mu, math.sqrt(eps)
    J = grad_arr(grid, vel)
    D = 0.5 * (J + np.swapaxes(J, 0, 1))
    if form == "u":
        u = vel
        drho = -div_arr(grid, r * u)
        terms = {"convection": -r * _directional(J, u),
                 "viscous": 2 * params.nu * div_arr(grid, r * D),
                 "pressure": -grad_arr(grid, params.a * r ** params.gamma),
                 "bohm": params.kappa ** 2 * bohm_force(state.rho).values}
    else:
        w = vel
        u = w - mu * grad_arr(grid, np.log(r))
        drho = -div_arr(grid, r * w) + mu * lap_arr(grid, r)
        terms = {"convection": -r * _directional(J, w),
                 "pressure": -grad_arr(grid, params.a * r ** params.gamma),
                 "viscous": 2 * (params.nu - mu) * div_arr(grid, r * D),
                 "mu-laplace": mu * r * lap_arr(grid, w),
                 "mu-gradrho-gradw": 2 * mu * _directional(
                     J, grad_arr(grid, r))}
    terms["damping-r0"] = -params.r0 * u
    terms["damping-r1"] = -params.r1 * r * np.sum(u * u, axis=0) * u
    if eps > 0:
        v = np.sqrt(r)
        gv = grad_arr(grid, v)
        flux = np.sum(gv * gv, axis=0) * gv
        Q = div_arr(grid, flux)
        neg_p = r ** (-params.p0)
        drho = drho + eps * v * Q + eps * neg_p
        terms["eps-viscous"] = se * div_arr(grid, r * J)
        terms["eps-flux-advect"] = eps * v * _directional(J, flux)
        terms["eps-source-drag"] = -eps * neg_p * vel
        if form == "u":
            glog, H = grad_arr(grid, np.log(r)), hess_arr(grid, np.log(r))
            w = u + mu * glog
            terms["eps-mu-viscous"] = se * mu * div_arr(grid, r * H)
            terms["eps-mu-flux-hesslog"] = eps * mu * v * _directional(H, flux)
            terms["eps-mu-pgrad"] = -eps * mu * grad_arr(grid, neg_p)
            terms["eps-mu-flux-grad"] = -eps * mu * grad_arr(grid, v * Q)
            terms["eps-mu-flux-gradlog"] = eps * mu * v * Q * glog
        terms["eps-cubic-drag"] = (-(eps ** 1.5) * r
                                   * np.sum(w * w, axis=0) ** 1.5 * u)
    return drho, terms


# ---------------------------------------------------------------------------
# weak-formulation residual
# ---------------------------------------------------------------------------

class SpaceTimeTestFunction:
    """phi(x, t) = psi(x) * chi(t), psi a trigonometric-polynomial vector
    field and chi a smooth cutoff with chi(T) = 0 (here cos^2(pi t / 2T))."""

    def __init__(self, psi, t_end):
        self.psi = psi
        self.t_end = float(t_end)

    def chi(self, t):
        return np.cos(np.pi * t / (2 * self.t_end)) ** 2

    def chi_t(self, t):
        T = self.t_end
        return -(np.pi / (2 * T)) * np.sin(np.pi * t / T)


def trig_test_function(grid, t_end, mode=1):
    """Simple single-mode test field: psi_i = sin(mode * 2 pi x_i / L_i)."""
    mesh = grid.meshgrid()
    comps = [np.sin(mode * 2 * np.pi * mesh[i] / grid.length[i])
             for i in range(grid.dim)]
    return SpaceTimeTestFunction(VectorField(grid, np.stack(comps)), t_end)


class WeakResidual:
    """Observer of integrate: the weak momentum residual of uniform-cadence
    u-form records against one space-time test function. Quadrature in
    space, trapezoid rule in time; value() is the residual magnitude (zero
    for an exact solution)."""

    def __init__(self, test, params):
        self.test, self.params = test, params
        self._Jpsi = grad_arr(test.psi.grid, test.psi.values)
        self._div_psi = np.trace(self._Jpsi, axis1=0, axis2=1)
        self._initial = None    # the pairing of the initial momentum
        self._times, self._integrand = [], []

    def __call__(self, state, d):
        if state.form != "u":
            raise ValueError("weak residual requires u-form states")
        params, test, t = self.params, self.test, state.time
        grid, psi = d.grid, test.psi.values
        Jpsi, div_psi = self._Jpsi, self._div_psi
        d.load("grad_sqrt_rho", "lap_sqrt_rho", "jac_sqrt_rho_u")
        r, u, v = d.rho, d.u, d.sqrt_rho
        # transport + pressure (multiply chi), and the phi_t pairing (chi')
        momentum_pair = quad(grid, np.sum(r * u * psi, axis=0))
        if self._initial is None:
            self._initial = momentum_pair * test.chi(t)
        conv = quad(grid, np.einsum("i...,j...,ij...->...",
                                    u, u, Jpsi) * r)
        press = quad(grid, params.a * r ** params.gamma * div_psi)
        # split viscous terms in grad(sqrt(rho) u) - u (x) grad(sqrt rho) form
        gsr, Jsru = d.grad_sqrt_rho, d.jac_sqrt_rho_u
        A = Jsru - u[:, None] * gsr[None, :]
        visc = params.nu * quad(grid, v * np.sum(
            (A + A.swapaxes(0, 1)) * Jpsi, axis=(0, 1)))
        # damping and the two kappa^2 terms
        lv = d.lap_sqrt_rho
        u2 = d.u2
        rhs = quad(grid, params.r0 * np.sum(u * psi, axis=0)
                   + params.r1 * r * u2 * np.sum(u * psi, axis=0)
                   + 4 * params.kappa ** 2 * lv * np.sum(gsr * psi, axis=0)
                   + 2 * params.kappa ** 2 * lv * v * div_psi)
        # (rho u . psi) chi'(t) + (other terms) chi(t)
        self._times.append(t)
        self._integrand.append(momentum_pair * test.chi_t(t)
                               + (conv + press - visc - rhs) * test.chi(t))

    def value(self):
        if len(self._times) < 2:
            raise ValueError("trajectory must contain at least 2 samples")
        return abs(self._initial
                   + float(np.trapezoid(self._integrand, self._times)))
