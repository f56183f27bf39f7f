"""Time integration with step control, positivity guarding, and monitors.

Two schemes: classic explicit RK4 (the verification reference) and a
second-order exponential IMEX step (ETDRK2) that treats a constant-coefficient
Laplacian — the stiff linearization of the dissipative operators — exactly in
Fourier space and everything else explicitly.

Positivity failure is a hard stop with diagnostics, never clamping: the
no-vacuum regime is a property to observe, not enforce.

A step works in the stacks of its thread's Arena for its scheme
(_step_stacks) and the right-hand sides in theirs. The record chunks'
Derived bundles and functionals borrow the same bytes of the thread's
store in a workspace scope between steps (see fields). A step copies into
its own stacks what it keeps across a right-hand side call, and returns a
State of copies.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .fields import (arena, as_int, as_real, dealias_arr, div_arr,
                     from_spectral, grad_arr, in_workspace, quad, real_rows,
                     to_spectral)
from .functionals import (DISSIPATION_KEYS, Derived, MonitorRecord,
                          _kinetic_dissipation, bd_entropy, derived, energy,
                          energy_dissipation, mv_functional)
from .physics import (State, VacuumError, _state_of, bohm_arr, chunk_size,
                      to_w)
from .systems import continuity_rate, rhs_approx_u, rhs_approx_w

SCHEMES = ("rk4-explicit", "imex")

# integrate takes a time within T_END_TOL of t_end for t_end: it steps while
# the time is below t_end - T_END_TOL, takes a last remainder within
# T_END_TOL of its step as the step, and refuses a start beyond
# t_end + T_END_TOL
T_END_TOL = 1e-14


class PositivityError(RuntimeError):
    """Post-step density fell to or below the positivity floor, or is not
    finite. Its message is the status line of the run it stops."""

    def __init__(self, time, bad_nodes, rho_min):
        self.time = float(time)
        self.bad_nodes = int(bad_nodes)
        self.rho_min = float(rho_min)
        super().__init__(f"positivity-failure at t={self.time:.6g} "
                         f"({self.bad_nodes} nodes, rho_min={self.rho_min:g})")


class NonFiniteError(RuntimeError):
    """Post-step velocity has a NaN or infinite node while the density is
    finite and positive. Its message is the status line of the run it
    stops."""

    def __init__(self, time, bad_nodes):
        self.time = float(time)
        self.bad_nodes = int(bad_nodes)
        super().__init__(f"non-finite at t={self.time:.6g} "
                         f"({self.bad_nodes} velocity nodes)")


@dataclass(frozen=True)
class IntegratorConfig:
    """Step control of integrate: every step, the first included, is the
    CFL estimate cut to [dt_min, dt_max]. dt_init is validated and never
    read; it stays because run configs, perfbench's too, still set it."""

    scheme: str = "imex"
    dt_init: float = 1e-3
    dt_min: float = 1e-8
    dt_max: float = 1e-2
    cfl_target: float = 0.5
    t_end: float = 0.1
    monitor_every: int = 1
    positivity_floor: float = 1e-10

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}")
        for name in ("dt_init", "dt_min", "dt_max", "cfl_target", "t_end",
                     "positivity_floor"):
            as_real(name, getattr(self, name))
        if not (0 < self.dt_min <= self.dt_init <= self.dt_max):
            raise ValueError("need 0 < dt_min <= dt_init <= dt_max")
        if not (0 < self.cfl_target <= 1):
            raise ValueError("cfl_target must be in (0, 1]")
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if as_int("monitor_every", self.monitor_every) < 1:
            raise ValueError("monitor_every must be >= 1")
        if self.positivity_floor <= 0:
            raise ValueError("positivity_floor must be positive")

    @classmethod
    def fixed_dt(cls, dt, t_end, **kw):
        return cls(dt_init=dt, dt_min=dt, dt_max=dt, t_end=t_end, **kw)


@dataclass
class Trajectory:
    records: list = field(default_factory=list)
    final: State = None         # the State of the last record
    dissipation_time_integrals: dict = field(default_factory=dict)
    # the PositivityError or NonFiniteError that stopped the run, or None
    failure: RuntimeError = None

    @property
    def status(self):
        return "completed" if self.failure is None else str(self.failure)


def _linear_coeffs(form, params, dim):
    """Constant-coefficient implicit Laplacian weights (c_rho, c_vel).

    In 1D the full degenerate viscous operator linearizes to 2*nu*Lap; in
    higher dimensions only the nu*Lap part is taken implicitly and the
    grad-div remainder stays explicit.
    """
    visc = 2 * params.nu if dim == 1 else params.nu
    c_vel = visc + math.sqrt(params.eps)
    c_rho = params.mu if form == "w" else 0.0
    return c_rho, c_vel


def _phi1(z):
    """(e^z - 1) / z of an array z, by its Taylor polynomial where
    |z| <= 1e-7. Each form is evaluated on its own entries only, so the
    polynomial of a large |z| cannot overflow."""
    out = np.empty_like(z)
    closed = np.abs(z) > 1e-7
    zc, zt = z[closed], z[~closed]
    out[closed] = np.expm1(zc) / zc
    out[~closed] = 1.0 + zt / 2 + zt * zt / 6
    return out


# Horner coefficients of phi2(z) = sum_k z^k / (k + 2)!, k <= 16; the first
# omitted term, 1 / 19!, lies below the rounding of phi2 for |z| <= 1.
_PHI2_TAYLOR = tuple(1.0 / math.factorial(k + 2) for k in range(16, -1, -1))


def _phi2(z):
    """(e^z - 1 - z) / z^2 of an array z. The closed form loses about
    eps / |z| of its relative accuracy to cancellation, so |z| < 1 sums the
    Taylor series instead: within 4e-16 relative of the exact value for
    z <= 0. Each form is evaluated on its own entries only."""
    out = np.empty_like(z)
    small = np.abs(z) < 1.0
    zs, zc = z[small], z[~small]
    taylor = 0.0
    for c in _PHI2_TAYLOR:
        taylor = taylor * zs + c
    out[small] = taylor
    with np.errstate(over="ignore"):
        # z^2 is inf beyond |z| = 1.3e154, where phi2, below 1e-154, is
        # +0.0
        out[~small] = (np.expm1(zc) - zc) / zc ** 2
    return out


@functools.lru_cache(maxsize=2)
def _etd_multipliers(grid, c_rho, c_vel, dt):
    """Read-only (c * Lap, exp(z), dt * phi1(z), phi2(z)), z = c * Lap * dt,
    in the rfft layout, each stacked like the rows of [rho, vel]: c is c_rho
    in row 0 and c_vel in the velocity rows. One entry serves a fixed-dt
    run whose t_end is a multiple of dt within T_END_TOL (see integrate),
    a second the shorter last step of one whose t_end is not. The entries
    are complex, so a product with a spectrum needs no cast: each is
    computed in real arithmetic and written once as its real part, the
    imaginary part +0.0. At c = 0 each multiplier is one number
    everywhere, written without array work: Lap <= 0 with -0.0 at k = 0,
    so c * Lap and z are the signed zero c * -1.0 everywhere, where the
    multipliers are exactly these."""
    mults = np.empty((4, 1 + grid.dim) + grid._lap.shape, complex)
    for rows, c in ((mults[:, :1], c_rho), (mults[:, 1:], c_vel)):
        if c == 0:
            rows.T[...] = (c * -1.0, 1.0, dt, 0.5)
        else:
            clap = c * grid._lap.real
            z = clap * dt
            for row, m in zip(rows, (clap, np.exp(z), dt * _phi1(z),
                                     _phi2(z))):
                row[...] = m
    mults.flags.writeable = False
    return tuple(mults)


def _step_stacks(ar, scheme):
    """The stacks of a step of scheme on the Arena ar, each (1 + dim, *n).
    IMEX: a_hat, with the stage values ya over its memory in 2D and 3D (as
    real_rows), and M, kept across the corrector's right-hand side; y0
    lies over M's memory, which it leaves once transformed, and y1 once M
    is read. RK4: y0, the stage values, written over by y1, and the four
    slopes."""
    grid = ar.grid
    lead = (1 + grid.dim,)
    if scheme == "imex":
        ar.a_hat = ar.stack(lead, spectral=True)
        ar.ya = real_rows(grid, ar.a_hat) if grid.dim > 1 else ar.stack(lead)
        ar.m_hat = ar.stack(lead, spectral=True)
        ar.y0 = real_rows(grid, ar.m_hat)
    else:
        ar.y0 = ar.stack(lead)
        ar.y = ar.stack(lead)
        ar.ks = tuple(ar.stack(lead) for _ in range(4))


def step(state, params, rhs_fn, dt, scheme="rk4-explicit",
         positivity_floor=IntegratorConfig.positivity_floor):
    """Advance one step; raises PositivityError if the density drops to the
    floor or is not finite, NonFiniteError if the velocity is not finite.

    The density and the velocity travel as one (1 + dim, *n) stack, and
    both schemes read each right-hand side as the masked spectrum
    rhs_fn(s, params, spectral=True) returns; an RK4 slope is its inverse.
    That spectrum is valid only until rhs_fn's next call or the next
    workspace scope on the thread, so what the step keeps across that call
    goes to the stacks of its own
    arena (_step_stacks). A stage State s is valid only during its rhs_fn
    call: its fields are read-only views of a stage stack, not copies. The
    returned State holds copies."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    rho, form, t0 = state.rho, state.form, state.time
    grid = rho.grid
    ar = arena(grid, scheme, _step_stacks, scheme)
    s = state
    try:
        f0_hat = rhs_fn(s, params, spectral=True)
        y0 = ar.y0
        y0[0] = rho.values
        y0[1:] = state.vel.values
        if scheme == "imex":
            clap, ez, dt_phi1, phi2 = _etd_multipliers(
                grid, *_linear_coeffs(form, params, grid.dim), dt)
            # predictor: N0 = f0 - clap a0 and the stage values
            # a = exp(z) a0 + dt phi1(z) N0, over the memory of a0; the
            # corrector's M = clap a + N0, over the memory of y0
            a_hat = to_spectral(grid, y0, ar.a_hat)
            f0_hat -= clap * a_hat
            phi1_n0 = dt_phi1 * f0_hat
            a_hat *= ez
            a_hat += phi1_n0
            m_hat = np.add(f0_hat, clap * a_hat, out=ar.m_hat)
            ya = from_spectral(grid, a_hat, ar.ya)
            s = _state_of(grid, ya[0], ya[1:], form, t0 + dt)
            # corrector a + dt phi2(z) (N(a) - N0), N(a) - N0 = f(a) - M
            fa_hat = rhs_fn(s, params, spectral=True)
            fa_hat -= m_hat
            fa_hat *= phi2
            y1 = from_spectral(grid, fa_hat, y0)    # over M, now read
            y1 *= dt
            y1 += ya
        else:
            y, ks = ar.y, ar.ks
            from_spectral(grid, f0_hat, ks[0])
            for c, k, slope in zip((0.5, 0.5, 1.0), ks, ks[1:]):
                np.add(y0, c * dt * k, out=y)
                s = _state_of(grid, y[0], y[1:], form, t0 + c * dt)
                from_spectral(grid, rhs_fn(s, params, spectral=True), slope)
            k1, k2, k3, k4 = ks
            y1 = np.add(y0, dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4), out=y)
    except VacuumError as exc:
        # a stage value already left the positive cone: same failure mode
        # as a post-step violation
        raise PositivityError(s.time, exc.bad_nodes, exc.rho_min) from exc

    r1 = y1[0]
    bad = r1.size - np.count_nonzero((r1 > positivity_floor)
                                     & np.isfinite(r1))
    if bad:
        raise PositivityError(t0 + dt, bad, float(np.min(r1)))
    bad = y1[1:].size - np.count_nonzero(np.isfinite(y1[1:]))
    if bad:
        raise NonFiniteError(t0 + dt, bad)
    return _state_of(grid, r1.copy(), y1[1:].copy(), form, t0 + dt)


def cfl_dt(state, params, config):
    """Advective + acoustic + explicit-stiffness step estimate.

    Dispersive (Bohm) stiffness is treated like diffusion, kappa * k_max^2.
    The implicitly integrated diffusion is excluded for the imex scheme.
    """
    grid = state.grid
    r = state.rho.values
    u = state.vel.values
    kmax = grid.kmax
    umax = float(np.max(np.sqrt(np.sum(u * u, axis=0))))
    cs = math.sqrt(params.a * params.gamma) * float(
        np.max(r ** ((params.gamma - 1) / 2)))
    rate = (umax + cs) * kmax + params.kappa * kmax ** 2
    if config.scheme != "imex":
        rate += (2 * params.nu + math.sqrt(params.eps) + params.mu) * kmax ** 2
    if rate <= 0:
        return config.dt_max
    return config.cfl_target / rate


def _monitor_sample(state, params):
    """The functionals of monitor records, all read from one Derived bundle
    (the State's, or the bundle given, of one state or of a stack), and the
    continuity source flux eps * int |grad v|^4 - eps * int rho^-p0 of the
    mass balance.

    Returns (MonitorRecord fields but time and residual, flux): each value
    one number, or one per state of a stacked bundle.
    """
    d = derived(state, params)
    grid = d.grid
    flat_rho = d.rho.reshape(d.rho.shape[:d.rho.ndim - grid.dim] + (-1,))
    values = {
        "dissipation": energy_dissipation(d, params),
        "energy": energy(d, params),
        "bd_entropy": bd_entropy(d, params),
        "mv": mv_functional(d),
        "mass": quad(grid, d.rho),
        "rho_min": flat_rho.min(axis=-1),
        "rho_max": flat_rho.max(axis=-1),
    }
    flux = 0.0
    if params.eps != 0:
        flux = params.eps * (quad(grid, d.grad_sqrt_rho2 ** 2)
                             - quad(grid, d.rho_neg_p0))
    return values, flux


@in_workspace
def _record_chunk(states, params, observers):
    """The monitor values of K recorded states, each a list of K numbers:
    (columns of MonitorRecord fields but time, residual and dissipation;
    dissipation columns; mass fluxes), read from the Derived bundle of
    their stack; then observe(state, row) of each observer for each state
    in order, with the state's row of the bundle. It all runs in one
    workspace scope (see integrate)."""
    d = Derived.stacked(states, params)
    values, flux = _monitor_sample(d, params)
    count = len(states)

    def per_record(v):
        # a value is one per record, or one number for all of them
        if isinstance(v, np.ndarray):
            return v.tolist()
        return [v] * count
    diss = {k: per_record(v) for k, v in values.pop("dissipation").items()}
    columns = {k: per_record(v) for k, v in values.items()}
    if observers:
        for k, s in enumerate(states):
            row = d.row(k)
            for observe in observers:
                observe(s, row)
    return columns, diss, per_record(flux)


def integrate(initial, params, config, observers=()):
    """Advance to t_end (or failure), recording monitors at cadence. The
    state's form picks rhs_approx_u (the target system at eps = 0) or
    rhs_approx_w; the PositivityError or NonFiniteError that stops a run
    is kept as Trajectory.failure. An initial time beyond t_end, where no
    step would run, is a ValueError.

    Each step is the IntegratorConfig's, and the last one lands on t_end:
    a remainder t_end - time shorter than the step by more than T_END_TOL
    is the last step, one within T_END_TOL of it is taken as the step
    itself. So a fixed-dt run whose t_end is a multiple of dt takes every
    step, the last included, at exactly dt and ends within T_END_TOL of
    t_end, though its time accumulates roundoff; one whose t_end is not
    ends with a shorter step, at t_end.

    Time-integrated dissipation is accumulated by the trapezoid rule over
    monitor samples. The mass-balance residual column is the discrete form of
    d(int rho)/dt + eps*int|grad v|^4 - eps*int rho^-p0.

    The recorded states are evaluated a chunk at a time (chunk_size of the
    grid: 32 records at 1D n=128, one at 64^2 and above), from one Derived
    bundle of the stacked states. A chunk is evaluated when it is full, at
    t_end and before a positivity or non-finite stop; its records then
    follow in order. Each observer is called as observe(state, d) for every
    record, after the chunk's functionals, with the record's row of the
    chunk bundle: the u-form bundle of the state, whose arrays are views of
    the chunk's and must not be written to. No state is kept but the last
    record's and those of the chunk being filled.

    Storage contract: each chunk, its observer calls included, runs in one
    workspace scope, over the bytes of the steps' arenas, so an observer
    runs no right-hand side and no step. A row bundle, every array read
    from it and every array lent while an observer runs are valid only
    during that observer's call, so an observer keeps copies
    (equivalence_run copies each record's (rho, u)).
    """
    if initial.time > config.t_end + T_END_TOL:
        raise ValueError(f"initial time {initial.time!r} is beyond t_end "
                         f"{config.t_end!r}")
    rhs_fn = rhs_approx_w if initial.form == "w" else rhs_approx_u

    traj = Trajectory()
    state = initial
    accum = {k: 0.0 for k in DISSIPATION_KEYS}
    flux_prev = None    # the mass flux of the last record
    size = chunk_size(initial.grid)
    pending = []        # states recorded, not yet evaluated

    def flush():
        nonlocal flux_prev
        if not pending:
            return
        columns, diss, fluxes = _record_chunk(pending, params, observers)
        for k, (s, flux) in enumerate(zip(pending, fluxes)):
            rec = {key: col[k] for key, col in columns.items()}
            dissipation = {key: col[k] for key, col in diss.items()}
            residual = 0.0
            if traj.records:
                # discrete mass balance; trapezoid accumulation of the
                # dissipation integrals
                last = traj.records[-1]
                h = s.time - last.time
                residual = abs((rec["mass"] - last.mass) / h
                               + 0.5 * (flux + flux_prev))
                for key, v in dissipation.items():
                    accum[key] += 0.5 * (last.dissipation[key] + v) * h
            traj.records.append(MonitorRecord(
                time=s.time, mass_balance_residual=residual,
                dissipation=dissipation, **rec))
            flux_prev = flux
        traj.final = pending[-1]
        pending.clear()

    def record(s):
        pending.append(s)
        if len(pending) == size:
            flush()

    record(state)
    steps = 0
    # with dt_min == dt_max the clamp below discards the CFL estimate
    fixed = config.dt_min == config.dt_max
    while state.time < config.t_end - T_END_TOL:
        if fixed:
            dt = config.dt_max
        else:
            dt = min(cfl_dt(state, params, config), config.dt_max)
            dt = max(dt, config.dt_min)
        # a remainder within T_END_TOL of dt is taken as dt
        if config.t_end - state.time < dt - T_END_TOL:
            dt = config.t_end - state.time
        try:
            state = step(state, params, rhs_fn, dt, scheme=config.scheme,
                         positivity_floor=config.positivity_floor)
        except (PositivityError, NonFiniteError) as exc:
            traj.failure = exc
            break
        steps += 1
        if (steps % config.monitor_every == 0
                or state.time >= config.t_end - T_END_TOL):
            record(state)
    flush()
    traj.dissipation_time_integrals = accum
    return traj


# ---------------------------------------------------------------------------
# energy budget
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyBudgetReport:
    times: np.ndarray
    energies: np.ndarray
    rates: np.ndarray          # analytic dE/dt (dissipation + sources)
    residuals: np.ndarray      # per-step |(dE/dt)_discrete - rate|
    dissipation: np.ndarray    # positive-definite group, per sample
    sources: np.ndarray        # everything else in the rate, per sample

    @property
    def max_residual(self):
        return float(np.max(self.residuals))


def _budget_rate(state, params):
    """Analytic instantaneous dE/dt, grouped as -(dissipation) + sources,
    of a u-form State or its Derived bundle.

    Kinetic part from the weak-form decomposition of the momentum equation
    (dissipation integrals, pressure work, the epsilon exchange terms); the
    remaining energy parts by the chain rule through the continuity source.
    """
    d = derived(state, params)
    grid, r, u, v = d.grid, d.rho, d.u, d.sqrt_rho
    eps, mu, p0 = params.eps, params.mu, params.p0

    d.load("jac_u", "grad_sqrt_rho", "lap_sqrt_rho", "grad_log_rho",
           *(("hess_log_rho",) if eps > 0 else ()))
    gv, gv2 = d.grad_sqrt_rho, d.grad_sqrt_rho2

    # the dissipation channels of the monitor records, weighted as the
    # kinetic energy identity weights them
    k = _kinetic_dissipation(d, params)
    diss = (2 * k["nu_rho_Du2"] + k["sqrt_eps_rho_gradu2"] + k["r0_u2"]
            + k["r1_rho_u4"] + 0.5 * k["eps_rho_negp_u2"]
            + k["eps32_rho_w3_u2"] + 0.5 * k["eps_gradv4_u2"])
    sources = -quad(grid, np.sum(
        u * grad_arr(grid, params.a * r ** params.gamma), axis=0))

    if params.kappa > 0 or eps > 0:
        bf = bohm_arr(d, "A")
        sources += (params.kappa ** 2 + math.sqrt(eps) * mu) * quad(
            grid, np.sum(bf * u, axis=0))

    v_q = neg_p = None
    if eps > 0:
        flux = gv2 * gv
        Q = div_arr(grid, flux)
        v_q = v * Q
        neg_p = d.rho_neg_p0
        sources += (
            - eps * mu * quad(grid, np.sum(
                u * grad_arr(grid, neg_p), axis=0))
            + eps * mu * quad(grid, v * np.sum(np.einsum(
                "ij...,j...->i...", d.hess_log_rho, flux) * u, axis=0))
            + eps * mu * quad(grid, v_q * np.sum(d.grad_log_rho * u, axis=0))
            - eps * mu * quad(grid, np.sum(
                grad_arr(grid, v_q) * u, axis=0)))

    kinetic_rate = 2 * (sources - diss)

    # chain rule through d rho/dt for the non-kinetic energy parts
    drho = dealias_arr(grid, continuity_rate(div_arr(grid, r * u), eps, v_q,
                                             neg_p))
    lv = d.lap_sqrt_rho
    pot_rate = quad(grid, drho)
    pot_rate += params.a * params.gamma * quad(
        grid, r ** (params.gamma - 1) * drho)
    cgrad = 2 * params.kappa ** 2 + 2 * mu * math.sqrt(eps)
    pot_rate += cgrad * (-quad(grid, lv / v * drho))
    if eps > 0:
        pot_rate += -eps * p0 * quad(grid, r ** (-p0 - 1) * drho)
        pot_rate += eps * mu * (-2 * quad(grid, Q / v * drho))

    return kinetic_rate + pot_rate, 2 * diss, kinetic_rate + pot_rate + 2 * diss


class EnergyBudget:
    """Observer of integrate: the per-step residual of the discrete energy
    identity over an approx-u run at monitor cadence 1. report() compares
    the discrete energy increment per step against the trapezoid of the
    analytic rate; the residual shrinks at the scheme's temporal order.

    config is the run's IntegratorConfig. Its cadence must be 1; the last
    interval may be the shorter step with which integrate lands on t_end,
    every other interval must be uniform."""

    def __init__(self, params, config):
        self.params = params
        self.config = config
        self._samples = []      # (time, energy, rate, dissipation, sources)

    def __call__(self, state, d):
        if state.form != "u":
            raise ValueError("energy budget requires u-form snapshots")
        # the rate loads grad sqrt(rho) with lap sqrt(rho); energy reads it
        rate, diss, src = _budget_rate(d, self.params)
        self._samples.append((state.time, energy(d, self.params), rate,
                              diss, src))

    def report(self):
        if len(self._samples) < 2:
            raise ValueError("trajectory too short for a budget")
        times, energies, rates, disses, srcs = map(np.asarray,
                                                   zip(*self._samples))
        dts = np.diff(times)
        if self.config.monitor_every != 1 or (
                len(times) > 2 and np.max(dts) > 1.5 * np.min(dts[:-1])):
            raise ValueError("energy budget requires monitor cadence 1 "
                             "(uniform per-step snapshots)")
        mid_rate = 0.5 * (rates[1:] + rates[:-1])
        residuals = np.abs(np.diff(energies) / dts - mid_rate)
        return EnergyBudgetReport(times, energies, rates, residuals, disses,
                                  srcs)


# ---------------------------------------------------------------------------
# formulation equivalence
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EquivalenceReport:
    times: np.ndarray
    rho_l2_errors: np.ndarray
    vel_l2_errors: np.ndarray

    @property
    def max_rho_error(self):
        return float(np.max(self.rho_l2_errors))

    @property
    def max_vel_error(self):
        return float(np.max(self.vel_l2_errors))

    @property
    def max_error(self):
        return max(self.max_rho_error, self.max_vel_error)


def equivalence_run(initial, params, config):
    """Integrate matched data through both formulations and compare.

    The same initial u-form data is run once via approx-u and once via
    approx-w (after the effective-velocity transform). The u-run copies each
    record's (rho, u); each w-run record, mapped back with to_u, is compared
    against them and max-over-time L2 discrepancies are reported. A failed
    run raises RuntimeError from its failure.
    """
    if initial.form != "u":
        raise ValueError("equivalence_run expects u-form initial data")

    def run(state, observe):
        traj = integrate(state, params, config, observers=(observe,))
        if traj.failure is not None:
            raise RuntimeError(f"{state.form}-form run failed: "
                               f"{traj.status}") from traj.failure
        return traj

    ref = []
    traj_u = run(initial,
                 lambda s, d: ref.append((d.rho.copy(), d.u.copy())))
    grid, errs = initial.grid, []

    def compare(s, d):
        if ref:     # a w-run with more records fails the count check below
            rho_u, u_u = ref.pop(0)
            dr, du = rho_u - d.rho, u_u - d.u
            errs.append((math.sqrt(quad(grid, dr * dr)),
                         math.sqrt(quad(grid, np.sum(du * du, axis=0)))))

    traj_w = run(to_w(initial, params), compare)
    if len(traj_w.records) != len(traj_u.records):
        raise RuntimeError("snapshot cadences diverged between runs")
    rho_errs, vel_errs = np.array(errs).T
    return EquivalenceReport(np.array([r.time for r in traj_u.records]),
                             rho_errs, vel_errs)
