"""The transform workspace: pooled stacks keep every bit of the right-hand
sides and steps, go back to the pool after use (also when a stage raises),
stay bounded, and are kept per thread."""

import functools
import resource
import sys
import threading

import numpy as np
import pytest

from qnslab import fields, systems, timeloop
from qnslab.fields import (Grid, ScalarField, VectorField, from_spectral,
                           random_smooth_positive, random_smooth_vector,
                           to_spectral)
from qnslab.physics import QnsParams, State, VacuumError, to_w
from qnslab.timeloop import PositivityError

GRIDS = [(32,), (64, 64), (16, 16, 16)]
PARAMS = QnsParams(nu=1.0, kappa=1.0 / 11.0, eps=1e-3)
RHS = {"target": systems.rhs_target, "approx-u": systems.rhs_approx_u,
       "approx-w": systems.rhs_approx_w}
SCHEMES = ("imex", "rk4-explicit")


@pytest.fixture
def pool(monkeypatch):
    """Every stack pooled, from an empty workspace of the test's own."""
    monkeypatch.setattr(fields, "POOL_MIN_BYTES", 0)
    ws = fields._Workspace()
    monkeypatch.setattr(fields, "_workspace", ws)
    return ws


def _bypassed(fn):
    """fn() with every stack a plain array, as before the workspace."""
    saved = fields.POOL_MIN_BYTES
    fields.POOL_MIN_BYTES = 1 << 62
    try:
        return fn()
    finally:
        fields.POOL_MIN_BYTES = saved


def _poison(ws):
    """Fill every free buffer with NaN bit patterns, so a stack that is read
    before it is written shows in the result."""
    for buf in ws.free:
        buf[...] = 0xFF


def _state(n, seed, form="u"):
    grid = Grid(n)
    s = State(random_smooth_positive(grid, seed, 2, 4.0),
              random_smooth_vector(grid, seed, 2), form="u")
    return to_w(s, PARAMS) if form == "w" else s


def _same(a, b):
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _same_state(a, b):
    _same(a.rho.values, b.rho.values)
    _same(a.vel.values, b.vel.values)


def _same_rhs(a, b):
    _same(a.drho.values, b.drho.values)
    _same(a.dvel.values, b.dvel.values)


def _parent_step(state, params, rhs_fn, dt, scheme):
    """The step before the workspace, on plain arrays, whose IMEX branch
    transforms the nodal right-hand sides; returns the new [rho, vel]
    stack."""
    grid = state.grid
    m = 1 + grid.dim

    def unpack(y, t):
        return State(ScalarField(grid, y[0]), VectorField(grid, y[1:]),
                     form=state.form, time=t)

    def f(y, t, out=None):
        rhs = rhs_fn(unpack(y, t), params)
        if out is None:
            out = np.empty_like(y)
        out[0] = rhs.drho.values
        out[1:] = rhs.dvel.values
        return out

    t0 = state.time
    work = np.empty((2 * m,) + grid.shape)
    y0 = work[:m]
    y0[0] = state.rho.values
    y0[1:] = state.vel.values
    if scheme == "rk4-explicit":
        k1 = f(y0, t0)
        k2 = f(y0 + 0.5 * dt * k1, t0 + dt / 2)
        k3 = f(y0 + 0.5 * dt * k2, t0 + dt / 2)
        k4 = f(y0 + dt * k3, t0 + dt)
        return y0 + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    c_rho, c_vel = timeloop._linear_coeffs(state.form, params, grid.dim)
    blocks = [(slice(0, 1), c_rho * grid._lap,
               timeloop._etd_multipliers(grid, c_rho, dt)),
              (slice(1, m), c_vel * grid._lap,
               timeloop._etd_multipliers(grid, c_vel, dt))]
    f(y0, t0, out=work[m:])
    hat = to_spectral(grid, work)
    a_hat, m_hat = np.empty_like(hat[:m]), np.empty_like(hat[:m])
    for rows, clap, (ez, dt_phi1, _) in blocks:
        a0_hat = hat[:m][rows]
        n0_hat = hat[m:][rows] - clap * a0_hat
        a_hat[rows] = ez * a0_hat + dt_phi1 * n0_hat
        m_hat[rows] = clap * a_hat[rows] + n0_hat
    ya = from_spectral(grid, a_hat)
    diff_hat = to_spectral(grid, f(ya, t0 + dt)) - m_hat
    for rows, _, (_, _, phi2) in blocks:
        diff_hat[rows] *= phi2
    return ya + dt * from_spectral(grid, diff_hat)


def _imex_step(state, params, rhs_fn, dt):
    """The IMEX step on plain arrays, reading each right-hand side as its
    spectrum; returns the new [rho, vel] stack."""
    grid = state.grid
    m = 1 + grid.dim
    y0 = np.empty((m,) + grid.shape)
    y0[0] = state.rho.values
    y0[1:] = state.vel.values
    c_rho, c_vel = timeloop._linear_coeffs(state.form, params, grid.dim)
    blocks = [(slice(0, 1), c_rho * grid._lap,
               timeloop._etd_multipliers(grid, c_rho, dt)),
              (slice(1, m), c_vel * grid._lap,
               timeloop._etd_multipliers(grid, c_vel, dt))]
    f0_hat = rhs_fn(state, params, spectral=True)
    y0_hat = to_spectral(grid, y0)
    a_hat, m_hat = np.empty_like(y0_hat), np.empty_like(y0_hat)
    for rows, clap, (ez, dt_phi1, _) in blocks:
        n0_hat = f0_hat[rows] - clap * y0_hat[rows]
        a_hat[rows] = ez * y0_hat[rows] + dt_phi1 * n0_hat
        m_hat[rows] = clap * a_hat[rows] + n0_hat
    ya = from_spectral(grid, a_hat)
    stage = State(ScalarField(grid, ya[0]), VectorField(grid, ya[1:]),
                  form=state.form, time=state.time + dt)
    diff_hat = rhs_fn(stage, params, spectral=True) - m_hat
    for rows, _, (_, _, phi2) in blocks:
        diff_hat[rows] *= phi2
    return ya + dt * from_spectral(grid, diff_hat)


def _rhs_for_state(state):
    return systems.rhs_approx_w if state.form == "w" else systems.rhs_approx_u


@pytest.mark.parametrize("n", GRIDS)
@pytest.mark.parametrize("formulation", sorted(RHS))
def test_rhs_sequence_equals_fresh_calls(pool, n, formulation):
    form = "w" if formulation == "approx-w" else "u"
    fn = RHS[formulation]
    s1, s2 = _state(n, 3, form), _state(n, 4, form)
    refs = [_bypassed(lambda s=s: fn(s, PARAMS)) for s in (s1, s2)]
    kept = []
    for s, ref in ((s1, refs[0]), (s2, refs[1]), (s1, refs[0])):
        _poison(pool)
        kept.append(fn(s, PARAMS))
        _same_rhs(kept[-1], ref)
        _same_rhs(fn(s, PARAMS, use_dealias=False),
                  _bypassed(lambda s=s: fn(s, PARAMS, use_dealias=False)))
        assert not pool.lent
    assert pool.free
    # nothing an Rhs holds lives in the pool: later calls left them intact
    for rhs, ref in zip(kept, (refs[0], refs[1], refs[0])):
        _same_rhs(rhs, ref)


@pytest.mark.parametrize("n", GRIDS)
@pytest.mark.parametrize("form", ["u", "w"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_step_equals_parent_transcription(pool, n, form, scheme):
    # RK4 keeps the parent's bits. The IMEX step takes each right-hand
    # side's masked spectrum where the parent inverted it and transformed
    # it again, so it matches the parent to roundoff only.
    s = _state(n, 5, form)
    rhs_fn = _rhs_for_state(s)
    for dt in (1e-4, 2e-4):
        ref = _bypassed(lambda: _parent_step(s, PARAMS, rhs_fn, dt, scheme))
        _poison(pool)
        new = timeloop.step(s, PARAMS, rhs_fn, dt, scheme=scheme)
        assert not pool.lent
        for got, want in ((new.rho.values, ref[0]), (new.vel.values, ref[1:])):
            if scheme == "imex":
                assert np.max(np.abs(got - want)) \
                    <= 1e-13 * np.max(np.abs(want))
            else:
                _same(got, want)
        s = new


@pytest.mark.parametrize("n", GRIDS)
@pytest.mark.parametrize("form", ["u", "w"])
@pytest.mark.parametrize("use_dealias", [True, False])
def test_imex_step_equals_transcription(pool, n, form, use_dealias):
    # the step has no dealiasing option: an undealiased run passes a
    # right-hand side that carries use_dealias=False itself
    s = _state(n, 5, form)
    rhs_fn = functools.partial(_rhs_for_state(s), use_dealias=use_dealias)
    for dt in (1e-4, 2e-4):
        refs = [_bypassed(lambda: _imex_step(s, PARAMS, rhs_fn, dt))]
        if not use_dealias:
            # the spectrum of an undealiased right-hand side is the forward
            # transform the parent step made: the parent's bits
            refs.append(_bypassed(lambda: _parent_step(s, PARAMS, rhs_fn, dt,
                                                       "imex")))
        _poison(pool)
        new = timeloop.step(s, PARAMS, rhs_fn, dt, scheme="imex")
        assert not pool.lent
        for ref in refs:
            _same(new.rho.values, ref[0])
            _same(new.vel.values, ref[1:])
        s = new


def _raising(rhs_fn, on_call):
    """rhs_fn whose call number on_call raises VacuumError."""
    count = {"n": 0}

    def rhs(state, params, **kw):
        count["n"] += 1
        if count["n"] == on_call:
            raise VacuumError(1, -1.0)
        return rhs_fn(state, params, **kw)
    return rhs


def _draining(state, params, spectral):
    """The spectrum of a right-hand side that empties the density within
    any step."""
    grid = state.grid
    y = np.zeros((1 + grid.dim,) + grid.shape)
    y[0] = -1e9
    return to_spectral(grid, y)


@pytest.mark.parametrize("n", GRIDS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_failed_stage_returns_every_stack(pool, monkeypatch, n, scheme):
    s = _state(n, 6)
    clean = _bypassed(lambda: timeloop.step(s, PARAMS, systems.rhs_approx_u,
                                            1e-4, scheme=scheme))
    last = 2 if scheme == "imex" else 4

    # a stage whose right-hand side fails after the step took its stacks
    with pytest.raises(PositivityError):
        timeloop.step(s, PARAMS, _raising(systems.rhs_approx_u, last), 1e-4,
                      scheme=scheme)
    assert not pool.lent
    # a density that leaves the positive cone: raised after the update
    with pytest.raises(PositivityError):
        timeloop.step(s, PARAMS, _draining, 1e-4, scheme=scheme)
    assert not pool.lent
    # a failure inside the right-hand side, with its level stacks lent
    with monkeypatch.context() as mp:
        def fail(*args, **kwargs):
            raise VacuumError(1, -1.0)
        mp.setattr(systems, "continuity_rate", fail)
        with pytest.raises(VacuumError):
            systems.rhs_approx_u(s, PARAMS)
        assert not pool.lent
        with pytest.raises(PositivityError):
            timeloop.step(s, PARAMS, systems.rhs_approx_u, 1e-4,
                          scheme=scheme)
        assert not pool.lent

    _poison(pool)
    _same_state(timeloop.step(s, PARAMS, systems.rhs_approx_u, 1e-4,
                              scheme=scheme), clean)
    assert not pool.lent


@pytest.mark.parametrize("n", GRIDS)
@pytest.mark.parametrize("form", ["u", "w"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_pooled_bytes_stop_growing(pool, n, form, scheme):
    s = _state(n, 7, form)
    rhs_fn = _rhs_for_state(s)
    for _ in range(2):
        s = timeloop.step(s, PARAMS, rhs_fn, 1e-4, scheme=scheme)
    warm = sum(pool.sizes)
    assert warm > 0
    for _ in range(3):
        s = timeloop.step(s, PARAMS, rhs_fn, 1e-4, scheme=scheme)
        assert not pool.lent
        assert sum(pool.sizes) == warm


@pytest.mark.parametrize("scheme, lent", [("imex", [0, 2]),
                                           ("rk4-explicit", [1, 2, 3, 4])])
def test_stages_see_only_live_stacks(pool, scheme, lent):
    # IMEX: nothing before the predictor stage, [ya, M] at the corrector;
    # RK4: y0 and the slopes made so far
    seen = []

    def rhs(state, params, **kw):
        seen.append(len(pool.lent))
        return systems.rhs_approx_u(state, params, **kw)
    timeloop.step(_state((64, 64), 11), PARAMS, rhs, 1e-4, scheme=scheme)
    assert seen == lent


def test_pool_keeps_one_grid(pool):
    timeloop.step(_state((64, 64), 8), PARAMS, systems.rhs_approx_u, 1e-4,
                  scheme="imex")
    smallest = min(pool.sizes)
    timeloop.step(_state((32,), 8), PARAMS, systems.rhs_approx_u, 1e-4,
                  scheme="imex")
    # the 64^2 buffers were dropped when the step moved to another grid
    assert pool.sizes and max(pool.sizes) < smallest


def test_small_stacks_bypass_the_pool(monkeypatch):
    ws = fields._Workspace()
    monkeypatch.setattr(fields, "_workspace", ws)
    s = _state((128,), 9)
    timeloop.step(s, PARAMS, systems.rhs_approx_u, 1e-4, scheme="imex")
    assert not ws.free and not ws.lent


def test_workspace_is_per_thread(pool):
    # more threads than cores, switching often: a pool shared between
    # threads would hand one stack to two stages
    states = [_state((32, 32), seed) for seed in range(4)]
    refs = [_bypassed(lambda s=s: timeloop.step(
        s, PARAMS, systems.rhs_approx_u, 1e-4, scheme="imex"))
        for s in states]
    systems.rhs_approx_u(states[0], PARAMS)
    seen = {}

    def worker(k):
        seen[k] = [len(fields._workspace.free)]
        for _ in range(5):
            seen[k].append(timeloop.step(states[k], PARAMS,
                                         systems.rhs_approx_u, 1e-4,
                                         scheme="imex"))
    saved = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(saved)
    assert not any(t.is_alive() for t in threads)
    for k, ref in enumerate(refs):
        assert seen[k][0] == 0  # a new thread starts with an empty pool
        for new in seen[k][1:]:
            _same_state(new, ref)
    assert pool.free and not pool.lent


# Minor page faults of one steady 2D 128^2 IMEX step: 3829 to 4204 before
# the workspace (getrusage, 2-core Xeon, numpy 2.4.6, glibc); 0 with it.
# The budget is 5 % of the lower figure.
FAULT_BUDGET = 191


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="minor page faults as Linux counts them")
def test_steady_2d_step_page_faults():
    grid = Grid((128, 128))
    s = State(random_smooth_positive(grid, 3, 6, 4.0),
              random_smooth_vector(grid, 3, 6), form="u")

    def faults():
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        timeloop.step(s, PARAMS, systems.rhs_approx_u, 2e-4, scheme="imex")
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    for _ in range(2):
        faults()
    counts = sorted(faults() for _ in range(3))
    assert counts[1] <= FAULT_BUDGET, counts
