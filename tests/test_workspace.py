"""The stack store. The arenas of the right-hand sides and the step keep
every bit however their stacks were left, stop growing after the first
step, share no memory with a returned State, and are kept per thread for
one grid. The workspace scopes of the bundles, functionals and checks lend
from the same store, over the idle arenas: their stacks keep every bit,
are 64-byte aligned, go back after use (also when a check or an observer
raises), stop growing after the first chunk, and are kept per thread; no
right-hand side or step runs inside a scope."""

import functools
import json
import mmap
import os
import resource
import signal
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from qnslab import cli, fields, functionals, systems, timeloop, verify
from qnslab.fields import (Grid, ScalarField, VectorField, div_arr,
                           from_spectral, grad_arr, in_workspace, lend,
                           random_smooth_positive, random_smooth_vector,
                           release, to_spectral)
from qnslab.physics import (PIECES, Derived, QnsParams, State, VacuumError,
                            to_w)
from qnslab.timeloop import PositivityError

GRIDS = [(32,), (16, 24), (8, 12, 16)]
PARAMS = QnsParams(nu=1.0, kappa=1.0 / 11.0, eps=1e-3)
RHS = {"target": systems.rhs_target, "approx-u": systems.rhs_approx_u,
       "approx-w": systems.rhs_approx_w}
SCHEMES = ("imex", "rk4-explicit")


@pytest.fixture
def store(monkeypatch):
    """The thread's stack store, an empty one of the test's own, whose
    buffers start at one page, so a test also runs its growth."""
    monkeypatch.setattr(fields, "STORE_BYTES", mmap.PAGESIZE)
    st = fields._Store()
    monkeypatch.setattr(fields, "_store", st)
    return st


class _Unscoped(fields._Store):
    """A store whose scopes never open: lend() gives plain arrays."""
    depth = property(lambda self: 0, lambda self, depth: None)


def _bypassed(fn):
    """fn() with every stack a plain array, as before the workspace; asserts
    that fn lent nothing from the store."""
    saved, st = fields._store, _Unscoped()
    fields._store = st
    try:
        out = fn()
    finally:
        fields._store = saved
    assert not st.lent
    return out


def _bytes(buf):
    """The bytes of a store buffer, as a writable uint8 array."""
    return np.ndarray(len(buf), np.uint8, buf)


def _poison(st):
    """Fill every buffer of the store with NaN bit patterns, so a stack that
    is read before it is written shows in the result."""
    for buf in st.buffers:
        _bytes(buf)[...] = 0xFF


def _written(st):
    """Whether the first bytes of the store hold other than poison."""
    return (_bytes(st.buffers[0])[:64] != 0xFF).any()


def _capacity(st):
    """The buffers of the store, as (id, bytes) pairs."""
    return [(id(buf), len(buf)) for buf in st.buffers]


def _arena_buffers(st):
    return [buf for a in st.arenas.values() for buf in a.buffers]


def _poison_arenas(st):
    """Fill every stack of every arena with NaN bit patterns, as _poison
    does the store's."""
    for buf in _arena_buffers(st):
        buf.view(np.uint8)[...] = 0xFF


def _fresh_store(fn):
    """fn() on a store built afresh for it, as a first call builds its
    arenas; the thread's store stays as it was."""
    saved = fields._store
    fields._store = fields._Store()
    try:
        return fn()
    finally:
        fields._store = saved


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


def _etd_blocks(state, params, dt):
    """The rows of [rho, vel] with their c * Lap and (exp(z), dt phi1(z),
    phi2(z)) rows of the step's multipliers: (density rows, c_rho * Lap,
    multipliers), (velocity rows, c_vel * Lap, multipliers)."""
    grid = state.grid
    c_rho, c_vel = timeloop._linear_coeffs(state.form, params, grid.dim)
    ms = timeloop._etd_multipliers(grid, c_rho, c_vel, dt)
    return [(slice(0, 1), c_rho * grid._lap, [x[0] for x in ms]),
            (slice(1, 1 + grid.dim), c_vel * grid._lap, [x[1] for x in ms])]


def _stage(state, y, t):
    grid = state.grid
    return State(ScalarField(grid, y[0]), VectorField(grid, y[1:]),
                 form=state.form, time=t)


def _parent_step(state, params, rhs_fn, dt, scheme):
    """The step before the workspace, on plain arrays, whose IMEX branch
    transforms the nodal right-hand sides and forms the predictor a0 +
    dt phi1(z) f0 and the corrector's reference exp(z) f0; returns the new
    [rho, vel] stack."""
    grid = state.grid
    m = 1 + grid.dim

    def f(y, t, out=None):
        rhs = rhs_fn(_stage(state, y, t), params)
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
    blocks = _etd_blocks(state, params, dt)
    f(y0, t0, out=work[m:])
    hat = to_spectral(grid, work)
    a_hat, m_hat = np.empty_like(hat[:m]), np.empty_like(hat[:m])
    for rows, _, (ez, dt_phi1, _) in blocks:
        f0_hat = hat[m:][rows]
        m_hat[rows] = ez * f0_hat
        a_hat[rows] = hat[:m][rows] + dt_phi1 * f0_hat
    ya = from_spectral(grid, a_hat)
    diff_hat = to_spectral(grid, f(ya, t0 + dt)) - m_hat
    for rows, _, (_, _, phi2) in blocks:
        diff_hat[rows] *= phi2
    return ya + dt * from_spectral(grid, diff_hat)


def _imex_step(state, params, rhs_fn, dt):
    """The IMEX step on plain arrays, reading each right-hand side as its
    spectrum, in the step's order of operations; returns the new [rho,
    vel] stack."""
    grid = state.grid
    m = 1 + grid.dim
    y0 = np.empty((m,) + grid.shape)
    y0[0] = state.rho.values
    y0[1:] = state.vel.values
    blocks = _etd_blocks(state, params, dt)
    f0_hat = rhs_fn(state, params, spectral=True)
    a_hat = to_spectral(grid, y0)
    m_hat = np.empty_like(a_hat)
    for rows, _, (ez, dt_phi1, _) in blocks:
        m_hat[rows] = ez * f0_hat[rows]
        a_hat[rows] += dt_phi1 * f0_hat[rows]
    ya = from_spectral(grid, a_hat)
    diff_hat = rhs_fn(_stage(state, ya, state.time + dt), params,
                      spectral=True) - m_hat
    for rows, _, (_, _, phi2) in blocks:
        diff_hat[rows] *= phi2
    return ya + dt * from_spectral(grid, diff_hat)


def _etdrk2_reference_step(state, params, rhs_fn, dt):
    """The IMEX update as it stood before the step read the right-hand
    side's spectrum alone, on plain arrays: N0 = f0 - c Lap a0, the
    predictor a = exp(z) a0 + dt phi1(z) N0 and the corrector's reference
    M = c Lap a + N0 (Cox & Matthews' ETDRK2 as written). Returns the new
    [rho, vel] stack."""
    grid = state.grid
    y0 = np.empty((1 + grid.dim,) + grid.shape)
    y0[0] = state.rho.values
    y0[1:] = state.vel.values
    a0_hat = to_spectral(grid, y0)
    f0_hat = rhs_fn(state, params, spectral=True)
    a_hat, m_hat = np.empty_like(a0_hat), np.empty_like(a0_hat)
    blocks = _etd_blocks(state, params, dt)
    for rows, clap, (ez, dt_phi1, _) in blocks:
        n0_hat = f0_hat[rows] - clap * a0_hat[rows]
        a_hat[rows] = ez * a0_hat[rows] + dt_phi1 * n0_hat
        m_hat[rows] = clap * a_hat[rows] + n0_hat
    ya = from_spectral(grid, a_hat)
    diff_hat = rhs_fn(_stage(state, ya, state.time + dt), params,
                      spectral=True) - m_hat
    for rows, _, (_, _, phi2) in blocks:
        diff_hat[rows] *= phi2
    return ya + dt * from_spectral(grid, diff_hat)


def _rhs_for_state(state):
    return systems.rhs_approx_w if state.form == "w" else systems.rhs_approx_u


VARIANTS = [(use_dealias, spectral) for use_dealias in (True, False)
            for spectral in (False, True)]


def _rhs_bytes(rhs):
    if isinstance(rhs, np.ndarray):
        return rhs.tobytes()
    return rhs.drho.values.tobytes() + rhs.dvel.values.tobytes()


@pytest.mark.parametrize("n", GRIDS)
@pytest.mark.parametrize("formulation", sorted(RHS))
def test_rhs_sequence_equals_fresh_calls(store, n, formulation):
    # every variant of each right-hand side, called in turn on poisoned
    # arenas, equals its call on arenas built afresh
    form = "w" if formulation == "approx-w" else "u"
    fn = RHS[formulation]
    s1, s2 = _state(n, 3, form), _state(n, 4, form)
    refs = {(k, v): _fresh_store(lambda s=s, v=v: _rhs_bytes(fn(
        s, PARAMS, use_dealias=v[0], spectral=v[1])))
        for k, s in enumerate((s1, s2)) for v in VARIANTS}
    kept = []
    for k, s in ((0, s1), (1, s2), (0, s1)):
        for use_dealias, spectral in VARIANTS:
            _poison_arenas(store)
            got = fn(s, PARAMS, use_dealias=use_dealias, spectral=spectral)
            assert _rhs_bytes(got) == refs[k, (use_dealias, spectral)]
            if spectral:
                # a spectrum is a stack of the arena
                assert any(np.shares_memory(got, buf)
                           for buf in _arena_buffers(store))
            else:
                kept.append((got, refs[k, (use_dealias, spectral)]))
    assert store.arenas
    # nothing an Rhs holds lives in an arena: later calls left them intact
    for rhs, ref in kept:
        assert _rhs_bytes(rhs) == ref


def test_w_form_arena_per_mu(store):
    # mu weights a multiplier of the w-form's layout, so each mu has an
    # arena of its own: a call after one at another mu equals a call on a
    # fresh store, and nothing is bound anew over another mu's stacks
    params = [QnsParams(nu=1.0, kappa=kappa, eps=1e-3)
              for kappa in (1.0 / 11.0, 0.05)]
    state = _state((16, 24), 3, "w")
    for p in (params[0], params[1], params[0]):
        ref = _fresh_store(lambda p=p: _rhs_bytes(
            systems.rhs_approx_w(state, p)))
        assert _rhs_bytes(systems.rhs_approx_w(state, p)) == ref
    assert sorted(key[2] for key in store.arenas if key[0] == "w") \
        == sorted(p.mu for p in params)


def test_plan_built_once_per_arena(store, monkeypatch):
    # the layout is planned when the arena is built, not on every call
    built = []
    plan = systems._plan
    monkeypatch.setattr(systems, "_plan",
                        lambda *args: built.append(args) or plan(*args))
    state = _state((32,), 3)
    for _ in range(50):
        systems.rhs_approx_u(state, PARAMS)
    assert len(built) == 1
    systems.rhs_approx_u(_state((16, 24), 3), PARAMS)
    assert len(built) == 2


@pytest.mark.parametrize("n", GRIDS)
@pytest.mark.parametrize("form", ["u", "w"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_step_equals_parent_transcription(store, n, form, scheme):
    # RK4 keeps the parent's bits. The IMEX step takes each right-hand
    # side's masked spectrum where the parent inverted it and transformed
    # it again, so it matches the parent to roundoff only.
    s = _state(n, 5, form)
    rhs_fn = _rhs_for_state(s)
    for dt in (1e-4, 2e-4):
        ref = _fresh_store(lambda: _parent_step(s, PARAMS, rhs_fn, dt,
                                                 scheme))
        _poison_arenas(store)
        new = timeloop.step(s, PARAMS, rhs_fn, dt, scheme=scheme)
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
def test_imex_step_equals_transcription(store, n, form, use_dealias):
    # the step has no dealiasing option: an undealiased run passes a
    # right-hand side that carries use_dealias=False itself
    s = _state(n, 5, form)
    rhs_fn = functools.partial(_rhs_for_state(s), use_dealias=use_dealias)
    for dt in (1e-4, 2e-4):
        refs = [_fresh_store(lambda: _imex_step(s, PARAMS, rhs_fn, dt))]
        if not use_dealias:
            # the spectrum of an undealiased right-hand side is the forward
            # transform the parent step made: the parent's bits
            refs.append(_fresh_store(lambda: _parent_step(
                s, PARAMS, rhs_fn, dt, "imex")))
        _poison_arenas(store)
        new = timeloop.step(s, PARAMS, rhs_fn, dt, scheme="imex")
        for ref in refs:
            _same(new.rho.values, ref[0])
            _same(new.vel.values, ref[1:])
        s = new


# The largest relative gap, max |new - ref| / max |ref| per field, of 20
# steps of the step against _etdrk2_reference_step, over the grids, forms
# and dealiasing options of the test below: measured 5.1e-16 (w-form on
# (16, 24), dealiased; 2.8e-16 to 3.9e-16 elsewhere), a few units of
# roundoff; pinned at about four times that.
ETD_REFERENCE_BOUND = 2e-15


@pytest.mark.parametrize("n", GRIDS)
@pytest.mark.parametrize("form", ["u", "w"])
@pytest.mark.parametrize("use_dealias", [True, False])
def test_imex_step_stays_near_etdrk2_as_written(store, n, form,
                                                use_dealias):
    # a0 + dt phi1(z) f0 and exp(z) f0 are Cox & Matthews' predictor and
    # corrector reference with dt phi1(z) c Lap = exp(z) - 1 applied: on
    # each of 20 steps, from the same state, the two differ by roundoff
    s = _state(n, 5, form)
    rhs_fn = functools.partial(_rhs_for_state(s), use_dealias=use_dealias)
    for _ in range(20):
        ref = _etdrk2_reference_step(s, PARAMS, rhs_fn, 2e-4)
        s = timeloop.step(s, PARAMS, rhs_fn, 2e-4, scheme="imex")
        for got, want in ((s.rho.values, ref[0]), (s.vel.values, ref[1:])):
            assert np.max(np.abs(got - want)) \
                <= ETD_REFERENCE_BOUND * np.max(np.abs(want))


@pytest.mark.parametrize("n", GRIDS)
@pytest.mark.parametrize("form", ["u", "w"])
def test_first_rhs_keeps_its_bits(store, n, form):
    # the step's first right-hand side reads [rho, vel]'s spectrum from its
    # stage State instead of transforming those rows: its masked spectrum
    # keeps the bits of the masked forward transform of the right-hand
    # side on the step's input, and is zero on the modes the mask drops
    s = _state(n, 5, form)
    rhs_fn = _rhs_for_state(s)
    seen = []

    def rhs(state, params, **kw):
        out = rhs_fn(state, params, **kw)
        if not seen:
            assert state._spectrum is not None
            seen.append(out.copy())
        return out
    timeloop.step(s, PARAMS, rhs, 1e-4, scheme="imex")
    full = rhs_fn(s, PARAMS, use_dealias=False, spectral=True)
    keep = np.broadcast_to(s.grid._mask.real != 0, full.shape)
    (got,) = seen
    _same(got[keep], (s.grid._mask * full)[keep])
    assert not np.any(got[~keep])
    _same(got, rhs_fn(s, PARAMS, spectral=True))


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
def test_failed_stage_returns_every_stack(store, monkeypatch, n,
                                          scheme):
    # a step or right-hand side that raises leaves its arena's stacks
    # written part way; the next step writes what it reads and keeps the
    # bits of a step on arenas built afresh
    s = _state(n, 6)
    clean = _fresh_store(lambda: timeloop.step(
        s, PARAMS, systems.rhs_approx_u, 1e-4, scheme=scheme))
    last = 2 if scheme == "imex" else 4

    # a stage whose right-hand side fails after the step took its stacks
    with pytest.raises(PositivityError):
        timeloop.step(s, PARAMS, _raising(systems.rhs_approx_u, last), 1e-4,
                      scheme=scheme)
    _same_state(timeloop.step(s, PARAMS, systems.rhs_approx_u, 1e-4,
                              scheme=scheme), clean)
    # a density that leaves the positive cone: raised after the update
    with pytest.raises(PositivityError):
        timeloop.step(s, PARAMS, _draining, 1e-4, scheme=scheme)
    _same_state(timeloop.step(s, PARAMS, systems.rhs_approx_u, 1e-4,
                              scheme=scheme), clean)
    # a failure inside the right-hand side, with its level stacks written
    with monkeypatch.context() as mp:
        def fail(*args, **kwargs):
            raise VacuumError(1, -1.0)
        mp.setattr(systems, "continuity_rate", fail)
        with pytest.raises(VacuumError):
            systems.rhs_approx_u(s, PARAMS)
        with pytest.raises(PositivityError):
            timeloop.step(s, PARAMS, systems.rhs_approx_u, 1e-4,
                          scheme=scheme)

    _poison_arenas(store)
    _same_state(timeloop.step(s, PARAMS, systems.rhs_approx_u, 1e-4,
                              scheme=scheme), clean)


@pytest.mark.parametrize("n", GRIDS)
@pytest.mark.parametrize("form", ["u", "w"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_pooled_bytes_stop_growing(store, n, form, scheme):
    # the arenas are carved by the first step and only reused after it,
    # and the store does not grow after it
    s = _state(n, 7, form)
    rhs_fn = _rhs_for_state(s)
    s = timeloop.step(s, PARAMS, rhs_fn, 1e-4, scheme=scheme)
    warm = [(id(buf), buf.nbytes) for buf in _arena_buffers(store)]
    capacity = _capacity(store)
    assert sum(nbytes for _, nbytes in warm) > 0
    assert len(store.arenas) == 2     # the right-hand side's and the step's
    for _ in range(3):
        s = timeloop.step(s, PARAMS, rhs_fn, 1e-4, scheme=scheme)
        assert [(id(buf), buf.nbytes)
                for buf in _arena_buffers(store)] == warm
        assert _capacity(store) == capacity


@pytest.mark.parametrize("scheme, lent", [("imex", [0, 0]),
                                           ("rk4-explicit", [0, 0, 0, 0])])
def test_stages_see_only_live_stacks(store, scheme, lent):
    # each stage lends nothing from the store, and what the step keeps
    # across a stage lives in the step's arena, which shares no memory
    # with the arena the stage's right-hand side writes
    seen = []

    def rhs(state, params, **kw):
        seen.append(len(store.lent))
        return systems.rhs_approx_u(state, params, **kw)
    timeloop.step(_state((64, 64), 11), PARAMS, rhs, 1e-4, scheme=scheme)
    assert seen == lent
    (rhs_arena,) = [a for key, a in store.arenas.items() if key != scheme]
    kept = store.arenas[scheme].buffers
    assert not any(np.shares_memory(a, b)
                   for a in rhs_arena.buffers for b in kept)


@pytest.mark.parametrize("n", [(32,), (16, 24)])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_returned_state_shares_no_pool_memory(store, n, scheme):
    # a stage State holds read-only views, valid only during its
    # right-hand side call; the State step returns shares no memory with
    # the store, so later steps and scopes cannot write into it
    stages = []

    def rhs(state, params, **kw):
        stages.append(state)
        return systems.rhs_approx_u(state, params, **kw)
    s = _state(n, 5)
    new = timeloop.step(s, PARAMS, rhs, 1e-4, scheme=scheme)
    assert len(stages) == (2 if scheme == "imex" else 4)
    for stage in stages:
        assert not stage.rho.values.flags.writeable
        assert not stage.vel.values.flags.writeable
    assert _arena_buffers(store)
    buffers = [_bytes(buf) for buf in store.buffers]
    for arr in (new.rho.values, new.vel.values):
        assert not arr.flags.writeable
        assert not any(np.shares_memory(arr, buf) for buf in buffers)
    after = timeloop.step(new, PARAMS, systems.rhs_approx_u, 1e-4,
                          scheme=scheme)
    assert not any(np.shares_memory(arr, buf) for buf in buffers
                   for arr in (after.rho.values, after.vel.values,
                               new.rho.values, new.vel.values))


def test_arenas_keep_one_grid(store):
    # the arenas keep the stacks of one grid: a step on another grid drops
    # those of the last one and empties the store, which then holds only
    # what the new grid needs
    def run(n):
        s = _state(n, 8)
        timeloop.step(s, PARAMS, systems.rhs_approx_u, 1e-4, scheme="imex")
        timeloop._record_chunk([s], PARAMS, ())
        timeloop.step(s, PARAMS, systems.rhs_approx_u, 1e-4, scheme="imex")
    run((64, 64))
    smallest = min(buf.nbytes for buf in _arena_buffers(store))
    old = list(store.buffers)
    run((32,))
    assert set(store.arenas) == {("u", True, True), "imex"}
    assert max(buf.nbytes for buf in _arena_buffers(store)) < smallest
    assert not any(buf is o for buf in store.buffers for o in old)
    assert sum(map(len, store.buffers)) < sum(map(len, old))


def test_record_chunk_store_stops_growing(store):
    # the store grows in the first record chunk and not after it, whether
    # steps run between the chunks or not; a 1D n=128 run, whose chunks
    # hold 32 records, grows it as much as its first integrate needs
    s = _state((64, 64), 9)
    timeloop._record_chunk([s], PARAMS, ())
    capacity = _capacity(store)
    for _ in range(3):
        timeloop._record_chunk([s], PARAMS, ())
        assert _capacity(store) == capacity
        assert not store.lent
    # the first step carves the arenas, which may grow the store once more
    timeloop.step(s, PARAMS, systems.rhs_approx_u, 1e-4, scheme="imex")
    timeloop._record_chunk([s], PARAMS, ())
    capacity = _capacity(store)
    for _ in range(3):
        timeloop.step(s, PARAMS, systems.rhs_approx_u, 1e-4, scheme="imex")
        timeloop._record_chunk([s], PARAMS, ())
        assert _capacity(store) == capacity
    run_1d = functools.partial(timeloop.integrate, _state((128,), 9), PARAMS,
                               _run_config(40))
    ref = run_1d()
    capacity = _capacity(store)
    for _ in range(2):
        assert run_1d().records == ref.records
        assert _capacity(store) == capacity


def test_first_buffer_holds_a_32_cubed_run(monkeypatch):
    # at its real size the first buffer holds the arenas and the budgeted
    # record chunks of a 32^3 run: the store never grows
    st = fields._Store()
    monkeypatch.setattr(fields, "_store", st)
    s = _state((32, 32, 32), 17)
    config = _run_config(1)
    timeloop.integrate(s, PARAMS, config,
                       observers=(timeloop.EnergyBudget(PARAMS, config),))
    assert _capacity(st) == [(id(st.buffers[0]), fields.STORE_BYTES)]
    assert st.arenas and _bytes(st.buffers[0])[:4096].any()


def _addresses(arrays):
    return [a.__array_interface__["data"][0] for a in arrays]


@pytest.mark.parametrize("n", GRIDS)
def test_stacks_are_64_byte_aligned(store, n):
    # every stack of the arenas and of a scope, of any row count and
    # either dtype, and across a grown store
    grid = Grid(n)
    s = _state(n, 10)
    timeloop.step(s, PARAMS, systems.rhs_approx_u, 1e-4, scheme="imex")
    timeloop.step(s, PARAMS, systems.rhs_approx_u, 1e-4, scheme="rk4-explicit")
    assert all(a % 64 == 0 for a in _addresses(_arena_buffers(store)))

    @in_workspace
    def scope():
        stacks = []
        for k in range(1, 40):
            stacks.append(lend(grid, (k % 7,) * (k % 3), spectral=k % 2))
            if k % 5 == 0:
                release(stacks.pop())
        return _addresses(stacks)
    for _ in range(2):
        assert all(a % 64 == 0 for a in scope())
    assert len(store.buffers) == 1


def test_release_below_the_top(store):
    # a stack given back below the top goes back once every stack lent
    # after it has, in any order; a view of a stack gives it back, and a
    # plain array or a stack given back twice changes nothing
    grid = Grid((16, 24))

    def top():
        return store.index, store.at

    @in_workspace
    def scope():
        marks, stacks = [top()], []
        for k in range(1, 5):
            stacks.append(lend(grid, (k,)))
            marks.append(top())
        a, b, c, d = stacks
        release(b, np.ones(3), b[0][None])
        assert top() == marks[4]
        release(c)
        assert top() == marks[4]
        release(d[1:])
        assert top() == marks[1]
        assert len(store.lent) == 1 and store.lent[0][1] is a
        e = lend(grid, (2,))
        release(a)
        assert top() != marks[0]
        release(e, e)
        assert top() == marks[0] and not store.lent
    scope()


class _Tracked(fields._Store):
    """A store that keeps the highest top its scopes reach in the first
    buffer, as high."""

    def __init__(self):
        self.high = 0
        super().__init__()

    def _set_at(self, at):
        self._at = at
        if self.index == 0:
            self.high = max(self.high, at)
    at = property(lambda self: self._at, _set_at)


# The store's high-water in a steady workspace scope, in bytes: the top of
# a one-record chunk of integrate at 128^2 (u-form and w-form) and 32^3,
# and of a one-seed chunk of the identity and inequality suites at 64^2
# (lend positions, so the same on every machine). A record chunk took
# 5 683 200 bytes at 128^2 and 20 627 456 at 32^3 while Derived.load
# copied its stacked inputs [sqrt rho, log rho] and [u, sqrt(rho) u] from
# arrays of their own; the w-form one took 5 556 224 while its bundle lent
# log rho on its own and the gradient that maps w to u below it; the seed
# chunk took 2 323 456 while release gave back only the last stack lent.
# The bounds move only down.
STORE_HIGH_WATER = {"record_128x128": 5158912, "record_w_128x128": 5158912,
                    "record_32x32x32": 19316736,
                    "seed_chunk_64x64": 1967104}


@pytest.mark.parametrize("op", sorted(STORE_HIGH_WATER))
def test_store_high_water(monkeypatch, serial, op):
    st = _Tracked()
    monkeypatch.setattr(fields, "_store", st)
    kind, n = op.rsplit("_", 1)
    n = tuple(int(m) for m in n.split("x"))
    if kind.startswith("record"):
        s = _state(n, 18, "w" if kind == "record_w" else "u")
        timeloop.step(s, PARAMS, _rhs_for_state(s), 1e-4, scheme="imex")

        def call():
            timeloop._record_chunk([s], PARAMS, ())
    else:
        configs = _suites(seeds=(500,), grids=(n,))

        def call():
            verify.run_suites(configs)
    call()
    st.high = 0
    call()
    assert len(st.buffers) == 1 and not st.lent
    assert 0 < st.high <= STORE_HIGH_WATER[op], st.high


def test_no_arena_inside_a_scope(store):
    # a scope's stacks lie over the arenas' bytes: a right-hand side or a
    # step inside one raises, and leaves the store as it was
    s = _state((16, 24), 11)
    clean = _fresh_store(lambda: timeloop.step(
        s, PARAMS, systems.rhs_approx_u, 1e-4, scheme="imex"))
    calls = [lambda: systems.rhs_approx_u(s, PARAMS),
             lambda: systems.rhs_target(s, PARAMS, spectral=True)]
    calls += [functools.partial(timeloop.step, s, PARAMS,
                                systems.rhs_approx_u, 1e-4, scheme=scheme)
              for scheme in SCHEMES]
    for call in calls:
        with pytest.raises(RuntimeError, match="workspace scope"):
            in_workspace(call)()
        assert not store.depth and not store.lent and not store.arenas
    _same_state(timeloop.step(s, PARAMS, systems.rhs_approx_u, 1e-4,
                              scheme="imex"), clean)


@pytest.mark.parametrize("form", ["u", "w"])
def test_record_chunk_writes_over_the_arenas(store, form):
    # a record chunk between two steps lends over the arenas' bytes; the
    # next step writes what it reads and keeps the bits of its
    # transcription
    s = _state((32, 32), 12, form)
    rhs_fn = _rhs_for_state(s)
    for _ in range(2):     # the store grows in the first pair only
        s = timeloop.step(s, PARAMS, rhs_fn, 1e-4, scheme="imex")
        timeloop._record_chunk([s], PARAMS, ())
    s = timeloop.step(s, PARAMS, rhs_fn, 1e-4, scheme="imex")
    held = [buf.copy() for buf in _arena_buffers(store)]
    capacity = _capacity(store)
    timeloop._record_chunk([s], PARAMS, ())
    assert _capacity(store) == capacity
    assert any(buf.tobytes() != old.tobytes()
               for buf, old in zip(_arena_buffers(store), held))
    ref = _fresh_store(lambda: _imex_step(s, PARAMS, rhs_fn, 1e-4))
    new = timeloop.step(s, PARAMS, rhs_fn, 1e-4, scheme="imex")
    _same(new.rho.values, ref[0])
    _same(new.vel.values, ref[1:])


def test_workspace_is_per_thread(store):
    # more threads than cores, switching often: arenas shared between
    # threads would hand one stack to two stages
    states = [_state((32, 32), seed) for seed in range(4)]
    refs = [_fresh_store(lambda s=s: timeloop.step(
        s, PARAMS, systems.rhs_approx_u, 1e-4, scheme="imex"))
        for s in states]
    timeloop.step(states[0], PARAMS, systems.rhs_approx_u, 1e-4,
                  scheme="imex")
    mine = _arena_buffers(store)
    seen = {}

    def worker(k):
        seen[k] = [len(fields._store.arenas)]
        for _ in range(5):
            seen[k].append(timeloop.step(states[k], PARAMS,
                                         systems.rhs_approx_u, 1e-4,
                                         scheme="imex"))
        seen[k].append(_arena_buffers(fields._store))
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
        assert seen[k][0] == 0  # a new thread starts with no arena
        for new in seen[k][1:-1]:
            _same_state(new, ref)
        # no thread wrote into another's stacks
        for j in range(k):
            assert not any(np.shares_memory(a, b) for a in seen[k][-1]
                           for b in seen[j][-1])
        assert not any(np.shares_memory(a, b) for a in seen[k][-1]
                       for b in mine)
    assert _arena_buffers(store) == mine


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_writes_its_own_store(store):
    # the store's maps are private: a child forked after a right-hand side
    # runs one on another state in its copy of the arenas (and grows its
    # store), and the parent's stacks, the spectrum its call returned
    # among them, keep every bit
    s, other = _state((16, 24), 13), _state((16, 24), 14)
    spec = systems.rhs_approx_u(s, PARAMS, spectral=True)
    assert any(np.shares_memory(spec, buf)
               for buf in _arena_buffers(store))
    held = [bytes(buf) for buf in store.buffers]
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            systems.rhs_approx_u(other, PARAMS, spectral=True)
            timeloop._record_chunk([other], PARAMS, ())
            code = 0
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done or time.monotonic() > deadline:
            break
        time.sleep(0.01)
    if not done:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child did not finish in 60 s")
    assert os.waitstatus_to_exitcode(status) == 0
    assert [bytes(buf) for buf in store.buffers] == held


# Minor page faults of one steady 2D 128^2 IMEX step: 3829 to 4204 before
# the workspace (getrusage, 2-core Xeon, numpy 2.4.6, glibc); 0 with it.
# The budget is 5 % of the lower figure.
FAULT_BUDGET = 191
# The same at 64^2: 189 to 197 while the step's stacks below 128 KiB were
# plain on every grid, 0 with every 2D stack pooled.
# Both are counted in a fresh interpreter: the heap that earlier tests
# leave full of holes can hide the faults (the 64^2 step of the plain
# stacks took none after a 128^2 step in the same process).
FAULT_BUDGET_64 = 10
linux_only = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="minor page faults as Linux counts "
                                       "them")


def _steady_faults(n, op, budgeted=False):
    """(median, sorted counts) of the minor page faults of three calls of op
    on the grid n, after two warm-up calls. op is "rhs" (a nodal
    rhs_approx_u), "step" (an IMEX step), "record" (a one-record chunk of
    integrate) or "integrate" (one IMEX step and two records, with an
    EnergyBudget observer if budgeted)."""
    grid = Grid(n)
    s = State(random_smooth_positive(grid, 3, 6, 4.0),
              random_smooth_vector(grid, 3, 6), form="u")
    config = _run_config(1)

    def call():
        if op == "rhs":
            systems.rhs_approx_u(s, PARAMS)
        elif op == "step":
            timeloop.step(s, PARAMS, systems.rhs_approx_u, 2e-4,
                          scheme="imex")
        elif op == "record":
            timeloop._record_chunk([s], PARAMS, ())
        else:
            observers = ((timeloop.EnergyBudget(PARAMS, config),)
                         if budgeted else ())
            timeloop.integrate(s, PARAMS, config, observers=observers)

    def faults():
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        call()
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    for _ in range(2):
        faults()
    counts = sorted(faults() for _ in range(3))
    return counts[1], counts


def _fresh(code):
    """What code prints as JSON, run in a fresh interpreter that imports
    the package and this module from this checkout."""
    src = os.path.dirname(os.path.dirname(fields.__file__))
    path = os.pathsep.join(filter(None, (src, os.path.dirname(__file__),
                                         os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _fresh_faults(n, op, budgeted=False):
    """_steady_faults(n, op, budgeted) in a fresh interpreter."""
    return _fresh("import json, test_workspace as t; print(json.dumps("
                  f"t._steady_faults({n!r}, {op!r}, {budgeted})))")


@linux_only
def test_steady_2d_step_page_faults():
    median, counts = _fresh_faults((128, 128), "step")
    assert median <= FAULT_BUDGET, counts


@linux_only
def test_steady_64_step_page_faults():
    median, counts = _fresh_faults((64, 64), "step")
    assert median <= FAULT_BUDGET_64, counts


# Minor page faults at 32^3, each op of _steady_faults in a fresh
# interpreter (getrusage, 2-core Xeon, numpy 2.4.6, glibc): rhs 1 563, step
# 3 126, record 3 299 to 3 810 and integrate 4 659 while the inverse went
# through numpy.fft.irfftn, whose two complex intermediates per call (6.4 MB
# each for the 23-row level-1 inverse) glibc trimmed and faulted in again;
# 0 for each with one work stack per inverse, over five heap layouts (no
# single call above 1). The budget is that count with the 10-fault
# allowance of FAULT_BUDGET_64.
FAULT_BUDGETS_3D = {"rhs": 10, "step": 10, "record": 10, "integrate": 10}


@linux_only
@pytest.mark.parametrize("op", sorted(FAULT_BUDGETS_3D))
def test_steady_3d_page_faults(op):
    median, counts = _fresh_faults((32, 32, 32), op)
    assert median <= FAULT_BUDGETS_3D[op], counts


# --- the seed chunks of verify -------------------------------------------

def _suites(seeds=tuple(range(500, 525)), grids=((128,), (64, 64))):
    """The identity and inequality suites of one ensemble, as verify runs
    them for `qnslab verify`."""
    return {name: verify.SuiteConfig(seeds=seeds, grids=grids, checks=checks)
            for name, checks in (("identity", verify.IDENTITY_CHECKS),
                                 ("inequality", verify.INEQUALITY_CHECKS))}


def _results(configs):
    reports = verify.run_suites(configs)
    return {name: [r.to_json() for r in rep.results]
            for name, rep in reports.items()}


def test_verify_chunks_equal_a_pass_without_the_pool(store, monkeypatch):
    # 25 seeds: one chunk of (128,) and 25 chunks of (64, 64), each on the
    # store's stacks
    configs = _suites()
    initial = _capacity(store)
    with monkeypatch.context() as mp:
        # each chunk outside any scope: every stack a plain array
        mp.setattr(verify, "_run_chunk", verify._run_chunk.__wrapped__)
        ref = _results(configs)
        assert not store.lent and _capacity(store) == initial
    for _ in range(2):
        _poison(store)
        assert _results(configs) == ref
        assert not store.lent
        assert _written(store)
    assert _capacity(store) != initial


def test_verify_pooled_bytes_stop_growing(store):
    # the store grows in the first verify pass and not after it
    configs = _suites(seeds=tuple(range(5)))
    verify.run_suites(configs)
    capacity = _capacity(store)
    for _ in range(3):
        verify.run_suites(configs)
        assert not store.lent
        assert _capacity(store) == capacity


def test_failed_check_returns_every_stack(store, monkeypatch):
    configs = _suites(seeds=(3, 4), grids=((64, 64),))
    ref = _results(configs)

    def fail(d):
        # the bundle and the identity suite's stacks are lent by now
        assert store.lent
        raise VacuumError(1, -1.0)
    with monkeypatch.context() as mp:
        mp.setattr(verify, "grad6_batch", fail)
        with pytest.raises(VacuumError):
            verify.run_suites(configs)
    assert not store.lent and not store.depth
    assert (store.index, store.at) == (0, 0)
    _poison(store)
    assert _results(configs) == ref


def test_operators_outside_a_scope_keep_plain_arrays(store):
    # every stack would be lent inside a scope; outside one, none is
    grid = Grid((64, 64))
    s = _state((64, 64), 12)
    r, u = s.rho.values, s.vel.values
    grad_arr(grid, r)
    div_arr(grid, u)
    Derived(s, PARAMS).load(*PIECES)
    assert not store.lent and len(store.buffers) == 1


# Minor page faults of a steady identity+inequality pass of _suites(), in a
# fresh interpreter (getrusage, 2-core Xeon, numpy 2.4.6, glibc 2.36). The
# figures depend on where glibc's heap puts things, which the number of
# environment variables alone moves: over 8 such layouts the median of
# three passes was 4918 to 9787 when each chunk allocated its transform
# stacks afresh (8627 in the layout first measured). With the stacks
# pooled but the chunk's nodal arrays plain it was 3 to 3301 over 16
# layouts, about half of them above 2400; with those arrays pooled too
# (see test_verify_chunk_plain_bytes) it was 52 to 109 over 20 layouts,
# nearly all of them the 1D chunk's, whose arrays stayed plain; with the
# 1D chunk's stacks in the store too it is 2 to 4 (three passes in each
# of two fresh interpreters). The budget is 5 % of 8627. These passes run
# every chunk in the one process (WORKERS = 1), as on a one-CPU machine.
VERIFY_FAULT_BUDGET = 431
# The same pass split over two processes (WORKERS = 2), this one and a
# forked child, counts the faults of both, RUSAGE_SELF plus
# RUSAGE_CHILDREN: about 1 225 in this process and 1 370 in the child when
# the child inherited the store's maps, whose pages this process then
# copied on its next write; 2 127 to 2 153 (about 770 and 1 380) with the
# maps kept from the child, over six fresh interpreters and three
# environment sizes. The budget is 5 % above the median of those, 2 131.
VERIFY_FORKED_FAULT_BUDGET = 2238
VERIFY_PASSES = """
import json, resource
from qnslab import fields, verify
fields._workers = lambda jobs: min(WORKERS, jobs)
counted = (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
configs = {name: verify.SuiteConfig(seeds=tuple(range(500, 525)),
                                    grids=((128,), (64, 64)), checks=checks)
           for name, checks in (("identity", verify.IDENTITY_CHECKS),
                                ("inequality", verify.INEQUALITY_CHECKS))}
def faults():
    before = [resource.getrusage(who).ru_minflt for who in counted]
    verify.run_suites(configs)
    return sum(resource.getrusage(who).ru_minflt - b
               for who, b in zip(counted, before))
for _ in range(2):
    faults()
print(json.dumps([faults() for _ in range(3)]))
"""


# Traced bytes a steady 64^2 seed chunk allocates plainly, as its peak over
# its start: 719 KiB with only its transform stacks pooled, 305 KiB with its
# nodal arrays (generated fields, Derived pieces, the checkers' larger
# intermediates) pooled too, 270 KiB with numpy 2.4.6 on the direct
# transform layer. What remains is mostly the complex work stack that
# from_spectral allocates for its leading-axis passes: 264 KiB for the
# bundle's 8-row inverse spectrum. glibc trims its heap top once that
# exceeds twice the largest block it has mmapped and freed, here that same
# 264 KiB spectrum, and it grows the heap by what it needs plus a 128 KiB
# pad; a chunk that allocates under 528 - 128 = 400 KiB plainly leaves no
# heap top to trim, wherever the heap puts its blocks. The ceiling is 5 %
# above 305 KiB, and moves only down.
CHUNK_PLAIN_KIB = 320


def test_verify_chunk_plain_bytes(store, monkeypatch, serial):
    configs = _suites(seeds=(500, 501), grids=((64, 64),))
    verify.run_suites(configs)
    peaks = []
    run_chunk = verify._run_chunk

    def traced(*args):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = run_chunk(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - start)
        return out
    monkeypatch.setattr(verify, "_run_chunk", traced)
    tracemalloc.start()
    try:
        verify.run_suites(configs)
    finally:
        tracemalloc.stop()
    assert len(peaks) == 2
    assert max(peaks) <= CHUNK_PLAIN_KIB * 1024, peaks


@linux_only
def test_steady_verify_pass_page_faults():
    counts = sorted(_fresh("WORKERS = 1" + VERIFY_PASSES))
    assert counts[1] <= VERIFY_FAULT_BUDGET, counts


@linux_only
@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_steady_forked_verify_pass_page_faults():
    counts = sorted(_fresh("WORKERS = 2" + VERIFY_PASSES))
    assert counts[1] <= VERIFY_FORKED_FAULT_BUDGET, counts


# --- the monitor records of integrate ------------------------------------

def _run_config(steps, dt=2e-4):
    return timeloop.IntegratorConfig.fixed_dt(dt, t_end=steps * dt)


def _monitors_csv(path, records):
    cli._write_monitors(path, records)
    with open(path, "rb") as fh:
        return fh.read()


def _budget_samples(seen):
    """An observer that appends each record's time, energy budget rate and
    energy, all read from the record's row bundle, to seen."""
    def observe(s, d):
        seen.append((s.time, timeloop._budget_rate(d, PARAMS),
                     functionals.energy(d, PARAMS)))
    return observe


@pytest.mark.parametrize("form", ["u", "w"])
def test_records_equal_a_run_without_the_pool(store, tmp_path, form):
    # 11 records at 32^2: chunks of 4, 4 and 3, each evaluated on the
    # store's stacks, observer calls included, whether or not the run has
    # observers
    s = _state((32, 32), 13, form)
    config = _run_config(10)
    ref_seen = []
    ref = _bypassed(lambda: timeloop.integrate(
        s, PARAMS, config, observers=(_budget_samples(ref_seen),)))
    assert len(ref_seen) == len(ref.records) == 11
    for observed in (True, False, True):
        _poison(store)
        seen = []
        traj = timeloop.integrate(
            s, PARAMS, config,
            observers=(_budget_samples(seen),) if observed else ())
        assert not store.lent
        assert seen == (ref_seen if observed else [])
        assert traj.records == ref.records
        assert traj.dissipation_time_integrals \
            == ref.dissipation_time_integrals
        _same_state(traj.final, ref.final)
        assert _monitors_csv(tmp_path / "pooled.csv", traj.records) \
            == _monitors_csv(tmp_path / "plain.csv", ref.records)
        assert _written(store)


def test_raising_observer_returns_every_stack(store):
    s = _state((32, 32), 14)
    config = _run_config(3)
    ref = timeloop.integrate(s, PARAMS, config)

    def fail(state, d):
        # the chunk's bundle is lent by now
        assert store.lent
        raise VacuumError(1, -1.0)
    with pytest.raises(VacuumError):
        timeloop.integrate(s, PARAMS, config, observers=(fail,))
    assert not store.lent and not store.depth
    _poison(store)
    assert timeloop.integrate(s, PARAMS, config).records == ref.records


def test_budgeted_run_pooled_bytes_stop_growing(store):
    # the store grows in the first budgeted run and not after it
    s = _state((32, 32), 16)
    config = _run_config(6)

    def run():
        budget = timeloop.EnergyBudget(PARAMS, config)
        timeloop.integrate(s, PARAMS, config, observers=(budget,))
        return budget.report()
    ref = run()
    capacity = _capacity(store)
    for _ in range(3):
        assert run().max_residual == ref.max_residual
        assert not store.lent
        assert _capacity(store) == capacity


# Traced bytes a steady pooled 128^2 record (one-record chunk) allocates
# plainly, as its peak over its start: 2 052 to 2 054 KiB, all of it the
# arithmetic temporaries of the functionals (energy_dissipation,
# _kinetic_dissipation, Derived.rho_neg_p0, quad), which no workspace stack
# holds yet. The ceiling is 5 % above 2 054 KiB, and moves only down.
RECORD_PLAIN_KIB = 2160


def test_pooled_record_plain_bytes(store, monkeypatch):
    s = _state((128, 128), 15)
    config = _run_config(1)
    timeloop.integrate(s, PARAMS, config)
    peaks = []
    chunk = timeloop._record_chunk

    def traced(*args):
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = chunk(*args)
        peaks.append(tracemalloc.get_traced_memory()[1] - start)
        return out
    monkeypatch.setattr(timeloop, "_record_chunk", traced)
    tracemalloc.start()
    try:
        timeloop.integrate(s, PARAMS, config)
    finally:
        tracemalloc.stop()
    assert len(peaks) == 2
    assert max(peaks) <= RECORD_PLAIN_KIB * 1024, peaks


# Minor page faults of a steady 2D 128^2 integrate of one IMEX step and two
# one-record chunks, in a fresh interpreter (getrusage, 2-core Xeon, numpy
# 2.4.6, glibc): 2 260 to 2 389 while every record built its bundle from
# fresh arrays, 0 to 2 with each chunk of an observer-free run in a
# workspace scope. The budget is 5 % of the lower figure.
RECORD_FAULT_BUDGET = 113
# The same run with an EnergyBudget observer: 1 938 to 2 260 while the
# chunks of an observed run were evaluated on plain arrays, 0 to 1 with its
# observer calls in the chunk's workspace scope. The budget is 5 % of the
# lower figure.
BUDGETED_RECORD_FAULT_BUDGET = 96


@linux_only
def test_steady_record_page_faults():
    median, counts = _fresh_faults((128, 128), "integrate")
    assert median <= RECORD_FAULT_BUDGET, counts


@linux_only
def test_steady_budgeted_record_page_faults():
    median, counts = _fresh_faults((128, 128), "integrate", budgeted=True)
    assert median <= BUDGETED_RECORD_FAULT_BUDGET, counts
