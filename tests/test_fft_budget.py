"""Ceilings on the transforms and the Python calls of the hot layers.

Every transform of the package goes through fields.to_spectral and
fields.from_spectral, which call numpy's pocketfft gufuncs through the module
fields._pocketfft. The transform counter stands in for that module and counts
one transform per rfft_n_even call (forward) and per irfft call (inverse);
the fft and ifft axis passes inside a multi-dimensional transform do not
count. A guard test checks that no hot path calls a numpy.fft entry point
instead. The counts do not depend on the grid size, so a small 2D grid pins
them. The Python calls are counted with sys.setprofile: every call of a
function of the qnslab package or of numpy's Python code, and every builtin
call made from one, so a numpy wrapper counts with the calls it makes. A
change that lowers a count should lower its ceiling here; a ceiling never
moves up.
"""

import os
import sys
import types

import numpy as np
import pytest

import qnslab
from qnslab import fields, functionals, systems, timeloop, verify
from qnslab.fields import (Grid, from_spectral, random_smooth_positive,
                           random_smooth_vector, to_spectral)
from qnslab.physics import Derived, QnsParams, State, to_w

ENTRY_POINTS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft",
                "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft",
                "ihfft")

CEILINGS = {
    "rhs_target": 6,
    "rhs_approx_u": 8,
    "rhs_approx_w": 6,
    "step_imex": 17,
    "step_rk4": 32,
    "monitor": 12,
    "monitor_record": 8,
    "monitor_chunk_1d": 8,
    "budget_rate": 20,
    "budgeted_record": 24,
    "verify_pass_1d": 24,
    "verify_pass_2d": 24,
}


def _counter(count, fn):
    def counted(*args, **kwargs):
        count["calls"] += 1
        return fn(*args, **kwargs)
    return counted


def _measure(count):
    def measure(fn):
        count["calls"] = 0
        fn()
        return count["calls"]
    return measure


@pytest.fixture
def fft_calls(monkeypatch):
    """measure(fn): the transforms fn makes, one per forward and one per
    inverse, counted at the gufunc module fields holds."""
    count = {"calls": 0}
    real = fields._pocketfft
    monkeypatch.setattr(fields, "_pocketfft", types.SimpleNamespace(
        rfft_n_even=_counter(count, real.rfft_n_even),
        irfft=_counter(count, real.irfft), fft=real.fft, ifft=real.ifft))
    return _measure(count)


@pytest.fixture
def entry_calls(monkeypatch):
    """measure(fn): the calls fn makes to numpy.fft's entry points."""
    count = {"calls": 0}
    for name in ENTRY_POINTS:
        monkeypatch.setattr(np.fft, name,
                            _counter(count, getattr(np.fft, name)))
    return _measure(count)


# Python calls of the package and of numpy, and the builtin calls made from
# them, of each right-hand side, as the IMEX step calls it, of one IMEX and
# one RK4 step, of one full observer-free record chunk of integrate and of a
# 31-step integrate with an EnergyBudget observer (one chunk of 32 records),
# at 1D n=128 where call overhead dominates; of one rhs_approx_u, one IMEX
# step and one one-record chunk on the small 2D grid, which pin the glue of
# the paths every dimension shares; and of one seed chunk of the identity
# plus inequality suites, of 25 seeds on (64,) and of one seed on (64, 64).
# With their stacks and row views in the arenas, the right-hand sides went
# from 70 (rhs_approx_u) and 58 (rhs_approx_w) calls to 36 and 30, the
# steps from 184 (IMEX), 337 (RK4) and 396 (2D IMEX) to 103, 186 and 111,
# and the budgeted run from 16 636 to 14 124. With one stack store in place
# of the pool, whose lend and release make no further call, the record
# chunks went from 459 (1D) and 501 (2D) to 424 and 354, the budgeted run
# to 13 737 and the seed chunks from 1 489 (1D) and 1 118 (2D) to 1 434 and
# 709.
CALL_CEILINGS = {
    "rhs_target": 25,
    "rhs_approx_u": 36,
    "rhs_approx_w": 30,
    "rhs_approx_u_2d": 39,
    "step_imex": 103,
    "step_rk4": 186,
    "step_imex_2d": 111,
    "record_chunk_1d": 424,
    "record_chunk_2d": 354,
    "budgeted_run_1d": 13737,
    "verify_chunk_1d": 1434,
    "verify_chunk_2d": 709,
}

COUNTED = (os.path.dirname(qnslab.__file__) + os.sep,
           os.path.dirname(np.__file__) + os.sep)


@pytest.fixture
def py_calls():
    count = {"calls": 0}

    def profile(frame, event, arg):
        # a call event reports the callee's frame, a c_call the caller's
        if event in ("call", "c_call") \
                and frame.f_code.co_filename.startswith(COUNTED):
            count["calls"] += 1

    def measure(fn):
        # the caches of the plans, the ETD multipliers and the smooth
        # amplitudes fill, keyed by the grid of fn, so a lookup compares no
        # other grid
        systems._plan.cache_clear()
        timeloop._etd_multipliers.cache_clear()
        fields._smooth_amplitude.cache_clear()
        fn()
        count["calls"] = 0
        sys.setprofile(profile)
        try:
            fn()
        finally:
            sys.setprofile(None)
        return count["calls"]
    return measure


# Exact counts of each right-hand side, called as the public function and
# as the IMEX step calls it (spectral: the masked spectrum of [drho, dvel],
# one inverse transform short of the public call).
RHS_CALLS = [
    ("rhs_target", False, 6), ("rhs_approx_u", False, 8),
    ("rhs_approx_w", False, 6),
    ("rhs_target", True, 5), ("rhs_approx_u", True, 7),
    ("rhs_approx_w", True, 5),
]


def _verify_pass(count, spec=(64,)):
    """identity plus inequality suites, count seeds on spec; one chunk on
    (64,), one chunk per seed on (64, 64)."""
    seeds = tuple(range(count))
    return lambda: verify.run_suites({
        "identity": verify.SuiteConfig(seeds=seeds, grids=(spec,),
                                       checks=verify.IDENTITY_CHECKS),
        "inequality": verify.SuiteConfig(seeds=seeds, grids=(spec,),
                                         checks=verify.INEQUALITY_CHECKS)})


def _seed_chunk(count, spec):
    """One seed chunk of the identity plus inequality suites, as a pass
    evaluates it: count seeds on spec, which must fit one chunk."""
    grid, seeds = Grid(spec), list(range(count))
    assert count <= verify.chunk_size(grid)
    names = ("identity", "inequality")
    configs = {name: verify.SuiteConfig(seeds=tuple(seeds), grids=(spec,),
                                        checks=verify.SUITE_CHECKS[name])
               for name in names}
    pieces = [p for name in names for check in verify.SUITE_CHECKS[name]
              for p in verify.CHECK_PIECES[check]]

    def chunk():
        reports = {name: verify.SuiteReport(name) for name in names}
        verify._run_chunk(grid, seeds, spec, names, configs, pieces, reports)
        assert all(len(r.results) == 4 * count for r in reports.values())
    return chunk


def _inputs():
    """Parameters and matching u- and w-form states on a small 2D grid."""
    grid = Grid((16, 24))
    params = QnsParams(nu=1.0, kappa=1.0 / 11.0, eps=1e-3)
    state = State(random_smooth_positive(grid, 3, 4, 4.0),
                  random_smooth_vector(grid, 3, 4), form="u")
    return params, state, to_w(state, params)


def _monitor_chunk(count, form="u"):
    """What one chunk of count records of integrate evaluates at 1D
    n=128 (32 records is a full chunk there)."""
    grid = Grid(128)
    params = QnsParams(nu=1.0, kappa=1.0 / 11.0, eps=1e-3)
    states = [State(random_smooth_positive(grid, k, 6, 4.0),
                    random_smooth_vector(grid, k, 6)) for k in range(count)]
    if form == "w":
        states = [to_w(s, params) for s in states]
    return lambda: timeloop._monitor_sample(Derived.stacked(states, params),
                                            params)


def _operations():
    params, state, wstate = _inputs()

    def monitor():
        # the public functionals, one at a time
        functionals.energy_dissipation(state, params)
        functionals.energy(state, params)
        functionals.bd_entropy(state, params)
        functionals.mv_functional(state)

    def monitor_record():
        # what one record of integrate evaluates, mass flux included
        timeloop._monitor_sample(state, params)

    def budgeted_record():
        # a record of integrate with an EnergyBudget observer: both read
        # the record's one bundle
        d = Derived(state, params)
        timeloop._monitor_sample(d, params)
        config = timeloop.IntegratorConfig.fixed_dt(1e-4, t_end=1e-3)
        timeloop.EnergyBudget(params, config)(state, d)

    def step(scheme):
        return lambda: timeloop.step(state, params, systems.rhs_approx_u,
                                     1e-4, scheme=scheme)

    return {
        "rhs_target": lambda: systems.rhs_target(state, params),
        "rhs_approx_u": lambda: systems.rhs_approx_u(state, params),
        "rhs_approx_w": lambda: systems.rhs_approx_w(wstate, params),
        "step_imex": step("imex"),
        "step_rk4": step("rk4-explicit"),
        "monitor": monitor,
        "monitor_record": monitor_record,
        "budget_rate": lambda: timeloop._budget_rate(state, params),
        "budgeted_record": budgeted_record,
        "monitor_chunk_1d": _monitor_chunk(32),
        "verify_pass_1d": _verify_pass(25),
        "verify_pass_2d": _verify_pass(1, (64, 64)),
    }


@pytest.mark.parametrize("op", sorted(CEILINGS))
def test_fft_calls_within_ceiling(fft_calls, op):
    calls = fft_calls(_operations()[op])
    assert 0 < calls <= CEILINGS[op], f"{op}: {calls} FFT calls"


@pytest.mark.parametrize("name, spectral, calls", RHS_CALLS)
def test_rhs_calls_exact(fft_calls, name, spectral, calls):
    params, state, wstate = _inputs()
    if name == "rhs_approx_w":
        state = wstate
    fn = getattr(systems, name)
    assert fft_calls(lambda: fn(state, params, spectral=spectral)) == calls


@pytest.mark.parametrize("op", sorted(CALL_CEILINGS))
def test_python_calls_within_ceiling(py_calls, op):
    grid = Grid(128)
    params = QnsParams(nu=1.0, kappa=1.0 / 11.0, eps=1e-3)
    state = State(random_smooth_positive(grid, 3, 6, 4.0),
                  random_smooth_vector(grid, 3, 6))
    wstate = to_w(state, params)
    state_2d = _inputs()[1]
    chunk_1d = [State(random_smooth_positive(grid, k, 6, 4.0),
                      random_smooth_vector(grid, k, 6)) for k in range(32)]
    run_config = timeloop.IntegratorConfig.fixed_dt(2e-4, t_end=31 * 2e-4)

    def budgeted_run():
        budget = timeloop.EnergyBudget(params, run_config)
        traj = timeloop.integrate(state, params, run_config,
                                  observers=(budget,))
        assert len(traj.records) == 32

    def step(s, scheme):
        return lambda: timeloop.step(s, params, systems.rhs_approx_u, 1e-4,
                                     scheme=scheme)
    calls = py_calls({
        "rhs_target": lambda: systems.rhs_target(state, params,
                                                 spectral=True),
        "rhs_approx_u": lambda: systems.rhs_approx_u(state, params,
                                                     spectral=True),
        "rhs_approx_u_2d": lambda: systems.rhs_approx_u(state_2d, params,
                                                        spectral=True),
        "rhs_approx_w": lambda: systems.rhs_approx_w(wstate, params,
                                                     spectral=True),
        "step_imex": step(state, "imex"),
        "step_rk4": step(state, "rk4-explicit"),
        "step_imex_2d": step(state_2d, "imex"),
        "record_chunk_1d": lambda: timeloop._record_chunk(chunk_1d, params,
                                                          ()),
        "record_chunk_2d": lambda: timeloop._record_chunk([state_2d],
                                                          params, ()),
        "budgeted_run_1d": budgeted_run,
        "verify_chunk_1d": _seed_chunk(25, (64,)),
        "verify_chunk_2d": _seed_chunk(1, (64, 64)),
    }[op])
    assert 0 < calls <= CALL_CEILINGS[op], f"{op}: {calls} calls"


def test_monitor_chunk_does_not_scale_with_record_count(fft_calls):
    assert timeloop.chunk_size(Grid(128)) == 32
    one = fft_calls(_monitor_chunk(1))
    assert fft_calls(_monitor_chunk(5)) == fft_calls(_monitor_chunk(32)) \
        == one
    # a w-form chunk maps to u with the bundle's own gradient of log rho,
    # which its u-form twin transforms as well: no transform of its own
    # (one + 2 while the map took a batched gradient of its own)
    assert fft_calls(_monitor_chunk(1, "w")) \
        == fft_calls(_monitor_chunk(32, "w")) == one


def test_verify_pass_does_not_scale_with_seed_count(fft_calls):
    assert fft_calls(_verify_pass(1)) == fft_calls(_verify_pass(25))


def test_counter_sees_every_transform(fft_calls):
    for n in ((32,), (16, 24), (8, 12, 16)):
        grid = Grid(n)
        a = np.ones((3,) + grid.shape)

        def pair():
            from_spectral(grid, to_spectral(grid, a))
        assert fft_calls(pair) == 2, n


def test_hot_paths_call_no_fft_entry_point(entry_calls, fft_calls):
    # every transform of a step, a record chunk and a verify chunk goes
    # through the counted layer
    params, state, _ = _inputs()
    ops = [lambda: timeloop.step(state, params, systems.rhs_approx_u, 1e-4,
                                 scheme="imex"),
           lambda: timeloop._record_chunk([state], params, ()),
           _seed_chunk(1, (64, 64))]
    for op in ops:
        assert entry_calls(op) == 0
        assert fft_calls(op) > 0
