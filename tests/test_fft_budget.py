"""Ceilings on the FFT calls and the Python calls of the hot layers.

Every numpy.fft entry point is wrapped by a counter; a transform that calls
another entry point internally counts once. The counts do not depend on the
grid size, so a small 2D grid pins them. The Python calls are counted with
sys.setprofile: every call of a function of the qnslab package and every
builtin call made from one, so numpy's own Python wrappers do not count.
A change that lowers a count should lower its ceiling here; a ceiling never
moves up.
"""

import os
import sys

import numpy as np
import pytest

import qnslab
from qnslab import functionals, systems, timeloop, verify
from qnslab.fields import Grid, random_smooth_positive, random_smooth_vector
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


@pytest.fixture
def fft_calls(monkeypatch):
    count = {"calls": 0, "depth": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            if count["depth"] == 0:
                count["calls"] += 1
            count["depth"] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                count["depth"] -= 1
        return wrapper

    for name in ENTRY_POINTS:
        monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))

    def measure(fn):
        count["calls"] = 0
        fn()
        return count["calls"]
    return measure


# Python and builtin calls of one right-hand side, as the IMEX step calls
# it, and of one IMEX and one RK4 step, at 1D n=128 where call overhead
# dominates; and of one IMEX step on the small 2D grid, which pins the glue
# of the path every dimension shares
CALL_CEILINGS = {
    "rhs_approx_u": 73,
    "rhs_approx_w": 61,
    "step_imex": 184,
    "step_rk4": 340,
    "step_imex_2d": 396,
}

PACKAGE = os.path.dirname(qnslab.__file__) + os.sep


@pytest.fixture
def py_calls():
    count = {"calls": 0}

    def profile(frame, event, arg):
        # a call event reports the callee's frame, a c_call the caller's
        if event in ("call", "c_call") \
                and frame.f_code.co_filename.startswith(PACKAGE):
            count["calls"] += 1

    def measure(fn):
        # the caches of the plans and the ETD multipliers fill, keyed by
        # the grid of fn, so a lookup compares no other grid
        systems._plan.cache_clear()
        timeloop._etd_multipliers.cache_clear()
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

    def step(s, scheme):
        return lambda: timeloop.step(s, params, systems.rhs_approx_u, 1e-4,
                                     scheme=scheme)
    calls = py_calls({
        "rhs_approx_u": lambda: systems.rhs_approx_u(state, params,
                                                     spectral=True),
        "rhs_approx_w": lambda: systems.rhs_approx_w(wstate, params,
                                                     spectral=True),
        "step_imex": step(state, "imex"),
        "step_rk4": step(state, "rk4-explicit"),
        "step_imex_2d": step(state_2d, "imex"),
    }[op])
    assert 0 < calls <= CALL_CEILINGS[op], f"{op}: {calls} calls"


def test_monitor_chunk_does_not_scale_with_record_count(fft_calls):
    assert timeloop.chunk_size(Grid(128)) == 32
    one = fft_calls(_monitor_chunk(1))
    assert fft_calls(_monitor_chunk(5)) == fft_calls(_monitor_chunk(32)) \
        == one
    # a w-form chunk maps to u with one batched gradient of log rho
    assert fft_calls(_monitor_chunk(1, "w")) \
        == fft_calls(_monitor_chunk(32, "w")) == one + 2


def test_verify_pass_does_not_scale_with_seed_count(fft_calls):
    assert fft_calls(_verify_pass(1)) == fft_calls(_verify_pass(25))


def test_counter_sees_every_transform(fft_calls):
    a = np.ones((8, 8))

    def pair():
        np.fft.irfftn(np.fft.rfftn(a), s=a.shape, axes=(0, 1))
    assert fft_calls(pair) == 2
