"""Layer probe: one call of each per-layer operation at three grid sizes.

Part of the traced run, not a workload. For every operation and size it
reports the transform calls (forward + inverse, counted by the tracer, exact)
and the median wall time of ``REPEATS`` untraced calls, as
``probe.<op>.<size>.fft_calls`` and ``probe.<op>.<size>.ms``. Inputs are
seeded smooth states with nu=1, kappa=1/11, eps=1e-3.
"""

from __future__ import annotations

import statistics
import time

from spans import FFT
from workloads import RUN_FLOOR, RUN_MODES, RUN_PARAMS

SIZES = {"1d128": (128,), "2d128": (128, 128), "3d32": (32, 32, 32)}
OPS = ("fft_pair", "grad", "hess", "rhs_target", "rhs_approx_u",
       "rhs_approx_w", "step_rk4", "step_imex", "monitor", "budget_rate")
REPEATS = 3
DT = 1e-4


def operations(spec, seed):
    """Name -> zero-argument callable. Callables look functions up through
    their modules at call time, so an installed tracer sees them."""
    import numpy as np
    import qnslab
    from qnslab import fields, functionals, physics, systems, timeloop

    grid = qnslab.Grid(spec)
    params = qnslab.QnsParams(**RUN_PARAMS)
    rho = fields.random_smooth_positive(grid, seed, RUN_MODES, RUN_FLOOR)
    vel = fields.random_smooth_vector(grid, seed, RUN_MODES)
    state = physics.State(rho, vel, form="u")
    wstate = physics.to_w(state, params)

    def monitor():
        # the functionals one monitor record of a u-form run evaluates
        return (functionals.energy_dissipation(state, params),
                functionals.energy(state, params),
                functionals.bd_entropy(state, params),
                functionals.mv_functional(state))

    def step(scheme):
        return lambda: timeloop.step(state, params, systems.rhs_approx_u, DT,
                                     scheme=scheme)

    return {
        "fft_pair": lambda: np.fft.ifftn(np.fft.fftn(rho.values)),
        "grad": lambda: fields.grad(rho),
        "hess": lambda: fields.hessian(rho),
        "rhs_target": lambda: systems.rhs_target(state, params),
        "rhs_approx_u": lambda: systems.rhs_approx_u(state, params),
        "rhs_approx_w": lambda: systems.rhs_approx_w(wstate, params),
        "step_rk4": step("rk4-explicit"),
        "step_imex": step("imex"),
        "monitor": monitor,
        "budget_rate": lambda: timeloop._budget_rate(state, params),
    }


def fft_counts(tracer, seed, sizes=SIZES):
    """{(op, size): transform calls} from one traced call each; the traced
    call also warms the transform caches before ``run_probe`` times."""
    counts = {}
    tracer.install()
    try:
        for size, spec in sizes.items():
            for op, fn in operations(spec, seed).items():
                tracer.reset()
                fn()
                counts[op, size] = tracer.count(FFT)
    finally:
        tracer.uninstall()
        tracer.reset()
    return counts


def run_probe(tracer, seed):
    metrics = {}
    for (op, size), calls in fft_counts(tracer, seed).items():
        metrics[f"probe.{op}.{size}.fft_calls"] = calls
    for size, spec in SIZES.items():
        for op, fn in operations(spec, seed).items():
            times = []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
            metrics[f"probe.{op}.{size}.ms"] = 1e3 * statistics.median(times)
    return metrics
