"""Self-test of the benchmark's transform counter and layer probe.

    PYTHONPATH=src python3 perfbench/selftest.py

Checks that no import style evades the transform counter, then pins the
probe's forward + inverse transform counts (eps > 0, kappa > 0) to the table
below, and prints the probe's 2D 128^2 times beside the baseline figures the
roadmap quotes. Exits 1 on any mismatch. It is kept out of the repository's
test suite on purpose: the table records the program as it is, and a change
that lowers the counts is expected to update it.
"""

from __future__ import annotations

import statistics
import sys
import time
import types

import numpy as np
import numpy.fft

import spans

ORIGINAL_FFTN = numpy.fft.fftn
tracer = spans.Tracer()
tracer.add_transforms()
tracer.install()

import probe  # noqa: E402
import qnslab  # noqa: E402

tracer.add_program()
tracer.uninstall()

# transform calls (forward + inverse) per operation and size
FFT_CALLS = {
    "rhs_target": {"1d128": 16, "2d128": 36, "3d32": 64},
    "rhs_approx_u": {"1d128": 34, "2d128": 82, "3d32": 148},
    "rhs_approx_w": {"1d128": 26, "2d128": 60, "3d32": 106},
    "step_imex": {"1d128": 82, "2d128": 187, "3d32": 328},
    "step_rk4": {"1d128": 136, "2d128": 328, "3d32": 592},
    "monitor": {"1d128": 26, "2d128": 64, "3d32": 114},
}
# 2D 128^2 figures quoted by the roadmap, in ms
BASELINE_2D_MS = {"fft_pair": 0.76, "rhs_approx_u": 42.0,
                  "energy_dissipation": 24.0}


def traced_calls(fn):
    tracer.reset()
    fn()
    return tracer.count(spans.FFT), sum(
        s[spans.WORK] for s in tracer.spans if s[spans.LAYER] == spans.FFT)


def import_styles(failures):
    # an alias bound before the wrappers existed, as a module that did
    # `from numpy.fft import fftn` before installation would hold it
    alias = types.ModuleType("qnslab._selftest_alias")
    alias.fftn = ORIGINAL_FFTN
    sys.modules[alias.__name__] = alias
    tracer.add_aliases()
    tracer.install()
    try:
        from numpy.fft import rfftn
        import scipy.fft
        x = np.random.default_rng(0).standard_normal((16, 32))
        cases = {
            "np.fft.fftn": (lambda: np.fft.fftn(x), 1, 512),
            "from numpy.fft import rfftn": (lambda: rfftn(x), 1, 512),
            "np.fft.irfft2": (lambda: np.fft.irfft2(rfftn(x)), 2, 1024),
            "batched np.fft.fft": (lambda: np.fft.fft(x, axis=-1), 1, 512),
            "scipy.fft.fftn": (lambda: scipy.fft.fftn(x), 1, 512),
            "scipy.fft.dctn": (lambda: scipy.fft.dctn(x), 1, 512),
            "pre-installation alias": (lambda: alias.fftn(x), 1, 512),
        }
        for name, (fn, calls, points) in cases.items():
            got = traced_calls(fn)
            if got != (calls, points):
                failures.append(f"{name}: counted {got}, "
                                f"expected {(calls, points)}")
    finally:
        tracer.uninstall()
        del sys.modules[alias.__name__]
    if alias.fftn is not ORIGINAL_FFTN or numpy.fft.fftn is not ORIGINAL_FFTN:
        failures.append("uninstall did not restore the original transforms")


def fft_table(failures):
    counts = probe.fft_counts(tracer, seed=0)
    for op, sizes in FFT_CALLS.items():
        for size, expected in sizes.items():
            got = counts[op, size]
            flag = "" if got == expected else "   <-- MISMATCH"
            print(f"{op:>14} {size:>6}: {got:4d} transform calls{flag}")
            if got != expected:
                failures.append(f"{op} {size}: {got} calls, expected "
                                f"{expected}")


def timings_2d():
    from qnslab import functionals, physics
    ops = probe.operations(probe.SIZES["2d128"], seed=0)
    state = physics.State(
        qnslab.random_smooth_positive(qnslab.Grid((128, 128)), 0,
                                      probe.RUN_MODES, probe.RUN_FLOOR),
        qnslab.random_smooth_vector(qnslab.Grid((128, 128)), 0,
                                    probe.RUN_MODES))
    params = qnslab.QnsParams(**probe.RUN_PARAMS)
    ops["energy_dissipation"] = lambda: functionals.energy_dissipation(
        state, params)
    for op, baseline in BASELINE_2D_MS.items():
        ops[op]()
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            ops[op]()
            times.append(time.perf_counter() - t0)
        print(f"2d128 {op:>18}: {1e3 * statistics.median(times):7.2f} ms "
              f"(roadmap baseline {baseline} ms)")


def main():
    failures = []
    import_styles(failures)
    fft_table(failures)
    timings_2d()
    for f in failures:
        print(f"FAIL {f}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
