"""Machine-speed reference kernel.

The machine this benchmark was defined on changes speed by up to a factor
1.7 within seconds to minutes, because other guests share its host, and a
raw median moves with it. So every timed end-to-end metric is scaled to a
fixed reference speed: a time t measured next to a kernel time k is reported
as t * REFERENCE_S / k. The kernel mixes what the workloads do (interpreted
Python, small and 128^2 transforms, elementwise array arithmetic) and uses
only the standard library and numpy, never qnslab, so two commits compared
run identical kernel code. The raw times are printed beside the scaled ones.
"""

from __future__ import annotations

import functools
import time

# median kernel time on the defining machine (2-core Intel Xeon, numpy 2.4.6)
REFERENCE_S = 0.05


@functools.cache
def _inputs():
    # numpy is imported on first use, so importing this module before a
    # timed set-up does not move the numpy import out of the set-up
    import numpy as np
    rng = np.random.default_rng(0)
    return np, rng.standard_normal(128), rng.standard_normal((128, 128))


def kernel_s():
    """Seconds for one run of the reference kernel."""
    np, small, large = _inputs()
    t0 = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    for _ in range(500):
        np.fft.ifft(np.fft.fft(small))
    for _ in range(15):
        np.fft.ifftn(np.fft.fftn(large))
    for _ in range(50):
        np.sqrt(large * large + 1.0) * np.log(large * large + 2.0)
    return time.perf_counter() - t0
