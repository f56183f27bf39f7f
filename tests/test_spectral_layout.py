"""Real-FFT (rfft layout) spectral operators on anisotropic grids.

Square and cubic grids hide layout bugs on the halved last axis, so every
check here runs on grids whose axes differ in node count and extent. Inputs
are white noise, which has content in every mode including the Nyquist
modes, and results are compared against a full complex-FFT reference.
"""

import numpy as np
import pytest

from qnslab.fields import (Grid, ScalarField, VectorField, dealias,
                           dealias_arr, deriv_arr, div_arr, grad_arr,
                           grad_hess_arr, hess_arr, jac_arr, lap_arr,
                           random_smooth_positive, tdiv_arr)

GRIDS = [
    Grid((16, 32), length=(1.0, 3.0)),
    Grid((32, 8), length=(2 * np.pi, 0.5)),
    Grid((8, 16, 32), length=(1.0, 2.0, 0.75)),
    Grid((8, 32, 10), length=(3.0, 1.0, 2 * np.pi)),
    Grid(24, length=5.0),
]
IDS = ["x".join(map(str, g.n)) for g in GRIDS]
RTOL = 1e-12


def _noise(grid, lead=(), seed=0):
    return np.random.default_rng(seed).standard_normal(lead + grid.shape)


def _close(got, ref):
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert got.shape == ref.shape
    assert float(np.max(np.abs(got - ref))) <= RTOL * scale


# --- complex full-layout reference --------------------------------------

def _wavenumber(grid, axis):
    m, L = grid.n[axis], grid.length[axis]
    k = 2 * np.pi * np.fft.fftfreq(m, d=L / m)
    k[m // 2] = 0.0
    shape = [1] * grid.dim
    shape[axis] = m
    return k.reshape(shape)


def _ref_deriv(grid, arr, axis):
    ik = 1j * _wavenumber(grid, axis)
    return np.real(np.fft.ifftn(ik * np.fft.fftn(arr)))


def _ref_lap(grid, arr):
    mult = -sum(_wavenumber(grid, a) ** 2 for a in range(grid.dim))
    return np.real(np.fft.ifftn(mult * np.fft.fftn(arr)))


def _ref_dealias(grid, arr):
    mask = np.ones(grid.shape, dtype=bool)
    for a, m in enumerate(grid.n):
        idx = np.rint(np.fft.fftfreq(m) * m).astype(int)
        shape = [1] * grid.dim
        shape[a] = m
        mask = mask & (np.abs(idx) <= m // 3).reshape(shape)
    return np.real(np.fft.ifftn(mask * np.fft.fftn(arr)))


# --- agreement with the reference ----------------------------------------

@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
class TestAgainstComplexReference:
    def test_deriv_and_grad(self, grid):
        f = _noise(grid)
        g = grad_arr(grid, f)
        for a in range(grid.dim):
            ref = _ref_deriv(grid, f, a)
            _close(deriv_arr(grid, f, a), ref)
            _close(g[a], ref)

    def test_lap_scalar_and_stack(self, grid):
        vec = _noise(grid, (grid.dim,), seed=1)
        lv = lap_arr(grid, vec)
        for i in range(grid.dim):
            ref = _ref_lap(grid, vec[i])
            _close(lap_arr(grid, vec[i]), ref)
            _close(lv[i], ref)

    def test_div_jac_tdiv(self, grid):
        d = grid.dim
        vec = _noise(grid, (d,), seed=2)
        tens = _noise(grid, (d, d), seed=3)
        _close(div_arr(grid, vec),
               sum(_ref_deriv(grid, vec[j], j) for j in range(d)))
        J = jac_arr(grid, vec)
        T = tdiv_arr(grid, tens)
        for i in range(d):
            for j in range(d):
                _close(J[i, j], _ref_deriv(grid, vec[i], j))
            _close(T[i], sum(_ref_deriv(grid, tens[i, j], j)
                             for j in range(d)))

    def test_hessian(self, grid):
        f = _noise(grid, seed=4)
        H = hess_arr(grid, f)
        for i in range(grid.dim):
            for j in range(grid.dim):
                ref = _ref_deriv(grid, _ref_deriv(grid, f, i), j)
                _close(H[i, j], ref)

    def test_dealias(self, grid):
        vec = _noise(grid, (grid.dim,), seed=5)
        out = dealias_arr(grid, vec)
        for i in range(grid.dim):
            _close(out[i], _ref_dealias(grid, vec[i]))
        _close(dealias_arr(grid, vec[0]), _ref_dealias(grid, vec[0]))


# --- identities of the rfft-layout operators -----------------------------

@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
class TestIdentities:
    def test_div_grad_is_laplacian(self, grid):
        f = _noise(grid, seed=6)
        _close(div_arr(grid, grad_arr(grid, f)), lap_arr(grid, f))

    def test_hessian_trace_is_laplacian(self, grid):
        f = _noise(grid, seed=7)
        H = hess_arr(grid, f)
        _close(np.trace(H, axis1=0, axis2=1), lap_arr(grid, f))

    def test_grad_hess_is_grad_and_hess_bitwise(self, grid):
        f = _noise(grid, seed=13)
        g, H = grad_hess_arr(grid, f)
        np.testing.assert_array_equal(g, grad_arr(grid, f))
        np.testing.assert_array_equal(H, hess_arr(grid, f))

    def test_kmax_is_largest_retained_wavenumber(self, grid):
        kmax = max(float(np.max(np.abs(_wavenumber(grid, a))))
                   for a in range(grid.dim))
        assert grid.kmax == pytest.approx(kmax, rel=1e-14)

    def test_hessian_bitwise_symmetric(self, grid):
        H = hess_arr(grid, _noise(grid, seed=8))
        for i in range(grid.dim):
            for j in range(grid.dim):
                np.testing.assert_array_equal(H[i, j], H[j, i])

    def test_jacobian_rows_are_derivatives(self, grid):
        vec = _noise(grid, (grid.dim,), seed=9)
        J = jac_arr(grid, vec)
        for i in range(grid.dim):
            for j in range(grid.dim):
                _close(J[i, j], deriv_arr(grid, vec[i], j))

    def test_tensor_divergence_rowwise(self, grid):
        d = grid.dim
        tens = _noise(grid, (d, d), seed=10)
        T = tdiv_arr(grid, tens)
        for i in range(d):
            _close(T[i], div_arr(grid, tens[i]))

    @pytest.mark.parametrize("where", ["first", "last"])
    def test_nyquist_mode_has_zero_derivative(self, grid, where):
        axis = 0 if where == "first" else grid.dim - 1
        m, L = grid.n[axis], grid.length[axis]
        x = grid.meshgrid()[axis]
        f = np.cos(m / 2 * 2 * np.pi * x / L)
        for a in range(grid.dim):
            np.testing.assert_allclose(deriv_arr(grid, f, a), 0.0,
                                       atol=1e-12)
        np.testing.assert_allclose(lap_arr(grid, f), 0.0, atol=1e-12)
        np.testing.assert_allclose(hess_arr(grid, f), 0.0, atol=1e-12)

    def test_dealias_on_halved_axis(self, grid):
        axis = grid.dim - 1
        m, L = grid.n[axis], grid.length[axis]
        x = grid.meshgrid()[axis]
        keep = m // 3
        kept = np.cos(keep * 2 * np.pi * x / L) \
            + np.sin(keep * 2 * np.pi * x / L)
        cut = np.cos((keep + 1) * 2 * np.pi * x / L) \
            + np.sin((keep + 1) * 2 * np.pi * x / L)
        np.testing.assert_allclose(dealias_arr(grid, kept), kept, atol=1e-12)
        np.testing.assert_allclose(dealias_arr(grid, cut), 0.0, atol=1e-12)
        np.testing.assert_allclose(dealias_arr(grid, kept + cut), kept,
                                   atol=1e-12)

    def test_dealias_idempotent(self, grid):
        f = VectorField(grid, _noise(grid, (grid.dim,), seed=11))
        once = dealias(f)
        _close(dealias(once).values, once.values)
        s = ScalarField(grid, _noise(grid, seed=12))
        _close(dealias(dealias(s)).values, dealias(s).values)


# --- seeded field synthesis ----------------------------------------------

def _ref_smooth_positive(grid, seed, modes, floor):
    """The complex full-layout synthesis: white noise shaped by
    (1 + |k|^2)^-2 on the mode box, fftn/ifftn."""
    noise = np.random.default_rng(seed).standard_normal(grid.shape)
    k2 = np.zeros(grid.shape)
    box = np.ones(grid.shape, dtype=bool)
    for a, m in enumerate(grid.n):
        idx = np.rint(np.fft.fftfreq(m) * m).astype(int)
        shape = [1] * grid.dim
        shape[a] = m
        k2 = k2 + (idx.astype(float) ** 2).reshape(shape)
        box = box & (np.abs(idx) <= modes).reshape(shape)
    amp = np.where(box, (1.0 + k2) ** -2, 0.0)
    s = np.real(np.fft.ifftn(amp * np.fft.fftn(noise))) \
        * np.sqrt(np.prod(grid.n))
    return floor + s * s


@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
def test_random_smooth_positive_matches_complex_synthesis(grid):
    modes = min(grid.n) // 3
    for seed in (0, 5):
        got = random_smooth_positive(grid, seed, modes, 0.5).values
        np.testing.assert_allclose(
            got, _ref_smooth_positive(grid, seed, modes, 0.5), rtol=1e-14)
