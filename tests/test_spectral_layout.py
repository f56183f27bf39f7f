"""Real-FFT (rfft layout) spectral operators on anisotropic grids.

Square and cubic grids hide layout bugs on the halved last axis, so every
check here runs on grids whose axes differ in node count and extent. Inputs
are white noise, which has content in every mode including the Nyquist
modes, and results are compared against a full complex-FFT reference.
"""

import numpy as np
import pytest

from qnslab import functionals
from qnslab.fields import (Grid, ScalarField, VectorField, dealias,
                           dealias_arr, deriv_arr, derivatives_arr, div_arr,
                           grad_arr, hess_arr, lap_arr, quad,
                           random_smooth_ensemble, random_smooth_positive,
                           random_smooth_vector)
from qnslab.physics import Derived, bohm_arr

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
        J = grad_arr(grid, vec)
        T = div_arr(grid, tens)
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
        g, H, L = derivatives_arr(grid, f, ("grad", "hess", "lap"))
        np.testing.assert_array_equal(g, grad_arr(grid, f))
        np.testing.assert_array_equal(H, hess_arr(grid, f))
        np.testing.assert_array_equal(L, lap_arr(grid, f))

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
        J = grad_arr(grid, vec)
        for i in range(grid.dim):
            for j in range(grid.dim):
                _close(J[i, j], deriv_arr(grid, vec[i], j))

    def test_tensor_divergence_rowwise(self, grid):
        d = grid.dim
        tens = _noise(grid, (d, d), seed=10)
        T = div_arr(grid, tens)
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
def test_random_smooth_vector_matches_complex_synthesis(grid):
    # component i is the mean-free floor-1 field of seed (seed+1)*7919 + i
    modes = min(grid.n) // 3
    for seed in (0, 5):
        got = random_smooth_vector(grid, seed, modes, 2.5).values
        for i in range(grid.dim):
            ref = _ref_smooth_positive(grid, (seed + 1) * 7919 + i, modes,
                                       1.0)
            ref = 2.5 * (ref - ref.mean())
            np.testing.assert_allclose(got[i], ref, rtol=0,
                                       atol=1e-13 * np.max(np.abs(ref)))


@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
def test_random_smooth_positive_matches_complex_synthesis(grid):
    modes = min(grid.n) // 3
    for seed in (0, 5):
        got = random_smooth_positive(grid, seed, modes, 0.5).values
        np.testing.assert_allclose(
            got, _ref_smooth_positive(grid, seed, modes, 0.5), rtol=1e-14)


# --- leading batch axes ----------------------------------------------------
#
# A (S, ...) stack of fields must give, row by row, the bits of one call per
# row: the verification suites evaluate a seed chunk as one stack.

BATCH_GRIDS = [Grid(32), Grid((16, 24), length=(1.0, 3.0)),
               Grid((8, 12, 16), length=(2.0, 1.0, 0.5))]
BATCH_IDS = ["x".join(map(str, g.n)) for g in BATCH_GRIDS]
LEADS = [(3,), (2, 2)]


def _rows(lead):
    return list(np.ndindex(*lead))


def _positive(grid, lead, seed=0):
    """A stack of smooth strictly positive densities."""
    rows = [random_smooth_positive(grid, seed + k, 2, 0.5).values
            for k in range(int(np.prod(lead)))]
    return np.stack(rows).reshape(lead + grid.shape)


def _vectors(grid, lead, seed=0):
    rows = [random_smooth_vector(grid, seed + k, 2).values
            for k in range(int(np.prod(lead)))]
    return np.stack(rows).reshape(lead + (grid.dim,) + grid.shape)


@pytest.mark.parametrize("lead", LEADS, ids=["S", "SxT"])
@pytest.mark.parametrize("backend", ["spectral", "fd2"])
@pytest.mark.parametrize("grid", BATCH_GRIDS, ids=BATCH_IDS)
class TestBatchedOperators:
    def test_scalar_operators(self, grid, backend, lead):
        f = _noise(grid, lead, seed=20)
        ops = [lambda a: hess_arr(grid, a, backend),
               lambda a: grad_arr(grid, a, backend),
               lambda a: lap_arr(grid, a, backend)]
        ops += [lambda a, j=j: deriv_arr(grid, a, j, backend)
                for j in range(grid.dim)]
        for op in ops:
            out = op(f)
            for k in _rows(lead):
                np.testing.assert_array_equal(out[k], op(f[k]))

    def test_vector_and_tensor_operators(self, grid, backend, lead):
        d = grid.dim
        vec = _noise(grid, lead + (d,), seed=21)
        tens = _noise(grid, lead + (d, d), seed=22)
        J, D = grad_arr(grid, vec, backend), div_arr(grid, vec, backend)
        T = div_arr(grid, tens, backend)
        for k in _rows(lead):
            np.testing.assert_array_equal(J[k], grad_arr(grid, vec[k], backend))
            np.testing.assert_array_equal(D[k], div_arr(grid, vec[k], backend))
            np.testing.assert_array_equal(T[k],
                                          div_arr(grid, tens[k], backend))

    def test_jacobian_and_row_divergence(self, grid, backend, lead):
        # grad of a vector is its Jacobian, [..., i, j] = d_j v_i, and div
        # of a tensor is row-wise, [..., i] = sum_j d_j T_ij
        d = grid.dim
        nodes = (slice(None),) * d
        vec = _noise(grid, lead + (d,), seed=23)
        tens = _noise(grid, lead + (d, d), seed=24)
        J, T = grad_arr(grid, vec, backend), div_arr(grid, tens, backend)
        for i in range(d):
            for j in range(d):
                _close(J[(Ellipsis, i, j) + nodes],
                       deriv_arr(grid, vec[(Ellipsis, i) + nodes], j, backend))
            _close(T[(Ellipsis, i) + nodes],
                   sum(deriv_arr(grid, tens[(Ellipsis, i, j) + nodes], j,
                                 backend) for j in range(d)))

    def test_bohm_kernels(self, grid, backend, lead):
        r = _positive(grid, lead, seed=3)
        for form in "ABC":
            out = bohm_arr(Derived.of(grid, r), form, backend)
            assert out.shape == lead + (grid.dim,) + grid.shape
            for k in _rows(lead):
                np.testing.assert_array_equal(
                    out[k], bohm_arr(Derived.of(grid, r[k]), form, backend))


@pytest.mark.parametrize("grid", BATCH_GRIDS, ids=BATCH_IDS)
class TestBatchedKernels:
    def test_grad_hess_rows(self, grid):
        f = _noise(grid, (3,), seed=23)
        kinds = ("grad", "hess", "lap")
        parts = derivatives_arr(grid, f, kinds)
        for k in range(3):
            for part, row in zip(parts, derivatives_arr(grid, f[k], kinds)):
                np.testing.assert_array_equal(part[k], row)

    def test_quad_one_value_per_field(self, grid):
        f = _noise(grid, (2, 3), seed=24)
        q = quad(grid, f)
        assert q.shape == (2, 3)
        for k in _rows((2, 3)):
            assert q[k] == quad(grid, f[k])
        assert isinstance(quad(grid, f[0, 0]), float)

    def test_checker_kernels(self, grid):
        r, u = _positive(grid, (4,), seed=7), _vectors(grid, (4,), seed=7)

        def values(r, u):
            # every kernel's (lhs, rhs) pairs
            d = Derived.of(grid, r, u)
            out = list(functionals.jungel_batch(d))
            out.append(functionals.grad6_batch(d))
            out.append(functionals.div_vs_D_batch(d))
            out += functionals.flux_identity_batch(d, (0, 1, 2, 3.5)).values()
            out.append(functionals.grad_sqrtrho_u_batch(d))
            return out

        batched = values(r, u)
        for k in range(4):
            row = values(r[k], u[k])
            assert [(float(lhs[k]), float(rhs[k])) for lhs, rhs in batched] \
                == [(float(lhs), float(rhs)) for lhs, rhs in row]

    def test_checkers_wrap_the_kernels(self, grid):
        r, u = _positive(grid, (2,), seed=9), _vectors(grid, (2,), seed=9)
        rho, vel = ScalarField(grid, r[1]), VectorField(grid, u[1])
        v = ScalarField(grid, np.sqrt(r[1]))
        d = Derived.of(grid, r, u)

        def report(name, values, **tols):
            # the report of field 1 of a kernel's (lhs, rhs) pair
            lhs, rhs = values
            return functionals.FunctionalReport(name, float(lhs[1]),
                                                float(rhs[1]), **tols)
        quartic, hessian = functionals.jungel_batch(d)
        assert functionals.check_jungel(rho) == (
            report("jungel_quartic", quartic),
            report("jungel_hessian", hessian))
        assert functionals.check_grad6(v) == \
            report("grad6", functionals.grad6_batch(d))
        assert functionals.check_div_vs_D(rho, vel) == \
            report("div_vs_D", functionals.div_vs_D_batch(d))
        assert functionals.check_flux_identity(v, 2) == report(
            "flux_identity", functionals.flux_identity_batch(d, (0, 2))[2],
            rel_tol=0.0, abs_tol=functionals.ABS_TOL)
        assert functionals.check_grad_sqrtrho_u(rho, vel) == report(
            "grad_sqrtrho_u", functionals.grad_sqrtrho_u_batch(d),
            rel_tol=0.0, abs_tol=0.0)

    @pytest.mark.parametrize("modes", [0, 2])
    def test_ensemble_rows_are_the_single_seed_fields(self, grid, modes):
        seeds = [4, 0, 17, 4]
        rho, u = random_smooth_ensemble(grid, seeds, modes, floor=0.5,
                                        amplitude=2.0)
        assert rho.shape == (4,) + grid.shape
        assert u.shape == (4, grid.dim) + grid.shape
        for k, seed in enumerate(seeds):
            np.testing.assert_array_equal(
                rho[k], random_smooth_positive(grid, seed, modes, 0.5).values)
            np.testing.assert_array_equal(
                u[k], random_smooth_vector(grid, seed, modes, 2.0).values)
        # the parts are optional and do not change each other's bits
        alone, none = random_smooth_ensemble(grid, seeds[1:2], modes,
                                             floor=0.5)
        assert none is None
        np.testing.assert_array_equal(alone[0], rho[1])

    def test_ensemble_rejects_what_the_single_seed_fields_reject(self, grid):
        with pytest.raises(ValueError):
            random_smooth_ensemble(grid, [0], 2, floor=0.0)
        with pytest.raises(ValueError):
            random_smooth_ensemble(grid, [0], min(grid.n) // 3 + 1, floor=1.0)
        with pytest.raises(ValueError):
            random_smooth_ensemble(grid, [0], -1, amplitude=1.0)
