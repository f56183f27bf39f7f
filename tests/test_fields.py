"""Grid, field containers, spectral/finite-difference calculus, quadrature."""

import numpy as np
import pytest

from qnslab import fields
from qnslab.fields import (Grid, ScalarField, TensorField, VectorField,
                           dealias, dealias_arr, deriv_arr, div, div_arr,
                           from_spectral, grad, grad_arr, hess_arr, hessian,
                           in_workspace, integrate, inverse_once, lap_arr,
                           laplacian, lend, lp_norm, quad,
                           random_smooth_positive, random_smooth_vector,
                           sym_grad, to_spectral)


class TestGrid:
    def test_defaults_to_two_pi_box(self):
        g = Grid(16)
        assert g.dim == 1
        assert g.length == (2 * np.pi,)
        assert g.shape == (16,)

    def test_multi_axis(self):
        g = Grid((16, 32), length=(1.0, 2.0))
        assert g.dim == 2
        assert g.spacing == (1.0 / 16, 2.0 / 32)
        assert g.volume == 2.0
        assert g.node_count == 512

    @pytest.mark.parametrize("n", [7, 15, 4, 0])
    def test_rejects_odd_or_small_counts(self, n):
        with pytest.raises(ValueError):
            Grid(n)

    @pytest.mark.parametrize("n", [64.5, (32.9, 16), True, "64"])
    def test_rejects_counts_that_are_not_integers(self, n):
        with pytest.raises(ValueError, match="node counts must be an integer"):
            Grid(n)
        # an integral value of another number type is a node count
        assert Grid(64.0) == Grid(np.int64(64)) == Grid(64)

    def test_rejects_dim_4(self):
        with pytest.raises(ValueError):
            Grid((8, 8, 8, 8))

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            Grid(16, length=-1.0)

    def test_equality_and_hash(self):
        assert Grid(16) == Grid(16)
        assert Grid(16) != Grid(32)
        assert hash(Grid(16)) == hash(Grid(16))

    def test_dealias_limit(self):
        assert Grid(96).dealias_limit() == 32
        assert Grid((96, 48)).dealias_limit() == 16


class TestFieldContainers:
    def test_scalar_is_immutable(self):
        f = ScalarField(Grid(16), np.ones(16))
        with pytest.raises(ValueError):
            f.values[0] = 2.0
        with pytest.raises(AttributeError):
            f.values = np.zeros(16)

    @pytest.mark.parametrize("cls, lead", [(ScalarField, ()),
                                           (VectorField, (2,)),
                                           (TensorField, (2, 2))])
    def test_each_container_copies_and_freezes(self, cls, lead):
        g = Grid((8, 8))
        src = np.ones(lead + (64,))
        f = cls(g, src)
        src[...] = 2.0
        assert f.values.shape == lead + (8, 8) and np.all(f.values == 1.0)
        assert not f.values.flags.writeable
        with pytest.raises(AttributeError, match=f"^{cls.__name__} is "
                           "immutable$"):
            f.grid = g
        assert not hasattr(f, "__dict__")
        others = {ScalarField, VectorField, TensorField} - {cls}
        assert not isinstance(f, tuple(others))

    def test_dealias_keeps_the_container_type(self):
        g = Grid(16)
        for f in (random_smooth_positive(g, 1, 3, 1.0),
                  random_smooth_vector(g, 1, 3)):
            assert type(dealias(f)) is type(f)
        with pytest.raises(TypeError):
            dealias(TensorField(g, np.ones((1, 1, 16))))

    def test_vector_shape_and_components(self):
        g = Grid((8, 8))
        F = VectorField(g, np.ones((2, 8, 8)))
        assert F.values.shape == (2, 8, 8)
        assert F.component(1).values.shape == (8, 8)

    def test_from_function(self):
        g = Grid(32)
        f = ScalarField.from_function(g, lambda x: np.sin(x))
        x = g.coords()[0]
        np.testing.assert_allclose(f.values, np.sin(x))

    def test_tensor_component(self):
        g = Grid(8)
        T = TensorField(g, np.arange(8.0).reshape(1, 1, 8))
        np.testing.assert_array_equal(T.component(0, 0).values,
                                      np.arange(8.0))


class TestSpectralCalculus:
    def test_derivative_exact_for_trig(self):
        g = Grid(32)
        x = g.coords()[0]
        d = deriv_arr(g, np.sin(3 * x), 0)
        np.testing.assert_allclose(d, 3 * np.cos(3 * x), atol=1e-12)

    def test_derivative_respects_domain_length(self):
        g = Grid(32, length=1.0)
        x = g.coords()[0]
        d = deriv_arr(g, np.sin(2 * np.pi * x), 0)
        np.testing.assert_allclose(d, 2 * np.pi * np.cos(2 * np.pi * x),
                                   atol=1e-9)

    def test_div_grad_equals_laplacian_to_roundoff(self):
        g = Grid((24, 24))
        rho = random_smooth_positive(g, 7, 6, 1.0)
        lap1 = div_arr(g, grad_arr(g, rho.values))
        lap2 = lap_arr(g, rho.values)
        np.testing.assert_allclose(lap1, lap2, atol=1e-10)

    def test_hessian_trace_equals_laplacian(self):
        g = Grid((24, 24))
        rho = random_smooth_positive(g, 5, 6, 1.0)
        H = hess_arr(g, rho.values)
        np.testing.assert_allclose(np.trace(H, axis1=0, axis2=1),
                                   lap_arr(g, rho.values), atol=1e-10)

    def test_hessian_is_symmetric(self):
        g = Grid((16, 16, 16))
        rho = random_smooth_positive(g, 3, 4, 1.0)
        H = hess_arr(g, rho.values)
        np.testing.assert_array_equal(H[0, 1], H[1, 0])
        np.testing.assert_array_equal(H[0, 2], H[2, 0])

    def test_jacobian_layout(self):
        g = Grid((16, 16))
        x, y = g.meshgrid()
        F = np.stack([np.sin(y), np.zeros_like(x)])
        J = grad_arr(g, F)
        np.testing.assert_allclose(J[0, 1], np.cos(y), atol=1e-12)
        np.testing.assert_allclose(J[0, 0], 0.0, atol=1e-12)

    def test_tensor_divergence_rowwise(self):
        g = Grid(32)
        x = g.coords()[0]
        T = np.sin(x).reshape(1, 1, -1)
        out = div_arr(g, T)
        np.testing.assert_allclose(out[0], np.cos(x), atol=1e-12)

    def test_fd2_backend_second_order(self):
        errs = []
        for n in (32, 64, 128):
            g = Grid(n)
            x = g.coords()[0]
            d = deriv_arr(g, np.sin(x), 0, backend="fd2")
            errs.append(np.max(np.abs(d - np.cos(x))))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)

    def test_fd2_laplacian_matches_spectral_on_smooth_field(self):
        g = Grid(256)
        x = g.coords()[0]
        lsp = lap_arr(g, np.sin(x))
        lfd = lap_arr(g, np.sin(x), backend="fd2")
        np.testing.assert_allclose(lfd, lsp, atol=1e-3)

    def test_unknown_backend_rejected(self):
        g = Grid(16)
        with pytest.raises(ValueError):
            deriv_arr(g, np.ones(16), 0, backend="fd4")


def _bitwise(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


class TestTransforms:
    """to_spectral and from_spectral call numpy's private pocketfft gufuncs
    directly; they must give the bits of the public numpy.fft functions."""

    @staticmethod
    def _public(grid):
        if grid.dim == 1:
            return np.fft.rfft, lambda a: np.fft.irfft(a, n=grid.n[0])
        axes = tuple(range(-grid.dim, 0))
        return (lambda a: np.fft.rfftn(a, axes=axes),
                lambda a: np.fft.irfftn(a, s=grid.shape, axes=axes))

    @pytest.mark.parametrize("n", [(32,), (16, 24), (8, 12, 16)])
    @pytest.mark.parametrize("lead", [(), (3,)])
    @pytest.mark.parametrize("given_out", [False, True])
    def test_bitwise_equal_to_numpy_fft(self, n, lead, given_out):
        grid = Grid(n)
        rng = np.random.default_rng(17)
        fwd, inv = self._public(grid)
        a = rng.standard_normal(lead + grid.shape)
        want = fwd(a)
        spec = want + 0.5 * rng.standard_normal(want.shape) \
            + 0.5j * rng.standard_normal(want.shape)
        nodal = inv(spec)
        kept = spec.copy()
        if given_out:
            out = np.empty_like(want)
            assert to_spectral(grid, a, out) is out
            back = np.empty_like(nodal)
            assert from_spectral(grid, spec, back) is back
        else:
            out, back = to_spectral(grid, a), from_spectral(grid, spec)
        _bitwise(out, want)
        _bitwise(back, nodal)
        _bitwise(spec, kept)    # the inverse only reads its input

    @pytest.mark.parametrize("n", [(32,), (16, 24), (8, 12, 16)])
    def test_inverse_once_bitwise_equal_to_numpy_fft(self, monkeypatch, n):
        # on a stack of the store, which in 2D and 3D takes the path that
        # writes the real rows over the spectrum's own memory, and which in
        # 1D goes back to the store at once; and on a plain array
        store = fields._Store()
        monkeypatch.setattr(fields, "_store", store)
        grid = Grid(n)
        rng = np.random.default_rng(18)
        _, inv = self._public(grid)
        spec = np.fft.rfftn(rng.standard_normal((3,) + grid.shape),
                            axes=tuple(range(-grid.dim, 0)))

        @in_workspace
        def lent():
            stack = lend(grid, (3,), spectral=True)
            stack[...] = spec
            out = inverse_once(grid, stack)
            assert np.shares_memory(out, stack) == (grid.dim > 1)
            assert len(store.lent) == (grid.dim > 1)
            return out.copy()
        _bitwise(lent(), inv(spec))
        _bitwise(inverse_once(grid, spec.copy()), inv(spec))


class TestFieldOps:
    def test_grad_div_laplacian_wrappers(self):
        g = Grid(32)
        f = ScalarField.from_function(g, np.sin)
        np.testing.assert_allclose(div(grad(f)).values,
                                   laplacian(f).values, atol=1e-10)

    def test_sym_grad_is_symmetric(self):
        g = Grid((16, 16))
        F = random_smooth_vector(g, 1, 4)
        D = sym_grad(F)
        np.testing.assert_array_equal(D.values[0, 1], D.values[1, 0])

    def test_hessian_wrapper(self):
        g = Grid(16)
        f = ScalarField.from_function(g, np.sin)
        assert hessian(f).values.shape == (1, 1, 16)


class TestQuadrature:
    def test_constant(self):
        g = Grid((16, 16), length=(2.0, 3.0))
        assert quad(g, np.full((16, 16), 5.0)) == pytest.approx(30.0)

    def test_trig_exact(self):
        g = Grid(32)
        x = g.coords()[0]
        assert quad(g, np.sin(x) ** 2) == pytest.approx(np.pi, abs=1e-12)

    def test_integrate_wrapper(self):
        g = Grid(16)
        assert integrate(ScalarField.constant(g, 1.0)) == pytest.approx(
            2 * np.pi)

    def test_lp_norms(self):
        g = Grid(32)
        f = ScalarField.constant(g, -2.0)
        assert lp_norm(f, 2) == pytest.approx(2.0 * np.sqrt(2 * np.pi))
        assert lp_norm(f, np.inf) == 2.0
        with pytest.raises(ValueError):
            lp_norm(f, 0.5)


class TestDealias:
    def test_removes_high_modes(self):
        g = Grid(32)
        x = g.coords()[0]
        f = ScalarField(g, np.cos(15 * x))
        np.testing.assert_allclose(dealias(f).values, 0.0, atol=1e-12)

    def test_keeps_low_modes(self):
        g = Grid(32)
        x = g.coords()[0]
        f = ScalarField(g, np.cos(5 * x))
        np.testing.assert_allclose(dealias(f).values, f.values, atol=1e-12)

    def test_idempotent(self):
        g = Grid((16, 16))
        f = ScalarField(g, np.random.default_rng(0).standard_normal((16, 16)))
        once = dealias_arr(g, f.values)
        np.testing.assert_allclose(dealias_arr(g, once), once, atol=1e-13)


class TestRandomFields:
    def test_deterministic_per_seed(self):
        g = Grid(64)
        a = random_smooth_positive(g, 11, 6, 0.5)
        b = random_smooth_positive(g, 11, 6, 0.5)
        np.testing.assert_array_equal(a.values, b.values)

    def test_distinct_seeds_differ(self):
        g = Grid(64)
        a = random_smooth_positive(g, 1, 6, 0.5)
        b = random_smooth_positive(g, 2, 6, 0.5)
        assert np.max(np.abs(a.values - b.values)) > 1e-3

    def test_respects_floor(self):
        g = Grid((32, 32))
        for seed in range(5):
            f = random_smooth_positive(g, seed, 6, 0.25)
            assert np.min(f.values) >= 0.25

    def test_modes_zero_gives_constant(self):
        g = Grid(16)
        f = random_smooth_positive(g, 0, 0, 1.0)
        assert np.ptp(f.values) == 0.0

    def test_rejects_unresolvable_modes(self):
        with pytest.raises(ValueError):
            random_smooth_positive(Grid(16), 0, 9, 1.0)

    @pytest.mark.parametrize("modes", [2.5, True, "2"])
    def test_rejects_modes_that_are_not_integers(self, modes):
        with pytest.raises(ValueError, match="modes must be an integer"):
            random_smooth_positive(Grid(16), 0, modes, 1.0)
        # an integral value of another number type is an integer
        np.testing.assert_array_equal(
            random_smooth_positive(Grid(16), 0, 2.0, 1.0).values,
            random_smooth_positive(Grid(16), 0, 2, 1.0).values)

    def test_rejects_bad_floor(self):
        with pytest.raises(ValueError):
            random_smooth_positive(Grid(16), 0, 2, 0.0)

    def test_is_band_limited(self):
        g = Grid(64)
        f = random_smooth_positive(g, 3, 6, 1.0)
        s = f.values - np.mean(f.values)
        spec = np.abs(np.fft.fft(s))
        # s = (series)^2 with series modes <= 6, so s has modes <= 12
        assert np.max(spec[13:-12]) < 1e-10 * np.max(spec)

    def test_vector_field_mean_free_components(self):
        g = Grid((32, 32))
        F = random_smooth_vector(g, 5, 6)
        for c in F.values:
            assert abs(np.mean(c)) < 1e-13
