"""Scenario library, mollification, and initial-data norm reporting."""

import math

import numpy as np
import pytest

from qnslab import initdata
from qnslab.fields import (Grid, ScalarField, VectorField, from_spectral,
                           grad_arr, mode_indices, quad, to_spectral,
                           random_smooth_positive, random_smooth_vector)
from qnslab.functionals import log_minus
from qnslab.initdata import (SCENARIOS, RawData, mollify, scenario,
                             validate_initial)
from qnslab.physics import QnsParams, State, VacuumError

TWO_PI = 2 * np.pi


class TestRawData:
    def test_rejects_negative_density(self):
        g = Grid(16)
        with pytest.raises(ValueError):
            RawData(ScalarField.constant(g, -1.0), VectorField.zero(g))

    def test_rejects_momentum_on_vacuum(self):
        g = Grid(16)
        rho = ScalarField(g, np.r_[np.zeros(8), np.ones(8)])
        m = VectorField(g, np.ones((1, 16)))
        with pytest.raises(ValueError):
            RawData(rho, m)

    def test_accepts_vacuum_with_zero_momentum(self):
        g = Grid(16)
        rho = ScalarField(g, np.r_[np.zeros(8), np.ones(8)])
        raw = RawData(rho, VectorField.zero(g))
        assert raw.grid == g


class TestScenarios:
    def test_known_names(self):
        for name in SCENARIOS:
            raw, params = scenario(name, n=32)
            assert np.min(raw.rho0.values) >= 0.0
            assert isinstance(params, QnsParams)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            scenario("no-such-scenario")

    def test_acoustic_profile(self):
        raw, _ = scenario("acoustic-1d", n=64)
        x = raw.grid.coords()[0]
        np.testing.assert_allclose(raw.rho0.values, 1.0 + 0.1 * np.sin(x))

    def test_vacuum_bump_has_vacuum(self):
        raw, _ = scenario("vacuum-bump-1d", n=64)
        assert np.min(raw.rho0.values) == 0.0
        np.testing.assert_array_equal(raw.m0.values, 0.0)

    def test_uniform_rest(self):
        raw, _ = scenario("uniform-rest", n=32)
        assert np.ptp(raw.rho0.values) == 0.0

    @pytest.mark.parametrize("name, params", [
        ("uniform-rest", QnsParams(nu=1.0, kappa=1.0 / 11.0)),
        ("acoustic-1d", QnsParams(nu=1.0, kappa=1.0 / 11.0)),
        ("acoustic-2d", QnsParams(nu=1.0, kappa=1.0 / 11.0)),
        ("vacuum-bump-1d", QnsParams(nu=1.0, kappa=1.0 / 11.0, eps=1e-3)),
    ])
    def test_recommended_params_and_rest_momentum(self, name, params):
        raw, got = scenario(name, n=32)
        assert got == params and got.mu == params.mu
        assert raw.m0.values.shape == (raw.grid.dim,) + raw.grid.shape
        assert not np.any(raw.m0.values)


def _bool_lowpass(grid, arr, cutoff):
    """The low-pass as the plain product of the broadcast bool mask of the
    mode box and the spectrum: the reference of the table product."""
    mask = True
    for idx in mode_indices(grid):
        mask = mask & (np.abs(idx) <= cutoff)
    return from_spectral(grid, mask * to_spectral(grid, arr))


def _raw_2d():
    """Vacuum-touching 2D raw data with a momentum that vanishes there."""
    g = Grid((32, 32))
    x, y = g.meshgrid()
    rho = np.maximum(0.0, np.sin(x) * np.cos(y)) ** 2
    m = np.stack([rho * np.cos(x), rho * np.sin(y)])
    return (RawData(ScalarField(g, rho), VectorField(g, m)),
            QnsParams(nu=1.0, kappa=1.0 / 11.0, eps=1e-2, sigma0=0.3))


LOWPASS_CASES = {"vacuum-bump-1d-128": lambda: scenario("vacuum-bump-1d",
                                                        n=128),
                 "2d-32x32": _raw_2d}


class TestLowpassBits:
    @pytest.mark.parametrize("case", sorted(LOWPASS_CASES))
    def test_lowpass_equals_bool_mask_product(self, case):
        raw, _ = LOWPASS_CASES[case]()
        grid = raw.grid
        for cutoff in (0, 2, 4, grid.dealias_limit(), max(grid.n)):
            for arr in (raw.rho0.values, raw.m0.values):
                got = initdata._lowpass(grid, arr, cutoff)
                ref = _bool_lowpass(grid, arr, cutoff)
                assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("case", sorted(LOWPASS_CASES))
    def test_mollify_equals_bool_mask_mollify(self, case, monkeypatch):
        raw, params = LOWPASS_CASES[case]()
        got = mollify(raw, params.eps, params)
        monkeypatch.setattr(initdata, "_lowpass", _bool_lowpass)
        ref = mollify(raw, params.eps, params)
        assert got.rho.values.tobytes() == ref.rho.values.tobytes()
        assert got.vel.values.tobytes() == ref.vel.values.tobytes()

    @staticmethod
    def _cutoffs(monkeypatch, raw, eps, params):
        """(the cutoffs mollify low-passes at, its state)."""
        seen = []

        def record(grid, arr, cutoff):
            seen.append(cutoff)
            return _bool_lowpass(grid, arr, cutoff)
        monkeypatch.setattr(initdata, "_lowpass", record)
        return seen, mollify(raw, eps, params)

    @pytest.mark.parametrize("eps, sigma0", [
        (1e-3, 0.05), (1e-2, 0.3), (1e-4, 0.5), (1 / 42, 1.0), (1e-3, 1.0),
        (0.5, 1e-10), (0.5, 2.0)])
    def test_cutoff_is_capped_ceil_of_power(self, eps, sigma0, monkeypatch):
        raw, _ = scenario("acoustic-1d", n=128)
        seen, _ = self._cutoffs(monkeypatch, raw, eps,
                                QnsParams(sigma0=sigma0))
        limit = raw.grid.dealias_limit()
        assert seen == [min(math.ceil(eps ** -sigma0), limit)] * 2

    def test_cutoff_beyond_float_range_is_the_dealias_limit(self,
                                                            monkeypatch):
        # eps^-sigma0 = 1e3000 is never formed; positive data keeps a
        # positive density although the floor eps^(24 sigma0) underflows
        raw, _ = scenario("acoustic-1d", n=128)
        seen, st = self._cutoffs(monkeypatch, raw, 1e-3,
                                 QnsParams(eps=1e-3, sigma0=1000.0))
        assert seen == [raw.grid.dealias_limit()] * 2
        assert np.min(st.rho.values) > 0

    def test_underflowing_floor_on_vacuum_is_a_vacuum_error(self):
        raw, _ = scenario("vacuum-bump-1d", n=32)
        with pytest.raises(VacuumError):
            mollify(raw, 1e-3, QnsParams(eps=1e-3, sigma0=1000.0))


class TestMollify:
    def test_strictly_positive_output(self):
        raw, params = scenario("vacuum-bump-1d", n=128)
        for eps in (1e-2, 1e-3, 1e-4):
            st = mollify(raw, eps, params)
            assert np.min(st.rho.values) >= eps ** (4 * params.sigma0) - 1e-15
            assert st.form == "u"

    def test_rejects_nonpositive_eps(self):
        raw, params = scenario("vacuum-bump-1d", n=32)
        with pytest.raises(ValueError):
            mollify(raw, 0.0, params)

    def test_overflowing_floor_is_the_params_value_error(self):
        # eps^(24 sigma0) = 1e480 with an eps other than params.eps: the
        # ValueError QnsParams gives for a coefficient it cannot form
        raw, _ = scenario("vacuum-bump-1d", n=32)
        with pytest.raises(ValueError) as params_error:
            QnsParams(eps=1e10, sigma0=2.0)
        with pytest.raises(ValueError) as mollify_error:
            mollify(raw, 1e10, QnsParams(sigma0=2.0))
        assert str(mollify_error.value) == str(params_error.value)

    def test_pure_vacuum_gives_exact_floor(self):
        g = Grid(32)
        raw = RawData(ScalarField.constant(g, 0.0), VectorField.zero(g))
        params = QnsParams(sigma0=0.05)
        st = mollify(raw, 1e-2, params)
        floor = (1e-2) ** (4 * 0.05)
        np.testing.assert_allclose(st.rho.values, floor, rtol=1e-14)
        np.testing.assert_array_equal(st.vel.values, 0.0)

    def test_paper_constants_floor_value(self):
        g = Grid(32)
        raw = RawData(ScalarField.constant(g, 0.0), VectorField.zero(g))
        params = QnsParams(sigma0=1e-10, mode="paper")
        st = mollify(raw, 1e-2, params)
        expected = math.exp(4e-10 * math.log(1e-2))
        assert abs(st.rho.values.flat[0] - expected) < 1e-15
        # numerically 1 - 1.842e-9
        assert st.rho.values.flat[0] == pytest.approx(1.0 - 1.8420680744e-9,
                                                      abs=1e-12)

    def test_l1_error_decreases_with_eps(self):
        raw, params = scenario("vacuum-bump-1d", n=128)
        errs = []
        for eps in (1e-2, 1e-3, 1e-4):
            st = mollify(raw, eps, params)
            errs.append(quad(raw.grid,
                             np.abs(st.rho.values - raw.rho0.values)))
        assert errs[0] > errs[1] > errs[2]

    def test_resolved_positive_data_nearly_unchanged(self):
        raw, _ = scenario("acoustic-1d", n=128)
        params = QnsParams(sigma0=0.5)  # floor term 1e-48 at eps=1e-4
        st = mollify(raw, 1e-4, params)
        err = quad(raw.grid, np.abs(st.rho.values - raw.rho0.values))
        assert err < 1e-6

    def test_deterministic(self):
        raw, params = scenario("vacuum-bump-1d", n=64)
        a = mollify(raw, 1e-3, params)
        b = mollify(raw, 1e-3, params)
        np.testing.assert_array_equal(a.rho.values, b.rho.values)

    def test_momentum_reconstruction(self):
        # strictly positive smooth data: u = m / rho recovered approximately
        g = Grid(128)
        x = g.coords()[0]
        rho = ScalarField(g, 2.0 + np.sin(x))
        m = VectorField(g, (rho.values * 0.3 * np.cos(x))[None])
        raw = RawData(rho, m)
        st = mollify(raw, 1e-4, QnsParams(sigma0=0.5))
        np.testing.assert_allclose(st.vel.values[0], 0.3 * np.cos(x),
                                   atol=1e-6)


class TestValidateInitial:
    def test_uniform_rest_closed_forms(self):
        raw, params = scenario("uniform-rest", n=64)
        st = State(raw.rho0, raw.m0)
        rep = validate_initial(st, params)
        assert rep["mass_l1"] == pytest.approx(TWO_PI, rel=1e-13)
        assert rep["kinetic"] == 0.0
        assert rep["grad_sqrtrho_l2"] == pytest.approx(0.0, abs=1e-13)
        assert rep.all_finite

    def test_rejects_vacuum_state(self):
        g = Grid(32)
        st = State(ScalarField.constant(g, 0.0), VectorField.zero(g))
        with pytest.raises(VacuumError):
            validate_initial(st, QnsParams())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_density(self, bad):
        g = Grid(32)
        rho = np.full(32, 1.0)
        rho[4] = bad
        st = State(ScalarField(g, rho), VectorField.zero(g))
        with pytest.raises(VacuumError):
            validate_initial(st, QnsParams())

    @pytest.mark.parametrize("spec", [(32,), (16, 24), (8, 12, 16)])
    def test_norms_equal_direct_formulas(self, spec):
        # the norms read a Derived bundle; each equals, bit for bit, the
        # formula computed from the plain operators
        g = Grid(spec)
        st = State(random_smooth_positive(g, 4, 2, 0.5),
                   random_smooth_vector(g, 4, 2))
        params = QnsParams(eps=1e-3, r0=0.2, gamma=1.4)
        r, u = st.rho.values, st.vel.values
        v = np.sqrt(r)
        gv = grad_arr(g, v)
        gv2 = np.sum(gv * gv, axis=0)
        u2 = np.sum(u * u, axis=0)
        eta = 0.5
        expected = {
            "mass_l1": quad(g, r),
            "rho_lgamma": quad(g, r ** params.gamma) ** (1 / params.gamma),
            "kinetic": quad(g, r * u2),
            "grad_sqrtrho_l2": math.sqrt(quad(g, gv2)),
            "eps_grad_sqrtrho_l4_4": params.eps * quad(g, gv2 ** 2),
            "eps_rho_negp_l1": params.eps * quad(g, r ** -params.p0),
            "r0_logminus_l1": params.r0 * quad(g, np.abs(log_minus(r))),
            "sqrtrho_l2eta": quad(g, v ** (2 + eta)) ** (1 / (2 + eta)),
            "sqrtrho_u_l2eta": quad(g, (v * np.sqrt(u2)) ** (2 + eta))
            ** (1 / (2 + eta)),
        }
        assert validate_initial(st, params).norms == expected

    def test_refinement_invariance(self):
        vals = []
        for n in (128, 256):
            raw, params = scenario("acoustic-1d", n=n)
            rep = validate_initial(State(raw.rho0, raw.m0),
                                   params.with_(eps=1e-3))
            vals.append(rep.norms)
        for key in vals[0]:
            assert abs(vals[0][key] - vals[1][key]) < 1e-10, key

    def test_mollified_vacuum_negative_power_finite(self):
        raw, params = scenario("vacuum-bump-1d", n=128)
        st = mollify(raw, params.eps, params)
        rep = validate_initial(st, params)
        assert np.isfinite(rep["eps_rho_negp_l1"])
        assert rep["eps_rho_negp_l1"] > 0.0
