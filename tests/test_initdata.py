"""Scenario library, mollification, and initial-data norm reporting."""

import math

import numpy as np
import pytest

from qnslab.fields import (Grid, ScalarField, VectorField, grad_arr, quad,
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
