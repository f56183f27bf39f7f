"""Parameters, admissibility constraints, Bohm forms, velocity transforms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnslab import cli, physics
from qnslab.fields import (Grid, ScalarField, grad_arr,
                           random_smooth_positive, random_smooth_vector)
from qnslab.physics import (AdmissibilityError, QnsParams, State, VacuumError,
                            bohm_force, check_constraints, mu_of,
                            paper_params, require_positive, to_u, to_w)


class TestMu:
    def test_closed_form_at_boundary(self):
        # nu=1, kappa=1/11: mu = 1 - sqrt(120)/11
        assert mu_of(1.0, 1.0 / 11.0) == pytest.approx(
            1.0 - math.sqrt(120.0) / 11.0, rel=1e-14)

    def test_zero_kappa_gives_zero(self):
        assert mu_of(2.5, 0.0) == 0.0

    def test_kappa_equal_nu(self):
        assert mu_of(1.5, 1.5) == pytest.approx(1.5)

    def test_rejects_kappa_above_nu(self):
        with pytest.raises(AdmissibilityError):
            mu_of(1.0, 1.5)

    @pytest.mark.parametrize("nu, kappa, mu", [
        (2.5, 0.0, 0.0), (1.5, 1.5, 1.5), (1e-300, 1e-300, 1e-300),
        (1e300, 1e300, 1e300)])
    def test_exact_at_zero_and_at_nu(self, nu, kappa, mu):
        assert mu_of(nu, kappa) == mu

    @pytest.mark.parametrize("kappa", [1e-4, 1e-8, 1e-9])
    def test_small_kappa_without_cancellation(self, kappa):
        # nu - sqrt(nu^2 - kappa^2) = kappa^2 / (2 nu) (1 + kappa^2 /
        # (4 nu^2)) + O(kappa^6); the difference form is 1.4e-8 off at
        # kappa = 1e-4 and 0 at 1e-9
        nu = 1.0
        series = kappa ** 2 / (2 * nu) * (1 + kappa ** 2 / (4 * nu ** 2))
        assert mu_of(nu, kappa) == pytest.approx(series, rel=1e-15, abs=0)

    @pytest.mark.parametrize("kappa", [0.0909, 1e200 / 11, 1e200])
    def test_large_nu_stays_finite(self, kappa):
        mu = mu_of(1e200, kappa)
        assert math.isfinite(mu) and 0.0 <= mu <= kappa

    @given(nu=st.floats(0.01, 100.0),
           frac=st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_bounded_and_monotone_in_kappa(self, nu, frac):
        kappa = frac * nu
        mu = mu_of(nu, kappa)
        assert 0.0 <= mu <= nu
        if kappa > 0:
            assert mu_of(nu, 0.5 * kappa) <= mu + 1e-15


# ordinary values of the QnsParams floats, and extreme finite ones
ORDINARY = dict(nu=1.0, kappa=1.0 / 11.0, gamma=2.0, a=1.0, r0=0.1, r1=0.05,
                eps=1e-3, p0=4.0, sigma0=0.05)
EXTREME = st.sampled_from([1e300, -1e300, 1e-300, -1e-300])


class TestQnsParams:
    def test_defaults(self):
        p = QnsParams()
        assert p.mu == 0.0
        assert p.mode == "desk"

    @pytest.mark.parametrize("mode", ["banana", "", "Desk", None, 1,
                                      ("desk",)])
    def test_unknown_mode_rejected(self, mode):
        with pytest.raises(ValueError, match="mode must be one of"):
            QnsParams(mode=mode)
        with pytest.raises(ValueError, match="mode must be one of"):
            paper_params(mode=mode)

    def test_modes_defined_once(self):
        assert cli.MODES is physics.MODES == ("desk", "paper")

    def test_mu_derived_not_stored(self):
        p = QnsParams(nu=1.0, kappa=1.0 / 11.0)
        q = p.with_(nu=2.0)
        assert q.mu == pytest.approx(mu_of(2.0, 1.0 / 11.0))

    @pytest.mark.parametrize("kw", [
        dict(nu=0.0), dict(nu=1.0, kappa=-0.1), dict(gamma=1.0),
        dict(r0=-1.0), dict(r1=-1.0), dict(eps=-1e-3), dict(p0=0.0),
        dict(sigma0=0.0), dict(eps=float("nan")), dict(nu=float("nan")),
        dict(gamma=float("inf")), dict(eps=True), dict(a=float("-inf")),
        dict(strict="false"), dict(strict=1),
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            QnsParams(**kw)

    @given(st.dictionaries(st.sampled_from(sorted(ORDINARY)), EXTREME))
    @settings(max_examples=400, deadline=None)
    def test_extreme_values_raise_or_form_finite_coefficients(self, extreme):
        kw = dict(ORDINARY, **extreme)
        try:
            p = QnsParams(**kw)
        except ValueError:
            return
        # each coefficient as the right-hand sides, the step, the energy
        # budget, the constraint report and the mollifier form it; a power
        # that overflows raises OverflowError and fails the test
        mu, se = p.mu, math.sqrt(p.eps)
        for c in (mu, p.kappa ** 2, p.eps ** 1.5, p.eps ** (24 * p.sigma0),
                  p.nu + se, p.nu - mu + se, 2 * p.nu + se + mu, se * mu,
                  p.eps * mu, p.kappa ** 2 + se * mu,
                  2 * p.kappa ** 2 + 2 * mu * se, 11 * p.kappa, 20 * mu,
                  400 * mu * mu, p.eps * p.p0, p.a * p.gamma):
            assert math.isfinite(c), kw

    @pytest.mark.parametrize("kw", [dict(eps=1e300), dict(nu=1e200,
                                                          kappa=1e200),
                                    dict(eps=10.0, sigma0=100.0)])
    def test_overflowing_coefficient_is_a_value_error(self, kw):
        with pytest.raises(ValueError, match="not finite"):
            QnsParams(**kw)

    def test_strict_rejects_inadmissible_ratio(self):
        with pytest.raises(AdmissibilityError):
            QnsParams(nu=1.0, kappa=0.5, strict=True)

    def test_paper_params_constants(self):
        p = paper_params(nu=1.0, kappa=1.0 / 11.0)
        assert p.p0 == 50.0
        assert p.sigma0 == 1e-10
        assert p.eps == 0.0
        assert p.mode == "paper"


class TestConstraintChain:
    def test_boundary_ratio_direct_evaluation(self):
        # at kappa = nu/11 the chain value 400 mu^2 / kappa^2 is strictly
        # below 1; oracle is the closed form 400*(1 - sqrt(120)/11)^2 * 121
        mu = mu_of(1.0, 1.0 / 11.0)
        ratio = 400.0 * mu * mu / (1.0 / 11.0) ** 2
        oracle = 400.0 * (1.0 - math.sqrt(120.0) / 11.0) ** 2 * 121.0
        assert ratio == pytest.approx(oracle, abs=1e-12)
        assert ratio < 1.0

    def test_chain_holds_in_admissible_region(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            nu = rng.uniform(0.01, 10.0)
            kappa = rng.uniform(1e-6, nu / 11.0)
            rep = check_constraints(QnsParams(nu=nu, kappa=kappa))
            assert rep.passed

    def test_degenerate_kappa_zero_is_informational(self):
        rep = check_constraints(QnsParams(nu=1.0, kappa=0.0))
        assert rep.passed
        assert rep.by_name("400*mu^2 < kappa^2").informational

    def test_violation_detected(self):
        rep = check_constraints(QnsParams(nu=1.0, kappa=0.5))
        assert not rep.by_name("11*kappa <= nu").passed
        assert not rep.passed


class TestState:
    def test_form_validation(self):
        g = Grid(16)
        rho = ScalarField.constant(g, 1.0)
        u = random_smooth_vector(g, 0, 4)
        with pytest.raises(ValueError):
            State(rho, u, form="v")

    def test_grid_mismatch(self):
        rho = ScalarField.constant(Grid(16), 1.0)
        u = random_smooth_vector(Grid(32), 0, 4)
        with pytest.raises(ValueError):
            State(rho, u)

    def test_field_kinds(self):
        # a scalar velocity of the right grid would pass the grid check and
        # fail only inside a right-hand side
        g = Grid(16)
        rho = ScalarField.constant(g, 1.0)
        u = random_smooth_vector(g, 0, 4)
        for bad in ((rho, rho), (u, u), (rho.values, u)):
            with pytest.raises(ValueError, match="ScalarField"):
                State(*bad)

    def test_require_positive(self):
        with pytest.raises(VacuumError):
            require_positive(np.array([1.0, 0.0, 2.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_require_positive_rejects_non_finite(self, bad):
        with pytest.raises(VacuumError) as info:
            require_positive(np.array([1.0, bad, 2.0]))
        assert info.value.bad_nodes == 1
        require_positive(np.array([1.0, 1e-300, 2.0]))


class TestBohmForce:
    @pytest.mark.parametrize("spec", [(128,), (64, 64)])
    def test_three_forms_agree(self, spec):
        g = Grid(spec)
        rho = random_smooth_positive(g, 12, 5, 4.0)
        fa = bohm_force(rho, "A").values
        fb = bohm_force(rho, "B").values
        fc = bohm_force(rho, "C").values
        scale = np.max(np.abs(fa))
        assert np.max(np.abs(fa - fb)) < 1e-8 * scale
        assert np.max(np.abs(fa - fc)) < 1e-8 * scale

    def test_constant_density_gives_zero(self):
        g = Grid(32)
        rho = ScalarField.constant(g, 3.0)
        for form in ("A", "B", "C"):
            np.testing.assert_allclose(bohm_force(rho, form).values, 0.0,
                                       atol=1e-12)

    def test_rejects_vacuum(self):
        g = Grid(16)
        with pytest.raises(VacuumError):
            bohm_force(ScalarField.constant(g, 0.0))

    def test_unknown_form(self):
        g = Grid(16)
        with pytest.raises(ValueError):
            bohm_force(ScalarField.constant(g, 1.0), form="D")

    def test_fd2_backend_converges_to_spectral(self):
        errs = []
        for n in (64, 128):
            g = Grid(n)
            x = g.coords()[0]
            rho = ScalarField(g, 2.0 + np.sin(x))
            fa = bohm_force(rho, "A").values
            fd = bohm_force(rho, "A", backend="fd2").values
            errs.append(np.max(np.abs(fa - fd)))
        assert errs[1] < 0.3 * errs[0]


class TestVelocityTransform:
    def test_roundtrip(self):
        g = Grid((32, 32))
        rho = random_smooth_positive(g, 3, 6, 1.0)
        u = random_smooth_vector(g, 3, 6)
        p = QnsParams(nu=1.0, kappa=1.0 / 11.0)
        st_u = State(rho, u)
        back = to_u(to_w(st_u, p), p)
        np.testing.assert_allclose(back.vel.values, u.values, atol=1e-12)
        assert back.form == "u"

    def test_shift_is_mu_grad_log_rho(self):
        g = Grid(64)
        rho = random_smooth_positive(g, 5, 6, 1.0)
        u = random_smooth_vector(g, 5, 6)
        p = QnsParams(nu=1.0, kappa=1.0 / 11.0)
        w = to_w(State(rho, u), p)
        shift = w.vel.values - u.values
        expected = p.mu * grad_arr(g, np.log(rho.values))
        np.testing.assert_allclose(shift, expected, atol=1e-13)

    def test_form_guards(self):
        g = Grid(16)
        rho = ScalarField.constant(g, 1.0)
        u = random_smooth_vector(g, 0, 4)
        p = QnsParams()
        with pytest.raises(ValueError):
            to_u(State(rho, u, form="u"), p)
        with pytest.raises(ValueError):
            to_w(State(rho, u, form="w"), p)
