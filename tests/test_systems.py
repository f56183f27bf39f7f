"""Right-hand sides (three formulations) and the weak-form residual."""

import numpy as np
import pytest

import inspect

from qnslab.fields import (Grid, ScalarField, VectorField, dealias_arr,
                           from_spectral, grad_arr, quad,
                           random_smooth_positive, random_smooth_vector,
                           to_spectral)
from qnslab.physics import Derived, QnsParams, State, bohm_force, to_w
from qnslab.systems import (FORMULATIONS, WeakResidual, rhs_approx_u,
                            rhs_approx_w, rhs_target, rhs_terms,
                            trig_test_function)


def _state(grid, seed, modes=6, floor=1.0):
    rho = random_smooth_positive(grid, seed, modes, floor)
    u = random_smooth_vector(grid, seed, modes)
    return State(rho, u)


PARAMS = QnsParams(nu=1.0, kappa=1.0 / 11.0, r0=0.1, r1=0.05, eps=1e-3)

# The momentum-term labels of rhs_terms; the eps- ones only when eps > 0.
LABELS_U = {"convection", "viscous", "pressure", "bohm", "damping-r0",
            "damping-r1"}
EPS_LABELS_U = {"eps-viscous", "eps-mu-viscous", "eps-flux-advect",
                "eps-mu-flux-hesslog", "eps-source-drag", "eps-cubic-drag",
                "eps-mu-pgrad", "eps-mu-flux-grad", "eps-mu-flux-gradlog"}
LABELS_W = {"convection", "pressure", "viscous", "mu-laplace",
            "mu-gradrho-gradw", "damping-r0", "damping-r1"}
EPS_LABELS_W = {"eps-viscous", "eps-flux-advect", "eps-cubic-drag",
                "eps-source-drag"}


class TestTarget:
    def test_uniform_rest_is_steady(self):
        g = Grid(32)
        st = State(ScalarField.constant(g, 1.0), VectorField.zero(g))
        rhs = rhs_target(st, PARAMS.with_(eps=0.0))
        np.testing.assert_allclose(rhs.drho.values, 0.0, atol=1e-14)
        np.testing.assert_allclose(rhs.dvel.values, 0.0, atol=1e-14)

    def test_mass_is_conservative(self):
        g = Grid((48, 48))
        st = _state(g, 3)
        rhs = rhs_target(st, PARAMS.with_(eps=0.0), use_dealias=False)
        assert abs(quad(g, rhs.drho.values)) < 1e-11

    def test_momentum_breakdown_sums(self):
        g = Grid(64)
        st = _state(g, 5)
        p = PARAMS.with_(eps=0.0)
        rhs = rhs_target(st, p, use_dealias=False)
        _, terms = rhs_terms(st, p, "target")
        total = sum(terms.values())
        np.testing.assert_allclose(total / st.rho.values, rhs.dvel.values,
                                   atol=1e-12)
        assert set(terms) == LABELS_U

    def test_rejects_w_form(self):
        g = Grid(16)
        st = State(ScalarField.constant(g, 1.0),
                   VectorField.zero(g), form="w")
        with pytest.raises(ValueError):
            rhs_target(st, PARAMS)

    def test_pressure_only_dynamics_oracle(self):
        # rho = 1 + 0.1 sin x at rest, no viscosity surrogate check:
        # d(rho u)/dt = -a d/dx rho^2 at t=0, so dvel = -2 a drho/dx
        g = Grid(128)
        x = g.coords()[0]
        rho = ScalarField(g, 1.0 + 0.1 * np.sin(x))
        st = State(rho, VectorField.zero(g))
        p = QnsParams(nu=1.0, kappa=0.0, gamma=2.0, a=1.0)
        rhs = rhs_target(st, p, use_dealias=False)
        expected = -2.0 * 0.1 * np.cos(x)
        np.testing.assert_allclose(rhs.dvel.values[0], expected, atol=1e-12)
        np.testing.assert_allclose(rhs.drho.values, 0.0, atol=1e-14)


class TestApproxU:
    @pytest.mark.parametrize("spec", [(128,), (32, 32)])
    def test_eps_zero_reduces_to_target(self, spec):
        g = Grid(spec)
        for seed in range(5):
            st = _state(g, seed)
            p = PARAMS.with_(eps=0.0)
            ra = rhs_approx_u(st, p, use_dealias=False)
            rt = rhs_target(st, p, use_dealias=False)
            np.testing.assert_allclose(ra.drho.values, rt.drho.values,
                                       atol=1e-12)
            np.testing.assert_allclose(ra.dvel.values, rt.dvel.values,
                                       atol=1e-12)

    def test_mass_regularization_balance(self):
        # int drho = eps int(v Q + rho^-p0) = -eps int|grad v|^4
        #            + eps int rho^-p0 (integration by parts)
        g = Grid(128)
        st = _state(g, 7)
        rhs = rhs_approx_u(st, PARAMS, use_dealias=False)
        r = st.rho.values
        v = np.sqrt(r)
        gv2 = np.sum(grad_arr(g, v) ** 2, axis=0)
        expected = -PARAMS.eps * quad(g, gv2 ** 2) \
            + PARAMS.eps * quad(g, r ** -PARAMS.p0)
        assert quad(g, rhs.drho.values) == pytest.approx(expected, abs=1e-10)

    def test_breakdown_labels_and_sum(self):
        g = Grid(64)
        st = _state(g, 1)
        rhs = rhs_approx_u(st, PARAMS, use_dealias=False)
        _, terms = rhs_terms(st, PARAMS, "approx-u")
        assert set(terms) == LABELS_U | EPS_LABELS_U
        total = sum(terms.values())
        np.testing.assert_allclose(total / st.rho.values, rhs.dvel.values,
                                   atol=1e-11)


class TestApproxW:
    def test_breakdown_labels(self):
        g = Grid(64)
        st = to_w(_state(g, 2), PARAMS)
        _, terms = rhs_terms(st, PARAMS, "approx-w")
        assert set(terms) == LABELS_W | EPS_LABELS_W

    def test_rejects_u_form(self):
        g = Grid(16)
        st = State(ScalarField.constant(g, 1.0), VectorField.zero(g))
        with pytest.raises(ValueError):
            rhs_approx_w(st, PARAMS)

    @pytest.mark.parametrize("spec", [(128,), (48, 48)])
    def test_consistent_with_u_form(self, spec):
        # if (rho, u) evolves by the u-form system then w = u + mu grad log
        # rho evolves with dw = du + mu grad(drho / rho); both time
        # derivatives of rho must agree exactly
        g = Grid(spec)
        st_u = _state(g, 9, modes=4, floor=2.0)
        st_w = to_w(st_u, PARAMS)
        ru = rhs_approx_u(st_u, PARAMS, use_dealias=False)
        rw = rhs_approx_w(st_w, PARAMS, use_dealias=False)
        scale = np.max(np.abs(ru.drho.values))
        np.testing.assert_allclose(rw.drho.values, ru.drho.values,
                                   atol=1e-6 * scale)
        dw_expected = ru.dvel.values + PARAMS.mu * grad_arr(
            g, ru.drho.values / st_u.rho.values)
        vscale = max(np.max(np.abs(dw_expected)), 1.0)
        np.testing.assert_allclose(rw.dvel.values, dw_expected,
                                   atol=1e-6 * vscale)

    def test_no_eps_terms_when_eps_zero(self):
        g = Grid(64)
        p = PARAMS.with_(eps=0.0)
        st = to_w(_state(g, 3), p)
        _, terms = rhs_terms(st, p, "approx-w")
        assert "eps-viscous" not in terms
        assert set(terms) == LABELS_W


class TestDispatch:
    def test_formulations_enumerated(self):
        assert FORMULATIONS == ("target", "approx-u", "approx-w")


class TestWeakResidual:
    @staticmethod
    def _observe(weak, states, params):
        for s in states:
            weak(s, Derived(s, params))
        return weak

    def test_steady_state_near_zero(self):
        g = Grid(64)
        st = State(ScalarField.constant(g, 1.0), VectorField.zero(g))
        states = [State(st.rho, st.vel, time=t) for t in (0.0, 0.05, 0.1)]
        params = PARAMS.with_(eps=0.0)
        weak = WeakResidual(trig_test_function(g, 0.1), params)
        assert self._observe(weak, states, params).value() < 1e-10

    def test_cutoff_vanishes_at_final_time(self):
        g = Grid(32)
        test = trig_test_function(g, 0.5)
        assert test.chi(0.5) == pytest.approx(0.0, abs=1e-15)
        assert test.chi(0.0) == pytest.approx(1.0)

    def test_requires_two_samples(self):
        g = Grid(32)
        st = State(ScalarField.constant(g, 1.0), VectorField.zero(g))
        weak = WeakResidual(trig_test_function(g, 1.0), PARAMS)
        with pytest.raises(ValueError):
            self._observe(weak, [st], PARAMS).value()

    def test_rejects_w_form_state(self):
        g = Grid(32)
        st = to_w(_state(g, 2), PARAMS)
        weak = WeakResidual(trig_test_function(g, 1.0), PARAMS)
        with pytest.raises(ValueError, match="u-form"):
            self._observe(weak, [st], PARAMS)


# ---------------------------------------------------------------------------
# staged right-hand sides against the term-by-term reference
# ---------------------------------------------------------------------------

def _assembled(state, params, formulation, use_dealias):
    """(drho, dvel) summed from rhs_terms, dealiased if use_dealias."""
    drho, terms = rhs_terms(state, params, formulation)
    dvel = sum(terms.values()) / state.rho.values
    if use_dealias:
        drho, dvel = dealias_arr(state.grid, drho), dealias_arr(state.grid,
                                                                dvel)
    return drho, dvel


def _assert_rel(actual, expected, rtol=1e-13):
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(actual - expected)) <= rtol * scale


STAGED_GRIDS = [(32,), (16, 24), (8, 12, 16)]
STAGED_PARAMS = [dict(eps=eps, kappa=kappa, r0=r0, r1=r1)
                 for eps in (0.0, 1e-3) for kappa in (0.0, 1.0 / 11.0)
                 for r0, r1 in ((0.0, 0.0), (0.1, 0.05))]


def _staged_state(spec, seed=4):
    g = Grid(spec)
    return State(random_smooth_positive(g, seed, 2, 2.0),
                 random_smooth_vector(g, seed, 2))


class TestStaged:
    @pytest.mark.parametrize("use_dealias", [True, False])
    @pytest.mark.parametrize("kw", STAGED_PARAMS)
    @pytest.mark.parametrize("spec", STAGED_GRIDS)
    def test_u_form_matches_term_formulas(self, spec, kw, use_dealias):
        st = _staged_state(spec)
        p = QnsParams(nu=1.0, **kw)
        rhs = rhs_approx_u(st, p, use_dealias=use_dealias)
        drho, dvel = _assembled(st, p, "approx-u", use_dealias)
        _assert_rel(rhs.drho.values, drho)
        _assert_rel(rhs.dvel.values, dvel)
        # the target system ignores eps
        rt = rhs_target(st, p, use_dealias=use_dealias)
        drho, dvel = _assembled(st, p, "target", use_dealias)
        _assert_rel(rt.drho.values, drho)
        _assert_rel(rt.dvel.values, dvel)

    @pytest.mark.parametrize("use_dealias", [True, False])
    @pytest.mark.parametrize("kw", STAGED_PARAMS)
    @pytest.mark.parametrize("spec", STAGED_GRIDS)
    def test_w_form_matches_term_formulas(self, spec, kw, use_dealias):
        p = QnsParams(nu=1.0, **kw)
        st = to_w(_staged_state(spec), p)
        rhs = rhs_approx_w(st, p, use_dealias=use_dealias)
        drho, dvel = _assembled(st, p, "approx-w", use_dealias)
        _assert_rel(rhs.drho.values, drho)
        _assert_rel(rhs.dvel.values, dvel)

    @pytest.mark.parametrize("spec", STAGED_GRIDS)
    def test_breakdown_bohm_is_form_a(self, spec):
        st = _staged_state(spec)
        expected = PARAMS.kappa ** 2 * bohm_force(st.rho, "A").values
        # at rest, without pressure or damping, the staged momentum is the
        # Bohm term alone
        rest = State(st.rho, VectorField.zero(st.grid))
        p = QnsParams(nu=1.0, kappa=PARAMS.kappa, a=0.0)
        for rhs_fn in (rhs_target, rhs_approx_u):
            rhs = rhs_fn(rest, p, use_dealias=False)
            _assert_rel(st.rho.values * rhs.dvel.values, expected,
                        rtol=1e-14)
        for formulation in ("target", "approx-u"):
            _, terms = rhs_terms(st, PARAMS, formulation)
            _assert_rel(terms["bohm"], expected, rtol=1e-14)

    @pytest.mark.parametrize("spec", STAGED_GRIDS)
    def test_breakdown_sums_to_dvel_in_every_form(self, spec):
        st = _staged_state(spec)
        for rhs_fn, formulation, s, labels in (
                (rhs_target, "target", st, LABELS_U),
                (rhs_approx_u, "approx-u", st, LABELS_U | EPS_LABELS_U),
                (rhs_approx_w, "approx-w", to_w(st, PARAMS),
                 LABELS_W | EPS_LABELS_W)):
            _, terms = rhs_terms(s, PARAMS, formulation)
            plain = rhs_fn(s, PARAMS, use_dealias=False)
            assert set(terms) == labels
            _assert_rel(sum(terms.values()) / s.rho.values,
                        plain.dvel.values, rtol=1e-12)

    def test_staged_signature(self):
        for rhs_fn in (rhs_target, rhs_approx_u, rhs_approx_w):
            assert list(inspect.signature(rhs_fn).parameters) == [
                "state", "params", "use_dealias", "spectral"]


class TestRhsTerms:
    def test_rejects_mismatched_form(self):
        st = _staged_state((32,))
        with pytest.raises(ValueError):
            rhs_terms(st, PARAMS, "approx-w")
        with pytest.raises(ValueError):
            rhs_terms(to_w(st, PARAMS), PARAMS, "target")
        with pytest.raises(ValueError):
            rhs_terms(st, PARAMS, "banana")

    def test_target_ignores_eps(self):
        st = _staged_state((16, 24))
        drho, terms = rhs_terms(st, PARAMS, "target")
        drho0, terms0 = rhs_terms(st, PARAMS.with_(eps=0.0), "approx-u")
        np.testing.assert_array_equal(drho, drho0)
        assert terms.keys() == terms0.keys()
        for label in terms:
            np.testing.assert_array_equal(terms[label], terms0[label])

    def test_zero_coefficients_give_zero_terms(self):
        st = _staged_state((32,))
        p = QnsParams(nu=1.0, eps=1e-3)
        for s, formulation in ((st, "approx-u"), (to_w(st, p), "approx-w")):
            _, terms = rhs_terms(s, p, formulation)
            for label in ("damping-r0", "damping-r1") + (
                    ("bohm",) if formulation == "approx-u" else ()):
                assert not np.any(terms[label])


@pytest.mark.parametrize("spec", [(128,), (64, 64), (8, 12, 16)])
def test_batched_transform_equals_rows_bitwise(spec):
    g = Grid(spec)
    rng = np.random.default_rng(11)
    stack = rng.standard_normal((5,) + g.shape)
    hat = to_spectral(g, stack)
    back = from_spectral(g, hat)
    for k in range(len(stack)):
        row_hat = to_spectral(g, stack[k])
        np.testing.assert_array_equal(hat[k], row_hat)
        np.testing.assert_array_equal(back[k], from_spectral(g, row_hat))
