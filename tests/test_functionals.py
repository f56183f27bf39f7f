"""Energy/entropy functionals, dissipation integrals, inequality checkers."""

import math

import numpy as np
import pytest

from qnslab import verify
from qnslab.fields import (Grid, ScalarField, VectorField, div_arr, grad_arr,
                           in_workspace, per_node, quad,
                           random_smooth_ensemble,
                           random_smooth_positive, random_smooth_vector)
from qnslab.functionals import (DISSIPATION_KEYS, FunctionalReport,
                                MonitorRecord, bd_entropy, check_div_vs_D,
                                check_flux_identity, check_grad6,
                                check_grad_sqrtrho_u, check_jungel,
                                div_vs_D_batch, energy, energy_dissipation,
                                flux_identity_batch, grad6_batch,
                                jungel_batch, log_minus, mv_functional)
from qnslab.physics import Derived, QnsParams, State, bohm_arr, to_w

TWO_PI = 2 * np.pi


def _state(grid, seed, modes=6, floor=1.0):
    rho = random_smooth_positive(grid, seed, modes, floor)
    u = random_smooth_vector(grid, seed, modes)
    return State(rho, u)


class TestLogMinus:
    def test_negative_part_only(self):
        vals = np.array([0.5, 1.0, 2.0])
        np.testing.assert_allclose(log_minus(vals),
                                   [np.log(0.5), 0.0, 0.0])


class TestEnergy:
    def test_uniform_rest_closed_form(self):
        # rho=1, u=0: integrand = rho + a rho^gamma + eps = 2 + eps
        g = Grid(64)
        st = State(ScalarField.constant(g, 1.0), VectorField.zero(g))
        p = QnsParams(nu=1.0, kappa=1.0 / 11.0, eps=1e-3)
        assert energy(st, p) == pytest.approx((2.0 + 1e-3) * TWO_PI,
                                              rel=1e-13)

    def test_kinetic_term(self):
        g = Grid(64)
        st = State(ScalarField.constant(g, 2.0),
                   VectorField(g, np.full((1, 64), 3.0)))
        p = QnsParams(gamma=2.0)
        # rho|u|^2 + rho + rho^2 = 18 + 2 + 4
        assert energy(st, p) == pytest.approx(24.0 * TWO_PI, rel=1e-13)

    def test_gradient_terms_quadrature_oracle(self):
        # rho = (2 + sin x)^2 so v = 2 + sin x and grad v = cos x exactly;
        # oracle from the closed-form integrals of cos^2 and cos^4
        g = Grid(128)
        x = g.coords()[0]
        v = 2.0 + np.sin(x)
        st = State(ScalarField(g, v * v), VectorField.zero(g))
        p = QnsParams(nu=1.0, kappa=1.0 / 11.0, eps=1e-2, gamma=2.0, p0=4.0)
        base = quad(g, v * v + v ** 4 + 1e-2 * v ** (-8.0))
        cgrad = 2 * p.kappa ** 2 + 2 * p.mu * math.sqrt(1e-2)
        oracle = base + cgrad * np.pi + 1e-2 * p.mu * (3 * np.pi / 4)
        assert energy(st, p) == pytest.approx(oracle, rel=1e-12)

    def test_w_form_state_mapped_back(self):
        g = Grid(64)
        st = _state(g, 4)
        p = QnsParams(nu=1.0, kappa=1.0 / 11.0, eps=1e-3)
        assert energy(to_w(st, p), p) == pytest.approx(energy(st, p),
                                                       rel=1e-12)


class TestBdEntropy:
    def test_uniform_rest_is_zero(self):
        g = Grid(32)
        st = State(ScalarField.constant(g, 1.0), VectorField.zero(g))
        assert bd_entropy(st, QnsParams(r0=1.0)) == pytest.approx(0.0,
                                                                  abs=1e-14)

    def test_log_minus_term_counts_low_density(self):
        g = Grid(32)
        st = State(ScalarField.constant(g, 0.5), VectorField.zero(g))
        p = QnsParams(r0=2.0)
        assert bd_entropy(st, p) == pytest.approx(
            -2.0 * np.log(0.5) * TWO_PI, rel=1e-13)

    def test_gradient_oracle(self):
        g = Grid(128)
        x = g.coords()[0]
        v = 2.0 + np.sin(x)
        st = State(ScalarField(g, v * v), VectorField.zero(g))
        p = QnsParams(eps=1e-2)
        # int cos^2 = pi, int cos^4 = 3 pi / 4
        assert bd_entropy(st, p) == pytest.approx(
            np.pi + 1e-2 * 3 * np.pi / 4, rel=1e-12)


class TestMvFunctional:
    def test_rest_state_closed_form(self):
        g = Grid(32)
        st = State(ScalarField.constant(g, 1.0), VectorField.zero(g))
        # rho e ln(e) = e
        assert mv_functional(st) == pytest.approx(np.e * TWO_PI, rel=1e-13)

    def test_increases_with_speed(self):
        g = Grid(32)
        rho = ScalarField.constant(g, 1.0)
        slow = State(rho, VectorField(g, np.full((1, 32), 0.1)))
        fast = State(rho, VectorField(g, np.full((1, 32), 2.0)))
        assert mv_functional(fast) > mv_functional(slow)


class TestDissipation:
    def test_keys_complete(self):
        g = Grid(64)
        st = _state(g, 1)
        p = QnsParams(nu=1.0, kappa=1.0 / 11.0, r0=0.1, r1=0.1, eps=1e-3)
        d = energy_dissipation(st, p)
        assert set(d) == set(DISSIPATION_KEYS)
        for k, val in d.items():
            assert np.isfinite(val), k
            assert val >= 0.0, k

    def test_eps_zero_zeroes_regularization_entries(self):
        g = Grid(64)
        st = _state(g, 2)
        d = energy_dissipation(st, QnsParams(nu=1.0, kappa=1.0 / 11.0))
        for k in ("sqrt_eps_rho_gradu2", "eps_gradv4", "eps_gradv4_u2",
                  "eps_rho_negp_u2", "eps32_rho_w3_u2",
                  "kappa_quartic_group"):
            assert d[k] == 0.0

    def test_viscous_entry_oracle(self):
        g = Grid(64)
        x = g.coords()[0]
        st = State(ScalarField.constant(g, 2.0),
                   VectorField(g, np.sin(x)[None]))
        d = energy_dissipation(st, QnsParams(nu=3.0))
        # nu int rho (du/dx)^2 = 3 * 2 * pi
        assert d["nu_rho_Du2"] == pytest.approx(6.0 * np.pi, rel=1e-12)


class TestFunctionalReport:
    def test_margin_and_pass(self):
        r = FunctionalReport("x", 1.0, 2.0)
        assert r.margin == 1.0 and r.passed
        assert not FunctionalReport("x", 2.0, 1.0).passed

    def test_json(self):
        import json
        r = json.loads(FunctionalReport("x", 1.0, 2.0).to_json())
        assert r["name"] == "x" and r["passed"]

    def test_monitor_record_finite(self):
        rec = MonitorRecord(0.0, 1.0, 1.0, 0.0, 1.0, 0.5, 1.5, 0.0,
                            {"nu_rho_Du2": 0.0})
        assert rec.is_finite()
        bad = MonitorRecord(0.0, np.nan, 1.0, 0.0, 1.0, 0.5, 1.5, 0.0)
        assert not bad.is_finite()


class TestInequalities:
    @pytest.mark.parametrize("spec", [(128,), (48, 48), (24, 24, 24)])
    def test_jungel_all_dims(self, spec):
        g = Grid(spec)
        for seed in range(10):
            rho = random_smooth_positive(g, seed, 6, 0.5)
            quartic, hess = check_jungel(rho)
            assert quartic.passed and quartic.margin > 0
            assert hess.passed and hess.margin > 0

    def test_jungel_quartic_oracle_1d(self):
        # 1d: rho = e^{2 sin x}. grad rho^{1/4} = (1/2)cos x e^{sin x / 2};
        # hess log rho = -2 sin x, so rhs = 8 int e^{2 sin x} 4 sin^2 x.
        g = Grid(256)
        x = g.coords()[0]
        rho = ScalarField(g, np.exp(2 * np.sin(x)))
        quartic, hess = check_jungel(rho)
        lhs_oracle = quad(g, (0.5 * np.cos(x)) ** 4 * np.exp(2 * np.sin(x)))
        rhs_oracle = 8.0 * quad(g, np.exp(2 * np.sin(x)) * 4 * np.sin(x) ** 2)
        assert quartic.lhs == pytest.approx(lhs_oracle, rel=1e-10)
        assert quartic.rhs == pytest.approx(rhs_oracle, rel=1e-10)

    @pytest.mark.parametrize("spec", [(128,), (48, 48), (24, 24, 24)])
    def test_grad6_all_dims(self, spec):
        g = Grid(spec)
        for seed in range(10):
            rho = random_smooth_positive(g, seed, 6, 0.5)
            v = ScalarField(g, np.sqrt(rho.values))
            assert check_grad6(v).passed

    @pytest.mark.parametrize("spec", [(128,), (48, 48), (24, 24, 24)])
    def test_div_vs_D_all_dims(self, spec):
        g = Grid(spec)
        for seed in range(10):
            rho = random_smooth_positive(g, seed, 6, 0.5)
            u = random_smooth_vector(g, seed, 6)
            assert check_div_vs_D(rho, u).passed

    def test_div_vs_D_equality_in_1d(self):
        # in 1d, div u = D u, so lhs = rhs/3 exactly
        g = Grid(64)
        rho = random_smooth_positive(g, 0, 6, 1.0)
        u = random_smooth_vector(g, 0, 6)
        r = check_div_vs_D(rho, u)
        assert r.lhs == pytest.approx(r.rhs / 3.0, rel=1e-12)

    def test_near_constant_fields_pass(self):
        g = Grid(64)
        x = g.coords()[0]
        rho = ScalarField(g, 1.0 + 1e-8 * np.sin(x))
        u = VectorField(g, 1e-8 * np.cos(x)[None])
        v = ScalarField(g, np.sqrt(rho.values))
        assert check_jungel(rho)[0].passed
        assert check_grad6(v).passed
        assert check_div_vs_D(rho, u).passed


class TestFluxIdentity:
    @pytest.mark.parametrize("r", [0, 2])
    @pytest.mark.parametrize("spec", [(128,), (64, 64)])
    def test_holds_on_random_fields(self, r, spec):
        g = Grid(spec)
        for seed in range(10):
            rho = random_smooth_positive(g, seed, 6, 4.0)
            v = ScalarField(g, np.sqrt(rho.values))
            assert check_flux_identity(v, r).passed

    def test_r0_oracle_1d(self):
        # v = sin x (plus a lift to stay positive does not matter for the
        # identity): lhs = int v'' (|v'|^2 v')' = int (-sin x)(cos^3 x)'
        # = 3 int sin^2 x cos^2 x = 3 pi / 4; rhs with q = v'' v' is
        # 2 q^2 + v'^2 v''^2 = 3 sin^2 x cos^2 x, same integral.
        g = Grid(256)
        x = g.coords()[0]
        v = ScalarField(g, np.sin(x))
        rep = check_flux_identity(v, 0)
        from qnslab.fields import div_arr, grad_arr, lap_arr
        direct = quad(g, lap_arr(g, v.values)
                      * div_arr(g, grad_arr(g, v.values) ** 3))
        assert direct == pytest.approx(3 * np.pi / 4, rel=1e-12)
        assert rep.passed

    def test_rejects_negative_exponent(self):
        g = Grid(16)
        with pytest.raises(ValueError):
            check_flux_identity(ScalarField.constant(g, 1.0), -1)


class TestProductRule:
    @pytest.mark.parametrize("spec", [(128,), (64, 64)])
    def test_nodal_identity(self, spec):
        g = Grid(spec)
        for seed in range(10):
            rho = random_smooth_positive(g, seed, 6, 4.0)
            u = random_smooth_vector(g, seed, 6)
            assert check_grad_sqrtrho_u(rho, u).passed


# --- the checker kernels against their earlier arithmetic ----------------
#
# Reference transcriptions of the kernels as they were written with np.sum,
# np.trace, generic powers and temporaries, on 3-seed stacks. The kernels
# keep each reference's order of operations, so they agree bitwise, except
# grad6's lhs, whose v^-2 |grad v|^6 is formed from products.

KERNEL_GRIDS = [(64,), (48, 48), (8, 12, 16)]
FLUX_EXPONENTS = (0, 1, 2, 3.5)


def _old_jungel(d):
    grid = d.grid
    ca = -grid.dim - 1
    g14 = d.grad_rho14
    lhs1 = quad(grid, np.sum(g14 * g14, axis=ca) ** 2)
    Hs = d.hess_sqrt_rho
    lhs2 = quad(grid, np.sum(Hs * Hs, axis=(ca - 1, ca)))
    Hlog = d.hess_log_rho
    base = quad(grid, d.rho * np.sum(Hlog * Hlog, axis=(ca - 1, ca)))
    return (lhs1, 8.0 * base), (lhs2, 7.0 * base)


def _old_grad6(d):
    grid, v = d.grid, d.sqrt_rho
    ca = -grid.dim - 1
    gv2 = d.grad_sqrt_rho2
    lhs = quad(grid, v ** -2 * gv2 ** 3)
    lv = d.lap_sqrt_rho
    g_gv2 = grad_arr(grid, gv2)
    rhs = (2.0 * quad(grid, gv2 * lv * lv)
           + 8.0 * quad(grid, np.sum(g_gv2 * g_gv2, axis=ca)))
    return lhs, rhs


def _old_div_vs_D(d):
    grid, r = d.grid, d.rho
    ca = -grid.dim - 1
    J = d.jac_u
    divu = np.trace(J, axis1=ca - 1, axis2=ca)
    D = 0.5 * (J + np.swapaxes(J, ca - 1, ca))
    lhs = quad(grid, r * divu ** 2)
    rhs = 3.0 * quad(grid, r * np.sum(D * D, axis=(ca - 1, ca)))
    return lhs, rhs


def _old_flux(d, exponents, rel_tol=1e-8):
    grid = d.grid
    ca = -grid.dim - 1
    gv, Hv = d.grad_sqrt_rho, d.hess_sqrt_rho
    gv2 = d.grad_sqrt_rho2
    Hv2 = np.sum(Hv * Hv, axis=(ca - 1, ca))
    x = "xyz"[:grid.dim]
    q = np.einsum(f"...ij{x},...j{x}->...i{x}", Hv, gv)
    q2 = np.sum(q * q, axis=ca)
    qg = np.sum(q * gv, axis=ca)
    powers = sorted(set(exponents) | {2})
    fluxes = np.stack([per_node(grid, gv2 ** (r / 2)) * gv for r in powers],
                      axis=ca - 1)
    divs = dict(zip(powers, np.moveaxis(div_arr(grid, fluxes), ca, 0)))
    out = {}
    for r in exponents:
        lhs = quad(grid, divs[r] * divs[2])
        if r == 0:
            first = np.zeros_like(gv2)
        else:
            safe = np.where(gv2 > 0, gv2, 1.0)
            first = np.where(gv2 > 0, 2 * r * qg ** 2 * safe ** (r / 2 - 1),
                             0.0)
        rhs = quad(grid, first + (r + 2) * q2 * gv2 ** (r / 2)
                   + gv2 ** (r / 2 + 1) * Hv2)
        scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
        out[r] = (np.abs(lhs - rhs), rel_tol * scale)
    return out


def _old_rel_l2(grid, a, b):
    ca = -grid.dim - 1
    num = np.sqrt(quad(grid, np.sum((a - b) ** 2, axis=ca)))
    den = np.sqrt(quad(grid, np.sum(a * a, axis=ca)))
    return np.where(den > 0, num / np.where(den > 0, den, 1.0), num)


def _old_bohm_error(d, canary):
    grid = d.grid
    fa, fb, fc = (bohm_arr(d, form) for form in "ABC")
    if canary:
        fc = fc + 1e-3 * grad_arr(grid, d.rho)
    return np.maximum(np.maximum(_old_rel_l2(grid, fa, fb),
                                 _old_rel_l2(grid, fa, fc)),
                      _old_rel_l2(grid, fb, fc))


def _stack_bundle(spec):
    grid = Grid(spec)
    modes = min(6, min(grid.n) // 3)
    return Derived.of(grid, *random_smooth_ensemble(
        grid, (5, 11, 23), modes, floor=1.0, amplitude=1.0))


def _bits(values):
    return [np.asarray(x, dtype=float).tobytes() for x in values]


class TestKernelsKeepTheirArithmetic:
    @pytest.mark.parametrize("scoped", [False, True])
    @pytest.mark.parametrize("spec", KERNEL_GRIDS)
    def test_kernels_equal_reference(self, spec, scoped):
        ref = _stack_bundle(spec)
        expected = {
            "jungel": [v for pair in _old_jungel(ref) for v in pair],
            "div_vs_D": list(_old_div_vs_D(ref)),
            "flux": [v for r in FLUX_EXPONENTS
                     for v in _old_flux(ref, FLUX_EXPONENTS)[r]],
            "bohm": [_old_bohm_error(ref, False),
                     _old_bohm_error(ref, True)],
        }
        grad6 = _old_grad6(ref)

        def kernels():
            # a fresh bundle, evaluated inside a workspace scope if scoped
            d = _stack_bundle(spec)
            flux = flux_identity_batch(d, FLUX_EXPONENTS)
            return {
                "jungel": [v for pair in jungel_batch(d) for v in pair],
                "div_vs_D": list(div_vs_D_batch(d)),
                "flux": [v for r in FLUX_EXPONENTS for v in flux[r]],
                "bohm": [verify._bohm_error(d, False),
                         verify._bohm_error(d, True)],
                "grad6": [x.copy() for x in grad6_batch(d)],
            }
        got = in_workspace(kernels)() if scoped else kernels()
        for name, values in expected.items():
            assert _bits(got[name]) == _bits(values), name
        lhs, rhs = got["grad6"]
        np.testing.assert_allclose(lhs, grad6[0], rtol=1e-13, atol=0)
        assert _bits([rhs]) == _bits([grad6[1]])
        assert all(np.shape(x) == (3,) for xs in got.values() for x in xs)
