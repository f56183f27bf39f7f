"""The Derived bundle: one monitor record from one bundle, and the ETD
multiplier cache of the IMEX step.

A record of `integrate` must hold exactly what the public functionals give
when called one at a time, and match to roundoff the formulas written out
with the plain operators of `fields`. Reusing cached ETD multipliers must not
change a single bit of a step.
"""

import numpy as np
import pytest

from qnslab import timeloop
from qnslab.fields import (Grid, grad_arr, hess_arr, lap_arr, per_node, quad,
                           random_smooth_ensemble, random_smooth_positive,
                           random_smooth_vector)
from qnslab.functionals import (DISSIPATION_KEYS, Derived, bd_entropy,
                                derived, energy, energy_dissipation,
                                mv_functional)
from qnslab.physics import PIECES, QnsParams, State, chunk_size, to_u, to_w
from qnslab.systems import rhs_approx_u, rhs_approx_w
from qnslab.timeloop import IntegratorConfig, integrate, step

GRIDS = [Grid(32), Grid((16, 24)), Grid((8, 12, 16))]
IDS = ["x".join(map(str, g.n)) for g in GRIDS]
PARAMS = QnsParams(nu=1.0, kappa=1.0 / 11.0, eps=1e-3, r0=0.1, r1=0.2)
RTOL = 1e-13


def _state(grid, seed=3):
    modes = min(grid.n) // 3
    return State(random_smooth_positive(grid, seed, modes, 2.0),
                 random_smooth_vector(grid, seed, modes), form="u")


def _reference(state, p):
    """Energy, BD entropy, MV functional, dissipation integrals and the
    continuity source flux of a u-form state, each written out on its own
    with grad_arr and hess_arr."""
    grid = state.grid
    r, u = state.rho.values, state.vel.values
    eps, mu, p0 = p.eps, p.mu, p.p0
    v = np.sqrt(r)
    gv = grad_arr(grid, v)
    gv2 = np.sum(gv * gv, axis=0)
    u2 = np.sum(u * u, axis=0)
    cgrad = 2 * p.kappa ** 2 + 2 * mu * np.sqrt(eps)
    out = {
        "energy": quad(grid, r * u2 + r + p.a * r ** p.gamma
                       + eps * r ** (-p0) + cgrad * gv2 + eps * mu * gv2 ** 2),
        "bd_entropy": quad(grid, gv2 + eps * gv2 ** 2
                           - p.r0 * np.minimum(np.log(r), 0.0)),
        "mv": quad(grid, r * (np.e + u2) * np.log(np.e + u2)),
        "flux": eps * (quad(grid, gv2 ** 2) - quad(grid, r ** (-p0))),
    }
    J = grad_arr(grid, u)
    D = 0.5 * (J + np.swapaxes(J, 0, 1))
    Hv = hess_arr(grid, v)
    g_gv2 = grad_arr(grid, gv2)
    w = u + mu * grad_arr(grid, np.log(r))
    Hlog = hess_arr(grid, np.log(r))
    g_rg = grad_arr(grid, r ** (p.gamma / 2))
    diff = grad_arr(grid, v * u) - u[:, None] * gv[None, :]
    quartic = (gv2 * np.sum(Hv * Hv, axis=(0, 1))
               + np.sum(g_gv2 * g_gv2, axis=0)
               + (2 * p0 + 1) * gv2 * v ** (-2 * p0 - 2))
    out["dissipation"] = {
        "nu_rho_Du2": p.nu * quad(grid, r * np.sum(D * D, axis=(0, 1))),
        "r0_u2": p.r0 * quad(grid, u2),
        "r1_rho_u4": p.r1 * quad(grid, r * u2 ** 2),
        "sqrt_eps_rho_gradu2": np.sqrt(eps) * quad(
            grid, r * np.sum(J * J, axis=(0, 1))),
        "eps_gradv4": eps * quad(grid, gv2 ** 2),
        "eps_gradv4_u2": eps * quad(grid, gv2 ** 2 * u2),
        "eps_rho_negp_u2": eps * quad(grid, r ** (-p0) * u2),
        "eps32_rho_w3_u2": eps ** 1.5 * quad(
            grid, r * np.sum(w * w, axis=0) ** 1.5 * u2),
        "kappa_quartic_group": cgrad * eps * quad(grid, quartic),
        "kappa2_rho_hesslog2": p.kappa ** 2 * quad(
            grid, r * np.sum(Hlog * Hlog, axis=(0, 1))),
        "grad_rho_gamma_half2": quad(grid, np.sum(g_rg * g_rg, axis=0)),
        "grad_sqrtrho_u2": quad(grid, np.sum(diff * diff, axis=(0, 1))),
    }
    return out


def _run(state):
    """The trajectory and the State of each of its records."""
    cfg = IntegratorConfig.fixed_dt(1e-4, t_end=3e-4)
    states = []
    traj = integrate(state, PARAMS, cfg,
                     observers=(lambda s, d: states.append(s),))
    assert traj.status == "completed"
    return traj, states


@pytest.mark.parametrize("form", ["u", "w"])
@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
class TestMonitorRecord:
    def _traj(self, grid, form):
        st = _state(grid)
        return _run(st if form == "u" else to_w(st, PARAMS))

    def test_record_equals_public_functionals(self, grid, form):
        traj, states = self._traj(grid, form)
        for s, rec in zip(states, traj.records):
            assert rec.energy == energy(s, PARAMS)
            assert rec.bd_entropy == bd_entropy(s, PARAMS)
            assert rec.mv == mv_functional(s, PARAMS)
            assert rec.dissipation == energy_dissipation(s, PARAMS)
            assert rec.mass == quad(grid, s.rho.values)
            assert rec.rho_min == float(np.min(s.rho.values))

    def test_record_matches_plain_operator_formulas(self, grid, form):
        traj, states = self._traj(grid, form)
        refs = []
        for s, rec in zip(states, traj.records):
            ref = _reference(s if s.form == "u" else to_u(s, PARAMS), PARAMS)
            refs.append(ref)
            for key in ("energy", "bd_entropy", "mv"):
                np.testing.assert_allclose(getattr(rec, key), ref[key],
                                           rtol=RTOL)
            for key in DISSIPATION_KEYS:
                np.testing.assert_allclose(rec.dissipation[key],
                                           ref["dissipation"][key], rtol=RTOL)
        # the mass-balance residual reads the flux of both ends; it is a
        # difference of nearly equal terms, so roundoff counts relatively more
        for k in range(1, len(refs)):
            t0, t1 = traj.records[k - 1].time, traj.records[k].time
            m0, m1 = traj.records[k - 1].mass, traj.records[k].mass
            residual = abs((m1 - m0) / (t1 - t0)
                           + 0.5 * (refs[k]["flux"] + refs[k - 1]["flux"]))
            np.testing.assert_allclose(
                traj.records[k].mass_balance_residual, residual, rtol=1e-10)


def _chunked_run(state, check=None, extra=3):
    """A fixed-dt run of chunk_size + extra records, so its second chunk
    is partial, with the State of each record. check(s, d), if given, runs
    inside each observer call, while the record's bundle d is valid."""
    size = chunk_size(state.grid)
    cfg = IntegratorConfig.fixed_dt(1e-4, t_end=(size + extra - 1) * 1e-4)
    seen = []

    def observe(s, d):
        seen.append(s)
        if check is not None:
            check(s, d)
    traj = integrate(state, PARAMS, cfg, observers=(observe,))
    assert traj.status == "completed"
    assert len(traj.records) == len(seen) == size + extra
    return traj, seen


@pytest.mark.parametrize("form", ["u", "w"])
@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
class TestChunkedRecords:
    """integrate evaluates its records a chunk at a time; every record,
    residual, integral and observer bundle is the one of its own state."""

    def _traj(self, grid, form, check=None):
        st = _state(grid)
        return _chunked_run(st if form == "u" else to_w(st, PARAMS), check)

    def test_records_equal_single_records(self, grid, form):
        traj, seen = self._traj(grid, form)
        acc = dict.fromkeys(DISSIPATION_KEYS, 0.0)
        last = flux_last = None
        for s, rec in zip(seen, traj.records):
            values, flux = timeloop._monitor_sample(s, PARAMS)
            assert rec.time == s.time
            for key in ("energy", "bd_entropy", "mv", "mass", "rho_min",
                        "rho_max"):
                assert getattr(rec, key) == values[key], key
            assert rec.dissipation == values["dissipation"]
            residual = 0.0
            if last is not None:
                h = rec.time - last.time
                residual = abs((rec.mass - last.mass) / h
                               + 0.5 * (flux + flux_last))
                for k in DISSIPATION_KEYS:
                    acc[k] += 0.5 * (last.dissipation[k]
                                     + rec.dissipation[k]) * h
            assert rec.mass_balance_residual == residual
            last, flux_last = rec, flux
        assert traj.dissipation_time_integrals == acc
        assert traj.final is seen[-1]

    def test_observer_bundles_equal_own_bundles(self, grid, form):
        # a row bundle is valid only during its observer call: every
        # comparison runs inside it
        def check(s, d):
            ref = Derived(s, PARAMS)
            held = [name for name, x in vars(d).items()
                    if isinstance(x, np.ndarray)]
            # the record's pieces come loaded, as views of the chunk's
            assert {"rho", "u", "grad_sqrt_rho", "hess_log_rho",
                    "jac_u"} <= set(held)
            assert d.grad_sqrt_rho.base is not None
            for name in held:
                np.testing.assert_array_equal(getattr(d, name),
                                              getattr(ref, name))
            # a piece the record did not load is the row's own
            np.testing.assert_array_equal(d.lap_sqrt_rho, ref.lap_sqrt_rho)
        self._traj(grid, form, check)


@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
@pytest.mark.parametrize("pairs_first", [True, False])
def test_bundle_arrays_equal_plain_operators(grid, pairs_first):
    st = _state(grid)
    d = Derived(to_w(st, PARAMS), PARAMS)
    r, u = st.rho.values, d.u
    v, logr = np.sqrt(r), np.log(r)
    if pairs_first:
        # grouped: one transform pair per input shape and derivative kinds
        d.load("hess_sqrt_rho", "hess_log_rho", "jac_sqrt_rho_u",
               "grad_sqrt_rho", "grad_log_rho", "jac_u")
    np.testing.assert_array_equal(d.grad_sqrt_rho, grad_arr(grid, v))
    np.testing.assert_array_equal(d.hess_sqrt_rho, hess_arr(grid, v))
    np.testing.assert_array_equal(d.grad_log_rho, grad_arr(grid, logr))
    np.testing.assert_array_equal(d.hess_log_rho, hess_arr(grid, logr))
    np.testing.assert_array_equal(d.jac_u, grad_arr(grid, u))
    np.testing.assert_array_equal(d.jac_sqrt_rho_u, grad_arr(grid, v * u))


def _plain_pieces(grid, r, u):
    """Every bundle piece of (r, u), from the plain operators of fields."""
    v, logr = np.sqrt(r), np.log(r)
    return {
        "grad_sqrt_rho": grad_arr(grid, v),
        "hess_sqrt_rho": hess_arr(grid, v),
        "lap_sqrt_rho": lap_arr(grid, v),
        "grad_log_rho": grad_arr(grid, logr),
        "hess_log_rho": hess_arr(grid, logr),
        "grad_rho14": grad_arr(grid, r ** 0.25),
        "lap_rho": lap_arr(grid, r),
        "jac_u": grad_arr(grid, u),
        "jac_sqrt_rho_u": grad_arr(grid, per_node(grid, v) * u),
    }


@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
@pytest.mark.parametrize("lead", [(), (3,), (2, 2)],
                         ids=["single", "S", "2x2"])
@pytest.mark.parametrize("loaded", [True, False], ids=["load", "lazy"])
def test_stack_bundle_pieces_equal_plain_operators(grid, lead, loaded):
    count = int(np.prod(lead))
    r, u = random_smooth_ensemble(grid, range(5, 5 + count),
                                  min(grid.n) // 3, floor=2.0, amplitude=1.0)
    r = r.reshape(lead + grid.shape)
    u = u.reshape(lead + (grid.dim,) + grid.shape)
    d = Derived.of(grid, r, u)
    if loaded:
        d.load(*PIECES)
    whole = _plain_pieces(grid, r, u)
    assert set(whole) == set(PIECES)
    for name, ref in whole.items():
        got = getattr(d, name)
        assert got.shape == ref.shape and got.flags.c_contiguous
        np.testing.assert_array_equal(got, ref)
    for k in np.ndindex(*lead):
        for name, ref in _plain_pieces(grid, r[k], u[k]).items():
            np.testing.assert_array_equal(getattr(d, name)[k], ref)


def test_bundle_checks_its_inputs():
    st = _state(Grid(32))
    with pytest.raises(ValueError, match="params"):
        Derived(to_w(st, PARAMS), None)
    with pytest.raises(ValueError, match="other params"):
        derived(Derived(st, PARAMS), PARAMS.with_(eps=0.0))
    d = Derived(st, PARAMS)
    assert derived(d, PARAMS) is d and derived(d) is d


# --- ETD multiplier cache -------------------------------------------------

def _imex(state, dt):
    rhs = rhs_approx_u if state.form == "u" else rhs_approx_w
    return step(state, PARAMS, rhs, dt, scheme="imex")


@pytest.mark.parametrize("form", ["u", "w"])
def test_etd_cache_reuse_is_bitwise(form):
    st = _state(Grid((16, 24)))
    st = st if form == "u" else to_w(st, PARAMS)
    dt1, dt2 = 1e-4, 3e-5
    fresh = {}
    for dt in (dt1, dt2):
        timeloop._etd_multipliers.cache_clear()
        fresh[dt] = _imex(st, dt)
    timeloop._etd_multipliers.cache_clear()
    for dt in (dt1, dt2, dt1):
        out = _imex(st, dt)
        np.testing.assert_array_equal(out.rho.values, fresh[dt].rho.values)
        np.testing.assert_array_equal(out.vel.values, fresh[dt].vel.values)
    # one lookup per step: the third step reuses the first one's entry
    assert timeloop._etd_multipliers.cache_info().hits == 1
    # the entry's first member is exp(z), z = c * Lap * dt, of the linear
    # part the step applies, with c_rho in the density row and c_vel in
    # each velocity row
    c_rho, c_vel = timeloop._linear_coeffs(form, PARAMS, st.grid.dim)
    ez = timeloop._etd_multipliers(st.grid, c_rho, c_vel, dt1)[0]
    for row, c in zip(ez, (c_rho,) + (c_vel,) * st.grid.dim):
        _assert_complex_of(row, np.exp(c * st.grid._lap.real * dt1))


def _assert_complex_of(entry, ref):
    """entry is complex, its real part has the bits of the real ref, and
    its imaginary part is +0.0 everywhere."""
    assert entry.dtype == complex
    np.testing.assert_array_equal(entry.real.view(np.uint64),
                                  ref.view(np.uint64))
    assert not np.any(entry.imag.view(np.uint64))


def _etd_arrays(grid, c, dt):
    """The multipliers of one coefficient computed in real arithmetic on
    z = c * Lap * dt."""
    z = c * grid._lap.real * dt
    return np.exp(z), dt * timeloop._phi1(z), timeloop._phi2(z)


@pytest.mark.parametrize("grid", [Grid(128), Grid((16, 24)),
                                  Grid((8, 12, 16))],
                         ids=["128", "16x24", "8x12x16"])
def test_etd_zero_entry_equals_array_construction(grid):
    # at c = 0 the rows are written without array work; their bits are
    # those of the multipliers computed on c * Lap, in a row of either kind
    for dt in (1e-4, 3e-5, 2e-4 / 3, 1e-2, 1e-8):
        for c_rho, c_vel in ((0.0, 0.0), (0.0, 2.5), (0.75, 0.0)):
            timeloop._etd_multipliers.cache_clear()
            rows = (c_rho,) + (c_vel,) * grid.dim
            entry = timeloop._etd_multipliers(grid, c_rho, c_vel, dt)
            assert len(entry) == 3
            for k, m in enumerate(entry):
                assert m.shape == (1 + grid.dim,) + grid._lap.shape
                assert m.dtype == grid._lap.dtype
                for row, c in zip(m, rows):
                    _assert_complex_of(row, _etd_arrays(grid, c, dt)[k])
    timeloop._etd_multipliers.cache_clear()


def test_etd_cache_is_bounded_and_read_only():
    st = _state(Grid(32))
    timeloop._etd_multipliers.cache_clear()
    for k in range(10):
        _imex(st, 1e-5 * (k + 1))
    assert timeloop._etd_multipliers.cache_info().currsize <= 2
    for c in (0.0, 1.0):
        for m in timeloop._etd_multipliers(st.grid, c, 1.0, 1e-5):
            with pytest.raises(ValueError):
                m[...] = 0.0
    # at c = 0 each multiplier is one number everywhere in its row
    for m, value in zip(timeloop._etd_multipliers(st.grid, 0.0, 1.0, 1e-5),
                        (1.0, 1e-5, 0.5)):
        _assert_complex_of(m[0], np.full(m[0].shape, value))
