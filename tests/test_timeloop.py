"""Time integration: schemes, step control, monitors, budgets, equivalence."""

import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qnslab import timeloop
from qnslab.fields import (Grid, ScalarField, VectorField,
                           random_smooth_positive, random_smooth_vector)
from qnslab.functionals import DISSIPATION_KEYS, Derived
from qnslab.initdata import scenario
from qnslab.physics import QnsParams, State, VacuumError, to_u, to_w
from qnslab.systems import rhs_approx_u
from qnslab.timeloop import (EnergyBudget, IntegratorConfig, NonFiniteError,
                             PositivityError, cfl_dt, equivalence_run,
                             integrate, step)


def _acoustic(n=128, amp=0.1):
    g = Grid(n)
    x = g.coords()[0]
    return State(ScalarField(g, 1.0 + amp * np.sin(x)), VectorField.zero(g))


PARAMS = QnsParams(nu=1.0, kappa=1.0 / 11.0)


def _phi2_exact(z):
    """phi2 at the float z, summed in rationals to 40 Taylor terms (the
    remainder is below 1e-40 for |z| <= 1) and rounded once."""
    z, term, total = Fraction(z), Fraction(1, 2), Fraction(0)
    for k in range(40):
        total += term
        term *= z / (k + 3)
    return float(total)


def test_phi2_relative_error_at_roundoff():
    z = -np.concatenate([np.logspace(-12, 0, 241), np.linspace(0.01, 1, 100)])
    exact = np.array([_phi2_exact(v) for v in z])
    err = np.abs(timeloop._phi2(z) - exact) / exact
    assert np.max(err) <= 1e-14, (np.max(err), z[np.argmax(err)])


def test_phi_forms_equal_two_branch_transcription():
    # each entry has the bits of the form np.where picked from both forms
    # evaluated everywhere, on both sides of each switch, at 0 and at
    # |z| where the unpicked form overflows
    z = np.logspace(-20, 250, 2701)
    z = np.concatenate([[0.0, 1e-7, np.nextafter(1e-7, 1), 1.0,
                         np.nextafter(1.0, 0)], z])
    z = np.concatenate([-z, z])
    with np.errstate(all="ignore"):
        phi1 = np.where(np.abs(z) > 1e-7,
                        np.expm1(z) / np.where(z == 0, 1.0, z),
                        1.0 + z / 2 + z * z / 6)
        small = np.abs(z) < 1.0
        zs, taylor = np.where(small, z, 0.0), 0.0
        for c in timeloop._PHI2_TAYLOR:
            taylor = taylor * zs + c
        phi2 = np.where(small, taylor,
                        (np.expm1(z) - z) / np.where(small, 1.0, z) ** 2)
        got1, got2 = timeloop._phi1(z), timeloop._phi2(z)
    for got, ref in ((got1, phi1), (got2, phi2)):
        assert got.view(np.uint64).tolist() == ref.view(np.uint64).tolist()


def _poisoned_velocity(last_call, rhs_fn=rhs_approx_u):
    """rhs_fn whose call number last_call returns a NaN velocity node."""
    count = {"n": 0}

    def rhs(state, params, **kw):
        out = rhs_fn(state, params, **kw)
        count["n"] += 1
        if count["n"] == last_call:
            out[1, 3] = np.nan  # one velocity mode of the spectrum
        return out
    return rhs


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            IntegratorConfig(scheme="euler")
        with pytest.raises(ValueError):
            IntegratorConfig(dt_init=1.0, dt_max=0.5)
        with pytest.raises(ValueError):
            IntegratorConfig(t_end=0.0)
        with pytest.raises(ValueError):
            IntegratorConfig(monitor_every=0)
        for every in (1.5, True, "3"):
            with pytest.raises(ValueError, match="monitor_every"):
                IntegratorConfig(monitor_every=every)
        assert IntegratorConfig(monitor_every=np.int64(3)).monitor_every == 3
        for cfl in (0.0, 1.5):
            with pytest.raises(ValueError, match="cfl_target"):
                IntegratorConfig(cfl_target=cfl)
        with pytest.raises(ValueError, match="positivity_floor"):
            IntegratorConfig(positivity_floor=0.0)
        # JSON reads NaN, Infinity and true as numbers
        for key in ("t_end", "dt_max", "positivity_floor"):
            for bad in (float("nan"), float("inf"), True):
                with pytest.raises(ValueError, match=key):
                    IntegratorConfig(**{key: bad})

    def test_fixed_dt(self):
        c = IntegratorConfig.fixed_dt(1e-3, t_end=0.1)
        assert c.dt_min == c.dt_init == c.dt_max == 1e-3


class TestStep:
    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            step(_acoustic(32), PARAMS, rhs_approx_u, 0.0)

    def test_rk4_matches_imex_to_scheme_order(self):
        st = _acoustic(64)
        a = step(st, PARAMS, rhs_approx_u, 1e-4, scheme="rk4-explicit")
        b = step(st, PARAMS, rhs_approx_u, 1e-4, scheme="imex")
        assert np.max(np.abs(a.rho.values - b.rho.values)) < 1e-10
        assert np.max(np.abs(a.vel.values - b.vel.values)) < 1e-8

    def test_advances_time(self):
        st = _acoustic(32)
        out = step(st, PARAMS, rhs_approx_u, 1e-3)
        assert out.time == pytest.approx(1e-3)

    def test_positivity_hard_stop(self):
        # a huge step on strong data drives the density negative
        st = _acoustic(32, amp=0.9)
        with pytest.raises(PositivityError):
            step(st, PARAMS.with_(nu=1e-6, kappa=0.0), rhs_approx_u, 5.0,
                 scheme="rk4-explicit")

    @pytest.mark.parametrize("scheme", ["imex", "rk4-explicit"])
    def test_non_finite_density_is_a_failure(self, scheme):
        st = _acoustic(32)

        def nan_rhs(state, params, **kw):
            rhs = rhs_approx_u(state, params, **kw)
            rhs[0, 3] = np.nan  # one density mode of the spectrum
            return rhs
        with pytest.raises(PositivityError) as info:
            step(st, PARAMS, nan_rhs, 1e-4, scheme=scheme)
        assert info.value.bad_nodes >= 1

    @pytest.mark.parametrize("scheme", ["imex", "rk4-explicit"])
    def test_non_finite_velocity_is_a_failure(self, scheme):
        # only the last stage (RK4 k4, the IMEX corrector) is poisoned, so
        # the density stays finite and only the velocity is NaN
        calls = {"imex": 2, "rk4-explicit": 4}[scheme]
        with pytest.raises(NonFiniteError) as info:
            step(_acoustic(32), PARAMS, _poisoned_velocity(calls), 1e-4,
                 scheme=scheme)
        assert info.value.bad_nodes >= 1
        assert info.value.time == pytest.approx(1e-4)

    @pytest.mark.parametrize("scheme, calls", [("imex", 2),
                                                ("rk4-explicit", 4)])
    def test_right_hand_sides_are_read_as_spectra(self, scheme, calls):
        # both schemes ask only for the masked spectrum of each stage
        seen = []

        def rhs(state, params, *args, **kw):
            seen.append((args, kw))
            return rhs_approx_u(state, params, *args, **kw)
        step(_acoustic(32), PARAMS, rhs, 1e-4, scheme=scheme)
        assert seen == [((), {"spectral": True})] * calls

    def test_imex_second_order_in_time(self):
        st = _acoustic(64)
        ref = st
        for _ in range(64):
            ref = step(ref, PARAMS, rhs_approx_u, 0.02 / 64,
                       scheme="rk4-explicit")
        errs = []
        for m in (4, 8, 16):
            cur = st
            for _ in range(m):
                cur = step(cur, PARAMS, rhs_approx_u, 0.02 / m, scheme="imex")
            errs.append(np.max(np.abs(cur.rho.values - ref.rho.values)))
        order1 = np.log2(errs[0] / errs[1])
        order2 = np.log2(errs[1] / errs[2])
        assert order1 > 1.7 and order2 > 1.7


class TestIntegrate:
    def test_reaches_t_end_exactly(self):
        cfg = IntegratorConfig.fixed_dt(1e-3, t_end=0.01)
        traj = integrate(_acoustic(64), PARAMS, cfg)
        assert traj.status == "completed"
        assert traj.records[-1].time == pytest.approx(0.01, abs=1e-12)
        assert traj.final.time == traj.records[-1].time

    def test_start_beyond_t_end_raises(self):
        # a start past t_end took no step and reported "completed"
        cfg = IntegratorConfig.fixed_dt(1e-3, t_end=0.01)
        late = dataclasses.replace(_acoustic(64), time=0.5)
        with pytest.raises(ValueError, match="initial time 0.5 is beyond "
                                             "t_end 0.01"):
            integrate(late, PARAMS, cfg)
        # within the loop's tolerance of t_end the start is the end: one
        # record and no step
        for time in (0.01, 0.01 + timeloop.T_END_TOL / 2):
            traj = integrate(dataclasses.replace(late, time=time), PARAMS,
                             cfg)
            assert traj.status == "completed"
            assert [r.time for r in traj.records] == [time]

    def test_monitor_cadence(self):
        cfg = IntegratorConfig.fixed_dt(1e-3, t_end=0.01, monitor_every=5)
        traj = integrate(_acoustic(64), PARAMS, cfg)
        assert len(traj.records) == 3  # t=0, t=0.005, t=0.01

    def test_records_contain_dissipation_keys(self):
        cfg = IntegratorConfig.fixed_dt(1e-3, t_end=5e-3)
        traj = integrate(_acoustic(64), PARAMS, cfg)
        assert set(traj.records[-1].dissipation) == set(DISSIPATION_KEYS)
        assert all(rec.is_finite() for rec in traj.records)

    def test_dissipation_time_integrals_accumulate(self):
        cfg = IntegratorConfig.fixed_dt(1e-3, t_end=0.01)
        traj = integrate(_acoustic(64), PARAMS, cfg)
        acc = traj.dissipation_time_integrals
        assert acc["nu_rho_Du2"] > 0.0
        assert acc["r0_u2"] == 0.0  # r0 = 0 here

    def test_positivity_failure_reported_in_status(self):
        st = _acoustic(32, amp=0.95)
        p = PARAMS.with_(nu=1e-8, kappa=0.0)
        cfg = IntegratorConfig.fixed_dt(0.5, t_end=5.0,
                                        positivity_floor=0.2)
        traj = integrate(st, p, cfg)
        assert isinstance(traj.failure, PositivityError)
        assert traj.status == \
            "positivity-failure at t=0.5 (5 nodes, rho_min=0.061875)"
        assert traj.status == str(traj.failure)

    @pytest.mark.parametrize("scheme", ["imex", "rk4-explicit"])
    def test_non_finite_velocity_at_last_step_never_completes(self, scheme,
                                                              monkeypatch):
        # five fixed steps; the last right-hand side of the last step
        # returns one NaN velocity node
        calls = 5 * {"imex": 2, "rk4-explicit": 4}[scheme]
        monkeypatch.setattr(timeloop, "rhs_approx_u",
                            _poisoned_velocity(calls))
        cfg = IntegratorConfig.fixed_dt(1e-3, t_end=0.005, scheme=scheme,
                                        monitor_every=1)
        finite = []
        traj = integrate(_acoustic(32), PARAMS, cfg, observers=(
            lambda s, d: finite.append(np.isfinite(s.vel.values).all()),))
        assert isinstance(traj.failure, NonFiniteError)
        bad = {"imex": 32, "rk4-explicit": 30}[scheme]
        assert traj.status == f"non-finite at t=0.005 ({bad} velocity nodes)"
        assert traj.records[-1].time == pytest.approx(0.004)
        assert traj.final.time == traj.records[-1].time
        assert len(finite) == len(traj.records) and all(finite)

    def test_failed_run_keeps_its_dissipation_integrals(self):
        st = _acoustic(32, amp=0.95)
        p = PARAMS.with_(nu=1e-8, kappa=0.0)
        cfg = IntegratorConfig.fixed_dt(0.05, t_end=5.0, scheme="rk4-explicit",
                                        positivity_floor=0.05)
        traj = integrate(st, p, cfg)
        assert traj.status == \
            "positivity-failure at t=1.7 (2 nodes, rho_min=-0.0108649)"
        assert len(traj.records) == 34
        acc = traj.dissipation_time_integrals
        assert set(acc) == set(DISSIPATION_KEYS) and acc["nu_rho_Du2"] > 0
        assert acc == _trapezoid(traj.records)

    def test_run_failing_mid_chunk_keeps_every_record(self, monkeypatch):
        # ten records per chunk on 16x24; the 14th step fails, so the
        # first chunk is full and the second holds four records
        grid = Grid((16, 24))
        st = State(random_smooth_positive(grid, 3, 4, 2.0),
                   random_smooth_vector(grid, 3, 4))
        assert timeloop.chunk_size(grid) == 10
        monkeypatch.setattr(timeloop, "rhs_approx_u",
                            _poisoned_velocity(2 * 14))
        cfg = IntegratorConfig.fixed_dt(1e-4, t_end=2e-3)
        seen = []
        traj = integrate(st, PARAMS, cfg,
                         observers=(lambda s, d: seen.append(s),))
        assert isinstance(traj.failure, NonFiniteError)
        assert traj.failure.time == pytest.approx(0.0014)
        assert len(traj.records) == len(seen) == 14
        assert traj.final is seen[-1]
        for s, rec in zip(seen, traj.records):
            values, _ = timeloop._monitor_sample(s, PARAMS)
            assert rec.time == s.time and rec.energy == values["energy"]
            assert rec.dissipation == values["dissipation"]
        assert traj.dissipation_time_integrals == _trapezoid(traj.records)

    def test_nan_density_never_completes(self):
        # one NaN node used to run to status "completed" at time nan
        st = _acoustic(32)
        rho = st.rho.values.copy()
        rho[5] = np.nan
        bad = State(ScalarField(st.grid, rho), st.vel)
        cfg = IntegratorConfig.fixed_dt(1e-3, t_end=0.005)
        with pytest.raises(VacuumError):
            integrate(bad, PARAMS, cfg)

    @pytest.mark.parametrize("form", ["u", "w"])
    def test_observers_see_each_record_with_its_bundle(self, form):
        st = _acoustic(64)
        if form == "w":
            st = to_w(st, PARAMS)
        seen = []

        def observe(s, d):
            u = s if s.form == "u" else to_u(s, PARAMS)
            assert np.array_equal(d.rho, u.rho.values)
            assert np.array_equal(d.u, u.vel.values)
            seen.append(s)
        cfg = IntegratorConfig.fixed_dt(1e-3, t_end=5e-3, monitor_every=2)
        traj = integrate(st, PARAMS, cfg, observers=(observe, observe))
        assert [s.time for s in seen[::2]] == [r.time for r in traj.records]
        assert seen[-1] is traj.final and traj.final.form == form

    def test_memory_does_not_grow_with_steps(self):
        # integrate keeps no state per record: from 100 to 400 steps the
        # peak grows by the records only (about 0.3 MB at 2D n=32)
        raw, params = scenario("acoustic-2d", n=32)
        st = State(raw.rho0, raw.m0)

        def peak(steps):
            cfg = IntegratorConfig.fixed_dt(1e-4, t_end=steps * 1e-4)
            tracemalloc.start()
            try:
                traj = integrate(st, params, cfg)
                return tracemalloc.get_traced_memory()[1], traj
            finally:
                tracemalloc.stop()
        peak(10)      # warm the transform workspace and caches
        small, _ = peak(100)
        large, traj = peak(400)
        assert traj.status == "completed" and len(traj.records) == 401
        assert large - small < 1e6

    def test_fixed_dt_skips_the_cfl_estimate(self, monkeypatch):
        calls = []

        def counted(state, params, config):
            calls.append(state.time)
            return cfl_dt(state, params, config)
        monkeypatch.setattr(timeloop, "cfl_dt", counted)
        fixed = integrate(_acoustic(32), PARAMS,
                          IntegratorConfig.fixed_dt(1e-3, t_end=5e-3))
        assert fixed.status == "completed" and calls == []
        adaptive = integrate(_acoustic(32), PARAMS, IntegratorConfig(
            dt_init=1e-3, dt_min=1e-4, dt_max=1e-3, t_end=5e-3))
        assert adaptive.status == "completed"
        assert len(calls) == len(adaptive.records) - 1

    def test_fixed_dt_run_keeps_one_step_size(self, monkeypatch):
        # ten steps of 2e-4 accumulate a time whose remainder before the
        # last step is 1.9999999999999966e-4, within T_END_TOL of dt: the
        # last step is taken at dt, so the run builds one ETD entry
        dts = []

        def recorded(state, params, rhs_fn, dt, **kw):
            dts.append((state.time, dt))
            return step(state, params, rhs_fn, dt, **kw)
        monkeypatch.setattr(timeloop, "step", recorded)
        dt, t_end = 2e-4, 10 * 2e-4
        timeloop._etd_multipliers.cache_clear()
        traj = integrate(_acoustic(32), PARAMS,
                         IntegratorConfig.fixed_dt(dt, t_end=t_end))
        assert traj.status == "completed"
        assert timeloop._etd_multipliers.cache_info().misses == 1
        assert len(dts) == 10 and all(h == dt for _, h in dts)
        last_start = dts[-1][0]
        assert t_end - last_start != dt
        assert abs(traj.final.time - t_end) <= timeloop.T_END_TOL
        assert traj.records[-1].time == traj.final.time
        # a t_end that is not a multiple of dt keeps its short last step,
        # a second entry, and lands on t_end
        dts.clear()
        timeloop._etd_multipliers.cache_clear()
        traj = integrate(_acoustic(32), PARAMS,
                         IntegratorConfig.fixed_dt(dt, t_end=2.1e-3))
        assert traj.status == "completed"
        assert timeloop._etd_multipliers.cache_info().misses == 2
        assert len(dts) == 11 and all(h == dt for _, h in dts[:-1])
        assert dts[-1][1] == pytest.approx(1e-4)
        assert traj.final.time == 2.1e-3

    def test_cfl_estimate_positive_and_resolution_dependent(self):
        coarse = cfl_dt(_acoustic(32), PARAMS,
                        IntegratorConfig(scheme="imex"))
        fine = cfl_dt(_acoustic(128), PARAMS,
                      IntegratorConfig(scheme="imex"))
        assert 0 < fine < coarse

    @pytest.mark.parametrize("scheme", timeloop.SCHEMES)
    def test_cfl_estimate_in_closed_form_at_rest(self, scheme):
        # rho = 1, u = 0 on n = 32 (kmax = 15, the Nyquist mode zeroed):
        # rate = sqrt(a gamma) kmax + kappa kmax^2, and the explicit scheme
        # adds (2 nu + sqrt(eps) + mu) kmax^2
        raw, _ = scenario("uniform-rest", n=32)
        s = State(raw.rho0, raw.m0)
        p = QnsParams(nu=1.0, kappa=1.0 / 11.0, a=2.0, gamma=1.5, eps=0.01)
        config = IntegratorConfig(scheme=scheme, cfl_target=0.4)
        rate = 3.0 ** 0.5 * 15 + p.kappa * 225
        if scheme == "rk4-explicit":
            rate += (2.0 + 0.1 + p.mu) * 225
        assert cfl_dt(s, p, config) == pytest.approx(0.4 / rate, rel=1e-14)
        # no wave speed and no stiffness left: the step is dt_max
        still = QnsParams(nu=1.0, kappa=0.0, a=0.0)
        dt = cfl_dt(s, still, config)
        if scheme == "imex":
            assert dt == config.dt_max
        else:
            assert dt == pytest.approx(0.4 / ((2.0 + still.mu) * 225),
                                       rel=1e-14)

    def test_w_form_integration(self):
        st = to_w(_acoustic(64), PARAMS)
        cfg = IntegratorConfig.fixed_dt(1e-3, t_end=5e-3)
        traj = integrate(st, PARAMS, cfg)
        assert traj.status == "completed"
        assert traj.final.form == "w"


def _trapezoid(records):
    """The dissipation integrals over the records, summed as integrate
    sums them."""
    acc = dict.fromkeys(DISSIPATION_KEYS, 0.0)
    for last, rec in zip(records, records[1:]):
        h = rec.time - last.time
        for k in DISSIPATION_KEYS:
            acc[k] += 0.5 * (last.dissipation[k] + rec.dissipation[k]) * h
    return acc


def _budget(state, params, config):
    budget = EnergyBudget(params, config)
    integrate(state, params, config, observers=(budget,))
    return budget.report()


class TestEnergyBudget:
    def test_steady_state_zero_residual(self):
        g = Grid(64)
        st = State(ScalarField.constant(g, 1.0), VectorField.zero(g))
        cfg = IntegratorConfig.fixed_dt(1e-3, t_end=0.01)
        assert _budget(st, PARAMS, cfg).max_residual < 1e-10

    def test_requires_uniform_cadence(self):
        cfg = IntegratorConfig.fixed_dt(1e-3, t_end=9e-3, monitor_every=4)
        with pytest.raises(ValueError, match="cadence"):
            _budget(_acoustic(64), PARAMS, cfg)  # cadence 4 then remainder 1

    def test_short_last_step_of_a_cadence_1_run(self):
        # 33 steps of 3e-4, then one of 1e-4 to land on t_end
        cfg = IntegratorConfig.fixed_dt(3e-4, t_end=0.01)
        st = _acoustic(64, amp=0.3)
        budget = EnergyBudget(PARAMS, cfg)
        integrate(st, PARAMS, cfg, observers=(budget,))
        rep = budget.report()
        dts = np.diff(rep.times)
        assert len(dts) == 34
        assert dts[-1] == pytest.approx(1e-4)
        assert np.allclose(dts[:-1], 3e-4)
        assert rep.residuals[-1] <= np.max(rep.residuals[:-1])

    def test_uniformity_still_checked_before_the_last_step(self):
        cfg = IntegratorConfig.fixed_dt(1e-3, t_end=5e-3)
        st = _acoustic(64)
        budget = EnergyBudget(PARAMS, cfg)
        for t in (0.0, 1e-3, 3e-3, 4e-3, 4.5e-3):
            s = dataclasses.replace(st, time=t)
            budget(s, Derived(s, PARAMS))
        with pytest.raises(ValueError, match="cadence"):
            budget.report()

    def test_requires_u_form(self):
        cfg = IntegratorConfig.fixed_dt(1e-3, t_end=5e-3)
        with pytest.raises(ValueError, match="u-form"):
            _budget(to_w(_acoustic(64), PARAMS), PARAMS, cfg)

    def test_requires_two_records(self):
        with pytest.raises(ValueError, match="too short"):
            EnergyBudget(PARAMS,
                         IntegratorConfig.fixed_dt(1e-3, t_end=0.01)).report()

    def test_residual_second_order(self):
        st = _acoustic(64, amp=0.3)
        p = QnsParams(nu=1.0, kappa=1.0 / 11.0, eps=1e-3)
        res = []
        for dt in (4e-4, 2e-4, 1e-4):
            cfg = IntegratorConfig.fixed_dt(dt, t_end=0.01)
            res.append(_budget(st, p, cfg).max_residual)
        assert np.log2(res[0] / res[1]) == pytest.approx(2.0, abs=0.3)
        assert np.log2(res[1] / res[2]) == pytest.approx(2.0, abs=0.3)

    def test_dissipation_column_nonnegative(self):
        cfg = IntegratorConfig.fixed_dt(2e-4, t_end=4e-3)
        p = PARAMS.with_(r0=0.1, r1=0.1)
        budget = _budget(_acoustic(64), p, cfg)
        assert np.all(budget.dissipation >= 0.0)

    def test_order_fit_sees_the_eps_gradv4_channel(self, monkeypatch):
        # criterion 9's ladder on a datum of density amplitude 0.6. On the
        # criterion's own datum (amplitude 0.3) the channel
        # 1/2 eps int |grad sqrt(rho)|^4 |u|^2 is below the time error, so
        # a rate without it still fits order 1.87; here it fits about 0.05
        g = Grid(128)
        x = g.coords()[0]
        st = State(ScalarField(g, 1.0 + 0.6 * np.sin(x)),
                   VectorField(g, 0.3 * np.sin(x)[None]))
        p = QnsParams(nu=1.0, kappa=1.0 / 11.0, eps=1e-3)
        dts = (4e-4, 2e-4, 1e-4, 5e-5)

        def order():
            res = [_budget(st, p, IntegratorConfig.fixed_dt(dt, t_end=0.02))
                   .max_residual for dt in dts]
            return np.polyfit(np.log(dts), np.log(res), 1)[0]

        assert abs(order() - 2.0) <= 0.3
        kinetic = timeloop._kinetic_dissipation

        def without_channel(d, params):
            k = kinetic(d, params)
            k["eps_gradv4_u2"] = 0.0 * k["eps_gradv4_u2"]
            return k
        monkeypatch.setattr(timeloop, "_kinetic_dissipation", without_channel)
        assert abs(order() - 2.0) > 0.3


class TestEquivalence:
    def test_matched_runs_agree(self):
        st = _acoustic(128)
        p = QnsParams(nu=1.0, kappa=1.0 / 11.0, eps=1e-3)
        cfg = IntegratorConfig.fixed_dt(1e-4, t_end=0.01, monitor_every=10)
        rep = equivalence_run(st, p, cfg)
        assert rep.max_error < 1e-6

    def test_failed_w_run_raises_from_its_failure(self, monkeypatch):
        # the fourth w-form right-hand side returns a NaN velocity node,
        # so the second IMEX step of the w-run fails
        monkeypatch.setattr(timeloop, "rhs_approx_w",
                            _poisoned_velocity(4, timeloop.rhs_approx_w))
        p = QnsParams(nu=1.0, kappa=1.0 / 11.0, eps=1e-3)
        cfg = IntegratorConfig.fixed_dt(1e-4, t_end=1e-3)
        with pytest.raises(RuntimeError, match="w-form run failed: "
                           "non-finite at t=0.0002 ") as info:
            equivalence_run(_acoustic(64), p, cfg)
        assert isinstance(info.value.__cause__, NonFiniteError)
        assert info.value.__cause__.time == pytest.approx(2e-4)

    def test_requires_u_form(self):
        st = to_w(_acoustic(64), PARAMS)
        cfg = IntegratorConfig.fixed_dt(1e-3, t_end=5e-3)
        with pytest.raises(ValueError):
            equivalence_run(st, PARAMS, cfg)
