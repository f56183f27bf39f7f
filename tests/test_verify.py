"""Suite orchestration: configs, reports, canaries, dynamics checks, and
seed chunks split over forked worker processes."""

import contextlib
import io
import json
import math
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from qnslab import cli, fields, verify
from qnslab.fields import (Grid, div_arr, grad_arr, hess_arr, lap_arr, quad,
                           random_smooth_ensemble, random_smooth_positive,
                           random_smooth_vector)
from qnslab.functionals import ABS_TOL, FunctionalReport
from qnslab.physics import Derived, VacuumError
from qnslab.verify import (ALL_CHECKS, CHECK_PIECES, IDENTITY_CHECKS,
                           INEQUALITY_CHECKS, CheckResult, SuiteConfig,
                           _identity_chunk, chunk_size,
                           run_dynamics_suite, run_identity_suite,
                           run_inequality_suite, run_suite, run_suites)

from conftest import force_workers, forking, no_child_left

SMALL = dict(seeds=(0, 1, 2), grids=((64,),))


class TestSuiteConfig:
    def test_rejects_empty_seeds(self):
        with pytest.raises(ValueError):
            SuiteConfig(seeds=())

    def test_rejects_empty_checks(self):
        with pytest.raises(ValueError):
            SuiteConfig(checks=())

    def test_rejects_unknown_check(self):
        with pytest.raises(ValueError):
            SuiteConfig(checks=("bohm-forms", "nonsense"))

    def test_rejects_empty_grids(self):
        with pytest.raises(ValueError):
            SuiteConfig(grids=())

    @pytest.mark.parametrize("kw", [
        dict(grids=((7,),)), dict(grids=((32, 33),)), dict(grids=((),)),
        dict(grids=((32,),), modes=20), dict(grids=((32,),), modes=-1),
        dict(floor=-1.0), dict(floor=0.0), dict(floor=float("nan")),
        dict(seeds=("a",)), dict(seeds=(0, -1)), dict(seeds=(1.5,)),
    ])
    def test_rejects_inputs_the_ensemble_cannot_take(self, kw):
        with pytest.raises(ValueError):
            SuiteConfig(**kw)

    @pytest.mark.parametrize("rel_tol", ["abc", None, float("nan"),
                                         float("inf")])
    def test_rejects_rel_tol_that_is_not_a_finite_number(self, rel_tol):
        with pytest.raises(ValueError, match="rel_tol"):
            SuiteConfig(rel_tol=rel_tol)
        SuiteConfig(rel_tol=1)

    def test_modes_limit_is_the_ensemble_limit(self):
        # (32,) allows modes up to 32 // 3 = 10, and so does the ensemble
        SuiteConfig(grids=((32,),), modes=10)
        random_smooth_ensemble(Grid(32), (0,), 10, floor=1.0)
        with pytest.raises(ValueError, match="dealias-safe limit 10"):
            SuiteConfig(grids=((32,),), modes=11)
        with pytest.raises(ValueError, match="dealias-safe limit 10"):
            random_smooth_ensemble(Grid(32), (0,), 11, floor=1.0)

    def test_all_checks_enumerated(self):
        assert "bohm-forms" in ALL_CHECKS
        assert "jungel-quartic" in ALL_CHECKS
        assert "steady-battery" in ALL_CHECKS


class TestIdentitySuite:
    def test_small_ensemble_passes(self):
        rep = run_identity_suite(SuiteConfig(**SMALL))
        assert rep.overall_pass
        assert len(rep.results) == 3 * 4  # seeds x identity checks

    def test_canary_flips_to_fail(self):
        rep = run_identity_suite(SuiteConfig(
            **SMALL, canary=True, checks=("bohm-forms",)))
        assert not rep.overall_pass
        assert all(not r.passed for r in rep.results)

    def test_failures_carry_reproduction_metadata(self):
        rep = run_identity_suite(SuiteConfig(
            **SMALL, canary=True, checks=("bohm-forms",)))
        f = rep.failures()[0]
        assert f.seed in (0, 1, 2)
        assert f.grid == (64,)
        assert f.check == "bohm-forms"


class TestInequalitySuite:
    def test_small_ensemble_passes_with_positive_margin(self):
        rep = run_inequality_suite(SuiteConfig(
            **SMALL, checks=("jungel-quartic", "jungel-hessian",
                             "grad6", "div-vs-D")))
        assert rep.overall_pass
        for agg in rep.aggregates():
            assert agg.worst_margin > 0.0


class TestReports:
    def _rep(self):
        return run_identity_suite(SuiteConfig(**SMALL,
                                              checks=("flux-identity-2",)))

    def test_json_structure(self):
        doc = json.loads(self._rep().to_json())
        assert doc["suite"] == "identity"
        assert doc["overall_pass"] is True
        assert doc["checks"][0]["check"] == "flux-identity-2"
        assert doc["checks"][0]["count"] == 3

    def test_jsonl_one_record_per_result(self):
        rep = self._rep()
        lines = rep.to_jsonl().splitlines()
        assert len(lines) == len(rep.results)
        rec = json.loads(lines[0])
        assert set(rec) == {"check", "seed", "grid", "margin", "passed",
                            "detail"}

    def test_aggregates_deterministic_order(self):
        rep = run_identity_suite(SuiteConfig(**SMALL))
        names = [a.check for a in rep.aggregates()]
        assert names == sorted(names)

    def test_overall_pass_iff_zero_failures(self):
        rep = self._rep()
        assert rep.overall_pass == (sum(a.failures
                                        for a in rep.aggregates()) == 0)


class TestDynamicsSuite:
    def test_steady_battery(self):
        rep = run_dynamics_suite(SuiteConfig(seeds=(0,),
                                             checks=("steady-battery",)))
        assert rep.overall_pass, rep.results[0].detail

    def test_mass_balance(self):
        rep = run_dynamics_suite(SuiteConfig(seeds=(0,),
                                             checks=("mass-balance",)))
        assert rep.overall_pass, rep.results[0].detail

    def test_vacuum_band(self):
        rep = run_dynamics_suite(SuiteConfig(seeds=(0,),
                                             checks=("vacuum-band",)))
        assert rep.overall_pass, rep.results[0].detail


@pytest.mark.parametrize("run, checks", [
    (run_identity_suite, ("grad6",)),
    (run_inequality_suite, ("bohm-forms", "steady-battery")),
    (run_dynamics_suite, IDENTITY_CHECKS),
])
def test_suite_without_its_own_checks_is_rejected(run, checks):
    # such a suite used to run nothing and report a pass
    with pytest.raises(ValueError, match="would run none"):
        run(SuiteConfig(seeds=(0,), grids=((32,),), modes=2, checks=checks))


def test_check_no_selected_suite_owns_is_rejected():
    # identity runs bohm-forms; grad6 belongs to the inequality suite, which
    # is not selected, so it would be neither run nor reported
    config = SuiteConfig(seeds=(0,), grids=((32,),), modes=2,
                         checks=("bohm-forms", "grad6"))
    with pytest.raises(ValueError, match=r"\['grad6'\] belong to none"):
        run_suites({"identity": config})
    with pytest.raises(ValueError, match="belong to none"):
        run_identity_suite(config)
    # with the owning suite selected as well, every check runs
    reports = run_suites({"identity": config, "inequality": config})
    assert {r.check for r in reports["identity"].results} == {"bohm-forms"}
    assert {r.check for r in reports["inequality"].results} == {"grad6"}


def test_run_suite_dispatch():
    rep = run_suite("identity", SuiteConfig(**SMALL,
                                            checks=("flux-identity-0",)))
    assert rep.suite == "identity"
    with pytest.raises(ValueError):
        run_suite("nope", SuiteConfig(**SMALL))


# --- seed-chunked suites against a per-seed transcription -----------------

def _rel_l2(grid, a, b):
    num = math.sqrt(quad(grid, np.sum((a - b) ** 2, axis=0)))
    den = math.sqrt(quad(grid, np.sum(a * a, axis=0)))
    return num / den if den > 0 else num


def _identity_rows(grid, r, u, tol, canary):
    """The identity checks of one seed, each written out with the plain
    operators of fields."""
    v = np.sqrt(r)
    rows = {}
    fa = 2.0 * r * grad_arr(grid, lap_arr(grid, v) / v)
    fb = div_arr(grid, r * hess_arr(grid, np.log(r)))
    gv = grad_arr(grid, v)
    fc = (grad_arr(grid, lap_arr(grid, r))
          - 4.0 * div_arr(grid, gv[:, None] * gv[None, :]))
    if canary:
        # form C corrupted by +1e-3 grad(rho)
        fc = fc + 1e-3 * grad_arr(grid, r)
    err = max(_rel_l2(grid, fa, fb), _rel_l2(grid, fa, fc),
              _rel_l2(grid, fb, fc))
    rows["bohm-forms"] = (tol - err, err < tol,
                          f"max pairwise rel L2 = {err:.3e}")

    Hv = hess_arr(grid, v)
    gv2 = np.sum(gv * gv, axis=0)
    Hv2 = np.sum(Hv * Hv, axis=(0, 1))
    x = "xyz"[:grid.dim]
    q = np.einsum(f"...ij{x},...j{x}->...i{x}", Hv, gv)
    q2, qg = np.sum(q * q, axis=0), np.sum(q * gv, axis=0)
    div2 = div_arr(grid, gv2 * gv)
    for p in (0, 2):
        lhs = quad(grid, div_arr(grid, gv2 ** (p / 2) * gv) * div2)
        first = 0.0
        if p:
            first = 2 * p * qg ** 2 * gv2 ** (p / 2 - 1)
        rhs = quad(grid, first + (p + 2) * q2 * gv2 ** (p / 2)
                   + gv2 ** (p / 2 + 1) * Hv2)
        scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
        fr = FunctionalReport("flux_identity", abs(lhs - rhs), tol * scale,
                              rel_tol=0.0, abs_tol=ABS_TOL)
        rows[f"flux-identity-{p}"] = (
            fr.margin, fr.passed,
            f"|lhs-rhs| = {fr.lhs:.3e}, allowance = {fr.rhs:.3e}")

    lhs = grad_arr(grid, v * u)
    r14 = r ** 0.25
    rhs = v * grad_arr(grid, u) \
        + 2 * r14 * u[:, None] * grad_arr(grid, r14)[None, :]
    fr = FunctionalReport(
        "grad_sqrtrho_u", float(np.max(np.abs(lhs - rhs))),
        tol * max(float(np.max(np.abs(lhs))), 1.0), rel_tol=0.0, abs_tol=0.0)
    rows["grad-sqrtrho-u"] = (
        fr.margin, fr.passed,
        f"nodal max = {fr.lhs:.3e}, allowance = {fr.rhs:.3e}")
    return rows


def _inequality_rows(grid, r, u):
    """The inequality checks of one seed, each written out with the plain
    operators of fields, as (lhs, rhs) pairs."""
    v = np.sqrt(r)
    g14 = grad_arr(grid, r ** 0.25)
    Hs = hess_arr(grid, v)
    Hlog = hess_arr(grid, np.log(r))
    base = quad(grid, r * np.sum(Hlog * Hlog, axis=(0, 1)))
    gv = grad_arr(grid, v)
    gv2 = np.sum(gv * gv, axis=0)
    lv = lap_arr(grid, v)
    g_gv2 = grad_arr(grid, gv2)
    J = grad_arr(grid, u)
    D = 0.5 * (J + np.swapaxes(J, 0, 1))
    return {
        "jungel-quartic": (quad(grid, np.sum(g14 * g14, axis=0) ** 2),
                           8.0 * base),
        "jungel-hessian": (quad(grid, np.sum(Hs * Hs, axis=(0, 1))),
                           7.0 * base),
        "grad6": (quad(grid, v ** -2 * gv2 ** 3),
                  2.0 * quad(grid, gv2 * lv * lv)
                  + 8.0 * quad(grid, np.sum(g_gv2 * g_gv2, axis=0))),
        "div-vs-D": (quad(grid, r * np.trace(J, axis1=0, axis2=1) ** 2),
                     3.0 * quad(grid, r * np.sum(D * D, axis=(0, 1)))),
    }


def _per_seed(suite, config):
    """The suite evaluated one seed at a time with fields regenerated per
    seed and every check written out with the plain operators of fields,
    sharing no transform between checks."""
    out = []
    for spec in config.grids:
        grid = Grid(spec)
        for seed in config.seeds:
            r = random_smooth_positive(grid, seed, config.modes,
                                       config.floor).values
            u = random_smooth_vector(grid, seed, config.modes).values
            if suite == "identity":
                rows = _identity_rows(grid, r, u, config.rel_tol,
                                      config.canary)
                order = IDENTITY_CHECKS
            else:
                rows = {}
                for name, (lhs, rhs) in _inequality_rows(grid, r, u).items():
                    fr = FunctionalReport(name, lhs, rhs)
                    rows[name] = (fr.margin, fr.passed,
                                  f"lhs = {fr.lhs:.6e}, rhs = {fr.rhs:.6e}")
                order = INEQUALITY_CHECKS
            for name in order:
                if name in config.checks:
                    out.append(CheckResult(name, seed, spec, *rows[name]))
    return out


CHUNK_GRIDS = [(64,), (16, 16), (8, 8, 8)]


@pytest.mark.parametrize("spec", CHUNK_GRIDS,
                         ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("count", [1, 7, 33])
def test_chunked_suites_equal_per_seed_checks(spec, count):
    seeds = tuple(range(200, 200 + count))
    configs = {"identity": SuiteConfig(seeds=seeds, grids=(spec,), modes=2,
                                       checks=IDENTITY_CHECKS),
               "inequality": SuiteConfig(seeds=seeds, grids=(spec,), modes=2,
                                         checks=INEQUALITY_CHECKS)}
    reports = run_suites(configs)
    for name, config in configs.items():
        assert reports[name].results == _per_seed(name, config)
    # 33 seeds cross a chunk edge on every grid but (64,)
    if count == 33 and spec != (64,):
        assert chunk_size(Grid(spec)) < count


def test_chunk_size_budget():
    assert chunk_size(Grid(128)) == 32
    assert chunk_size(Grid((64, 64))) == 1
    assert chunk_size(Grid((32, 32, 32))) == 1


def test_check_subset_keeps_suite_order():
    config = SuiteConfig(seeds=(3, 1), grids=((32,),), modes=2,
                         checks=("grad-sqrtrho-u", "flux-identity-2"))
    rep = run_identity_suite(config)
    assert [(r.seed, r.check) for r in rep.results] == [
        (3, "flux-identity-2"), (3, "grad-sqrtrho-u"),
        (1, "flux-identity-2"), (1, "grad-sqrtrho-u")]
    assert rep.results == _per_seed("identity", config)


def test_canary_fails_every_bohm_instance_and_nothing_else():
    # resolved grids: on coarse ones the identities fail with or without
    # the canary
    config = SuiteConfig(seeds=tuple(range(40, 59)), grids=((64,), (64, 64)),
                         canary=True)
    rep = run_identity_suite(config)
    assert rep.results == _per_seed("identity", config)
    bohm = [r for r in rep.results if r.check == "bohm-forms"]
    assert len(bohm) == 2 * 19 and not any(r.passed for r in bohm)
    assert all(r.passed for r in rep.results if r.check != "bohm-forms")


SHARED_PIECES = sorted({p for ps in CHECK_PIECES.values() for p in ps})


@pytest.mark.parametrize("spec", [(64,), (48, 48)],
                         ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("piece", SHARED_PIECES)
def test_perturbed_shared_piece_fails_an_identity_check(spec, piece):
    # every piece a chunk's checks share is read by at least one identity
    # check, so an error in a shared transform cannot pass unseen
    grid = Grid(spec)
    config = SuiteConfig(seeds=(0, 1, 2), grids=(spec,), modes=2)

    def identity(perturb):
        d = Derived.of(grid, *random_smooth_ensemble(
            grid, config.seeds, config.modes, floor=config.floor,
            amplitude=1.0))
        d.load(*SHARED_PIECES)
        if perturb:
            x = d.__dict__[piece]
            pattern = np.cos(grid.meshgrid()[0])
            d.__dict__[piece] = x + 1e-3 * np.max(np.abs(x)) * pattern
        out = _identity_chunk(d, config)
        return [[out[c][k][1] for c in IDENTITY_CHECKS]
                for k in range(len(config.seeds))]

    assert all(all(row) for row in identity(False))
    assert not any(all(row) for row in identity(True))


@pytest.mark.parametrize("field, value", [
    ("seeds", (0, 1, 3)), ("grids", ((16, 16),)), ("modes", 3),
    ("floor", 2.0)])
def test_suites_with_different_ensembles_keep_their_own(field, value):
    # the two configs differ in one ensemble field only
    base = dict(seeds=(0, 1, 2), grids=((32,),), modes=2, floor=4.0)
    identity = SuiteConfig(**base, checks=IDENTITY_CHECKS)
    inequality = SuiteConfig(**dict(base, **{field: value}),
                             checks=INEQUALITY_CHECKS)
    reports = run_suites({"identity": identity, "inequality": inequality})
    assert reports["identity"].results == _per_seed("identity", identity)
    assert reports["inequality"].results == _per_seed("inequality",
                                                       inequality)


def test_run_suites_rejects_unknown_suite():
    with pytest.raises(ValueError):
        run_suites({"identity": SuiteConfig(**SMALL), "nope": SuiteConfig()})


# --- the seed chunks on worker processes ----------------------------------

def _verify_outputs(tmp_path, label, canary):
    """{file name: bytes} of what `qnslab verify` writes for the identity
    and inequality suites of unsorted seeds on (128,) and (64, 64), with
    its exit code and stdout among them."""
    config = tmp_path / f"{label}.json"
    config.write_text(json.dumps({
        "suites": ["identity", "inequality"], "seeds": [9, 2, 14, 0, 5, 3],
        "grids": [[128], [64, 64]], "canary": canary}))
    out = tmp_path / label
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["verify", "--config", str(config), "--out",
                         str(out)])
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    return dict(files, exit_code=code, stdout=buf.getvalue())


@forking
@pytest.mark.parametrize("canary", [False, True])
def test_reports_do_not_depend_on_the_worker_count(tmp_path, monkeypatch,
                                                   canary):
    # one (128,) chunk of six seeds and six (64, 64) chunks, split over one,
    # two and three processes
    outputs = {}
    for count in (1, 2, 3):
        with monkeypatch.context() as mp, no_child_left():
            forks = force_workers(mp, count)
            outputs[count] = _verify_outputs(tmp_path, f"w{count}", canary)
        assert len(forks) == count - 1
    assert outputs[1]["exit_code"] == (1 if canary else 0)
    assert len(outputs[1]) == 6 and outputs[2] == outputs[1] \
        and outputs[3] == outputs[1]


def _pass(seeds=(0, 1)):
    """Identity and inequality suites of one seed chunk per seed."""
    return {name: SuiteConfig(seeds=seeds, grids=((48, 48),), modes=2,
                              checks=checks)
            for name, checks in (("identity", IDENTITY_CHECKS),
                                 ("inequality", INEQUALITY_CHECKS))}


def _raise_in(monkeypatch, where, action):
    """grad6_batch does action() first in this process (where "parent") or
    in a forked child (where "child")."""
    parent, real = os.getpid(), verify.grad6_batch

    def grad6(d):
        if (os.getpid() == parent) == (where == "parent"):
            action()
        return real(d)
    monkeypatch.setattr(verify, "grad6_batch", grad6)


@forking
def test_a_check_that_raises_in_a_child_raises_here(monkeypatch):
    # the exception comes back with its class, message and attributes
    force_workers(monkeypatch, 2)

    def vacuum():
        raise VacuumError(3, -0.5)
    _raise_in(monkeypatch, "child", vacuum)
    with no_child_left(), pytest.raises(VacuumError) as info:
        run_suites(_pass())
    assert str(info.value) == "nonpositive density at 3 node(s), min=-0.5"
    assert (info.value.bad_nodes, info.value.rho_min) == (3, -0.5)


@forking
def test_an_exception_pickle_cannot_name_raises_its_message(monkeypatch):
    force_workers(monkeypatch, 2)

    class Local(Exception):
        pass

    def local():
        raise Local("in a child")
    _raise_in(monkeypatch, "child", local)
    with no_child_left(), pytest.raises(
            RuntimeError, match="could not send .*Local: in a child"):
        run_suites(_pass())


@forking
def test_a_child_that_dies_raises_here(monkeypatch):
    force_workers(monkeypatch, 2)
    _raise_in(monkeypatch, "child", lambda: os.kill(os.getpid(),
                                                    signal.SIGKILL))
    with no_child_left(), pytest.raises(RuntimeError, match="exit code -9"):
        run_suites(_pass())


class _Interrupt(KeyboardInterrupt):
    pass


@forking
@pytest.mark.parametrize("error", [VacuumError(1, -1.0), _Interrupt()],
                         ids=["vacuum", "interrupt"])
def test_an_error_in_this_share_kills_the_children(monkeypatch, error):
    # the children would run for a minute: they are killed and reaped
    forks = force_workers(monkeypatch, 3)
    _raise_in(monkeypatch, "child", lambda: time.sleep(60))
    parent, real = os.getpid(), verify.jungel_batch

    def jungel(d):
        if os.getpid() == parent:
            raise error
        return real(d)
    monkeypatch.setattr(verify, "jungel_batch", jungel)
    start = time.monotonic()
    with no_child_left(), pytest.raises(type(error)):
        run_suites(_pass(seeds=(0, 1, 2)))
    assert len(forks) == 2 and time.monotonic() - start < 30


def test_no_fork_while_another_thread_is_alive(monkeypatch):
    configs = _pass()
    ref = {name: rep.to_jsonl() for name, rep in run_suites(configs).items()}
    forks = []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1))
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        assert fields._workers(2) == 1
        reports = run_suites(configs)
    finally:
        release.set()
        thread.join(timeout=60)
    assert not thread.is_alive() and not forks
    assert {name: rep.to_jsonl() for name, rep in reports.items()} == ref


def test_one_worker_where_forking_is_unavailable(monkeypatch):
    with monkeypatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                   raising=False)
        mp.setattr(sys, "platform", "linux")
        mp.setattr(os, "fork", lambda: 0, raising=False)
        assert [fields._workers(jobs) for jobs in (1, 3, 9)] == [1, 3, 4]
        mp.setattr(os, "sched_getaffinity", lambda pid: {5})
        assert fields._workers(9) == 1
    with monkeypatch.context() as mp:
        mp.setattr(sys, "platform", "darwin")
        assert fields._workers(9) == 1
    with monkeypatch.context() as mp:
        mp.delattr(os, "fork", raising=False)
        assert fields._workers(9) == 1


@pytest.mark.parametrize("costs, count, shares", [
    # a (128,) chunk of 25 seeds and 25 (64, 64) chunks of one
    ([3200] + [4096] * 25, 2, [(0, 13), (13, 26)]),
    ([3200] + [4096] * 25, 3, [(0, 9), (9, 17), (17, 26)]),
    ([5, 5, 5], 3, [(0, 1), (1, 2), (2, 3)]),
    # a costly first job takes a share of its own, and every share is
    # nonempty
    ([100, 1, 1, 1], 2, [(0, 1), (1, 4)]),
    ([100, 1, 1, 1], 3, [(0, 1), (1, 2), (2, 4)]),
    ([1, 1, 1, 100], 3, [(0, 2), (2, 3), (3, 4)]),
    ([7], 1, [(0, 1)]),
])
def test_shares_are_contiguous_and_balanced(costs, count, shares):
    assert fields._shares(costs, count) == shares
