"""CLI contract: subcommands, exit codes, output files, reproducibility."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import qnslab
from qnslab import cli, timeloop
from qnslab.cli import MONITOR_COLUMNS, main
from qnslab.fields import Grid, ScalarField, VectorField
from qnslab.functionals import DISSIPATION_KEYS, MonitorRecord
from qnslab.snapshots import write_field
from qnslab.systems import rhs_approx_u


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


RUN_DOC = {
    "scenario": "acoustic-1d",
    "n": 64,
    "params": {"nu": 1.0, "kappa": 0.0909, "eps": 1e-3},
    "integrator": {"scheme": "imex", "dt_init": 1e-3, "dt_min": 1e-4,
                   "dt_max": 1e-3, "t_end": 0.01, "monitor_every": 2},
}


class TestRun:
    def test_success_writes_artifacts(self, tmp_path):
        cfg = _write(tmp_path, "run.json", RUN_DOC)
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "monitors.csv"))
        assert os.path.exists(os.path.join(out, "summary.json"))
        assert os.path.exists(os.path.join(out, "final_rho.dat"))
        assert os.path.exists(os.path.join(out, "final_vel.dat"))
        with open(os.path.join(out, "summary.json")) as fh:
            summary = json.load(fh)
        assert summary["status"] == "completed"
        assert summary["final_time"] == pytest.approx(0.01)

    def test_monitor_columns_contract(self, tmp_path):
        cfg = _write(tmp_path, "run.json", RUN_DOC)
        out = str(tmp_path / "out")
        main(["run", "--config", cfg, "--out", out])
        with open(os.path.join(out, "monitors.csv"), newline="") as fh:
            header = next(csv.reader(fh))
        assert tuple(header) == MONITOR_COLUMNS
        assert header[-len(DISSIPATION_KEYS):] == list(DISSIPATION_KEYS)

    def test_monitors_csv_bytes_are_csv_writer_bytes(self, tmp_path):
        # the cells are reprs of floats: nan, inf and -0.0 need no quoting
        specials = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0,
                    1e-300, 5e-324, -1.5e300, 0.1, 1 / 3, 12345.678]
        records = [
            MonitorRecord(
                *specials[k:k + 8],
                dissipation={key: specials[(k + j) % len(specials)]
                             for j, key in enumerate(DISSIPATION_KEYS)})
            for k in range(4)]
        path = tmp_path / "monitors.csv"
        cli._write_monitors(path, records)
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(MONITOR_COLUMNS)
            for r in records:
                row = [r.time, r.mass, r.energy, r.bd_entropy, r.mv,
                       r.rho_min, r.rho_max, r.mass_balance_residual]
                row += [r.dissipation[k] for k in DISSIPATION_KEYS]
                writer.writerow([repr(float(x)) for x in row])
        assert path.read_bytes() == ref.read_bytes()
        assert b"nan" in ref.read_bytes() and b"-0.0" in ref.read_bytes()

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json")]) == 2

    def test_invalid_json_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path)]) == 2

    def test_strict_inadmissible_exits_2(self, tmp_path, capsys):
        doc = dict(RUN_DOC)
        doc["params"] = {"nu": 1.0, "kappa": 0.5, "strict": True}
        cfg = _write(tmp_path, "run.json", doc)
        assert main(["run", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        assert "11*kappa <= nu" in capsys.readouterr().err

    def test_unknown_scenario_exits_2(self, tmp_path):
        doc = dict(RUN_DOC, scenario="warp-drive")
        cfg = _write(tmp_path, "run.json", doc)
        assert main(["run", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("doc", [
        dict(RUN_DOC, n=7), dict(RUN_DOC, n=[64]), dict(RUN_DOC, n="abc"),
        dict(RUN_DOC, scenario="acoustic-2d", n=7),
        dict(RUN_DOC, scenario="uniform-rest", n=[64, 9]),
    ], ids=["n7", "n-list", "n-str", "2d-n7", "rest-odd"])
    def test_bad_grid_exits_2(self, tmp_path, capsys, doc):
        cfg = _write(tmp_path, "run.json", doc)
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert "bad grid for scenario" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_unknown_mode_exits_2(self, tmp_path, capsys):
        cfg = _write(tmp_path, "run.json", dict(RUN_DOC, mode="banana"))
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert "unknown mode 'banana'" in capsys.readouterr().err
        assert not (out / "summary.json").exists()
        doc = dict(RUN_DOC, mode="banana", sweep={"eps": [1e-3]})
        cfg = _write(tmp_path, "s.json", doc)
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        assert not (out / "sweep.csv").exists()

    def test_config_mode_is_kept(self, tmp_path):
        cfg = _write(tmp_path, "run.json", dict(RUN_DOC, mode="paper"))
        out = tmp_path / "o"
        main(["run", "--config", cfg, "--out", str(out)])
        with open(out / "summary.json") as fh:
            assert json.load(fh)["mode"] == "paper"

    def test_uniform_rest_monitors_constant(self, tmp_path):
        doc = dict(RUN_DOC, scenario="uniform-rest")
        doc["params"] = {"nu": 1.0, "kappa": 0.0909}
        cfg = _write(tmp_path, "run.json", doc)
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg, "--out", out]) == 0
        with open(os.path.join(out, "monitors.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        energies = {row["energy"] for row in rows}
        assert len(energies) == 1

    def test_rerun_bit_identical(self, tmp_path):
        cfg = _write(tmp_path, "run.json", RUN_DOC)
        outs = []
        for sub in ("a", "b"):
            out = str(tmp_path / sub)
            main(["run", "--config", cfg, "--out", out])
            with open(os.path.join(out, "monitors.csv"), "rb") as fh:
                outs.append(fh.read())
        assert outs[0] == outs[1]

    def test_positivity_failure_exits_3(self, tmp_path):
        doc = {
            "scenario": "acoustic-1d", "n": 32,
            "params": {"nu": 1e-8, "eps": 0.0},
            "integrator": {"scheme": "rk4-explicit", "dt_init": 0.5,
                           "dt_min": 0.5, "dt_max": 0.5, "t_end": 10.0,
                           "positivity_floor": 0.9},
        }
        cfg = _write(tmp_path, "run.json", doc)
        assert main(["run", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 3


class TestNonFiniteVelocity:
    def test_run_exits_1_with_non_finite_status(self, tmp_path, monkeypatch):
        # ten fixed IMEX steps, two right-hand sides each; the last one
        # returns a NaN velocity node while the density stays finite
        count = {"n": 0}

        def poisoned(state, params, **kw):
            out = rhs_approx_u(state, params, **kw)
            count["n"] += 1
            if count["n"] == 20:
                out[1, 5] = np.nan  # one velocity mode of the spectrum
            return out
        monkeypatch.setattr(timeloop, "rhs_approx_u", poisoned)
        doc = dict(RUN_DOC, integrator=dict(RUN_DOC["integrator"],
                                            dt_min=1e-3))
        cfg = _write(tmp_path, "run.json", doc)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 1
        with open(out / "summary.json") as fh:
            assert json.load(fh)["status"] == \
                "non-finite at t=0.01 (64 velocity nodes)"
        assert count["n"] == 20


class TestBadSnapshot:
    """A bad initial snapshot is an input error (exit 2), never a traceback
    and never a completed run."""

    DOC = {"params": {"nu": 1.0, "kappa": 0.0909, "eps": 1e-3},
           "integrator": {"scheme": "imex", "dt_init": 1e-3, "dt_min": 1e-3,
                          "dt_max": 1e-3, "t_end": 0.003}}

    def _snapshot(self, tmp_path, values):
        path = tmp_path / "rho.dat"
        write_field(path, ScalarField(Grid(32), values), "rho")
        return path

    def _run(self, tmp_path, snapshot):
        cfg = _write(tmp_path, "run.json",
                     dict(self.DOC, snapshot=str(snapshot)))
        out = tmp_path / "o"
        return main(["run", "--config", cfg, "--out", str(out)]), out

    def test_snapshot_runs(self, tmp_path):
        path = self._snapshot(tmp_path, np.full(32, 1.5))
        code, out = self._run(tmp_path, path)
        assert code == 0
        with open(out / "summary.json") as fh:
            assert json.load(fh)["status"] == "completed"

    def test_truncated_snapshot_exits_2(self, tmp_path, capsys):
        path = self._snapshot(tmp_path, np.full(32, 1.5))
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:-5]))
        code, out = self._run(tmp_path, path)
        assert code == 2
        assert "truncated" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_scalar_velocity_snapshot_exits_2(self, tmp_path, capsys):
        rho = self._snapshot(tmp_path, np.full(32, 1.5))
        cfg = _write(tmp_path, "run.json",
                     dict(self.DOC, snapshot=str(rho),
                          snapshot_velocity=str(rho)))
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert "snapshots do not match" in capsys.readouterr().err
        assert not out.exists()

    def test_snapshot_that_is_a_directory_exits_2(self, tmp_path, capsys):
        code, out = self._run(tmp_path, tmp_path)
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: bad snapshot")
        assert not out.exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0])
    def test_non_finite_density_exits_2(self, tmp_path, capsys, bad):
        values = np.full(32, 1.5)
        values[7] = bad
        code, out = self._run(tmp_path, self._snapshot(tmp_path, values))
        assert code == 2
        assert "positive and finite" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_velocity_exits_2(self, tmp_path, capsys, bad):
        values = np.zeros((1, 32))
        values[0, 7] = bad
        vel = tmp_path / "vel.dat"
        write_field(vel, VectorField(Grid(32), values), "vel")
        cfg = _write(tmp_path, "run.json",
                     dict(self.DOC, snapshot_velocity=str(vel),
                          snapshot=str(self._snapshot(tmp_path,
                                                      np.full(32, 1.5)))))
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert "initial velocity must be finite" in capsys.readouterr().err
        assert not (out / "summary.json").exists()


class TestVerify:
    def test_default_suites_pass(self, tmp_path):
        cfg = _write(tmp_path, "v.json", {
            "suites": ["identity", "inequality"],
            "num_seeds": 3, "grids": [[64]],
        })
        out = str(tmp_path / "out")
        assert main(["verify", "--config", cfg, "--out", out]) == 0
        assert os.path.exists(os.path.join(out, "identity_report.json"))
        assert os.path.exists(os.path.join(out, "identity_results.jsonl"))

    def test_canary_exits_1(self, tmp_path):
        cfg = _write(tmp_path, "v.json", {
            "suites": ["identity"], "num_seeds": 2, "grids": [[64]],
            "canary": True, "checks": ["bohm-forms"],
        })
        assert main(["verify", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 1

    def test_dynamics_suite_writes_parseable_jsonl(self, tmp_path):
        cfg = _write(tmp_path, "v.json", {"suites": ["dynamics"]})
        out = str(tmp_path / "out")
        assert main(["verify", "--config", cfg, "--out", out]) == 0
        with open(os.path.join(out, "dynamics_results.jsonl")) as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        assert {r["check"] for r in records} == {
            "steady-battery", "mass-balance", "equivalence", "vacuum-band"}
        assert all(r["passed"] is True for r in records)
        with open(os.path.join(out, "dynamics_report.json")) as fh:
            assert json.load(fh)["overall_pass"] is True

    def test_unknown_check_exits_2(self, tmp_path):
        cfg = _write(tmp_path, "v.json", {
            "suites": ["identity"], "checks": ["no-such-check"],
        })
        assert main(["verify", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("doc", [
        {"suites": ["identity"], "identity": {"checks": ["grad6"]}},
        # a top-level list reaches every suite; identity has none of these
        {"suites": ["identity", "inequality"], "checks": ["grad6"],
         "num_seeds": 1},
    ])
    def test_suite_without_its_own_checks_exits_2(self, tmp_path, capsys,
                                                   doc):
        cfg = _write(tmp_path, "v.json", doc)
        assert main(["verify", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2
        assert "'identity' would run none" in capsys.readouterr().err

    def test_check_no_selected_suite_owns_exits_2(self, tmp_path, capsys):
        cfg = _write(tmp_path, "v.json", {
            "suites": ["identity"], "checks": ["bohm-forms", "grad6"],
            "num_seeds": 1, "grids": [[32]], "modes": 2,
        })
        out = tmp_path / "o"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
        assert "['grad6'] belong to none" in capsys.readouterr().err
        assert not (out / "identity_report.json").exists()

    @pytest.mark.parametrize("extra", [
        {"grids": [[7]]}, {"grids": [7]}, {"grids": [[32]], "modes": 20},
        {"floor": -1}, {"seeds": ["a"]}, {"seeds": 3}, {"num_seeds": "abc"},
        {"modes": "abc"}, {"num_seeds": 1.7}, {"num_seeds": True},
        {"modes": 2.5}, {"modes": True}, {"grids": [[32.9]]},
        {"seeds": [True, False]},
    ], ids=["grid7", "grid-int", "modes20", "floor-1", "seed-str",
            "seeds-int", "num-seeds-str", "modes-str", "num-seeds-frac",
            "num-seeds-bool", "modes-frac", "modes-bool", "grid-frac",
            "seeds-bool"])
    def test_bad_numeric_input_exits_2(self, tmp_path, capsys, extra):
        doc = {"suites": ["identity"], "num_seeds": 1, "grids": [[32]],
               "modes": 2, **extra}
        cfg = _write(tmp_path, "v.json", doc)
        out = tmp_path / "o"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
        assert "invalid suite config" in capsys.readouterr().err
        assert not (out / "identity_report.json").exists()

    def test_unknown_suite_exits_2(self, tmp_path):
        cfg = _write(tmp_path, "v.json", {"suites": ["mystery"]})
        assert main(["verify", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2


class TestSweep:
    def test_eps_sweep_three_rows(self, tmp_path):
        doc = dict(RUN_DOC, sweep={"eps": [1e-2, 1e-3, 1e-4]})
        cfg = _write(tmp_path, "s.json", doc)
        out = str(tmp_path / "out")
        assert main(["sweep", "--config", cfg, "--out", out]) == 0
        with open(os.path.join(out, "sweep.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert all(r["status"] == "completed" for r in rows)

    def test_single_point_sweep(self, tmp_path):
        doc = dict(RUN_DOC, sweep={"kappa": [0.05]})
        cfg = _write(tmp_path, "s.json", doc)
        out = str(tmp_path / "out")
        assert main(["sweep", "--config", cfg, "--out", out]) == 0
        with open(os.path.join(out, "sweep.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1

    def test_strict_point_is_an_error_row(self, tmp_path):
        # each point passes the checks of `run`: with "strict" the second
        # point violates 11 kappa <= nu and 20 mu < nu
        doc = dict(RUN_DOC, strict=True, sweep={"kappa": [0.05, 0.5]})
        cfg = _write(tmp_path, "s.json", doc)
        out = str(tmp_path / "out")
        assert main(["sweep", "--config", cfg, "--out", out]) == 1
        with open(os.path.join(out, "sweep.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["status"] == "completed"
        assert rows[1]["status"].startswith("error: admissibility violated")

    def test_point_specific_failure_is_an_error_row(self, tmp_path):
        # mollification needs eps > 0: only the eps = 0 point fails
        doc = dict(RUN_DOC, mollify=True, sweep={"eps": [0.0, 1e-3]})
        cfg = _write(tmp_path, "s.json", doc)
        out = str(tmp_path / "out")
        assert main(["sweep", "--config", cfg, "--out", out]) == 1
        with open(os.path.join(out, "sweep.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["status"] == "error: mollification requires eps > 0"
        assert rows[1]["status"] == "completed"

    @pytest.mark.parametrize("extra, message", [
        ({"scenario": "nope"}, "unknown scenario 'nope'"),
        ({"scenario": "acoustic-2d", "n": 7}, "bad grid for scenario"),
        ({"snapshot": "missing.dat"}, "snapshot not found"),
        ({"integrator": {"scheme": "euler"}}, "invalid integrator block"),
    ], ids=["scenario", "grid", "snapshot", "integrator"])
    def test_shared_config_error_exits_2(self, tmp_path, capsys, extra,
                                         message):
        # what every point shares is a config error, not an error row
        doc = dict(RUN_DOC, sweep={"eps": [1e-3, 1e-4]}, **extra)
        cfg = _write(tmp_path, "s.json", doc)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_axis_exits_2(self, tmp_path):
        doc = dict(RUN_DOC, sweep={"gamma": [2.0]})
        cfg = _write(tmp_path, "s.json", doc)
        assert main(["sweep", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2

    def test_empty_axis_exits_2(self, tmp_path, capsys):
        # no point to run is a config error, not a sweep that passes
        doc = dict(RUN_DOC, sweep={"eps": [1e-3], "kappa": []})
        cfg = _write(tmp_path, "s.json", doc)
        out = tmp_path / "o"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        assert "sweep axis 'kappa' lists no values" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_exits_2(self, tmp_path, capsys, threads):
        # not a silent serial run
        cfg = _write(tmp_path, "s.json", dict(RUN_DOC, sweep={"eps": [1e-3]}))
        out = tmp_path / "o"
        assert main(["sweep", "--config", cfg, "--out", str(out),
                     "--threads", threads]) == 2
        assert "--threads must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_threads_option(self, tmp_path):
        # a 2D grid whose transform stacks come from each thread's workspace
        doc = dict(RUN_DOC, scenario="acoustic-2d", n=64,
                   sweep={"eps": [1e-3, 1e-4]})
        cfg = _write(tmp_path, "s.json", doc)
        text = {}
        for threads in ("1", "2"):
            out = str(tmp_path / f"out{threads}")
            assert main(["sweep", "--config", cfg, "--out", out,
                         "--threads", threads]) == 0
            with open(os.path.join(out, "sweep.csv"), "rb") as fh:
                text[threads] = fh.read()
        assert text["2"] == text["1"]
        assert text["1"].count(b"completed") == 2


# a valid config of each subcommand that writes an output directory
COMMANDS = {
    "run": RUN_DOC,
    "verify": {"suites": ["identity"], "num_seeds": 1, "grids": [[32]],
               "modes": 2},
    "sweep": dict(RUN_DOC, sweep={"eps": [1e-3]}),
}


class TestConfigErrors:
    """A config error exits 2 with a message, never a traceback, and
    creates no output directory."""

    @pytest.mark.parametrize("command, doc", [
        ("run", dict(RUN_DOC, params=5)),
        ("run", dict(RUN_DOC, integrator=[1])),
        ("verify", {"suites": ["identity"], "identity": 5}),
        ("verify", {"suites": ["identity"], "num_seeds": 1, "grids": [[32]],
                    "modes": 2, "rel_tol": "abc"}),
        ("sweep", dict(RUN_DOC, params=5, sweep={"eps": [1e-3]})),
        ("run", [RUN_DOC]),
        ("verify", {"suites": 5}),
        ("verify", {"suites": []}),
        ("run", dict(RUN_DOC, integrator=dict(RUN_DOC["integrator"],
                                              monitor_every=1.5))),
        ("run", dict(RUN_DOC, integrator=dict(RUN_DOC["integrator"],
                                              monitor_every=True))),
        ("run", dict(RUN_DOC, n=64.5)),
    ], ids=["params-int", "integrator-list", "suite-block-int",
            "rel-tol-str", "sweep-params-int", "config-list", "suites-int",
            "suites-empty", "monitor-every-frac", "monitor-every-bool",
            "n-frac"])
    def test_malformed_block_exits_2(self, tmp_path, capsys, command, doc):
        cfg = _write(tmp_path, "c.json", doc)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("command, doc", [
        ("run", dict(RUN_DOC, scenario="nope")),
        ("verify", {"suites": ["mystery"]}),
        ("sweep", dict(RUN_DOC, sweep={"gamma": [2.0]})),
        ("sweep", dict(RUN_DOC, sweep={"eps": 1e-3})),
    ], ids=["run-scenario", "verify-suite", "sweep-axis", "sweep-values"])
    def test_config_error_leaves_no_directory(self, tmp_path, command, doc):
        cfg = _write(tmp_path, "c.json", doc)
        out = tmp_path / "o"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("content", [None, b'{"n": "\xff"}'],
                             ids=["directory", "not-utf8"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, command,
                                       content):
        cfg = tmp_path / "c.json"
        if content is None:
            cfg.mkdir()
        else:
            cfg.write_bytes(content)
        out = tmp_path / "o"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: cannot read config")
        assert not out.exists()

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_out_that_is_a_file_exits_2(self, tmp_path, capsys, monkeypatch,
                                        command, via):
        out = tmp_path / "taken"
        out.write_text("")
        cfg = _write(tmp_path, "c.json", COMMANDS[command])
        argv = [command, "--config", cfg]
        if via == "flag":
            argv += ["--out", str(out)]
        else:
            monkeypatch.setenv("QNSLAB_OUT", str(out))
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(
            "config error: cannot create output directory")
        assert out.read_text() == ""

    def test_out_that_is_not_a_path_exits_2(self, tmp_path, capsys):
        cfg = _write(tmp_path, "run.json", dict(RUN_DOC, out=5))
        assert main(["run", "--config", cfg]) == 2
        assert "out must be a path" in capsys.readouterr().err

    # an integer would be taken as a file descriptor (0 reads standard
    # input), a list would reach os.path.exists as a TypeError
    @pytest.mark.parametrize("value", [["x"], 0], ids=["list", "int"])
    @pytest.mark.parametrize("command, key", [
        ("run", "snapshot"), ("run", "snapshot_velocity"),
        ("sweep", "snapshot"), ("sweep", "snapshot_velocity"),
        ("report", "monitors")])
    def test_path_key_that_is_not_a_path_exits_2(self, tmp_path, capsys,
                                                 command, key, value):
        doc = dict(COMMANDS["run" if command == "report" else command])
        if key == "snapshot_velocity":
            rho = tmp_path / "rho.dat"
            write_field(rho, ScalarField(Grid(32), np.full(32, 1.5)), "rho")
            doc["snapshot"] = str(rho)
        doc[key] = value
        argv = [command, "--config", _write(tmp_path, "c.json", doc)]
        out = tmp_path / "o"
        if command != "report":
            argv += ["--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} must be a path")
        assert "Traceback" not in err
        assert not out.exists()


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ["verify", "--config", "v.json", "--threads", "2"],
        ["run", "--config", "r.json", "--threads", "2"],
        ["report", "--monitors", "m.csv", "--threads", "2"],
        ["verify", "--config", "v.json", "--mode", "paper"],
        ["report", "--monitors", "m.csv", "--mode", "desk"],
        ["report", "--monitors", "m.csv", "--out", "o"],
    ])
    def test_flag_not_read_is_an_argparse_error(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_parser_is_built_once(self, monkeypatch):
        # two in-process calls build at most one parser tree (a parser and
        # its four subcommand parsers); each call still dispatches to the
        # cmd_ function the module holds when it runs
        import argparse
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        calls = []
        monkeypatch.setattr(cli, "cmd_report",
                            lambda args: calls.append(args.monitors) or 7)
        assert main(["report", "--monitors", "a.csv"]) == 7
        assert main(["report", "--monitors", "b.csv"]) == 7
        assert calls == ["a.csv", "b.csv"]
        assert len(built) <= 5


class TestReport:
    def test_renders_monitor_table(self, tmp_path, capsys):
        cfg = _write(tmp_path, "run.json", RUN_DOC)
        out = str(tmp_path / "out")
        main(["run", "--config", cfg, "--out", out])
        capsys.readouterr()
        assert main(["report", "--monitors",
                     os.path.join(out, "monitors.csv")]) == 0
        text = capsys.readouterr().out
        assert "energy" in text and "mass_balance_residual" in text

    def test_missing_monitors_exits_2(self, tmp_path):
        assert main(["report", "--monitors",
                     str(tmp_path / "nope.csv")]) == 2

    @pytest.mark.parametrize("text, message", [
        ("time,mass\n0.0,1.0\n0.1,abc\n", "unreadable monitors CSV"),
        ("mass,energy\n1.0,2.0\n1.0,2.0\n", "no time column"),
        (None, "unreadable monitors CSV"),
    ], ids=["non-numeric", "no-time", "directory"])
    def test_malformed_monitors_exits_2(self, tmp_path, capsys, text,
                                        message):
        path = tmp_path / "monitors.csv"
        if text is None:
            path.mkdir()
        else:
            path.write_text(text)
        assert main(["report", "--monitors", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert "Traceback" not in err


def test_python_m_qnslab_runs_from_a_checkout():
    # the package directory's parent on PYTHONPATH, nothing installed
    src = os.path.dirname(os.path.dirname(qnslab.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "qnslab", "--help"],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: qnslab")
