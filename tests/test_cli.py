import contextlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsqg.cli import _COMMAND_KEYS, _CONFIG_KEYS, _FLAG_OPTS, _PAIR_KEYS, main
from gsqg.fields import read_field

from conftest import REGIME_L

FAST = ["--nr", "64", "--n-angles", "48", "--tol", "1e-5"]
LIMITING = ["--s", 0.5, "--p", 1.5, "--kappa", 1]
PAIR = LIMITING + ["--W", 1, "--L", REGIME_L, "--n", 32]


def run(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def pair_run(tmp_path_factory):
    """One small regime-parameter pair run shared by the CLI tests."""
    out = tmp_path_factory.mktemp("pair_run")
    code = run(["solve-pair", "--s", 0.5, "--p", 1.5, "--kappa", 1,
                "--W", 1, "--L", REGIME_L, "--eps", "0.2", "--n", "64",
                "--out", out] + FAST)
    assert code == 0
    return out


@pytest.fixture(scope="module")
def pair_run_two_eps(tmp_path_factory):
    """A regime-parameter pair run solved at eps 0.2 and 0.1."""
    out = tmp_path_factory.mktemp("pair_run_two_eps")
    code = run(["solve-pair", "--s", 0.5, "--p", 1.5, "--kappa", 1,
                "--W", 1, "--L", REGIME_L, "--eps", "0.2,0.1", "--n", "64",
                "--out", out] + FAST)
    assert code == 0
    return out


class TestUsage:
    def test_missing_required_parameter(self, tmp_path, capsys):
        code = run(["solve-limiting", "--s", 0.5, "--kappa", 1,
                    "--out", tmp_path])
        assert code == 1
        assert "missing required parameter" in capsys.readouterr().err

    def test_growth_bound_cited(self, tmp_path, capsys):
        code = run(["solve-limiting", "--s", 0.5, "--p", 2.5, "--kappa", 1,
                    "--out", tmp_path])
        assert code == 1
        assert "p < 1/(1-s)" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        # damping is fixed (limiting._DAMPING), so no file can set it
        cfg = tmp_path / "run.cfg"
        for key in ("bogus_key", "damping"):
            cfg.write_text(f"s = 0.5\n{key} = 0.3\n")
            code = run(["solve-limiting", "--config", cfg, "--out", tmp_path])
            assert code == 1
            assert f"unknown config key {key!r}" in capsys.readouterr().err

    def test_config_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "s = 0.5\np = 1.5\nkappa = 1.0\nnr = 64\nn_angles = 48\n"
            "tol = 1e-4\n")
        out = tmp_path / "out"
        code = run(["solve-limiting", "--config", cfg, "--out", out])
        assert code == 0
        rep = json.loads((out / "limiting.json").read_text())
        assert rep["kappa"] == 1.0

    def test_config_seed_threads_unless_flagged(self, tmp_path):
        from gsqg.cli import _build_parser, _merge

        cfg = tmp_path / "run.cfg"
        cfg.write_text("s = 0.5\nthreads = 2\nseed = 7\n")

        def merged(*flags):
            return _merge(_build_parser().parse_args(
                ["evolve", "--config", str(cfg), *flags]))

        got = merged()
        assert (got["threads"], got["seed"]) == (2, 7)
        got = merged("--threads", "3", "--seed", "0")
        assert (got["threads"], got["seed"]) == (3, 0)
        got = _merge(_build_parser().parse_args(["evolve"]))
        assert (got["threads"], got["seed"]) == (1, 0)

    def test_each_command_takes_the_keys_it_reads(self):
        from gsqg.cli import _build_parser

        limiting = {"s", "p", "kappa", "L", "nr", "n_angles", "tol",
                    "max_iter", "threads"}
        rows = {
            "solve-limiting": limiting,
            "solve-pair": limiting | {"W", "eps", "n", "allow_active"},
            "verify": {"run", "threads", "tol_fixed_point", "tol_location",
                       "tol_multiplier", "tol_weak_form", "tol_steiner",
                       "tol_bracket"},
            "evolve": {"run", "threads", "seed", "dt", "T", "cfl",
                       "diag_every", "snapshot_every", "perturb"},
            "rearrange": {"run", "threads", "shift_cells"},
            "report": {"run"},
        }
        sub = next(a for a in _build_parser()._actions
                   if a.dest == "command")
        assert set(sub.choices) == set(rows)
        flags = 0
        for command, parser in sub.choices.items():
            dests = {a.dest for a in parser._actions} - {"help"}
            assert dests == rows[command] | {"config", "out"}, command
            flags += len(dests)
        assert flags == 55

    @pytest.mark.parametrize("argv", [
        ["verify", "--s", "0.3"],
        ["solve-pair", "--s", 0.5, "--p", 1.5, "--kappa", 1, "--W", 1,
         "--seed", 3],
        ["report", "--threads", 2],
    ], ids=["verify-s", "solve-pair-seed", "report-threads"])
    def test_flag_the_command_does_not_read_exits_usage(
            self, pair_run, tmp_path, capsys, argv):
        out = tmp_path / "o"
        if not argv[0].startswith("solve"):
            argv = argv[:1] + ["--run", pair_run] + argv[1:]
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--out", out])
        assert exc.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_config_keys_of_other_commands_are_dropped(self, pair_run,
                                                       tmp_path):
        # one config file serves the whole chain; verify records only the
        # keys it reads
        cfg = tmp_path / "chain.cfg"
        cfg.write_text("s = 0.3\nseed = 9\ntol_location = 0.5\n")
        out = tmp_path / "v"
        assert run(["verify", "--run", pair_run, "--out", out,
                    "--config", cfg, "--tol-fixed-point", "1e-4"]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert set(config) == {"out", "run", "threads", "tol_fixed_point",
                               "tol_location"}
        assert config["tol_location"] == 0.5
        rep = json.loads((out / "verify.json").read_text())
        assert rep["tolerances"]["location"] == 0.5

    @pytest.mark.parametrize("argv", [
        ["solve-limiting", "--s", 0.5, "--p", 1.5, "--kappa", 1, "--L", -1],
        ["solve-limiting", "--s", 0.5, "--p", 1.5, "--kappa", 0],
        ["solve-pair", "--s", 0.5, "--p", 1.5, "--kappa", 1, "--W", 1,
         "--L", -1],
        ["evolve", "--perturb", "twist:0.1"],
        ["evolve", "--perturb", "bump:abc"],
        ["rearrange", "--shift-cells", -3],
        ["rearrange", "--shift-cells", 0],
        ["rearrange", "--shift-cells", -10],
        ["solve-pair", *PAIR, "--kappa", "nan"],
        ["solve-pair", *PAIR, "--L", "inf"],
        ["solve-pair", *PAIR, "--W", "inf"],
        ["solve-pair", *PAIR, "--eps", "inf"],
        ["solve-pair", *PAIR, "--eps", ","],
        ["evolve", "--T", "inf"],
        ["solve-limiting", *LIMITING, "--nr", 1],
        ["solve-limiting", *LIMITING, "--nr", 3],
        ["solve-limiting", *LIMITING, "--n-angles", 0],
        ["solve-limiting", *LIMITING, "--max-iter", 0],
        ["solve-limiting", *LIMITING, "--tol", "inf"],
        ["solve-limiting", *LIMITING, "--tol", -1],
        ["solve-limiting", *LIMITING, "--tol", "nan"],
        ["solve-limiting", *LIMITING, "--threads", -2],
        ["verify", "--tol-location", "nan"],
        ["verify", "--tol-weak-form", -1],
        ["evolve", "--perturb", "bump:nan"],
        ["evolve", "--perturb", "bump:inf"],
        ["evolve", "--perturb", "bump:0.05:-3"],
        ["evolve", "--seed", -1, "--perturb", "bump:0.05"],
        ["solve-pair", *PAIR, "--eps", "0.2,abc"],
        ["evolve", "--perturb", "bump:0.05:x"],
    ], ids=["limiting-L", "limiting-kappa", "pair-L", "perturb-kind",
            "perturb-amplitude", "shift-3", "shift0", "shift-10",
            "pair-kappa-nan", "pair-L-inf", "pair-W-inf", "pair-eps-inf",
            "pair-eps-empty", "evolve-T-inf", "limiting-nr1",
            "limiting-nr3", "limiting-n-angles0", "limiting-max-iter0",
            "limiting-tol-inf", "limiting-tol-1", "limiting-tol-nan",
            "limiting-threads-2", "verify-tol-nan", "verify-tol-1",
            "perturb-amplitude-nan", "perturb-amplitude-inf",
            "perturb-seed-3", "evolve-seed-1", "pair-eps-abc",
            "perturb-seed-x"])
    def test_bad_argument_leaves_no_run_directory(self, pair_run, tmp_path,
                                                  capsys, request, argv):
        out = tmp_path / "o"
        if not argv[0].startswith("solve"):
            argv = argv[:1] + ["--run", pair_run] + argv[1:]
        assert run(argv + ["--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert not out.exists()
        # a bad entry of a list-valued flag is named by its key
        for key in ("eps", "perturb"):
            if key in request.node.callspec.id.split("-"):
                assert key in err, err

    # a value just below each count key's bound; -1 for the others
    _BELOW = {"n": 8, "nr": 3, "n_angles": 0, "max_iter": 0, "threads": 0,
              "diag_every": 0, "shift_cells": 0}
    # valid values of the keys a case does not test, small enough that a
    # case the checks miss still ends soon
    _BASE = {"s": 0.5, "p": 1.5, "kappa": 1, "W": 1, "L": REGIME_L,
             "eps": 0.2, "n": 32, "nr": 64, "n_angles": 48, "tol": 1e-5,
             "T": 0.01}

    @pytest.mark.parametrize("command,key", [
        (command, key) for command, keys in _COMMAND_KEYS.items()
        for key in keys if _CONFIG_KEYS[key] in (float, int)])
    def test_every_number_key_is_checked(self, pair_run, tmp_path, capsys,
                                         command, key):
        # nan and +-inf for each float key a command reads, a value below
        # the bound for each int key; by flag where the flag takes a value,
        # and by config file
        if _CONFIG_KEYS[key] is float:
            values = ["nan", "inf", "-inf"]
        else:
            values = [str(self._BELOW.get(key, -1))]
        argv = [command]
        for k in _COMMAND_KEYS[command]:
            if k in self._BASE and k != key:
                argv += ["--" + k.replace("_", "-"), self._BASE[k]]
        if "run" in _COMMAND_KEYS[command]:
            argv += ["--run", pair_run]
        for i, value in enumerate(values):
            routes = [["--config", tmp_path / f"c{i}.cfg"]]
            (tmp_path / f"c{i}.cfg").write_text(f"{key} = {value}\n")
            if "action" not in _FLAG_OPTS.get(key, {}):
                # --k=v: argparse reads a bare "-inf" as an option
                routes.append([f"--{key.replace('_', '-')}={value}"])
            for route in routes:
                out = tmp_path / "o"
                assert run(argv + route + ["--out", out]) == 1, route
                err = capsys.readouterr().err
                assert re.search(rf"^error: .*\b{key}\b", err, re.M), err
                assert "Traceback" not in err
                assert not out.exists()

    @pytest.mark.parametrize("flags", [["--diag-every", 0], ["--cfl", 0],
                                       ["--snapshot-every", -1],
                                       ["--cfl", 0.8], ["--cfl", 5]])
    def test_bad_evolve_number_exits_usage(self, pair_run, tmp_path, capsys,
                                           flags):
        out = tmp_path / "evo"
        code = run(["evolve", "--run", pair_run, "--out", out,
                    "--T", "0.01"] + flags)
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_window_too_small_exits_usage(self, tmp_path, capsys):
        # n = 8 leaves no cell inside the window's margins: caught before
        # the limiting stage, so no partial run directory is left
        out = tmp_path / "o"
        code = run(["solve-pair", "--s", 0.5, "--p", 1.5, "--kappa", 1,
                    "--W", 1, "--L", REGIME_L, "--eps", "0.2", "--n", "8",
                    "--out", out] + FAST)
        assert code == 1
        assert "error: n=8" in capsys.readouterr().err
        assert not out.exists()

    def test_config_keys_and_flags_agree(self):
        # every config key is some command's flag and every flag a config
        # key, so a knob removed on one side cannot linger on the other
        from gsqg.cli import _CONFIG_KEYS, _build_parser

        sub = next(a for a in _build_parser()._actions
                   if a.dest == "command")
        dests = {a.dest for p in sub.choices.values() for a in p._actions}
        assert dests - {"config", "help"} == set(_CONFIG_KEYS)

    def test_bad_eps_exits_before_any_solve(self, tmp_path, capsys):
        # the bad second eps is caught before the limiting stage and the
        # eps-0.2 solve, so no partial run directory is left
        out = tmp_path / "o"
        code = run(["solve-pair", "--s", 0.5, "--p", 1.5, "--kappa", 1,
                    "--W", 1, "--L", REGIME_L, "--eps", "0.2,-0.1",
                    "--n", "32", "--out", out] + FAST)
        assert code == 1
        assert "must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_interp_removed(self, pair_run, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["evolve", "--run", pair_run, "--out", tmp_path / "a",
                 "--interp", "bilinear"])
        assert exc.value.code == 1
        cfg = tmp_path / "run.cfg"
        cfg.write_text("interp = bicubic\n")
        code = run(["evolve", "--config", cfg, "--run", pair_run,
                    "--out", tmp_path / "b"])
        assert code == 1
        assert "unknown config key 'interp'" in capsys.readouterr().err

    def test_bracket_error_exits_nonconverged(self, tmp_path, monkeypatch,
                                              capsys):
        import gsqg.limiting
        from gsqg.errors import BracketError

        def fail(*args, **kwargs):
            raise BracketError("multiplier bracket exhausted")

        monkeypatch.setattr(gsqg.limiting, "solve_limiting", fail)
        code = run(["solve-limiting", "--s", 0.5, "--p", 1.5, "--kappa", 1,
                    "--out", tmp_path / "o"])
        assert code == 2
        assert "bracket" in capsys.readouterr().err
        # the run directory appears at the first write, and there is none
        assert not (tmp_path / "o").exists()


class TestSolveLimiting:
    def test_run_products(self, tmp_path):
        out = tmp_path / "lim"
        code = run(["solve-limiting", "--s", 0.5, "--p", 1.5, "--kappa", 1,
                    "--out", out] + FAST)
        assert code == 0
        rep = json.loads((out / "limiting.json").read_text())
        assert rep["converged"] is True
        assert rep["mu0"] > 0
        assert rep["virial_residual"] <= 0.02
        rows = (out / "omega0_radial.csv").read_text().splitlines()
        assert rows[0] == "r,omega"
        assert len(rows) == 65
        manifest = json.loads((out / "manifest.json").read_text())
        listed = set(manifest["files"])
        actual = {f for f in os.listdir(out) if f != "manifest.json"}
        assert listed == actual

    @pytest.mark.parametrize("s,p,nr,resolved", [
        pytest.param(0.5, 1.8, 256, False, id="0.5-1.8-False"),
        pytest.param(0.3, 1.3, 256, False, id="0.3-1.3-False"),
        pytest.param(0.4, 1.5, 256, False, id="0.4-1.5-False"),
        pytest.param(0.5, 1.5, 256, True, id="0.5-1.5-True"),
        pytest.param(0.3, 1.3, 128, False, id="0.3-1.3-nr128-False")])
    def test_under_resolved_support_warns(self, tmp_path, s, p, nr,
                                          resolved):
        # at L=0.1 the first three collapse: 99% of kappa lies in one cell,
        # behind a faint tail whose support spans 8-9 cells (9 of 128 at
        # (0.3, 1.3), which passes a support-based test); at (0.5, 1.5) it
        # takes 69 of 256.  The warning reaches limiting.json, the exit
        # stays 0
        out = tmp_path / "lim"
        code = run(["solve-limiting", "--s", s, "--p", p, "--kappa", 1,
                    "--L", 0.1, "--nr", nr, "--out", out])
        assert code == 0
        rep = json.loads((out / "limiting.json").read_text())
        warned = [w for w in rep["warnings"]
                  if w.startswith("under-resolved:")]
        assert bool(warned) is not resolved

    def test_warnings_reach_limiting_json(self, tmp_path):
        out = tmp_path / "lim"
        code = run(["solve-limiting", "--s", 0.5, "--p", 0.8, "--kappa", 1,
                    "--out", out] + FAST)
        assert code == 0
        rep = json.loads((out / "limiting.json").read_text())
        assert any("uniqueness" in w for w in rep["warnings"])

    def test_manifest_free_of_timings(self, tmp_path):
        # wall times go to timings.json, so a repeated run leaves the
        # manifest byte-identical
        out = tmp_path / "lim"
        args = ["solve-limiting", "--s", 0.5, "--p", 1.5, "--kappa", 1,
                "--out", out] + FAST
        manifests = []
        for _ in range(2):
            assert run(args) == 0
            manifests.append((out / "manifest.json").read_bytes())
        assert manifests[0] == manifests[1]
        manifest = json.loads(manifests[0])
        assert "timings.json" in manifest["files"]
        assert "wall_time_s" not in manifest
        timings = json.loads((out / "timings.json").read_text())
        assert set(timings["wall_time_s"]) == {"solve-limiting"}


class TestSolvePair:
    def test_run_products_and_roundtrip(self, pair_run):
        rep = json.loads((pair_run / "pair_eps0p2.json").read_text())
        assert rep["converged"] is True
        assert rep["constraint_active"] is False
        assert rep["stop"] in ("floor", "plateau")
        assert rep["ascent_residual"] <= 1e-5
        assert (rep["stop"] == "floor") == (rep["ascent_residual"] <= 1e-12)
        field = read_field(pair_run / "omega_eps0p2.field")
        assert field.grid.nx == 64
        assert abs(np.sum(field.values) * field.grid.cell_area - 1.0) < 1e-8

    def test_canonical_parameters_exit_nonconverged(self, tmp_path, capsys):
        out = tmp_path / "canon"
        code = run(["solve-pair", "--s", 0.5, "--p", 1.5, "--kappa", 1,
                    "--W", 1, "--eps", "0.1", "--n", "64", "--out", out]
                   + FAST)
        assert code == 2
        assert "constraint ball" in capsys.readouterr().err
        rep = json.loads((out / "pair_eps0p1.json").read_text())
        assert rep["constraint_active"] is True
        # the failed solve's file keeps the warning that explains it
        assert any(w.endswith("eps is outside the asymptotic regime")
                   for w in rep["warnings"])

    def test_canonical_allow_active(self, tmp_path):
        out = tmp_path / "canon_ok"
        code = run(["solve-pair", "--s", 0.5, "--p", 1.5, "--kappa", 1,
                    "--W", 1, "--eps", "0.1", "--n", "64", "--allow-active",
                    "--out", out] + FAST)
        assert code == 0
        rep = json.loads((out / "pair_eps0p1.json").read_text())
        assert rep["constraint_active"] is True

    def test_determinism_bitwise(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            code = run(["solve-pair", "--s", 0.5, "--p", 1.5, "--kappa", 1,
                        "--W", 1, "--L", REGIME_L, "--eps", "0.2",
                        "--n", "48", "--out", out] + FAST)
            assert code == 0
            outs.append(out)
        fa = (outs[0] / "omega_eps0p2.field").read_bytes()
        fb = (outs[1] / "omega_eps0p2.field").read_bytes()
        assert fa == fb
        ra = (outs[0] / "pair_eps0p2.json").read_bytes()
        rb = (outs[1] / "pair_eps0p2.json").read_bytes()
        assert ra == rb


class TestVerify:
    def test_pass_table(self, pair_run, tmp_path):
        out = tmp_path / "verify"
        # the coarse n=64 run floors near 1e-5; configure the EL tolerance
        code = run(["verify", "--run", pair_run, "--out", out,
                    "--tol-fixed-point", "1e-4"])
        assert code == 0
        rep = json.loads((out / "verify.json").read_text())
        rows = {(r["eps"], r["identity"]): r for r in rep["table"]}
        for key in ("fixed_point", "location", "multiplier", "weak_form",
                    "steiner", "bracket"):
            assert rows[(0.2, key)]["pass"], rows[(0.2, key)]
        csv = (out / "verify.csv").read_text().splitlines()
        assert csv[0] == "eps,identity,value,tolerance,pass"

    def test_values_match_solve_report(self, pair_run, tmp_path):
        # verify reads the battery the solve wrote: one certification path
        out = tmp_path / "verify_same"
        run(["verify", "--run", pair_run, "--out", out,
             "--tol-fixed-point", "1e-4"])
        rep = json.loads((pair_run / "pair_eps0p2.json").read_text())
        values = {}
        for row in (out / "verify.csv").read_text().splitlines()[1:]:
            _, identity, value, _, _ = row.split(",")
            values[identity] = float(value)
        assert values["location"] == rep["location_identity_residual"]
        assert values["multiplier"] == rep["multiplier_identity_residual"]
        assert values["weak_form"] == rep["weak_form_residual_max"]
        assert values["s_eps_sup"] == rep["S_eps_sup"]

    def test_failure_exit_code_names_identity(self, pair_run, tmp_path,
                                              capsys):
        out = tmp_path / "verify_fail"
        code = run(["verify", "--run", pair_run, "--out", out,
                    "--tol-fixed-point", "1e-4", "--tol-location", "1e-9"])
        assert code == 3
        err = capsys.readouterr().err
        assert "location" in err

    def test_model_read_from_the_pair_file(self, pair_run, tmp_path):
        # pair_eps*.json carries L, so verify needs nothing from the
        # solve's manifest config
        rep = json.loads((pair_run / "pair_eps0p2.json").read_text())
        assert rep["L"] == REGIME_L
        bare = tmp_path / "bare"
        shutil.copytree(pair_run, bare)
        manifest = json.loads((bare / "manifest.json").read_text())
        del manifest["config"]["L"]
        (bare / "manifest.json").write_text(json.dumps(manifest))
        tables = []
        for src, tag in ((pair_run, "full"), (bare, "bare")):
            out = tmp_path / f"v_{tag}"
            assert run(["verify", "--run", src, "--out", out,
                        "--tol-fixed-point", "1e-4"]) == 0
            tables.append((out / "verify.json").read_bytes())
        assert tables[0] == tables[1]

    def test_missing_run(self, tmp_path, capsys):
        code = run(["verify", "--run", tmp_path / "nope"])
        assert code == 1

    @pytest.mark.parametrize("command", [
        ["verify"], ["evolve", "--T", "0.01"], ["rearrange"]])
    def test_pair_file_without_a_key_exits_usage(
            self, pair_run_two_eps, tmp_path, capsys, command):
        # pair files written before "L" was recorded lack it
        old = tmp_path / "old"
        shutil.copytree(pair_run_two_eps, old)
        rep = json.loads((old / "pair_eps0p1.json").read_text())
        del rep["L"]
        (old / "pair_eps0p1.json").write_text(json.dumps(rep))
        code = run([command[0], "--run", old, "--out", tmp_path / "o"]
                   + command[1:])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "pair_eps0p1.json" in err and "'L'" in err
        assert "Traceback" not in err


    def test_pair_file_with_null_L_still_loads(self, tmp_path):
        # pair files written before the resolved L was recorded carry
        # "L": null, which stands for the canonical L = p/(p+1)
        new = tmp_path / "new"
        assert run(["solve-pair", "--s", 0.5, "--p", 1.5, "--kappa", 1,
                    "--W", 1, "--eps", "0.1", "--n", "64", "--allow-active",
                    "--out", new] + FAST) == 0
        rep = json.loads((new / "pair_eps0p1.json").read_text())
        assert rep["L"] == 1.5 / 2.5
        old = tmp_path / "old"
        shutil.copytree(new, old)
        rep["L"] = None
        (old / "pair_eps0p1.json").write_text(json.dumps(rep))
        codes, tables = [], []
        for src in (new, old):
            codes.append(run(["verify", "--run", src, "--out", src / "v"]))
            tables.append((src / "v" / "verify.json").read_bytes())
        assert codes[0] == codes[1] and codes[0] in (0, 3)
        assert tables[0] == tables[1]
        assert run(["evolve", "--run", old, "--out", old / "e",
                    "--T", "0.01"]) == 0
        assert run(["rearrange", "--run", old, "--out", old / "r"]) == 0

    @pytest.mark.parametrize("key,value", [
        ("s", 1.2), ("p", 0), ("p", None), ("p", "1.5"), ("p", True),
        ("p", 3.0), ("kappa", math.nan), ("W", math.inf)])
    @pytest.mark.parametrize("command", [
        ["verify"], ["evolve", "--T", "0.01"], ["rearrange"]])
    def test_pair_file_out_of_range_exits_usage(
            self, pair_run_two_eps, tmp_path, capsys, command, key, value):
        # a damaged model fails when the pair file is loaded, before the
        # command writes: not a number, out of range, or (p 3 at s 0.5)
        # past the growth bound p < 1/(1-s)
        bad = tmp_path / "bad"
        shutil.copytree(pair_run_two_eps, bad)
        rep = json.loads((bad / "pair_eps0p1.json").read_text())
        rep[key] = value
        (bad / "pair_eps0p1.json").write_text(json.dumps(rep))
        out = tmp_path / "o"
        code = run([command[0], "--run", bad, "--out", out] + command[1:])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert re.search(rf"\b{key}\b", err)
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("value", [None, "-0.1", math.nan, KeyError],
                             ids=["null", "string", "nan", "missing"])
    def test_limiting_file_without_a_finite_E0_exits_usage(
            self, pair_run, tmp_path, capsys, value):
        # verify reads the ground-state energy E0 for its bracket identity
        bad = tmp_path / "bad"
        shutil.copytree(pair_run, bad)
        rep = json.loads((bad / "limiting.json").read_text())
        if value is KeyError:
            del rep["E0"]
        else:
            rep["E0"] = value
        (bad / "limiting.json").write_text(json.dumps(rep))
        out = tmp_path / "o"
        assert run(["verify", "--run", bad, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "limiting.json" in err and "'E0'" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_field_grid_beyond_its_rows_exits_usage(self, pair_run, tmp_path,
                                                    capsys):
        # a grid line naming 1e11 columns fails on the rows the file holds,
        # before an array of that size is asked for
        bad = tmp_path / "bad"
        shutil.copytree(pair_run, bad)
        path = bad / "omega_eps0p2.field"
        lines = path.read_text().split("\n")
        lines[1] = " ".join(["100000000000"] + lines[1].split()[1:])
        path.write_text("\n".join(lines))
        out = tmp_path / "o"
        assert run(["verify", "--run", bad, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "row 0" in err
        assert "Traceback" not in err
        assert not out.exists()


def _run_quietly(args):
    """Exit code and stderr of one command (capsys is per test, and a
    hypothesis test runs many commands)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(args)
    return code, err.getvalue()


# one corruption of a value in a run file: no number, a non-finite one,
# zero or a negative one
_CORRUPT = [None, "abc", "1.5", True, math.nan, math.inf, -math.inf, 0, -1.0]


class TestFileInputs:
    """A pair file or config file with one corrupted value ends its
    command with exit 0, 1, 2 or 3 and no traceback; exit 1 comes with an
    error: line and leaves no run directory."""

    @given(case=st.sampled_from(
        [(k, v) for k in _PAIR_KEYS for v in _CORRUPT]
        + [("p", 3.0), ("s", 0.2)]),  # past the growth bound p < 1/(1-s)
        command=st.sampled_from([["verify"], ["evolve", "--T", "0.01"],
                                 ["rearrange"]]))
    @settings(max_examples=40, deadline=None)
    def test_corrupt_pair_file(self, pair_run, tmp_path_factory, case,
                               command):
        key, value = case
        work = tmp_path_factory.mktemp("pair_file")
        shutil.copytree(pair_run, work / "run")
        path = work / "run" / "pair_eps0p2.json"
        rep = json.loads(path.read_text())
        rep[key] = value
        path.write_text(json.dumps(rep))
        code, err = _run_quietly([command[0], "--run", work / "run",
                                  "--out", work / "o"] + command[1:])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err
        if code == 1:
            assert err.startswith("error:")
            assert not (work / "o").exists()

    @given(case=st.sampled_from(
        [(k, v) for k in ("s", "p", "kappa", "L", "nr", "n_angles", "tol",
                          "max_iter", "threads")
         for v in ("null", "abc", "true", "NaN", "Infinity", "-Infinity",
                   "0", "-1")]
        + [("p", "2.5"), ("s", "0.2")]))
    @settings(max_examples=40, deadline=None)
    def test_corrupt_config_line(self, tmp_path_factory, case):
        key, value = case
        lines = {"s": "0.5", "p": "1.5", "kappa": "1", "L": str(REGIME_L),
                 "nr": "64", "n_angles": "48", "tol": "1e-5",
                 "max_iter": "2000", "threads": "1", key: value}
        work = tmp_path_factory.mktemp("config")
        (work / "run.cfg").write_text(
            "".join(f"{k} = {v}\n" for k, v in lines.items()))
        code, err = _run_quietly(["solve-limiting", "--config",
                                  work / "run.cfg", "--out", work / "o"])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in err
        if code == 1:
            assert err.startswith("error:")
            assert not (work / "o").exists()


class TestEvolveCmd:
    def test_unperturbed_trajectory(self, pair_run, tmp_path):
        out = tmp_path / "evo"
        code = run(["evolve", "--run", pair_run, "--out", out,
                    "--T", "0.02", "--diag-every", "5",
                    "--snapshot-every", "20"])
        assert code == 0
        lines = (out / "trajectory.csv").read_text().splitlines()
        assert lines[0] == \
            "t,mass,impulse,energy,l1,l2,linf,orbital_distance,shift_c"
        assert len(lines) >= 3
        rep = json.loads((out / "evolve.json").read_text())
        # coarse desk-size run: just sanity, accuracy is tested elsewhere
        assert rep["mass_drift"] <= 0.05
        # the mass budget closes: final = initial - outflow + scheme error
        assert rep["outflow"] >= rep["outflow_max_step"] >= 0.0
        assert abs(rep["scheme_error"]) <= 1e-12 * rep["mass_0"]
        assert rep["mass_final"] == pytest.approx(
            rep["mass_0"] - rep["outflow"] + rep["scheme_error"],
            rel=0, abs=1e-15 * rep["mass_0"])
        snaps = [f for f in os.listdir(out) if f.startswith("snapshot_")]
        assert snaps and all(f.endswith(".field") for f in snaps)
        manifest = json.loads((out / "manifest.json").read_text())
        for f in snaps:
            assert f in manifest["files"]

    def test_perturbation_table(self, pair_run, tmp_path):
        out = tmp_path / "evo_pert"
        code = run(["evolve", "--run", pair_run, "--out", out,
                    "--T", "0.01", "--perturb", "bump:0.05",
                    "--perturb", "bump:0.025", "--seed", "3"])
        assert code == 0
        rep = json.loads((out / "evolve.json").read_text())
        assert len(rep["experiments"]) == 2
        sup = [r["sup_distance"] for r in rep["experiments"]]
        assert all(v >= 0 for v in sup)
        assert (out / "stability.csv").exists()

    def test_perturb_none_is_a_control_trial(self, pair_run, tmp_path):
        # any --perturb gives the experiments table, whatever its seed; a
        # config "perturb" with no spec stays unperturbed
        out = tmp_path / "evo_none"
        assert run(["evolve", "--run", pair_run, "--out", out,
                    "--T", "0.01", "--perturb", "none"]) == 0
        rows = (out / "stability.csv").read_text().splitlines()
        assert len(rows) == 2
        assert float(rows[1].split(",")[3]) == 0.0
        rep = json.loads((out / "evolve.json").read_text())
        assert [r["delta_meas"] for r in rep["experiments"]] == [0.0]
        assert not (out / "trajectory.csv").exists()
        cfg = tmp_path / "run.cfg"
        cfg.write_text("perturb = ;\n")
        out = tmp_path / "evo_empty"
        assert run(["evolve", "--run", pair_run, "--out", out,
                    "--T", "0.01", "--config", cfg]) == 0
        assert (out / "trajectory.csv").exists()
        assert not (out / "stability.csv").exists()

    def test_shear_and_dimple_rows_pinned(self, pair_run, tmp_path):
        # the other two kinds through the CLI.  The rows are pinned to 17
        # digits (x86-64, numpy 2.4, scipy 1.17), so a change that moves
        # any bit of the perturbation or the transport fails here.
        out = tmp_path / "evo_kinds"
        assert run(["evolve", "--run", pair_run, "--out", out, "--T", "0.01",
                    "--perturb", "shear:0.05", "--perturb", "dimple:0.03:7",
                    "--seed", "5"]) == 0
        assert (out / "stability.csv").read_text().splitlines() == [
            "kind,amplitude,seed,delta_meas,sup_distance,final_distance",
            "shear,0.05,5,0.24427038064487416,0.24426194509560173,"
            "0.22770451565377361",
            "dimple,0.03,7,0.060863239499316713,0.20055177150442638,"
            "0.20055177150442638"]

    def test_threads_bitwise(self, pair_run, tmp_path, monkeypatch):
        import scipy.fft
        import gsqg.kernels
        workers = set()
        forward = gsqg.kernels._Lattice.forward

        def spy(*args, **kwargs):
            workers.add(scipy.fft.get_workers())
            return forward(*args, **kwargs)

        monkeypatch.setattr(gsqg.kernels._Lattice, "forward", spy)
        outs = []
        for threads in (1, 2):
            out = tmp_path / f"threads{threads}"
            code = run(["evolve", "--run", pair_run, "--out", out,
                        "--T", "0.01", "--perturb", "bump:0.05",
                        "--seed", "3", "--threads", threads])
            assert code == 0
            outs.append(out)
        assert workers == {1, 2}
        for name in ("evolve.json", "stability.csv"):
            assert ((outs[0] / name).read_bytes()
                    == (outs[1] / name).read_bytes())
        # the pair solve: limiting stage, both eps and their fields
        workers.clear()
        pairs = []
        for threads in (1, 2):
            out = tmp_path / f"pair_threads{threads}"
            code = run(["solve-pair", "--s", 0.5, "--p", 1.5, "--kappa", 1,
                        "--W", 1, "--L", REGIME_L, "--eps", "0.2,0.1",
                        "--n", "64", "--threads", threads, "--out", out]
                       + FAST)
            assert code == 0
            pairs.append(out)
        assert workers == {1, 2}
        for name in ("limiting.json", "pair_eps0p2.json", "pair_eps0p1.json",
                     "omega_eps0p2.field", "omega_eps0p1.field"):
            assert ((pairs[0] / name).read_bytes()
                    == (pairs[1] / name).read_bytes()), name


class TestRunChain:
    def test_verify_then_evolve_in_place(self, pair_run, tmp_path):
        # README's solve-pair -> verify -> evolve on one run directory
        out = tmp_path / "chain"
        shutil.copytree(pair_run, out)
        assert run(["verify", "--run", out, "--tol-fixed-point", "1e-4"]) == 0
        assert run(["evolve", "--run", out, "--T", "0.01"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        for f in ("limiting.json", "pair_eps0p2.json", "omega_eps0p2.field",
                  "verify.csv", "verify.json", "trajectory.csv",
                  "evolve.json"):
            assert f in manifest["files"]
        assert set(manifest["stages"]) == {"limiting", "pair_eps0p2",
                                           "verify", "evolve"}
        assert manifest["config"]["L"] == REGIME_L
        timings = json.loads((out / "timings.json").read_text())
        assert set(timings["wall_time_s"]) == {"solve-pair", "verify",
                                               "evolve"}


    def test_convergence_error_leaves_no_manifest(self, tmp_path,
                                                  monkeypatch, capsys):
        # the limiting stage has written when the pair solve raises: its
        # file stays, and no manifest claims a finished run
        import gsqg.pair
        from gsqg.errors import ConvergenceError

        def fail(*args, **kwargs):
            raise ConvergenceError("pair solve stalled")

        monkeypatch.setattr(gsqg.pair, "solve_pair", fail)
        out = tmp_path / "o"
        assert run(["solve-pair", *PAIR, "--eps", "0.2", "--out", out]
                   + FAST) == 2
        assert "stalled" in capsys.readouterr().err
        assert (out / "limiting.json").exists()
        assert not (out / "manifest.json").exists()

    def test_whole_chain_deterministic(self, tmp_path):
        # solve-pair -> verify -> evolve (plain, then perturbed) ->
        # rearrange -> report, twice: every file but timings.json is
        # byte-identical once the run directory's path is factored out
        chain = [["solve-pair", *PAIR, "--eps", "0.2", *FAST],
                 ["verify", "--tol-fixed-point", "1e-4"],
                 ["evolve", "--T", "0.01"],
                 ["evolve", "--T", "0.01", "--perturb", "bump:0.05"],
                 ["rearrange"], ["report"]]
        files = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            for argv in chain:
                where = "--out" if argv[0] == "solve-pair" else "--run"
                assert run(argv[:1] + [where, out] + argv[1:]) == 0, argv
            got = {}
            for name in sorted(os.listdir(out)):
                data = (out / name).read_bytes()
                if name in ("manifest.json", "summary.json"):
                    data = data.replace(str(out).encode(), b"<run>")
                got[name] = data
            files.append(got)
        assert "stability.csv" in files[0] and "summary.csv" in files[0]
        del files[0]["timings.json"], files[1]["timings.json"]
        assert files[0] == files[1]


class TestColdStart:
    def test_commands_without_a_transform_never_load_scipy(self, tmp_path):
        # the ring quadrature and the report run no FFT; a fresh interpreter
        # shows what they import.  Building a lattice is the control.
        import gsqg
        script = "\n".join([
            "import sys",
            "from gsqg.cli import main",
            "def scipy_modules():",
            "    return sum(m.split('.')[0] == 'scipy' for m in sys.modules)",
            f"out = {str(tmp_path / 'lim')!r}",
            "assert main(['solve-limiting', '--s', '0.5', '--p', '1.5',",
            "             '--kappa', '1', '--nr', '64', '--out', out]) == 0",
            "assert main(['report', '--run', out]) == 0",
            "print(scipy_modules())",
            "from gsqg.kernels import _Lattice",
            "_Lattice(4, 4)",
            "print(scipy_modules() > 0)"])
        src = os.path.dirname(os.path.dirname(os.path.abspath(gsqg.__file__)))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ,
                   PYTHONPATH=src + (os.pathsep + path if path else ""))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "True"]


class TestManifest:
    @pytest.mark.parametrize("damage", [
        "no-files", "no-config", "files-not-names", "list"])
    @pytest.mark.parametrize("command", [
        ["verify"], ["evolve", "--T", "0.01"], ["rearrange"], ["report"]],
        ids=["verify", "evolve", "rearrange", "report"])
    def test_malformed_manifest_exits_usage(self, pair_run, tmp_path, capsys,
                                            command, damage):
        bad = tmp_path / "bad"
        shutil.copytree(pair_run, bad)
        manifest = json.loads((bad / "manifest.json").read_text())
        if damage == "no-files":
            del manifest["files"]
        elif damage == "no-config":
            del manifest["config"]
        elif damage == "files-not-names":
            manifest["files"] = [1] + manifest["files"]
        else:
            manifest = [manifest]
        (bad / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "o"
        assert run([command[0], "--run", bad, "--out", out]
                   + command[1:]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "manifest.json" in err
        assert "Traceback" not in err
        assert not out.exists()
        # in place, the run directory that the command extends is checked
        before = sorted(os.listdir(bad))
        assert run([command[0], "--run", bad] + command[1:]) == 1
        assert "manifest.json" in capsys.readouterr().err
        assert sorted(os.listdir(bad)) == before


    @pytest.mark.parametrize("timings", [
        {}, [], {"wall_time_s": []}, {"wall_time_s": {"solve-pair": "1"}}],
        ids=["empty", "list", "times-list", "time-text"])
    @pytest.mark.parametrize("command", [
        ["verify"], ["evolve", "--T", "0.01"], ["rearrange"], ["report"]],
        ids=["verify", "evolve", "rearrange", "report"])
    def test_malformed_timings_exits_usage_in_place(
            self, pair_run, tmp_path, capsys, command, timings):
        # timings.json is read only by a command that extends its run
        bad = tmp_path / "bad"
        shutil.copytree(pair_run, bad)
        (bad / "timings.json").write_text(json.dumps(timings))
        before = {f: (bad / f).read_bytes() for f in os.listdir(bad)}
        assert run([command[0], "--run", bad] + command[1:]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "timings.json" in err
        assert "Traceback" not in err
        assert {f: (bad / f).read_bytes() for f in os.listdir(bad)} == before


class TestWhichPair:
    # evolve and rearrange take the first pair in manifest order, eps 0.1
    # of a run solved at eps 0.2,0.1, and record it
    @pytest.mark.parametrize("args,name", [
        (["evolve", "--T", "0.01"], "evolve.json"),
        (["evolve", "--T", "0.01", "--perturb", "bump:0.05"], "evolve.json"),
        (["rearrange", "--shift-cells", "3"], "rearrange.json")])
    def test_records_eps(self, pair_run_two_eps, tmp_path, args, name):
        out = tmp_path / "o"
        assert run([args[0], "--run", pair_run_two_eps, "--out", out]
                   + args[1:]) == 0
        assert json.loads((out / name).read_text())["eps"] == 0.1


class TestRearrangeCmd:
    def test_collapse_report(self, pair_run, tmp_path):
        out = tmp_path / "rearr"
        code = run(["rearrange", "--run", pair_run, "--out", out,
                    "--shift-cells", "3"])
        assert code == 0
        rep = json.loads((out / "rearrange.json").read_text())
        assert rep["energy_trace_monotone"] is True
        assert rep["equimeasurable"] is True
        assert rep["collapsed_to_translate"] is True


class TestReportCmd:
    def test_aggregates(self, pair_run, tmp_path):
        out = tmp_path / "rep"
        code = run(["report", "--run", pair_run, "--out", out])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "limiting" in summary["stages"]
        rep = summary["stages"]["pair_eps0p2"]
        rows = (out / "summary.csv").read_text().splitlines()
        assert f"pair_eps0p2,stop,{rep['stop']}" in rows
        assert f"pair_eps0p2,ascent_residual,{rep['ascent_residual']}" in rows

    @pytest.mark.parametrize("stage", [[1], "text", None])
    def test_stage_file_not_an_object_exits_usage(self, pair_run, tmp_path,
                                                  capsys, stage):
        bad = tmp_path / "bad"
        shutil.copytree(pair_run, bad)
        (bad / "limiting.json").write_text(json.dumps(stage))
        out = tmp_path / "rep"
        assert run(["report", "--run", bad, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "limiting.json" in err
        assert "Traceback" not in err
        assert not out.exists()
