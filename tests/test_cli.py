"""Command-line interface: outputs, formats, config precedence, exit codes."""

import csv
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from fkwaves import BACKEND, ModelParams, kinetic_wave, resonance_velocities
from fkwaves.cli import _build_parser, main

V0_ALPHA0 = 0.3570147628397361
FIRST_RESONANCE_V = 0.24441475248391872
README = Path(__file__).resolve().parent.parent / "README.md"
SUBCOMMANDS = ["kinetic", "wave", "shape", "bifurcation", "resonances",
               "simulate", "threshold"]


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestThreshold:
    def test_v0_json(self, tmp_path):
        out = tmp_path / "v0.json"
        assert main(["threshold", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert set(data) == {"V0", "mu", "alpha"}
        assert data["V0"] == pytest.approx(V0_ALPHA0, abs=1e-12)
        assert data["mu"] == 1.0 and data["alpha"] == 0.0

    def test_dynamic_json(self, tmp_path):
        out = tmp_path / "sd.json"
        assert main(["threshold", "--dynamic", "--n", "1000", "--t-final",
                     "100", "--tol", "0.02", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert set(data) == {"sigma_D", "bracket", "runs", "backend"}
        lo, hi = data["bracket"]
        assert lo < data["sigma_D"] < hi and hi - lo <= 0.02
        # both endpoints, then one run per bisection step
        assert len(data["runs"]) >= 2
        assert {c for _, c in data["runs"]} == {"Trapped", "Steady"}
        assert data["backend"] == BACKEND

    def test_no_sign_change_exit(self, capsys):
        # strong damping keeps q(0) on one side over the whole V0 scan
        assert main(["threshold", "--alpha", "2"]) == 3
        assert "q(0) does not change sign" in capsys.readouterr().err

    def test_quadrature_fail_exit(self, capsys):
        # the tail bound's damping part alpha/(V K) does not shrink with V
        assert main(["threshold", "--alpha", "12"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: QuadratureFail: ")
        assert "alpha=12" in err


class TestResonances:
    def test_csv_to_stdout(self, capsys):
        assert main(["resonances"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "V,k"
        assert len(lines) == 6
        V0, k0 = (float(tok) for tok in lines[1].split(","))
        assert V0 == FIRST_RESONANCE_V  # %.17g round-trips exactly

    def test_count(self, capsys):
        assert main(["resonances", "--count", "3"]) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 4


class TestKinetic:
    def test_rows_and_roundtrip(self, tmp_path, params):
        out = tmp_path / "kin.csv"
        assert main(["kinetic", "--velocities", "0.45,0.5",
                     "--out", str(out)]) == 0
        header, rows = read_csv(str(out))
        assert header == ["V", "sigma", "z", "branch", "admissible", "flag"]
        assert [r[3] for r in rows] == ["ac", "ac"]
        assert [r[4] for r in rows] == ["true", "true"]
        # written with %.17g: parses back to the exact double
        assert float(rows[1][1]) == kinetic_wave(0.5, params).sigma
        assert float(rows[0][2]) == 0.0

    def test_velocity_grid(self, capsys):
        # without --velocities the grid is linspace(v_min, v_max, n_points)
        assert main(["kinetic", "--v-min", "0.45", "--v-max", "0.55",
                     "--n-points", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert [float(r[0]) for r in rows] == [0.45, 0.5, 0.55]
        assert [r[3:] for r in rows] == [["ac", "true", "ok"]] * 3


class TestWaveFiles:
    def test_trio_and_determinism(self, tmp_path):
        base = tmp_path / "w05"
        args = ["wave", "--velocity", "0.5", "--out", str(base),
                "--n-samples", "101", "--xi-min", "-10", "--xi-max", "10"]
        assert main(args) == 0
        header, rows = read_csv(str(base) + ".csv")
        assert header == ["xi", "u"] and len(rows) == 101
        meta = json.loads((tmp_path / "w05.json").read_text())
        assert set(meta) == {"V", "z", "sigma", "residual"}
        assert meta["z"] == 0.0
        first = (base.with_suffix(".csv").read_bytes(),
                 (tmp_path / "w05.json").read_bytes())
        assert main(args) == 0
        again = (base.with_suffix(".csv").read_bytes(),
                 (tmp_path / "w05.json").read_bytes())
        assert first == again

    def test_small_plateau_near_threshold(self, tmp_path):
        # z(0.355) lies below Z_RANGE, inside the scan's geometric run
        base = tmp_path / "w0355"
        assert main(["wave", "--velocity", "0.355", "--n-samples", "11",
                     "--out", str(base)]) == 0
        meta = json.loads((tmp_path / "w0355.json").read_text())
        assert meta["z"] == pytest.approx(0.0022178, rel=1e-4)

    def test_shape_sidecar(self, tmp_path):
        base = tmp_path / "s03"
        assert main(["shape", "--velocity", "0.3", "--m", "40",
                     "--out", str(base)]) == 0
        header, rows = read_csv(str(base) + ".csv")
        assert header == ["s", "mass"] and len(rows) == 40
        meta = json.loads((tmp_path / "s03.json").read_text())
        assert set(meta) == {"V", "z", "sigma", "residual"}
        assert meta["z"] > 0.0
        s, mass = np.array(rows, float).T
        assert s[0] == -meta["z"] and s[-1] == meta["z"]
        assert abs(mass.sum() - 1.0) <= 1e-12

    def test_classical_shape_is_one_atom(self, tmp_path):
        base = tmp_path / "s05"
        assert main(["shape", "--velocity", "0.5", "--out", str(base)]) == 0
        header, rows = read_csv(str(base) + ".csv")
        assert header == ["s", "mass"] and rows == [["0", "1"]]
        meta = json.loads((tmp_path / "s05.json").read_text())
        assert meta["z"] == 0.0


class TestSimulate:
    def test_riemann_trio(self, tmp_path):
        base = tmp_path / "run"
        assert main(["simulate", "--sigma", "0.05", "--n", "300",
                     "--t-final", "30", "--out", str(base)]) == 0
        hdr_f, rows_f = read_csv(str(base) + "_front.csv")
        assert hdr_f == ["t", "nu"] and len(rows_f) == 31
        hdr_s, rows_s = read_csv(str(base) + "_snapshot.csv")
        assert hdr_s == ["n", "u", "v"] and len(rows_s) == 301
        outcome = json.loads((tmp_path / "run_outcome.json").read_text())
        assert outcome["classification"] == "Trapped"
        assert outcome["velocity"] == 0.0
        assert outcome["sigma"] == 0.05
        assert outcome["flags"] == []
        assert outcome["backend"] == BACKEND

    def test_edge_run_records_its_flag(self, tmp_path):
        base = tmp_path / "edge"
        assert main(["simulate", "--sigma", "0.3", "--n", "200",
                     "--t-final", "200", "--out", str(base)]) == 0
        outcome = json.loads((tmp_path / "edge_outcome.json").read_text())
        assert outcome["classification"] == "Inconclusive"
        assert outcome["flags"] == ["EDGE"]
        assert outcome["velocity"] is None
        assert outcome["backend"] == BACKEND

    def test_wave_trio(self, tmp_path):
        base = tmp_path / "wave"
        assert main(["simulate", "--ic", "wave", "--velocity", "0.5",
                     "--n", "300", "--t-final", "20", "--out",
                     str(base)]) == 0
        hdr_f, rows_f = read_csv(str(base) + "_front.csv")
        assert hdr_f == ["t", "nu"] and len(rows_f) == 21
        hdr_s, rows_s = read_csv(str(base) + "_snapshot.csv")
        assert hdr_s == ["n", "u", "v"] and len(rows_s) == 301
        outcome = json.loads((tmp_path / "wave_outcome.json").read_text())
        assert outcome["backend"] == BACKEND
        # the wave carries its own stress, sigma_AC(0.5) on this branch
        assert outcome["sigma"] == kinetic_wave(0.5, ModelParams()).sigma

    def test_wave_ic_rejects_sigma(self, tmp_path):
        rc = main(["simulate", "--ic", "wave", "--velocity", "0.5",
                   "--sigma", "0.1", "--out", str(tmp_path / "x")])
        assert rc == 2

    @pytest.mark.parametrize("args, missing", [
        ([], "--sigma"),
        (["--ic", "wave"], "--velocity"),
    ], ids=["riemann", "wave"])
    def test_initial_condition_needs_its_flag(self, args, missing, tmp_path,
                                              capsys):
        assert main(["simulate", *args, "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {missing} is "
                                                  "required")


class TestBifurcation:
    def test_skip_numeric_row(self, tmp_path):
        out = tmp_path / "bif.csv"
        assert main(["bifurcation", "--velocities", "0.35",
                     "--skip-numeric", "--out", str(out)]) == 0
        header, rows = read_csv(str(out))
        assert header == ["V", "z_numeric", "z_linear", "z_quartic",
                          "q0", "q_plus", "q_minus"]
        assert np.isnan(float(rows[0][1]))
        assert float(rows[0][3]) > 0.0


class TestConfigAndErrors:
    def test_precedence_flag_over_config(self, tmp_path, capsys):
        cfgf = tmp_path / "cfg.json"
        cfgf.write_text(json.dumps({"mu": 2.0, "count": 1}))
        # config alone: mu = 2
        assert main(["resonances", "--config", str(cfgf)]) == 0
        v_cfg = float(capsys.readouterr().out.strip().splitlines()[1].split(",")[0])
        assert v_cfg == resonance_velocities(ModelParams(2.0, 0.0), count=1)[0][0]
        # explicit flag wins over config
        assert main(["resonances", "--config", str(cfgf), "--mu", "1.0"]) == 0
        v_flag = float(capsys.readouterr().out.strip().splitlines()[1].split(",")[0])
        assert v_flag == resonance_velocities(ModelParams(1.0, 0.0), count=1)[0][0]

    def test_config_sets_velocity(self, tmp_path):
        cfgf = tmp_path / "cfg.json"
        cfgf.write_text(json.dumps({"velocity": 0.5}))
        assert main(["wave", "--config", str(cfgf), "--n-samples", "11",
                     "--out", str(tmp_path / "w")]) == 0
        assert json.loads((tmp_path / "w.json").read_text())["V"] == 0.5
        # the flag still wins over the file
        assert main(["shape", "--config", str(cfgf), "--velocity", "0.4",
                     "--out", str(tmp_path / "s")]) == 0
        assert json.loads((tmp_path / "s.json").read_text())["V"] == 0.4

    @pytest.mark.parametrize("command", ["wave", "shape"])
    def test_velocity_from_neither_flag_nor_config(self, command, tmp_path,
                                                   capsys):
        cfgf = tmp_path / "cfg.json"
        cfgf.write_text(json.dumps({"mu": 1.0}))
        assert main([command, "--config", str(cfgf),
                     "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith(
            "error: --velocity is required")

    def test_unknown_config_key(self, tmp_path):
        cfgf = tmp_path / "bad.json"
        cfgf.write_text(json.dumps({"bogus_key": 1}))
        assert main(["resonances", "--config", str(cfgf)]) == 2

    def test_removed_z_window_key(self, tmp_path):
        # the plateau scan's z grid is fixed, so no config key sets it
        cfgf = tmp_path / "old.json"
        cfgf.write_text(json.dumps({"z_min": 5e-4}))
        assert main(["bifurcation", "--config", str(cfgf),
                     "--skip-numeric"]) == 2

    def test_removed_kernel_option(self, tmp_path, capsys):
        # the plateau pipeline reads the kernel one way, so neither the
        # flag nor the config key picks it
        with pytest.raises(SystemExit) as exc:
            main(["kinetic", "--kernel", "residue"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --kernel" in capsys.readouterr().err
        cfgf = tmp_path / "old.json"
        cfgf.write_text(json.dumps({"kernel": "quad"}))
        assert main(["kinetic", "--config", str(cfgf)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: unknown config keys for kinetic: kernel")

    @pytest.mark.parametrize("content, message", [
        (None, "cannot read config"),
        ("{not json", "cannot read config"),
        ("[1, 2]", "config must be a JSON object"),
    ], ids=["missing", "invalid", "list"])
    def test_unreadable_config(self, content, message, tmp_path, capsys):
        cfgf = tmp_path / "cfg.json"
        if content is not None:
            cfgf.write_text(content)
        assert main(["resonances", "--config", str(cfgf)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize("command, config, message", [
        ("resonances", {"mu": [1]}, "config key mu takes a number"),
        ("resonances", {"mu": True}, "config key mu takes a number"),
        ("resonances", {"count": 2.0}, "config key count takes an integer"),
        ("kinetic", {"velocities": 0.2},
         "config key velocities takes a string"),
        ("threshold", {"dynamic": "no"},
         "config key dynamic takes true or false"),
        ("simulate", {"ic": "bogus"},
         "config key ic takes one of riemann, wave"),
        ("wave", {"velocity": None}, "config key velocity takes a number"),
    ], ids=["list", "bool-for-number", "float-for-int", "number-for-text",
            "text-for-switch", "bad-choice", "null"])
    def test_config_value_of_wrong_type(self, command, config, message,
                                        tmp_path, capsys):
        cfgf = tmp_path / "cfg.json"
        cfgf.write_text(json.dumps(config))
        assert main([command, "--config", str(cfgf),
                     "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_config_value_as_flag_text(self, tmp_path, capsys):
        # a string is read as the flag's text, an integer as a float
        rows = []
        for mu in ("2", 2):
            cfgf = tmp_path / "cfg.json"
            cfgf.write_text(json.dumps({"mu": mu, "count": 1}))
            assert main(["resonances", "--config", str(cfgf)]) == 0
            rows.append(capsys.readouterr().out)
        assert rows[0] == rows[1]
        v = float(rows[0].strip().splitlines()[1].split(",")[0])
        assert v == resonance_velocities(ModelParams(2.0, 0.0), count=1)[0][0]

    def test_missing_out(self):
        assert main(["wave", "--velocity", "0.5"]) == 2

    @pytest.mark.parametrize("args", [
        ["wave", "--velocity", "-0.2"],
        ["shape", "--velocity", "0.3", "--m", "2"],
        ["simulate", "--sigma", "0.05", "--n", "1"],
        ["threshold", "--mu", "-1"],
        ["threshold", "--alpha", "nan"],
        ["bifurcation", "--velocities", "0.34", "--m", "2"],
        ["simulate", "--sigma", "0.05", "--dt", "0"],
        ["simulate", "--ic", "riemann", "--sigma", "0.14", "--dt", "1e-300"],
        ["simulate", "--sigma", "0.05", "--t-final", "3"],
        ["simulate", "--sigma", "nan"],
        ["wave", "--velocity", "0.5", "--xi-min", "nan", "--n-samples", "3"],
    ])
    def test_bad_argument_is_usage_error(self, args, tmp_path, capsys):
        assert main(args + ["--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("alpha", ["0", "0.1"])
    @pytest.mark.parametrize("velocity", ["nan", "inf", "0", "-0.2"])
    @pytest.mark.parametrize("command", ["wave", "shape"])
    def test_velocity_must_be_positive_and_finite(self, command, velocity,
                                                  alpha, tmp_path, capsys):
        rc = main([command, f"--velocity={velocity}", "--alpha", alpha,
                   "--out", str(tmp_path / "v")])
        assert rc == 2
        assert capsys.readouterr().err == \
            f"error: V must be positive and finite, got {float(velocity)}\n"

    def test_tiny_damping_is_usage_error(self, tmp_path, capsys):
        rc = main(["wave", "--velocity", "0.3", "--alpha", "1e-12",
                   "--out", str(tmp_path / "tiny")])
        assert rc == 2
        assert "MIN_DAMPING" in capsys.readouterr().err

    def test_resonant_velocity_exit(self, tmp_path):
        rc = main(["wave", "--velocity", str(FIRST_RESONANCE_V),
                   "--out", str(tmp_path / "res")])
        assert rc == 3


class TestParser:
    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: fkwaves {command}")

    def test_readme_commands_parse(self):
        # every fkwaves command in the README's Command line block parses,
        # so a renamed or dropped flag cannot silently break the docs
        text = README.read_text().split("## Command line", 1)[1]
        block = text.split("```sh\n", 1)[1].split("```", 1)[0]
        lines = block.replace("\\\n", " ").splitlines()
        commands = [shlex.split(line)[1:] for line in lines
                    if line.startswith("fkwaves ")]
        assert commands
        parser, _ = _build_parser()
        for argv in commands:
            assert parser.parse_args(argv).command == argv[0]
