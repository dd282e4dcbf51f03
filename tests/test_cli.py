"""Command-line interface: outputs, formats, config precedence, exit codes."""

import csv
import json

import numpy as np
import pytest

from fkwaves import ModelParams, kinetic_point, resonance_velocities
from fkwaves.cli import main

V0_ALPHA0 = 0.3570147628397361
FIRST_RESONANCE_V = 0.24441475248391872


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
        assert float(rows[1][1]) == kinetic_point(0.5, params).sigma
        assert float(rows[0][2]) == 0.0


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
        assert header == ["s", "h"] and len(rows) == 40
        meta = json.loads((tmp_path / "s03.json").read_text())
        assert set(meta) == {"V", "z", "sigma", "residual",
                             "delta_plus", "delta_minus"}
        assert meta["z"] > 0.0


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

    def test_edge_run_records_its_flag(self, tmp_path):
        base = tmp_path / "edge"
        assert main(["simulate", "--sigma", "0.3", "--n", "200",
                     "--t-final", "200", "--out", str(base)]) == 0
        outcome = json.loads((tmp_path / "edge_outcome.json").read_text())
        assert outcome["classification"] == "Inconclusive"
        assert outcome["flags"] == ["EDGE"]
        assert outcome["velocity"] is None

    def test_wave_ic_rejects_sigma(self, tmp_path):
        rc = main(["simulate", "--ic", "wave", "--velocity", "0.5",
                   "--sigma", "0.1", "--out", str(tmp_path / "x")])
        assert rc == 2


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

    def test_missing_out(self):
        assert main(["wave", "--velocity", "0.5"]) == 2

    @pytest.mark.parametrize("args", [
        ["wave", "--velocity", "-0.2"],
        ["shape", "--velocity", "0.3", "--m", "2"],
        ["simulate", "--sigma", "0.05", "--n", "1"],
        ["threshold", "--mu", "-1"],
        ["bifurcation", "--velocities", "0.34", "--m", "2"],
    ])
    def test_bad_argument_is_usage_error(self, args, tmp_path, capsys):
        assert main(args + ["--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_tiny_damping_is_usage_error(self, tmp_path, capsys):
        rc = main(["wave", "--velocity", "0.3", "--alpha", "1e-12",
                   "--out", str(tmp_path / "tiny")])
        assert rc == 2
        assert "MIN_DAMPING" in capsys.readouterr().err

    def test_resonant_velocity_exit(self, tmp_path):
        rc = main(["wave", "--velocity", str(FIRST_RESONANCE_V),
                   "--out", str(tmp_path / "res")])
        assert rc == 3
