import math

import numpy as np
import pytest

from conewalk.cli import ConfigError, _write_csv, main, parse_config_text

GOOD_CONFIG = """\
seed 5
radius 20
cone_dirs 0 1 1 0
atom 1 0 0.4
atom -1 0 0.1
atom 0 1 0.4
atom 0 -1 0.1
"""


def write_config(tmp_path, text, name="model.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestConfigParsing:
    def test_round_trip(self):
        cfg = parse_config_text(GOOD_CONFIG, name="demo")
        assert cfg.seed == 5
        assert cfg.radius == 20
        assert cfg.law.atoms[(1, 0)] == 0.4
        assert cfg.cone.is_exact
        assert len(cfg.config_hash) == 16

    def test_error_names_field_and_line(self):
        bad = GOOD_CONFIG.replace("atom 1 0 0.4", "atom 1 0")
        with pytest.raises(ConfigError, match=r"line 4: field 'atom'"):
            parse_config_text(bad)

    def test_probability_sum_checked(self):
        bad = GOOD_CONFIG.replace("atom 0 -1 0.1", "atom 0 -1 0.2")
        with pytest.raises(ConfigError, match="sum"):
            parse_config_text(bad)

    def test_radius_vs_max_jump(self):
        bad = GOOD_CONFIG.replace("radius 20", "radius 1")
        with pytest.raises(ConfigError, match="radius"):
            parse_config_text(bad)

    def test_exactly_one_cone_spec(self):
        with pytest.raises(ConfigError, match="cone"):
            parse_config_text(GOOD_CONFIG + "cone_angles 0 90\n")
        with pytest.raises(ConfigError, match="cone"):
            parse_config_text(GOOD_CONFIG.replace("cone_dirs 0 1 1 0\n", ""))

    def test_unknown_key_reported(self):
        with pytest.raises(ConfigError, match="line 1: field 'bogus'"):
            parse_config_text("bogus 1\n" + GOOD_CONFIG)

    def test_angle_cone_accepted(self):
        cfg = parse_config_text(GOOD_CONFIG.replace(
            "cone_dirs 0 1 1 0", "cone_angles 0 90"))
        assert not cfg.cone.is_exact

    def test_tolerance_key_rejected(self):
        # The tolerances are fixed constants; the header prints them.
        with pytest.raises(ConfigError,
                           match="line 8: field 'tolerance': unknown key"):
            parse_config_text(GOOD_CONFIG + "tolerance level_residual 1e-11\n")


class TestCommands:
    def test_validate_passes_for_bundled_model(self, tmp_path):
        path = write_config(tmp_path, GOOD_CONFIG)
        assert main(["--config", str(path), "--quiet", "validate"]) == 0

    def test_validate_fails_for_zero_drift(self, tmp_path):
        text = """\
radius 8
cone_dirs 0 1 1 0
atom 1 0 0.25
atom -1 0 0.25
atom 0 1 0.25
atom 0 -1 0.25
"""
        path = write_config(tmp_path, text)
        assert main(["--config", str(path), "--quiet", "validate"]) == 1

    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.cfg"), "validate"]) == 3

    def test_malformed_config_exit_code(self, tmp_path):
        path = write_config(tmp_path, "radius x\n")
        assert main(["--config", str(path), "validate"]) == 3

    @pytest.mark.parametrize("argv", [
        ["--radius", "1000", "harmonic"],
        ["harmonic", "--q=-1,-1"],
        ["harmonic", "--q=abc"],
        ["--radius", "20", "martin", "--probes=500,500"],
        ["harmonic", "--endpoint", "3"],
        ["harmonic", "--radius", "abc"],
        ["--radius", "0", "harmonic"],
        ["--samples", "0", "boundary"],
        ["--samples", "0", "verify"],
        ["--radius", "20", "martin", "--radii=-5"],
        ["--radius", "20", "martin", "--radii=0"],
        ["validate", "--box-radius=-1"],
        ["validate", "--box-radius=0"],
    ], ids=["domain-over-cap", "q-outside-sector", "q-malformed",
            "probe-off-domain", "endpoint-invalid-choice", "radius-not-int",
            "radius-zero", "boundary-samples-zero", "verify-samples-zero",
            "martin-radius-negative", "martin-radius-zero",
            "box-radius-negative", "box-radius-zero"])
    def test_bad_input_exits_3_with_one_line(self, tmp_path, capsys, argv):
        path = write_config(tmp_path, GOOD_CONFIG)
        code = main(["--config", str(path), "--out", str(tmp_path / "out"),
                     "--quiet", *argv])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("invalid input: ")

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage: conewalk" in capsys.readouterr().out

    def test_boundary_csv(self, tmp_path, law4):
        path = write_config(tmp_path, GOOD_CONFIG)
        out = tmp_path / "out"
        code = main(["--config", str(path), "--out", str(out), "--quiet",
                     "--samples", "8", "boundary"])
        assert code == 0
        csv_path = out / "model_boundary.csv"
        lines = csv_path.read_text().splitlines()
        comments = [l for l in lines if l.startswith("#")]
        assert any("conewalk" in c for c in comments)
        assert any("config_sha256" in c for c in comments)
        assert any("tolerances" in c for c in comments)
        assert any("arc_endpoint_1" in c for c in comments)
        data = [l for l in lines if not l.startswith("#")]
        assert data[0] == "a1,a2,q1,q2"
        assert len(data) == 9
        for row in data[1:]:
            a1, a2, q1, q2 = map(float, row.split(","))
            assert law4.mgf((a1, a2)) == pytest.approx(1.0, abs=1e-10)

    def test_harmonic_outputs_are_deterministic(self, tmp_path):
        path = write_config(tmp_path, GOOD_CONFIG)
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / run
            code = main(["--config", str(path), "--out", str(out), "--quiet",
                         "--radius", "15", "harmonic", "--endpoint", "1"])
            assert code == 0
            outputs.append((out / "model_harmonic.csv").read_bytes())
        assert outputs[0] == outputs[1]
        report = (tmp_path / "a" / "model_harmonic.json").read_text()
        assert '"branch": "endpoint_wall1"' in report

    def test_shared_flags_accepted_after_subcommand(self, tmp_path):
        path = write_config(tmp_path, GOOD_CONFIG)
        out = tmp_path / "after"
        code = main(["--config", str(path), "boundary", "--out", str(out),
                     "--samples", "8", "--quiet"])
        assert code == 0
        assert (out / "model_boundary.csv").exists()

    def test_harmonic_default_is_drift_direction(self, tmp_path):
        path = write_config(tmp_path, GOOD_CONFIG)
        out = tmp_path / "h"
        code = main(["--config", str(path), "--out", str(out), "--quiet",
                     "--radius", "15", "harmonic"])
        assert code == 0
        text = (out / "model_harmonic.csv").read_text()
        assert "harmonic_interior" in text

    def test_verify_writes_reports(self, tmp_path):
        path = write_config(tmp_path, GOOD_CONFIG)
        out = tmp_path / "v"
        code = main(["--config", str(path), "--out", str(out), "--quiet",
                     "--samples", "20000", "--horizon", "4000", "verify"])
        assert code == 0
        verify_lines = (out / "model_verify.csv").read_text().splitlines()
        data = [l for l in verify_lines if not l.startswith("#")]
        assert data[0] == "criterion,name,status,detail"
        assert len(data) == 11
        assert all(",pass," in row for row in data[1:])
        est = (out / "model_mc_estimates.csv").read_text().splitlines()
        est_data = [l for l in est if not l.startswith("#")]
        assert est_data[0] == "operation,params,mean,stderr,n,truncated_fraction"
        ops = {row.split(",")[0] for row in est_data[1:]}
        assert {"absorption_crosscheck", "overshoot_moment"} <= ops

    def test_martin_table_csv_and_determinism(self, tmp_path):
        path = write_config(tmp_path, GOOD_CONFIG)
        outputs = []
        for run in ("m1", "m2"):
            out = tmp_path / run
            code = main(["--config", str(path), "--out", str(out), "--quiet",
                         "--radius", "25", "martin",
                         "--radii", "6,12", "--probes", "2,2;3,4"])
            assert code == 0
            outputs.append((out / "model_martin.csv").read_bytes())
        assert outputs[0] == outputs[1]
        lines = outputs[0].decode().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        header = data[0].split(",")
        assert header[:5] == ["r", "target_x", "target_y", "probe_x", "probe_y"]
        assert len(data) == 1 + 2 * 2


class TestCsvWriter:
    @staticmethod
    def _joined(v) -> str:
        """Per-value formatting the writer must reproduce byte for byte."""
        if isinstance(v, float):
            return format(v, ".17g")
        return str(v)

    def test_rows_match_per_value_formatting(self, tmp_path):
        cfg = parse_config_text(GOOD_CONFIG, name="demo")
        rows = [
            (1, 0.1, "a", -0.0),
            (2.5, 2, "b", math.nan),              # int after float, and back
            (np.float64(1 / 3), np.int64(3), "c", math.inf),
            (True, 10**20, None, -math.inf),      # bool and big int stay str
            (1e17, 10**17, "d", np.float64(-0.0)),
            [4, 5.0, "e", 6],                     # a list row
        ]
        path = tmp_path / "out" / "t.csv"
        _write_csv(path, cfg, ["note"], ["p", "q", "r", "s"], iter(rows))
        lines = path.read_bytes().decode().split("\n")
        assert lines[-1] == ""
        assert lines[3:5] == ["# note", "p,q,r,s"]
        assert lines[5:-1] == [",".join(self._joined(v) for v in row)
                               for row in rows]
        assert lines[6] == "2.5,2,b,nan"
