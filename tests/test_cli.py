import csv
import math

import numpy as np
import pytest

from conftest import CONFIG_DIR
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

    @pytest.mark.parametrize("line", ["radius 20 500", "radius"])
    def test_radius_takes_one_value(self, tmp_path, capsys, line):
        path = write_config(tmp_path, GOOD_CONFIG.replace("radius 20", line))
        assert main(["--config", str(path), "--quiet", "validate"]) == 3
        assert ("config error: line 2: field 'radius': expects 1 integer"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("line", ["seed 1 7", "seed"])
    def test_seed_takes_one_value(self, tmp_path, capsys, line):
        path = write_config(tmp_path, GOOD_CONFIG.replace("seed 5", line))
        assert main(["--config", str(path), "--quiet", "validate"]) == 3
        assert ("config error: line 1: field 'seed': expects 1 integer"
                in capsys.readouterr().err)

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
        ["harmonic", "--q=inf,1"],
        ["harmonic", "--q=nan,1"],
        ["harmonic", "--q=1e308,1e308"],
        ["harmonic", "--q=0,0"],
        ["harmonic", "--endpoint", "1", "--q=1,0.2"],
        ["martin", "--q=nan,1"],
        ["martin", "--q=inf,1"],
        ["martin", "--q=1e308,1e308"],
        ["--radius", "20", "martin", "--radii=inf"],
        ["--radius", "20", "martin", "--radii=6,nan"],
    ], ids=["domain-over-cap", "q-outside-sector", "q-malformed",
            "probe-off-domain", "endpoint-invalid-choice", "radius-not-int",
            "radius-zero", "boundary-samples-zero", "verify-samples-zero",
            "martin-radius-negative", "martin-radius-zero",
            "box-radius-negative", "box-radius-zero", "q-inf", "q-nan",
            "q-norm-overflows", "q-zero", "endpoint-and-q", "martin-q-nan",
            "martin-q-inf", "martin-q-norm-overflows", "martin-radius-inf",
            "martin-radius-nan"])
    def test_bad_input_exits_3_with_one_line(self, tmp_path, capsys, argv):
        path = write_config(tmp_path, GOOD_CONFIG)
        code = main(["--config", str(path), "--out", str(tmp_path / "out"),
                     "--quiet", *argv])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("invalid input: ")
        # A refused direction is named as the user gave it.
        if argv[-1] == "--q=nan,1":
            assert "normal direction [nan, 1.0] must be finite" in err[0]

    @pytest.mark.parametrize("probes", ["1,2;", "1,2,3", "a,b"])
    def test_malformed_probe_is_named(self, tmp_path, capsys, probes):
        path = write_config(tmp_path, GOOD_CONFIG)
        code = main(["--config", str(path), "--out", str(tmp_path / "out"),
                     "--quiet", "martin", f"--probes={probes}"])
        assert code == 3
        chunk = probes.split(";")[-1]
        assert capsys.readouterr().err.splitlines() == [
            f"invalid input: probe {chunk!r} must be 'x,y' with integer x and y"]

    @pytest.mark.parametrize("argv,message", [
        (["martin", "--radii=a"],
         "--radii 'a' must be comma-separated reals 'r1,r2,...'"),
        (["martin", "--radii=1,,2"],
         "--radii '1,,2' must be comma-separated reals 'r1,r2,...'"),
        (["harmonic", "--q=a,b"],
         "--q 'a,b' must be 'qx,qy' with real qx and qy"),
        (["martin", "--q=1"], "--q '1' must be 'qx,qy' with real qx and qy"),
    ], ids=["radii-not-real", "radii-empty-field", "q-not-real",
            "martin-q-one-field"])
    def test_malformed_reals_name_their_option(self, tmp_path, capsys, argv,
                                               message):
        path = write_config(tmp_path, GOOD_CONFIG)
        code = main(["--config", str(path), "--out", str(tmp_path / "out"),
                     "--quiet", *argv])
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [
            f"invalid input: {message}"]

    @pytest.mark.parametrize("flag,message", [
        ("--samples", "sample count must be at least 1"),
        ("--horizon", "horizon must be at least 1")])
    def test_verify_refuses_bad_simulation_size_before_any_factor(
            self, tmp_path, capsys, monkeypatch, flag, message):
        from conewalk import solver

        def splu(*args, **kwargs):
            raise AssertionError("a system was factored")

        monkeypatch.setattr(solver.spla, "splu", splu)
        path = write_config(tmp_path, GOOD_CONFIG)
        assert main(["--config", str(path), "--quiet", "verify",
                     flag, "0"]) == 3
        assert capsys.readouterr().err == f"invalid input: {message}\n"

    @pytest.mark.parametrize("config,argv", [
        (GOOD_CONFIG, ["--seed", "-1"]),
        (GOOD_CONFIG.replace("seed 5", "seed -1"), [])],
        ids=["flag", "config-line"])
    def test_verify_refuses_negative_seed_before_any_check(
            self, tmp_path, capsys, monkeypatch, config, argv):
        from conewalk import verify
        ran = []
        for name, _ in verify.CRITERIA:  # the runner looks checks up by name
            monkeypatch.setattr(verify, name,
                                lambda *args, name=name: ran.append(name))
        path = write_config(tmp_path, config)
        assert main(["--config", str(path), "--quiet", "verify", *argv]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "invalid input: seed must be non-negative, not -1"]
        assert ran == []

    @pytest.mark.parametrize("command", [
        ["harmonic", "--q=1,1"], ["martin", "--q=1,1"], ["boundary"],
        ["verify"]], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("atoms,hypothesis", [
        ("atom 1 0 0.25\natom -1 0 0.25\natom 0 1 0.25\natom 0 -1 0.25\n",
         "the step law has zero drift"),
        ("atom 1 0 0.4\natom -1 0 0.1\natom 0 1 0.5\n",
         "the support lies in a closed half-plane bounded by the line "
         "through step (-1, 0)"),
    ], ids=["zero-drift", "half-plane"])
    def test_model_outside_the_hypotheses_exits_3_with_one_line(
            self, tmp_path, capsys, command, atoms, hypothesis):
        # validate reports on such a model and exits 1 (tested above); the
        # other commands refuse it before any computation.
        path = write_config(tmp_path, "radius 20\ncone_dirs 0 1 1 0\n" + atoms)
        out = tmp_path / "out"
        assert main(["--config", str(path), "--out", str(out), *command]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"invalid input: {hypothesis}")
        assert not out.exists()
        assert main(["--config", str(path), "--quiet", "validate"]) == 1

    @pytest.mark.parametrize("command", ["harmonic", "martin"])
    def test_overflowing_payoff_exits_3_naming_the_radius(self, tmp_path,
                                                          capsys, command):
        # The tilt a = (-1.31, 6.35) puts a.y past the exp() guard at the
        # far frontier of R = 120: refused before any exp, nothing written.
        text = ("radius 120\ncone_dirs 0 1 1 0\natom 1 0 0.9\n"
                "atom -1 0 0.05\natom 0 1 0.001\natom 0 -1 0.049\n")
        path = write_config(tmp_path, text)
        out = tmp_path / "out"
        code = main(["--config", str(path), "--out", str(out), "--quiet",
                     command, "--q=0.1,1"])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("invalid input: exponent ")
        assert err[0].endswith(
            "exceeds the overflow guard 700.0 in the payoff at radius 120")
        assert not out.exists()

    @pytest.mark.parametrize("cone", ["cone_dirs 10 1 9 1",
                                      "cone_angles 10 10.5"])
    def test_cone_too_thin_for_a_probe_exits_3_with_one_line(
            self, tmp_path, capsys, cone):
        # Criterion 7 finds no lattice point beside wall 1 at depth 25; it
        # runs first, so that one line is all verify prints.
        path = write_config(tmp_path,
                            GOOD_CONFIG.replace("cone_dirs 0 1 1 0", cone))
        code = main(["--config", str(path), "--samples", "200",
                     "--horizon", "100", "verify"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "invalid input: cone too thin for a probe by wall 1 at depth 25"]

    @pytest.mark.parametrize("old,new,field", [
        ("atom 0 -1 0.1", "atom 1 0 0.1", "atom"),
        ("atom 0 -1 0.1", "atom 0 -1 0\natom 0 -2 0.1", "atom"),
        ("atom 0 -1 0.1", "atom 0 -1 0.1000000000002", "atom"),
        ("atom 0 -1 0.1", "atom 0 -1 nan", "atom"),
        ("cone_dirs 0 1 1 0", "cone_dirs 0 0 1 0", "cone_dirs"),
        ("cone_dirs 0 1 1 0", "cone_dirs 1 0 2 0", "cone_dirs"),
        ("cone_dirs 0 1 1 0", "cone_angles 10 10", "cone_angles"),
        ("cone_dirs 0 1 1 0", "cone_angles nan 90", "cone_angles"),
    ], ids=["duplicate-atom", "zero-probability", "sum-off-by-2e-13",
            "nan-probability", "zero-ray", "collinear-rays",
            "equal-angles", "nan-angle"])
    def test_bad_model_exits_3_with_one_line(self, tmp_path, capsys, old,
                                             new, field):
        path = write_config(tmp_path, GOOD_CONFIG.replace(old, new))
        assert main(["--config", str(path), "validate"]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"config error: field '{field}': ")

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
        # Names and details hold commas; quoting keeps every row as wide
        # as its header.
        for lines in (data, est_data):
            parsed = list(csv.reader(lines))
            assert all(len(row) == len(parsed[0]) for row in parsed)
        assert [row[2] for row in csv.reader(data[1:])] == ["pass"] * 10

    def test_thin_level_set_verifies(self, tmp_path):
        # E/W/N/S masses 10/10/10/11 over 41: the level set is thinner
        # across either wall than the smallest offset of the grid, so the
        # quadrant reference (criterion 6) once refused with exit 3.
        thin = "".join(f"atom {dx} {dy} {m / 41!r}\n" for (dx, dy), m in
                       {(1, 0): 10, (-1, 0): 10, (0, 1): 10, (0, -1): 11}.items())
        path = write_config(tmp_path, "cone_dirs 0 1 1 0\nradius 60\n" + thin)
        assert main(["--config", str(path), "--quiet", "--seed", "1", "verify",
                     "--samples", "2000", "--horizon", "2000"]) == 0

    def test_reference_refusal_is_non_convergence(self, tmp_path, monkeypatch,
                                                  capsys):
        from conewalk import quadrant_reference, verify

        def no_section(*args):
            raise ValueError("reference shift solve found no sub-unit section")
        monkeypatch.setattr(quadrant_reference, "_largest_return_shift",
                            no_section)
        for name, _ in verify.CRITERIA:  # only criterion 6 runs
            if name != "check_quadrant_reference":
                monkeypatch.setattr(verify, name, lambda *args: (True, "stub"))
        path = write_config(tmp_path, GOOD_CONFIG)
        assert main(["--config", str(path), "--quiet", "verify"]) == 2
        assert "no usable tangential offset" in capsys.readouterr().err

    @pytest.mark.parametrize("dirs", ["1 0 0 1", "0 2 3 0"])
    def test_quadrant_reference_takes_any_spelling(self, dirs, tmp_path,
                                                   monkeypatch, capsys):
        # The reference's wall 1 is the line x = 0; each endpoint spec's
        # wall is mapped to it by its normal, whatever the rays' order or
        # length, so every spelling reads the bundled deviation.
        from conewalk import verify
        for name, _ in verify.CRITERIA:  # only criterion 6 runs
            if name != "check_quadrant_reference":
                monkeypatch.setattr(verify, name, lambda *args: (True, "stub"))
        text = (CONFIG_DIR / "quadrant.cfg").read_text()
        lines = []
        for spelling in ("0 1 1 0", dirs):
            path = write_config(tmp_path, text.replace(
                "cone_dirs 0 1 1 0", f"cone_dirs {spelling}"))
            assert main(["--config", str(path), "--seed", "1", "verify",
                         "--samples", "2000", "--horizon", "2000"]) == 0
            line, = [l for l in capsys.readouterr().out.splitlines()
                     if " 6. " in l]
            assert line.startswith("[pass]") and "max deviation" in line
            lines.append(line.split(")", 1)[1])
        assert lines[0] == lines[1]

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

    def test_fields_with_commas_read_back(self, tmp_path):
        cfg = parse_config_text(GOOD_CONFIG, name="demo")
        rows = [(9, "nesting, additivity", "pass", "[0.1,0.2]; z=(3, 4)"),
                (1, 'say "hi"', 0.5, "line\nbreak")]
        path = tmp_path / "t.csv"
        _write_csv(path, cfg, [], ["p", "q", "r", "s"], rows)
        with open(path, newline="") as fh:
            parsed = list(csv.reader(l for l in fh if not l.startswith("#")))
        assert parsed[1:] == [[self._joined(v) for v in row] for row in rows]
