"""No gate passes on NaN.

Every field's system is solved by ``solver._bracket_field``; here it
writes NaN into both brackets of one state of every field it returns.
Each gate that reads those fields must then fail, and none may raise,
which would read as bad input.
"""

import numpy as np
import pytest

from conftest import CONFIG_DIR, load_config
from conewalk import build_domain, solver, verify
from conewalk.cli import main
from conewalk.verify import boundary_specs


@pytest.fixture
def nan_fields(monkeypatch):
    solve = solver._bracket_field

    def poisoned(*args, **kwargs):
        field = solve(*args, **kwargs)
        field.lo[5] = field.hi[5] = np.nan
        return field
    monkeypatch.setattr(solver, "_bracket_field", poisoned)


def test_nan_fields_fail_every_gate_that_reads_them(nan_fields):
    cfg = load_config("quadrant")
    cfg.seed = 1
    specs = boundary_specs(cfg.law, cfg.cone)
    tilts = verify._suite_tilts(specs)
    # The suite's R = 100 and 150 at a fifth of their size.
    small, large = (build_domain(cfg.cone, cfg.law, r) for r in (20, 30))
    results = {
        3: verify.check_absorption_identity(small, tilts, 1, 2000, 2000),
        4: verify.check_harmonicity(large, specs),
        5: verify.check_positivity_refinement(small, large, specs),
        6: verify.check_quadrant_reference(specs),
        9: verify.check_bracket_invariants(small, large, tilts),
    }
    for number, (passed, detail, *_) in results.items():
        assert not passed, f"criterion {number} passed on NaN: {detail}"
    assert results[3][1].startswith("max bracket gap nan")
    assert results[6][1] == "max deviation nan"
    assert results[9][1].endswith("single-wall cap nan")


def test_nan_probes_fail_criteria_3_and_8(monkeypatch, capsys):
    # Both read one probe state of a field; NaN there fails them, where a
    # scalar bracket type once raised and verify exited 3.
    solve = solver._bracket_field

    def poisoned(*args, **kwargs):
        field = solve(*args, **kwargs)
        field.lo[:] = field.hi[:] = np.nan
        return field
    monkeypatch.setattr(solver, "_bracket_field", poisoned)
    for name, _ in verify.CRITERIA:
        if name not in ("check_absorption_identity", "check_cross_exit_bound"):
            monkeypatch.setattr(verify, name, lambda *args: (True, "stub"))
    assert main(["--config", str(CONFIG_DIR / "quadrant.cfg"), "verify",
                 "--samples", "2000", "--horizon", "2000"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] 3." in out and "vs [nan,nan]" in out
    assert "[FAIL] 8." in out and "max excess over bound nan" in out


def test_harmonic_exits_1_on_nan_states(nan_fields, tmp_path):
    assert main(["--config", str(CONFIG_DIR / "quadrant.cfg"), "--out",
                 str(tmp_path), "--quiet", "--radius", "15", "harmonic"]) == 1
