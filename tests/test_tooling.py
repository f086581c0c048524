"""The benchmark's tracer and the verify suite runner agree on names.

``perfbench/tracer.py`` wraps package functions by name and rebinds them
in each module's namespace; a renamed function or a check the runner
does not look up at call time would silently drop its metric.  The file
is loaded and read here, never modified.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from conftest import load_config
from conewalk import solver, verify

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _resolve(short: str, dotted: str):
    obj = importlib.import_module(f"conewalk.{short}")
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def test_tracer_names_resolve(tracer):
    for short in tracer.LAYERS:
        importlib.import_module(f"conewalk.{short}")
    for table in (tracer.EXTRA, tracer.COUNTED):
        for short, names in table.items():
            for dotted in names:
                assert callable(_resolve(short, dotted)), f"{short}.{dotted}"
    for name in tracer.CRITERIA:
        assert inspect.isfunction(getattr(verify, name)), name
    assert isinstance(solver.FarBounds.__dict__["build"], classmethod)


def test_suite_runner_shares_its_inputs(tracer, monkeypatch):
    calls = []

    def stub(name):
        def check(*args):
            calls.append((name, args))
            return (True, name, [("row",)]) if name == "check_absorption_identity" \
                else (True, name)
        return check

    for name in tracer.CRITERIA:
        monkeypatch.setattr(verify, name, stub(name))
    # Count every call of the normal-map solver, wherever it is bound.
    original = sys.modules["conewalk.tiltgeom"].point_with_normal
    solved = []

    def counted(*args, **kwargs):
        solved.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("conewalk") and \
                getattr(mod, "point_with_normal", None) is original:
            monkeypatch.setattr(mod, "point_with_normal", counted)

    results = verify.run_model_suite(load_config("quadrant"))

    assert [name for name, _ in calls] == list(tracer.CRITERIA)
    assert len(solved) == 3
    assert [r.number for r in results] == list(range(1, 11))
    assert [r.detail for r in results] == list(tracer.CRITERIA)
    assert results[2].mc_rows == [("row",)]
    assert all(r.mc_rows == [] for k, r in enumerate(results) if k != 2)

    args = dict(calls)
    specs = args["check_harmonicity"][1]
    assert [s.wall for s in specs] == [1, 2, None]
    assert args["check_positivity_refinement"][2] is specs
    assert args["check_quadrant_reference"][0] is specs
    for endpoint in (args["check_endpoint_survival_decay"][1],
                     args["check_cross_exit_bound"][0]):
        assert len(endpoint) == 2
        assert all(a is b for a, b in zip(endpoint, specs))
    tilts = args["check_absorption_identity"][1]
    assert args["check_bracket_invariants"][2] is tilts
    assert [name for name, _ in tilts] == ["zero", "interior_1", "interior_2",
                                           "arc_end_1", "arc_end_2"]
    assert tilts[3][1] is specs[0].tilt and tilts[4][1] is specs[1].tilt
    d100 = args["check_absorption_identity"][0]
    d150 = args["check_harmonicity"][0]
    assert (d100.radius, d150.radius) == (100, 150)
    for name in ("check_positivity_refinement", "check_bracket_invariants"):
        assert args[name][0] is d100 and args[name][1] is d150
    assert args["check_endpoint_survival_decay"][0] is d100
