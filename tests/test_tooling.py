"""The benchmark's tracer and the verify suite runner agree on names.

``perfbench/tracer.py`` wraps package functions by name and rebinds them
in each module's namespace; a renamed function or a check the runner
does not look up at call time would silently drop its metric.  The file
is loaded and read here, never modified.
"""

import ast
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import load_config
from conewalk import (MCEstimate, exit_expectation, solver, spec_for_endpoint,
                      verify)
from conewalk.cli import main

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


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


def _span_names() -> set[str]:
    """The literal span names that ``op_layer_metrics`` reduces: the lists
    handed to ``outer`` and ``_outer``, and the ``names`` of ``_self``."""
    tree = ast.parse(TRACER.read_text())
    fn = next(node for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == "op_layer_metrics")
    names = set()
    for call in ast.walk(fn):
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name):
            lists = {"outer": call.args[1:2], "_outer": call.args[2:3]}.get(
                call.func.id, []) + [kw.value for kw in call.keywords
                                     if kw.arg == "names"]
            names |= {elt.value for node in lists
                      if isinstance(node, (ast.List, ast.Set))
                      for elt in node.elts if isinstance(elt, ast.Constant)}
    return names


def test_span_names_resolve():
    # The tracer's proxy for solver.spla spans splu and
    # spsolve_triangular; every other name is a package function.
    names = _span_names()
    assert {"tiltgeom.epsilon_for_delta", "harmonic.classify_spec",
            "montecarlo.local_irreducibility_scan", "solver.splu"} <= names
    for name in names:
        short, dotted = name.split(".", 1)
        if name in ("solver.splu", "solver.spsolve_triangular"):
            obj = getattr(solver.spla, dotted)
        else:
            obj = _resolve(short, dotted)
        assert callable(obj), name


def _stub_checks(tracer, monkeypatch) -> list:
    """Replace every check by a stub recording its arguments; criterion 3
    returns one simulation row."""
    calls = []

    def stub(name):
        def check(*args):
            calls.append((name, args))
            return (True, name, [("row",)]) if name == "check_absorption_identity" \
                else (True, name)
        return check

    for name in tracer.CRITERIA:
        monkeypatch.setattr(verify, name, stub(name))
    return calls


def _count_normal_solves(monkeypatch) -> list:
    """Count every call of the normal-map solver, wherever it is bound."""
    original = sys.modules["conewalk.tiltgeom"].point_with_normal
    solved = []

    def counted(*args, **kwargs):
        solved.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("conewalk") and \
                getattr(mod, "point_with_normal", None) is original:
            monkeypatch.setattr(mod, "point_with_normal", counted)
    return solved


def test_suite_runner_shares_its_inputs(tracer, monkeypatch):
    calls = _stub_checks(tracer, monkeypatch)
    solved = _count_normal_solves(monkeypatch)
    cfg = load_config("quadrant")
    specs = verify.boundary_specs(cfg.law, cfg.cone)
    results = verify.run_model_suite(specs, cfg.seed)

    # Criterion 7 runs first; the results still come back in order.
    assert [name for name, _ in calls] == \
        [tracer.CRITERIA[k - 1] for k in (7, 1, 2, 3, 4, 5, 6, 8, 9, 10)]
    assert len(solved) == 3
    assert [r.number for r in results] == list(range(1, 11))
    assert [r.detail for r in results] == list(tracer.CRITERIA)
    assert results[2].mc_rows == [("row",)]
    assert all(r.mc_rows == [] for k, r in enumerate(results) if k != 2)

    args = dict(calls)
    assert args["check_harmonicity"][1] is specs
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


def test_suite_factors_criterion_7_before_the_shared_caches_fill(
        monkeypatch):
    # Criterion 7's R = 200 systems are the largest the suite factors.
    # They are factored while the R = 150 cache is empty and the R = 100
    # cache holds at most criterion 7's own two factors; the suite makes
    # the factorisations, and reaches the results, of the checks run in
    # criterion order.
    cfg = load_config("quadrant")
    specs = verify.boundary_specs(cfg.law, cfg.cone)
    built, factored, at_200 = [], [], []
    build, factor = verify.build_domain, solver.spla.splu

    def build_domain(cone, law, radius):
        built.append(build(cone, law, radius))
        return built[-1]

    def splu(M, **kwargs):
        factored.append(M.shape[0])
        if built[-1].radius == 200 and M.shape[0] == built[-1].n_states:
            d100, d150 = built[:2]
            at_200.append((len(d100._lu_cache), len(d150._lu_cache)))
        return factor(M, **kwargs)

    monkeypatch.setattr(verify, "build_domain", build_domain)
    monkeypatch.setattr(solver.spla, "splu", splu)

    def run(order):
        monkeypatch.setattr(verify, "_EVALUATION_ORDER", order)
        built.clear()
        factored.clear()
        at_200.clear()
        results = verify.run_model_suite(specs, cfg.seed, mc_samples=2000,
                                         horizon=2000)
        assert [d.radius for d in built[:2]] == [100, 150]
        return ([(r.number, r.passed, r.detail, r.mc_rows) for r in results],
                len(factored), list(at_200))

    shipped, count, caches = run(verify._EVALUATION_ORDER)
    assert caches == [(1, 0), (2, 0)]
    assert [number for number, *_ in shipped] == list(range(1, 11))
    in_order, in_order_count, _ = run(tuple(range(1, 11)))
    assert count == in_order_count
    assert shipped == in_order


def test_verify_solves_each_boundary_spec_once(tracer, monkeypatch, tmp_path):
    # The suite and the overshoot rows of `verify --out` share the
    # endpoint specs: three normal-map solves per model, not five.
    calls = _stub_checks(tracer, monkeypatch)
    solved = _count_normal_solves(monkeypatch)
    sampled = []

    def overshoot(spec, *args, **kwargs):
        sampled.append(spec)
        return MCEstimate(mean=1.0, stderr=0.0, n=1, truncated_fraction=0.0)

    monkeypatch.setattr(verify, "overshoot_moment", overshoot)
    code = main(["--config", str(ROOT / "configs" / "quadrant.cfg"),
                 "--out", str(tmp_path), "--quiet", "verify"])
    assert code == 0
    assert len(solved) == 3
    specs = dict(calls)["check_harmonicity"][1]
    assert len(sampled) == 2
    assert all(a is b for a, b in zip(sampled, specs[:2]))
    rows = (tmp_path / "quadrant_mc_estimates.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows if not r.startswith("#")][-2:] == \
        ["overshoot_moment"] * 2


def test_exact_counters_see_every_factorisation(tracer, monkeypatch):
    # The tracer counts factorisations and reads args[0].nnz through a
    # proxy for solver.spla, which the solver must look up at call time.
    # Both paths factor one matrix per system, and the sweeps make no
    # spsolve_triangular call.
    calls = []
    linalg = solver.spla

    def splu(*args, **kwargs):
        calls.append(args)
        return linalg.splu(*args, **kwargs)

    def triangular(*args, **kwargs):
        raise AssertionError("spsolve_triangular was called")

    monkeypatch.setattr(solver, "spla", tracer._LinalgProxy(
        linalg, {"splu": splu, "spsolve_triangular": triangular}))
    cfg = load_config("asymmetric")
    tilt = spec_for_endpoint(cfg.law, cfg.cone, 1).tilt
    d = solver.build_domain(cfg.cone, cfg.law, 40)
    exit_expectation(d, tilt, wall=1)
    assert len(calls) == 1
    A, _ = d._lu_cache[None]
    assert calls[0][0] is A
    assert calls[0][0].nnz == A.nnz == int((d.succ >= 0).sum()) + d.n_states

    monkeypatch.setattr(solver, "DIRECT_LIMIT", 0)
    d = solver.build_domain(cfg.cone, cfg.law, 40)
    exit_expectation(d, tilt, wall=1)
    assert len(calls) == 2
    neg = [k for k, s in enumerate(cfg.law.steps.tolist()) if tuple(s) < (0, 0)]
    assert calls[1][0].nnz == int((d.succ[:, neg] >= 0).sum()) + d.n_states


def test_conftest_loads_every_package_module():
    # Hypothesis draws from the literals of the loaded modules, so a test
    # file run alone must see the same modules as the whole suite.
    names = sorted(p.stem for p in (ROOT / "src" / "conewalk").glob("*.py"))
    code = ("import sys, conftest; print(' '.join(sorted("
            "m.split('.')[-1] for m in sys.modules if m.startswith('conewalk.'))))")
    env = {**os.environ, "PYTHONPATH": f"{ROOT / 'src'}{os.pathsep}{ROOT / 'tests'}"}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout.split()
    assert sorted(out + ["__init__"]) == names
