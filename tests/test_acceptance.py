"""Acceptance suite: the ten verification criteria on the three bundled
models at full scale.  Each criterion is one test item, and every run
prints one pass/fail line; run with ``pytest tests/test_acceptance.py -s``
to see them all.
"""

import pytest

from conftest import MODEL_NAMES, load_config
from conewalk.verify import boundary_specs, run_model_suite

CRITERIA = {
    1: "normal map round trip",
    2: "free-walk linear-exponential harmonicity",
    3: "exit expectation equals tilted absorption",
    4: "one-step harmonicity",
    5: "positivity and truncation refinement",
    6: "quadrant reference agreement",
    7: "endpoint survival upper bound decays",
    8: "opposite-wall payoff bound",
    9: "bracket nesting, complementarity, additivity",
    10: "local unit-move connectivity",
}

_cache: dict = {}


def suite_for(name: str):
    if name not in _cache:
        cfg = load_config(name)
        _cache[name] = {r.number: r for r in
                        run_model_suite(boundary_specs(cfg.law, cfg.cone),
                                        cfg.seed, mc_samples=100_000,
                                        horizon=10_000)}
    return _cache[name]


@pytest.mark.parametrize("model", MODEL_NAMES)
@pytest.mark.parametrize("number", sorted(CRITERIA))
def test_criterion(model, number):
    result = suite_for(model)[number]
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {model} criterion {number}: {CRITERIA[number]} "
          f"({result.seconds:.1f}s) {result.detail}")
    assert result.passed, (
        f"{model} criterion {number} ({CRITERIA[number]}): {result.detail}")


def test_full_suite_runtime():
    # All three models must complete comfortably inside the batch budget.
    total = sum(r.seconds for suite in
                (suite_for(n) for n in MODEL_NAMES)
                for r in suite.values())
    print(f"total suite time {total:.1f}s across {len(MODEL_NAMES)} models")
    assert total < 600.0
