"""An exact oracle: the closed-form harmonic functions of axis-step laws in
the quadrant, the quadrant case of Ignatiouk-Robert and Loree (Ann. Probab.
2010).

Take a law on (1, 0), (-1, 0), (0, 1) and (0, -1) with probabilities
``p_E, p_W, p_N, p_S``, optionally with a (0, 0) atom, killed outside the
quadrant ``x, y >= 1``; the kernel then acts on ``x`` and ``y`` separately.
For a tilt ``a`` on the unit level set put ``r1 = e^{a_1}``,
``s1 = e^{a_2}``, ``r2 = p_W / (p_E r1)`` and ``s2 = p_S / (p_N s1)``:

* interior branch: ``h(x, y) = (r1^x - r2^x)(s1^y - s2^y)``;
* endpoint of wall 1 (inward normal (1, 0)), where
  ``r1 = r2 = sqrt(p_W / p_E)``: ``h(x, y) = x r1^x (s1^y - s2^y)``, and
  wall 2 likewise with the axes swapped.

Each factor vanishes on its wall and all four exponentials lie on the level
set, so ``h`` is harmonic inside the quadrant and 0 outside it, with the
construction's lead term ``e^{a.z}`` (or ``(f_i.z) e^{a.z}``).  The
certified brackets must contain it at every state, up to a relative margin
that covers rounding.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import load_config
from conewalk import (StepLaw, build_domain, build_h, quadrant, solver,
                      spec_for_direction, spec_for_endpoint)

#: Relative slack for rounding, until the brackets carry it themselves.
MARGIN = 1e-12

#: Directions as fractions of the quadrant's sector angle, from ray 1.
FRACTIONS = (0.05, 0.2, 0.5, 0.8, 0.95)
CASES = ("endpoint1", "endpoint2") + tuple(f"q{f:g}" for f in FRACTIONS)

#: Sweep-path cases whose brackets exclude the exact function at R = 60,
#: with the number of the 3,600 states outside.
SWEEP_MISSES = {"q0.05": 923, "q0.2": 297, "q0.8": 297, "q0.95": 923}


def sector_direction(s: float) -> tuple[float, float]:
    """The unit normal at fraction ``s`` of the sector, from ray (0, 1)."""
    t = 0.5 * math.pi * s
    return math.sin(t), math.cos(t)


def make_spec(law, case: str):
    cone = quadrant()
    if case.startswith("endpoint"):
        return spec_for_endpoint(law, cone, int(case[-1]))
    return spec_for_direction(law, cone, sector_direction(float(case[1:])))


def exact_h(spec, states: np.ndarray) -> np.ndarray:
    """The closed form at ``states``, for a spec of an axis-step law."""
    p = spec.law.atoms
    p_e, p_w, p_n, p_s = (p[z] for z in ((1, 0), (-1, 0), (0, 1), (0, -1)))
    x, y = states.T.astype(float)
    r1, s1 = np.exp(spec.tilt.a)
    if spec.wall == 1:
        fx = x * math.sqrt(p_w / p_e) ** x
    else:
        fx = r1 ** x - (p_w / (p_e * r1)) ** x
    if spec.wall == 2:
        fy = y * math.sqrt(p_s / p_n) ** y
    else:
        fy = s1 ** y - (p_s / (p_n * s1)) ** y
    return fx * fy


def states_outside(spec, radius: int) -> int:
    h = build_h(spec, build_domain(spec.cone, spec.law, radius))
    exact = exact_h(spec, h.domain.states)
    slack = MARGIN * np.abs(exact)
    return int(((exact < h.lo - slack) | (exact > h.hi + slack)).sum())


@pytest.fixture(scope="module")
def law():
    cfg = load_config("quadrant")
    assert all(cfg.cone.normal_ints(i) == quadrant().normal_ints(i)
               for i in (1, 2))
    return cfg.law


@pytest.mark.parametrize("radius", [60, 100])
@pytest.mark.parametrize("case", CASES)
def test_direct_brackets_contain_exact(law, case, radius):
    assert states_outside(make_spec(law, case), radius) == 0


@pytest.mark.parametrize("case", [
    pytest.param(case, marks=pytest.mark.xfail(strict=True, reason=(
        f"{SWEEP_MISSES[case]} of 3,600 states outside: the sweeps start at "
        "zero and stop unconverged at small states, until they start from "
        "the comparison functions (ROADMAP item 1)")))
    if case in SWEEP_MISSES else case for case in CASES])
def test_sweep_brackets_contain_exact(law, case, monkeypatch):
    monkeypatch.setattr(solver, "DIRECT_LIMIT", 0)
    assert states_outside(make_spec(law, case), 60) == 0


@pytest.mark.parametrize("fraction", [0.2, 0.5, 0.8])
def test_direct_brackets_are_tight(law, fraction):
    # Containment alone would pass for brackets of any width.
    spec = make_spec(law, f"q{fraction:g}")
    h = build_h(spec, build_domain(spec.cone, law, 100))
    width = h.width / np.abs(exact_h(spec, h.domain.states))
    assert np.median(width) < 1e-10


@settings(max_examples=40)
@given(mass=st.lists(st.integers(1, 20), min_size=4, max_size=4),
       hold=st.integers(0, 20), radius=st.integers(8, 60),
       branch=st.sampled_from(["endpoint1", "endpoint2", "interior"]),
       fraction=st.floats(0.05, 0.95))
def test_axis_laws_contain_exact(mass, hold, radius, branch, fraction):
    # A hold of 0 leaves the (0, 0) atom out.
    atoms = dict(zip(((1, 0), (-1, 0), (0, 1), (0, -1), (0, 0)),
                     mass + [hold] if hold else mass))
    assume(mass[0] != mass[1] or mass[2] != mass[3])  # non-zero drift
    law = StepLaw({z: m / sum(atoms.values()) for z, m in atoms.items()})
    case = branch if branch != "interior" else f"q{fraction!r}"
    assert states_outside(make_spec(law, case), radius) == 0


@pytest.mark.parametrize("case", ["endpoint1", "endpoint2"])
def test_thin_level_set_certifies(case):
    # E/W/N/S masses 10/10/10/11 over 41: across either wall the level set
    # is thinner than the smallest offset of the default grid (0.05), which
    # once made both endpoint brackets refuse with exit 2.
    atoms = {(1, 0): 10, (-1, 0): 10, (0, 1): 10, (0, -1): 11}
    law = StepLaw({z: m / 41 for z, m in atoms.items()})
    assert states_outside(make_spec(law, case), 40) == 0
