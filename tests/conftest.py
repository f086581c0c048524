"""Shared fixtures: the three bundled models and their parsed configs, and
the small random models that property tests draw."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, settings
from hypothesis import strategies as st

import conewalk.verify  # noqa: F401  (loads every module of the package)
from conewalk import StepLaw, build_cone
from conewalk.cli import ModelConfig, parse_config

# Every property test draws the same examples on every run, so tier-1 stays
# reproducible: no example database and no per-example deadline.
# Hypothesis also mixes the numeric literals of every loaded local module
# into its draws.  Loading the whole package above makes that pool the same
# whether one test file runs or the whole suite, but a literal added to (or
# removed from) src/ can still change the examples every property test draws.
settings.register_profile("conewalk", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("conewalk")

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

QUADRANT_ATOMS = {(1, 0): 0.4, (-1, 0): 0.1, (0, 1): 0.4, (0, -1): 0.1}
FIVE_ATOMS = {(1, 0): 0.45, (-2, 0): 0.05, (0, 1): 0.30, (0, -1): 0.10,
              (1, 1): 0.10}

MODEL_NAMES = ("quadrant", "cone45", "asymmetric")


@pytest.fixture(scope="session")
def law4() -> StepLaw:
    return StepLaw(QUADRANT_ATOMS)


@pytest.fixture(scope="session")
def law5() -> StepLaw:
    return StepLaw(FIVE_ATOMS)


@pytest.fixture(scope="session")
def quadrant_cone():
    return build_cone((0, 1), (1, 0))


@pytest.fixture(scope="session")
def cone45():
    return build_cone((1, 0), (1, 1))


@pytest.fixture(scope="session", params=MODEL_NAMES)
def bundled_config(request) -> ModelConfig:
    return parse_config(CONFIG_DIR / f"{request.param}.cfg")


def load_config(name: str) -> ModelConfig:
    return parse_config(CONFIG_DIR / f"{name}.cfg")


@st.composite
def small_models(draw, max_radius=12, zero_step=None):
    """A law with 3-6 atoms and max jump <= 2, an integer cone with small
    ray directions, and a radius <= ``max_radius`` the law admits.  A
    ``zero_step`` of True or False puts a (0, 0) atom in or keeps it out."""
    step = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    if zero_step is not None:
        step = step.filter(lambda z: z != (0, 0))
    steps = draw(st.lists(step, min_size=3 - bool(zero_step),
                          max_size=6 - bool(zero_step), unique=True))
    if zero_step:
        steps.append((0, 0))
    mass = draw(st.lists(st.integers(1, 9), min_size=len(steps),
                         max_size=len(steps)))
    law = StepLaw({z: m / sum(mass) for z, m in zip(steps, mass)})
    vec = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    d1, d2 = draw(vec), draw(vec)
    assume(d1[0] * d2[1] - d1[1] * d2[0] != 0)
    radius = draw(st.integers(2 * law.max_jump, max_radius))
    tilt = np.array(draw(st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))))
    return law, build_cone(d1, d2), radius, tilt
