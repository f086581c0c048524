"""Shared fixtures: the three bundled models and their parsed configs."""

from pathlib import Path

import pytest
from hypothesis import settings

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
