import pytest

from lognls.model import Family, ModelParams
from lognls.groundstate import find_ground_state


@pytest.fixture(scope="session")
def model2d():
    return ModelParams(Family.CUBIC_LOG_2D, 1.0)


@pytest.fixture(scope="session")
def profile_01(model2d):
    """Shooting ground state at omega = 0.1, shared by many tests."""
    return find_ground_state(model2d.with_omega(0.1))


@pytest.fixture(scope="session")
def profile_029(model2d):
    return find_ground_state(model2d.with_omega(0.29))
