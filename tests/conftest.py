import numpy as np
import pytest

from cfdens import make_grid


@pytest.fixture(scope="session")
def grid():
    return make_grid(512, "trapezoid")


@pytest.fixture(scope="session")
def grid128():
    return make_grid(128, "trapezoid")


@pytest.fixture()
def rng():
    return np.random.default_rng(20240811)

