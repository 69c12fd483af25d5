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


def pytest_collection_modifyitems(items):
    # A numpy RuntimeWarning (overflow, divide by zero, invalid value) fails a
    # unit test: a slipped bound in the outcome-kernel band shows up there
    # first. The acceptance module is not held to it. Prepended, so a test's
    # own filterwarnings marks still take precedence.
    for item in items:
        if item.path.name != "test_acceptance.py":
            item.add_marker(pytest.mark.filterwarnings("error::RuntimeWarning"),
                            append=False)
