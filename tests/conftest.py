import numpy as np
import pytest

from hestonis.measure import DriftMode, DriftSchedule
from hestonis.model import EQUITY_PARAMS, TimeGrid


@pytest.fixture(scope="session")
def params():
    return EQUITY_PARAMS


@pytest.fixture(scope="session")
def grid():
    return TimeGrid(252, 1.0)


@pytest.fixture(scope="session")
def coarse_grid():
    return TimeGrid(64, 1.0)


@pytest.fixture(scope="session")
def zero_drift(grid):
    """The zero schedule on ``grid``: simulating under it is simulating under P."""
    z = np.zeros(grid.n_steps + 1)
    return DriftSchedule(DriftMode.DETERMINISTIC, z, z.copy(), provenance="zero")
