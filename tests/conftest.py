"""Shared fixtures: moment tables are expensive, build each family once."""

import pytest

from bhl import rearrangement
from bhl.weights import RadialWeight, compute_moments


@pytest.fixture(scope="session")
def std0():
    # large enough for an N=2000 Gram section plus its doubling check
    return compute_moments(RadialWeight.standard(0.0), 4200)


@pytest.fixture(scope="session")
def std25():
    return compute_moments(RadialWeight.standard(2.5), 240)


@pytest.fixture(scope="session")
def explog11():
    return compute_moments(RadialWeight.explog(1.0, 1.0), 2000)


@pytest.fixture(autouse=True)
def _clear_kept_family():
    # the rearrangement layer keeps the fields and R+ level of each
    # symbol and r_max it was called on; a test that counts field builds
    # must not depend on what an earlier test kept
    rearrangement._FAMILY.clear()
    yield
    rearrangement._FAMILY.clear()
