import random

import pytest

from wrlat.cubic_field import CubicField
from wrlat.quartic_field import QuarticField, quartic_param_box  # re-exported to the tests
from wrlat.numtheory import enumerate_conductors


@pytest.fixture(scope="session")
def cubic7():
    return CubicField(7)


@pytest.fixture(scope="session")
def cubic9():
    return CubicField(9)


@pytest.fixture(scope="session")
def cubic63():
    return CubicField(63)


@pytest.fixture(scope="session")
def cubic91():
    return CubicField(91)


@pytest.fixture(scope="session")
def quartic_even():
    # (1,2,1,5): discriminant 2000, integral-basis case III
    return QuarticField(1, 2, 1, 5)


@pytest.fixture(scope="session")
def quartic_imag():
    # (-1,2,1,5): totally imaginary, discriminant 125, case IV
    return QuarticField(-1, 2, 1, 5)


@pytest.fixture(scope="session")
def small_quartic_fields():
    return [QuarticField(*p) for p in
            [(1, 2, 1, 5), (-1, 2, 1, 5), (3, 2, 1, 5), (-13, 2, 1, 5),
             (-1, 2, 3, 13), (1, 1, 1, 2), (1, 3, 2, 13), (-3, 4, 1, 17)]]


@pytest.fixture(scope="session")
def small_cubic_fields():
    return [CubicField(m) for m in (7, 9, 13, 63, 91, 117)]


@pytest.fixture()
def rng():
    return random.Random(0x5eed)


@pytest.fixture(scope="session")
def cubic_conductors_200():
    return enumerate_conductors(200)
