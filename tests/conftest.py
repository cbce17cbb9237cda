import pytest

from qmpoly import field


@pytest.fixture(scope="session")
def gf2():
    return field(2)


@pytest.fixture(scope="session")
def gf3():
    return field(3)


@pytest.fixture(scope="session")
def gf4():
    return field(2, 2)

