import pytest

from lsfan import make_group


@pytest.fixture(scope="session")
def a2():
    return make_group("A", 2)


@pytest.fixture(scope="session")
def a3():
    return make_group("A", 3)


@pytest.fixture(scope="session")
def b2():
    return make_group("B", 2)


@pytest.fixture(scope="session")
def b3():
    return make_group("B", 3)


@pytest.fixture(scope="session")
def c3():
    return make_group("C", 3)


@pytest.fixture(scope="session")
def g2():
    return make_group("G", 2)


@pytest.fixture(scope="session")
def d4():
    return make_group("D", 4)
