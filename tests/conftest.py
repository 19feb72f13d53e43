import pytest

from okubo.fields import GF, field_from_spec, rationals, rationals_omega
from okubo.models import build_split_okubo


@pytest.fixture(scope="session")
def gf2():
    return GF(2)


@pytest.fixture(scope="session")
def gf3():
    return GF(3)


@pytest.fixture(scope="session")
def gf5():
    return GF(5)


@pytest.fixture(scope="session")
def gf7():
    return GF(7)


@pytest.fixture(scope="session")
def gf9():
    return field_from_spec("gf(3^2;t^2+1)")


@pytest.fixture(scope="session")
def gf4():
    return field_from_spec("gf(2^2;t^2+t+1)")


@pytest.fixture(scope="session")
def qq():
    return rationals()


@pytest.fixture(scope="session")
def qw():
    return rationals_omega()


@pytest.fixture(scope="session")
def okubo_gf3(gf3):
    return build_split_okubo(gf3)


@pytest.fixture(scope="session")
def okubo_gf7(gf7):
    return build_split_okubo(gf7)


@pytest.fixture(scope="session")
def okubo_qw(qw):
    return build_split_okubo(qw)


@pytest.fixture(scope="session")
def census_gf3(okubo_gf3):
    """The exhaustive GF(3) idempotent list, shared across the suite."""
    from scalar_reference import enumerate_idempotents

    return enumerate_idempotents(okubo_gf3)


@pytest.fixture(scope="session")
def sl3_gf7(gf7):
    from okubo.models import build_sl3_model

    return build_sl3_model(gf7)
