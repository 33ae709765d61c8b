import pytest

from planecremona import configs


@pytest.fixture(scope="session")
def seven_config():
    return configs.reference_seven_points()


@pytest.fixture(scope="session")
def eight_config():
    return configs.reference_eight_points()


@pytest.fixture(scope="session")
def geiser(seven_config):
    from planecremona.involutions import GeiserInvolution

    return GeiserInvolution(seven_config)


@pytest.fixture(scope="session")
def bertini(eight_config):
    from planecremona.involutions import BertiniInvolution

    return BertiniInvolution(eight_config)


@pytest.fixture(scope="session")
def dj_records():
    """Seeded validated de Jonquieres constructions (DJData) for d = 2..6
    (built once)."""
    from planecremona.exactpoly import HPoly
    from planecremona.projmaps import ProjPoint
    from planecremona.involutions import dj_from_conic, validate_dj
    from tests.streams import make_dj_instance

    x, y, z = (HPoly.variable(i) for i in range(3))
    records = {2: dj_from_conic(x * z - y * y, ProjPoint(0, 1, 0))}
    for d in range(3, 7):
        curve, center = make_dj_instance(d, seed=0)
        records[d] = validate_dj(curve, center)
    return records
