import pytest

from dihedral_codes import (
    AbelianGroup,
    DihedralGroup,
    PrimeField,
    abelian_catalog,
    central_idempotents,
    matrix_units,
    noncentral_generator,
)


@pytest.fixture(scope="session")
def field11():
    return PrimeField(11)


@pytest.fixture(scope="session")
def d9():
    return DihedralGroup(3, 2)


@pytest.fixture(scope="session")
def catalog(field11, d9):
    return central_idempotents(field11, d9)


@pytest.fixture(scope="session")
def units1(catalog):
    return matrix_units(catalog, 1)


@pytest.fixture(scope="session")
def units2(catalog):
    return matrix_units(catalog, 2)


@pytest.fixture(scope="session")
def gens1(units1):
    return noncentral_generator(units1)


@pytest.fixture(scope="session")
def primitive_idempotents():
    """(field, group) -> idempotents e with e A e a field: e11 and the
    non-central f of each dihedral component, or every primitive idempotent
    of C_{p^m} x C_2."""

    def build(field, group):
        if isinstance(group, AbelianGroup):
            return abelian_catalog(field, group.p, group.m).members
        catalog = central_idempotents(field, group)
        found = []
        for j in range(1, group.m + 1):
            units = matrix_units(catalog, j)
            found += [units.e11, noncentral_generator(units).f]
        return tuple(found)

    return build
