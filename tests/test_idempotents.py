import itertools

import numpy as np
import pytest

from dihedral_codes import (
    AlgebraElem,
    DihedralGroup,
    InadmissibleParameters,
    PrimeField,
    central_idempotents,
    is_central,
    is_idempotent,
    left_ideal_code,
    matrix_units,
    modmat,
    noncentral_generator,
    phi_prime_power,
    products,
)


def test_catalog_size_and_sum(field11, d9, catalog):
    members = catalog.members()
    assert len(members) == 4  # e11_0, e22_0, e_1, e_2
    total = AlgebraElem.zero(d9, field11)
    for x in members:
        total = total + x
    assert total == AlgebraElem.one(d9, field11)


def test_catalog_orthogonal_idempotent_central(catalog):
    members = catalog.members()
    for x in members:
        assert is_idempotent(x)
        assert is_central(x)
    for x, y in itertools.combinations(members, 2):
        assert (x * y).is_zero()
        assert (y * x).is_zero()


def test_decomposition_check_names_its_catalog(catalog):
    from dihedral_codes.idempotents import check_decomposition

    members = catalog.members()
    check_decomposition(members, "central catalog")
    with pytest.raises(RuntimeError, match="^abelian catalog does not sum to 1$"):
        check_decomposition(members[1:], "abelian catalog")
    with pytest.raises(RuntimeError, match="^central catalog member is not idempotent$"):
        check_decomposition((2 * members[0],) + members[1:], "central catalog")


def test_e1_frozen_vector(catalog):
    # hand expansion: 4(1 + a^3 + a^6) - 5(sum of all a^i), since 3^-1 = 4
    # and 9^-1 = 5 in F_11
    expect = [10, 6, 6, 10, 6, 6, 10, 6, 6] + [0] * 9
    e1 = catalog.component(1)
    assert list(e1.coeffs) == expect
    assert e1.support_weight() == 9


def test_e2_frozen_vector(catalog):
    # e_2 = 1 - hat(H_1) = [1-4, 0, 0, -4, 0, 0, -4, 0, 0]
    expect = [8, 0, 0, 7, 0, 0, 7, 0, 0] + [0] * 9
    e2 = catalog.component(2)
    assert list(e2.coeffs) == expect
    assert e2.support_weight() == 3


def test_component_dimensions(catalog):
    assert left_ideal_code(catalog.e11_0).k == 1
    assert left_ideal_code(catalog.e22_0).k == 1
    assert left_ideal_code(catalog.component(1)).k == 4   # 2 phi(3)
    assert left_ideal_code(catalog.component(2)).k == 12  # 2 phi(9)


def test_inadmissible_parameters_rejected():
    with pytest.raises(InadmissibleParameters):
        central_idempotents(PrimeField(7), DihedralGroup(3, 2))


@pytest.mark.parametrize("j", [1, 2])
def test_matrix_unit_identities(catalog, j):
    units = matrix_units(catalog, j)
    table = units.as_dict()
    zero = AlgebraElem.zero(catalog.group, catalog.field)
    for (i1, j1), (h1, k1) in itertools.product(table, repeat=2):
        expected = table[(i1, k1)] if j1 == h1 else zero
        assert table[(i1, j1)] * table[(h1, k1)] == expected
    assert units.e12 * units.e21 == units.e11
    assert (units.e11 * units.e22).is_zero()
    assert units.e11 + units.e22 == catalog.component(j)


def test_matrix_units_bad_index(catalog):
    with pytest.raises(ValueError):
        matrix_units(catalog, 0)
    with pytest.raises(ValueError):
        matrix_units(catalog, 3)


def test_alpha_conjugation(units1, gens1):
    e = units1.component
    assert gens1.alpha * gens1.alpha_inv == e
    assert gens1.alpha_inv * gens1.alpha == e
    assert gens1.alpha * units1.e11 * gens1.alpha_inv == gens1.f
    assert gens1.f * gens1.f == gens1.f


def test_f_two_routes_agree(field11, d9, units1, gens1):
    # closed form built independently of the package construction
    one = AlgebraElem.one(d9, field11)
    a = AlgebraElem.from_group_elem(d9.a, field11)
    a_inv = AlgebraElem.from_group_elem(d9.a.inverse(), field11)
    b = AlgebraElem.from_group_elem(d9.b, field11)
    quarter = field11.inv(4)
    closed = quarter * ((2 * one - a + a_inv) + (2 * one + a - a_inv) * b) * units1.component
    assert closed == gens1.f
    assert gens1.f == units1.e11 - units1.e12


@pytest.mark.parametrize(
    "units, message",
    [
        # some of the 16 identities fail, but no `matrix_units` call checks them here
        (lambda u: u._replace(e12=2 * u.e12), "closed form of f does not match e11 - e12"),
        # all 16 identities hold for zero units, and the closed form is 0 too
        (lambda u: u._replace(**{k: 0 * u.e11 for k in u._fields[1:]}),
         "f is unexpectedly central"),
    ],
    ids=["e12-doubled", "all-zero"],
)
def test_noncentral_generator_guards_what_the_units_leave_open(units1, units, message):
    """Hand-built units reach `noncentral_generator` unproven: a wrong e12
    is caught by the closed form of f, and zero units, where e = 0, by the
    test that f is not central."""
    with pytest.raises(RuntimeError, match=message):
        noncentral_generator(units(units1))


def test_f_frozen_vector(gens1):
    assert list(gens1.f.coeffs) == [5, 2, 4, 5, 2, 4, 5, 2, 4, 5, 4, 2, 5, 4, 2, 5, 4, 2]
    assert gens1.f.support_weight() == 18
    assert not is_central(gens1.f)


def test_conjugation_preserves_dimension(units1, gens1):
    assert left_ideal_code(gens1.f).k == left_ideal_code(units1.e11).k == 2


def test_component_subalgebra_is_a_field(field11, d9, catalog):
    """Every nonzero element of F_11<a> e_1 inverts (all 120 of them): a
    brute-force search of all 121 elements finds one w with v w = e_1, and
    w v = e_1 holds as well, by exact products."""
    e1 = catalog.component(1)
    a = AlgebraElem.from_group_elem(d9.a, field11)
    rows, x = [], e1
    for _ in range(9):
        rows.append(x.coeffs)
        x = a * x
    basis, _ = modmat.rref(np.array(rows), 11)
    assert basis.shape[0] == phi_prime_power(3, 1)
    elems = np.array([(c0 * basis[0] + c1 * basis[1]) % 11
                      for c0 in range(11) for c1 in range(11)])
    vs = elems[elems.any(axis=1)]
    assert len(vs) == 120
    pairs = products(d9, field11, np.repeat(vs, len(elems), axis=0), np.tile(elems, (len(vs), 1)))
    hits = (pairs == e1.coeffs).all(axis=1).reshape(len(vs), len(elems))
    assert (hits.sum(axis=1) == 1).all()
    ws = elems[hits.argmax(axis=1)]
    assert (products(d9, field11, vs, ws) == e1.coeffs).all()
    assert (products(d9, field11, ws, vs) == e1.coeffs).all()


@pytest.mark.parametrize("q,p,m", [(11, 3, 2), (5, 3, 3), (3, 5, 3), (13, 5, 2), (7, 5, 1)])
def test_closed_form_inverse_matches_the_solve(q, p, m):
    """v = p^-j sum_{k < p^j} k a^(2k+1) e_j inverts u = (a - a^-1) e_j, equals
    the inverse e x e that solving x L(u) = e_j gives (the RREF of the
    augmented system [L(u)^T | e_j]), and the e21 that `matrix_units`
    builds is the textbook 4 x^2 (1 - b)/2 a (1 + b)/2 e_j."""
    field, group = PrimeField(q), DihedralGroup(p, m)
    catalog = central_idempotents(field, group)
    a = AlgebraElem.from_group_elem(group.a, field)
    a_inv = AlgebraElem.from_group_elem(group.a.inverse(), field)
    b = AlgebraElem.from_group_elem(group.b, field)
    one = AlgebraElem.one(group, field)
    half = field.inv(2)
    for j in range(1, m + 1):
        e = catalog.component(j)
        u = (a - a_inv) * e
        v = AlgebraElem.zero(group, field)
        for k in range(p**j):
            v = v + k * AlgebraElem.from_group_elem(group.a ** (2 * k + 1), field)
        v = field.inv(p**j) * v * e
        assert u * v == v * u == e
        n = group.order
        R, pivots = modmat.rref(np.column_stack([u.translates().reshape(n, -1).T, e.coeffs]), q)
        assert n not in pivots  # consistent
        x = np.zeros(n, dtype=np.int64)
        x[pivots] = R[:, n]
        x = e * AlgebraElem(group, field, x) * e
        assert v == x
        e21 = 4 * (x * x) * ((one - b) * half) * a * ((one + b) * half) * e
        assert matrix_units(catalog, j).e21 == e21


@pytest.mark.parametrize("q,p,m", [(11, 3, 1), (7, 5, 1), (3, 5, 1), (5, 3, 2)])
def test_other_admissible_triples_build(q, p, m):
    # construction proves every identity once and raises on any failure
    field = PrimeField(q)
    group = DihedralGroup(p, m)
    catalog = central_idempotents(field, group)
    for j in range(1, m + 1):
        gens = noncentral_generator(matrix_units(catalog, j))
        assert left_ideal_code(gens.f).k == phi_prime_power(p, j)
