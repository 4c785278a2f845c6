import numpy as np
import pytest

from dihedral_codes import (
    AbelianGroup,
    InadmissibleParameters,
    PrimeField,
    abelian_catalog,
    enumerate_abelian_codes,
    equivalence_necessary_check,
    format_survey_table,
    gamma_image_code,
    left_ideal_code,
)


@pytest.fixture(scope="module")
def acat(field11):
    return abelian_catalog(field11, 3, 2)


def test_catalog_members_and_dims(acat):
    assert len(acat.members) == 6
    assert list(acat.dims) == [1, 1, 2, 2, 6, 6]


def test_catalog_orthogonal_complete(acat, field11):
    from dihedral_codes import AlgebraElem, is_idempotent

    total = AlgebraElem.zero(acat.group, field11)
    for x in acat.members:
        assert is_idempotent(x)
        total = total + x
    assert total == AlgebraElem.one(acat.group, field11)
    for i, x in enumerate(acat.members):
        for y in acat.members[i + 1 :]:
            assert (x * y).is_zero()


def test_inadmissible_rejected():
    with pytest.raises(InadmissibleParameters):
        abelian_catalog(PrimeField(7), 3, 2)


def test_dim2_rows_frozen(acat):
    rows = enumerate_abelian_codes(acat, dim_filter=2)
    assert [(r.mask, r.dim, r.min_weight) for r in rows] == [
        (3, 2, 9),
        (4, 2, 12),
        (8, 2, 12),
    ]


def test_full_survey_row_count_and_dims(acat):
    rows = enumerate_abelian_codes(acat, budget=20000)
    assert len(rows) == 63
    assert [r.mask for r in rows] == list(range(1, 64))
    for r in rows:
        expect = sum(acat.dims[b] for b in range(6) if r.mask >> b & 1)
        assert r.dim == expect
        if r.min_weight is None:
            assert 11 ** r.dim > 20000 and r.dim < 18
    # the whole algebra: exact without enumeration
    assert rows[-1].dim == 18 and rows[-1].min_weight == 1


def test_direct_sum_weight_bound(acat):
    """A sum of components contains each component, so its minimum weight
    is at most the smallest component minimum."""
    rows = {r.mask: r for r in enumerate_abelian_codes(acat, budget=20000)}
    singles = {b: rows[1 << b].min_weight for b in range(6)}
    for mask, row in rows.items():
        bits = [b for b in range(6) if mask >> b & 1]
        if row.min_weight is None or len(bits) < 2:
            continue
        if any(singles[b] is None for b in bits):
            continue
        assert row.min_weight <= min(singles[b] for b in bits)


def test_survey_table_format(acat):
    rows = enumerate_abelian_codes(acat, dim_filter=2)
    text = format_survey_table(rows, 11, 3, 2)
    assert text == "11 3 2\n3 2 9\n4 2 12\n8 2 12\n"


def test_survey_table_unknown_marker(acat):
    rows = enumerate_abelian_codes(acat, dim_filter=12, budget=20000)
    text = format_survey_table(rows, 11, 3, 2)
    for line in text.strip().split("\n")[1:]:
        assert line.endswith(" 12 ?")


def test_gamma_image_is_the_abelian_ideal(units1, acat):
    img11 = gamma_image_code(left_ideal_code(units1.e11))
    img22 = gamma_image_code(left_ideal_code(units1.e22))
    assert img11.same_code(left_ideal_code(acat.members[2]))
    assert img22.same_code(left_ideal_code(acat.members[3]))
    assert img11.is_left_ideal()
    assert img22.is_left_ideal()


def test_gamma_image_of_f_code_is_not_an_ideal(gens1):
    img = gamma_image_code(left_ideal_code(gens1.f))
    assert not img.is_left_ideal()


def test_gamma_image_of_zero_code(d9):
    import numpy as np

    from dihedral_codes import LinearCode

    zero = LinearCode(np.zeros((1, 18), dtype=np.int64), 11, group=d9)
    img = gamma_image_code(zero)
    assert img.k == 0 and img.n == 18
    assert isinstance(img.group, AbelianGroup)


def test_gamma_image_parameter_mismatch(gens1):
    code = left_ideal_code(gens1.f)
    with pytest.raises(ValueError):
        gamma_image_code(code, AbelianGroup(3, 1))
    img = gamma_image_code(code)
    with pytest.raises(ValueError):
        gamma_image_code(img)  # already abelian


def test_gamma_is_an_isometry(units1, gens1, catalog):
    for gen in (units1.e11, gens1.f, catalog.component(1)):
        code = left_ideal_code(gen)
        image = gamma_image_code(code)
        assert np.array_equal(code.weight_distribution(), image.weight_distribution())


def test_equivalence_check_impossible_for_f(acat, gens1):
    code_f = left_ideal_code(gens1.f)
    for row in enumerate_abelian_codes(acat, dim_filter=2):
        gen = acat.generator(row.mask)
        assert equivalence_necessary_check(code_f, left_ideal_code(gen)) == "impossible"


def test_catalog_generator_sums_masked_members(acat):
    assert acat.generator(1) == acat.members[0]
    assert acat.generator(0b101) == acat.members[0] + acat.members[2]
    assert acat.generator(63) == sum(acat.members[1:], acat.members[0])
    for mask in (0, 64, -1):
        with pytest.raises(ValueError):
            acat.generator(mask)


def test_equivalence_check_possible_cases(units1):
    code = left_ideal_code(units1.e11)
    assert equivalence_necessary_check(code, code) == "possible"
    assert equivalence_necessary_check(code, gamma_image_code(code)) == "possible"


def test_equivalence_check_dimension_mismatch(units1, catalog):
    a = left_ideal_code(units1.e11)
    b = left_ideal_code(catalog.component(1))
    assert equivalence_necessary_check(a, b) == "impossible"
