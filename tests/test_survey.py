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


# the survey table at (3, 5, 2) as the earlier per-row elimination of L(sum)
# wrote it: 15 exact rows, 47 '?' rows and the full-space row
PINNED_3_5_2 = """\
3 5 2
1 1 50
2 1 50
3 2 25
4 4 20
5 5 10
6 5 20
7 6 10
8 4 20
9 5 20
10 5 10
11 6 10
12 8 10
13 9 10
14 9 10
15 10 5
16 20 ?
17 21 ?
18 21 ?
19 22 ?
20 24 ?
21 25 ?
22 25 ?
23 26 ?
24 24 ?
25 25 ?
26 25 ?
27 26 ?
28 28 ?
29 29 ?
30 29 ?
31 30 ?
32 20 ?
33 21 ?
34 21 ?
35 22 ?
36 24 ?
37 25 ?
38 25 ?
39 26 ?
40 24 ?
41 25 ?
42 25 ?
43 26 ?
44 28 ?
45 29 ?
46 29 ?
47 30 ?
48 40 ?
49 41 ?
50 41 ?
51 42 ?
52 44 ?
53 45 ?
54 45 ?
55 46 ?
56 44 ?
57 45 ?
58 45 ?
59 46 ?
60 48 ?
61 49 ?
62 49 ?
63 50 1
"""


def test_survey_table_pinned_at_3_5_2():
    rows = enumerate_abelian_codes(abelian_catalog(PrimeField(3), 5, 2))
    assert format_survey_table(rows, 3, 5, 2) == PINNED_3_5_2


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


def _masked_sum(acat, mask):
    """The idempotent of a survey row, summed from the catalog members."""
    picked = [x for b, x in enumerate(acat.members) if mask >> b & 1]
    return sum(picked[1:], picked[0])


def test_equivalence_check_impossible_for_f(acat, gens1):
    code_f = left_ideal_code(gens1.f)
    for row in enumerate_abelian_codes(acat, dim_filter=2):
        gen = _masked_sum(acat, row.mask)
        assert equivalence_necessary_check(code_f, left_ideal_code(gen)) == "impossible"


@pytest.mark.parametrize("q, p, m", [(11, 3, 2), (5, 3, 1), (3, 5, 1), (5, 3, 2), (3, 5, 2)])
def test_catalog_code_is_the_ideal_of_the_masked_sum(q, p, m):
    """Oracle: the span of the member codes is the left ideal of the sum of
    the members, built from scratch as the row space of L(sum)."""
    acat = abelian_catalog(PrimeField(q), p, m)
    for mask in range(1, 1 << len(acat)):
        assert acat.code(mask).same_code(left_ideal_code(_masked_sum(acat, mask)))
    for mask in (0, 1 << len(acat), -1):
        with pytest.raises(ValueError):
            acat.code(mask)


# (5, 3, 2) at the default budget scans rows of 5^10 words for a minute
@pytest.mark.parametrize("q, p, m, budget",
                         [(11, 3, 2, 11**6), (5, 3, 2, 5**8), (3, 5, 2, 3**15)])
def test_survey_weights_match_the_rref_route(q, p, m, budget):
    """Oracle: a row's weight from the stacked member bases equals the
    minimum weight of the row's code through its canonical RREF."""
    acat = abelian_catalog(PrimeField(q), p, m)
    rows = enumerate_abelian_codes(acat, budget=budget)
    for row in rows:
        assert row.min_weight == acat.code(row.mask).min_weight(budget=budget)
    assert sum(row.min_weight is not None for row in rows) > 15


def test_survey_rows_need_no_elimination(acat, monkeypatch):
    """The catalog has verified that the member codes are independent, so
    no row eliminates its stacked basis."""
    import dihedral_codes.modmat as modmat

    real, calls = modmat.rref, []
    monkeypatch.setattr(modmat, "rref", lambda *args: calls.append(1) or real(*args))
    rows = enumerate_abelian_codes(acat, budget=11**4)
    assert len(rows) == 63 and calls == []
    acat.code(63)  # the patch does see an elimination
    assert calls == [1]


def test_catalog_rejects_dependent_member_codes(acat, monkeypatch):
    """The catalog's one rank check is what guarantees every row's
    dimension, so it must fire when member codes overlap."""
    import dihedral_codes.survey as survey

    real = survey.left_ideal_code
    monkeypatch.setattr(survey, "left_ideal_code", lambda x: real(acat.members[0]))
    with pytest.raises(RuntimeError, match="not independent"):
        abelian_catalog(acat.field, 3, 2)


def test_equivalence_check_possible_cases(units1):
    code = left_ideal_code(units1.e11)
    assert equivalence_necessary_check(code, code) == "possible"
    assert equivalence_necessary_check(code, gamma_image_code(code)) == "possible"


def test_equivalence_check_dimension_mismatch(units1, catalog):
    a = left_ideal_code(units1.e11)
    b = left_ideal_code(catalog.component(1))
    assert equivalence_necessary_check(a, b) == "impossible"
