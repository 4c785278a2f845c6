import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dihedral_codes import (
    DEFAULT_BUDGET,
    AbelianGroup,
    InadmissibleParameters,
    PrimeField,
    SurveyRow,
    abelian_catalog,
    abelian_min_weight,
    enumerate_abelian_codes,
    equivalence_necessary_check,
    format_survey_table,
    gamma_image_code,
    left_ideal_code,
)
from dihedral_codes.codes import weights


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
    rows = enumerate_abelian_codes(3, 2, dim_filter=2)
    assert [(r.mask, r.dim, r.min_weight) for r in rows] == [
        (3, 2, 9),
        (4, 2, 12),
        (8, 2, 12),
    ]


def test_full_survey_row_count_and_dims(acat):
    rows = enumerate_abelian_codes(3, 2)
    assert len(rows) == 63
    assert [r.mask for r in rows] == list(range(1, 64))
    for r in rows:
        expect = sum(acat.dims[b] for b in range(6) if r.mask >> b & 1)
        assert r.dim == expect
        assert type(r.min_weight) is int and 1 <= r.min_weight <= 18
    # the whole algebra
    assert rows[-1].dim == 18 and rows[-1].min_weight == 1


def test_direct_sum_weight_bound(acat):
    """A sum of components contains each component, so its minimum weight
    is at most the smallest component minimum."""
    rows = {r.mask: r for r in enumerate_abelian_codes(3, 2)}
    singles = {b: rows[1 << b].min_weight for b in range(6)}
    for mask, row in rows.items():
        bits = [b for b in range(6) if mask >> b & 1]
        if len(bits) >= 2:
            assert row.min_weight <= min(singles[b] for b in bits)


def test_survey_table_format(acat):
    rows = enumerate_abelian_codes(3, 2, dim_filter=2)
    text = format_survey_table(rows, 11, 3, 2)
    assert text == "11 3 2\n3 2 9\n4 2 12\n8 2 12\n"


# the survey table at (3, 5, 2): rows 1-15 and 63 as the earlier per-row
# elimination of L(sum) and scan wrote them, rows 16-62 (beyond the default
# budget, once written '?') from the closed form
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
16 20 4
17 21 4
18 21 4
19 22 4
20 24 4
21 25 2
22 25 4
23 26 2
24 24 4
25 25 4
26 25 4
27 26 4
28 28 4
29 29 2
30 29 4
31 30 2
32 20 4
33 21 4
34 21 4
35 22 4
36 24 4
37 25 4
38 25 4
39 26 4
40 24 4
41 25 4
42 25 2
43 26 2
44 28 4
45 29 4
46 29 2
47 30 2
48 40 2
49 41 2
50 41 2
51 42 2
52 44 2
53 45 2
54 45 2
55 46 2
56 44 2
57 45 2
58 45 2
59 46 2
60 48 2
61 49 2
62 49 2
63 50 1
"""


def test_survey_table_pinned_at_3_5_2():
    rows = enumerate_abelian_codes(5, 2)
    assert format_survey_table(rows, 3, 5, 2) == PINNED_3_5_2


def test_survey_table_unknown_marker(acat):
    # no row is written '?': the dimension-12 rows, beyond any scan budget
    # below 11^12, carry their closed-form weights
    rows = enumerate_abelian_codes(3, 2, dim_filter=12)
    assert format_survey_table(rows, 11, 3, 2) == "11 3 2\n31 12 2\n47 12 2\n48 12 2\n"
    assert "?" not in format_survey_table(enumerate_abelian_codes(3, 2), 11, 3, 2)


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
    # the image lies over the abelian group of the code's own (p, m); a code
    # over an abelian group has no image to take
    img = gamma_image_code(left_ideal_code(gens1.f))
    assert img.group == AbelianGroup(3, 2)
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
    for row in enumerate_abelian_codes(3, 2, dim_filter=2):
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


@pytest.mark.parametrize("q, p, m", [(11, 3, 2), (5, 3, 2), (3, 5, 2)])
def test_survey_weights_match_the_rref_route(q, p, m):
    """Oracle: a row's closed-form weight equals the minimum weight of the
    row's code scanned through its canonical RREF, on every row within the
    budget."""
    acat = abelian_catalog(PrimeField(q), p, m)
    scanned = 0
    for row in enumerate_abelian_codes(p, m):
        w = acat.code(row.mask).min_weight(budget=DEFAULT_BUDGET)
        if w is not None:
            assert w == row.min_weight, row
            scanned += 1
    assert scanned > 15


def test_survey_rows_need_no_elimination(monkeypatch):
    """The catalog has verified that the member codes are independent, so
    neither the survey, nor `AbelianCatalog.basis`, nor the row scan of the
    `survey` check eliminates."""
    import dihedral_codes.modmat as modmat
    from dihedral_codes.verify import VerifyContext, check_survey

    ctx = VerifyContext(11, 3, 2, budget=11**4)
    acat = ctx.abelian_cat  # built, with its eliminations, before the patch
    real, calls = modmat.rref, []
    monkeypatch.setattr(modmat, "rref", lambda *args: calls.append(1) or real(*args))
    rows = enumerate_abelian_codes(3, 2)
    assert len(rows) == 63
    assert all(len(acat.basis(row.mask)) == row.dim for row in rows)
    assert check_survey(ctx) == "63 rows; dims consistent; 13 weights exact, rest beyond budget"
    assert calls == []
    acat.code(63)  # the patch does see an elimination
    assert calls == [1]


def test_catalog_rejects_dependent_member_codes(acat, monkeypatch):
    """The catalog's one rank check is what guarantees every row's
    dimension, so it must fire when member codes overlap."""
    import dihedral_codes.idempotents as idempotents

    real = idempotents.left_ideal_code
    monkeypatch.setattr(idempotents, "left_ideal_code", lambda x: real(acat.members[0]))
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


# every triple the closed form is checked at; rows are scanned within ORACLE_BUDGET
ORACLE_TRIPLES = [
    (11, 3, 2), (5, 3, 2), (3, 5, 2), (5, 3, 3), (3, 5, 3), (7, 5, 1), (5, 7, 1),
    (3, 7, 2), (11, 3, 1), (13, 5, 2), (3, 5, 1), (5, 3, 1), (23, 3, 2),
]
ORACLE_BUDGET = 1 << 21


def _scanned_min_weight(G, q, budget):
    dist = weights(G, q, budget)
    return None if dist is None else int(np.flatnonzero(dist)[1])


@pytest.mark.parametrize("q, p, m", ORACLE_TRIPLES)
def test_abelian_min_weight_matches_the_scan(q, p, m):
    """Oracle: the closed form equals the exhaustive scan of the row's
    stacked member bases on every row within the budget."""
    acat = abelian_catalog(PrimeField(q), p, m)
    scanned = 0
    for row in enumerate_abelian_codes(p, m):
        w = _scanned_min_weight(acat.basis(row.mask), q, ORACLE_BUDGET)
        if w is not None:
            assert w == row.min_weight, row
            scanned += 1
    assert scanned >= 10


@pytest.mark.parametrize("q, p, m", ORACLE_TRIPLES)
def test_closed_form_rows_match_the_catalog(q, p, m):
    """Oracle: the rows built from phi(p^j) alone equal the rows built from
    the dimensions of the catalog's verified member codes, with the same
    closed-form weights, at every dimension filter."""
    dims = _catalog(q, p, m).dims
    from_catalog = []
    for mask in range(1, 1 << len(dims)):
        plus = [j for j in range(m + 1) if mask >> 2 * j & 1]
        minus = [j for j in range(m + 1) if mask >> 2 * j + 1 & 1]
        dim = sum(k for b, k in enumerate(dims) if mask >> b & 1)
        from_catalog.append(SurveyRow(mask, dim, abelian_min_weight(plus, minus, p, m)))
    assert enumerate_abelian_codes(p, m) == from_catalog
    for dim in {1, 2, *dims, 2 * p**m}:
        assert enumerate_abelian_codes(p, m, dim_filter=dim) == [
            r for r in from_catalog if r.dim == dim
        ]


def test_abelian_min_weight_small_cases():
    # delta({j}, m) = 2 p^(m-j) for j >= 1 and p^m for j = 0
    assert abelian_min_weight({0}, (), 3, 2) == 18
    assert abelian_min_weight({0}, {0}, 3, 2) == 9
    assert abelian_min_weight({1}, (), 3, 2) == 12
    assert abelian_min_weight({1}, {1}, 3, 2) == 6
    assert abelian_min_weight({0, 1, 2}, {0, 1, 2}, 3, 2) == 1
    assert abelian_min_weight({0, 1, 2}, {0}, 3, 2) == 2
    assert abelian_min_weight({2}, {0, 1}, 5, 2) == 4
    for plus, minus in [((), ()), ({3}, ()), ((), {0, -1})]:
        with pytest.raises(ValueError, match="nonempty subset of components 0..2"):
            abelian_min_weight(plus, minus, 3, 2)


def _admissible_small_triples():
    from dihedral_codes import check_admissible, is_prime

    return [
        (q, p, m)
        for p, m in ((3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3))
        for q in range(3, 60)
        if is_prime(q) and check_admissible(q, p, m)
    ]


@functools.lru_cache(maxsize=None)
def _catalog(q, p, m):
    return abelian_catalog(PrimeField(q), p, m)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_admissible_small_triples()), st.data())
def test_abelian_min_weight_matches_the_scan_at_random_triples(triple, data):
    """Oracle: a random row within the budget of a random small admissible
    triple; the closed form equals the scan."""
    q, p, m = triple
    acat, budget = _catalog(q, p, m), 1 << 16
    rows = [r for r in enumerate_abelian_codes(p, m) if q**r.dim <= budget]
    row = data.draw(st.sampled_from(rows), label="row")
    plus = [j for j in range(m + 1) if row.mask >> 2 * j & 1]
    minus = [j for j in range(m + 1) if row.mask >> 2 * j + 1 & 1]
    assert _scanned_min_weight(acat.basis(row.mask), q, budget) == abelian_min_weight(
        plus, minus, p, m
    )


def test_survey_check_names_the_row_whose_scan_disagrees(monkeypatch):
    import dihedral_codes.verify as verify
    from dihedral_codes import SurveyRow, run_checks

    real = verify.enumerate_abelian_codes

    def off_by_one(p, m, dim_filter=None):
        return [SurveyRow(r.mask, r.dim, r.min_weight + (r.mask == 3))
                for r in real(p, m, dim_filter)]

    monkeypatch.setattr(verify, "enumerate_abelian_codes", off_by_one)
    survey, noneq = run_checks(11, 3, 2, names=["survey", "nonequivalence"])
    assert not survey.passed and not noneq.passed
    assert survey.detail == "survey row mask=3: scan 9 != closed form 10"
    assert noneq.detail == survey.detail
