import random

import pytest

from dihedral_codes import (
    AbelianGroup,
    AlgebraElem,
    DihedralGroup,
    NotInvertibleError,
    PrimeField,
    hat,
    invert_in_component,
    is_central,
    is_idempotent,
    left_translate,
)


def rand_elem(group, field, rng):
    return AlgebraElem(group, field, [rng.randrange(field.q) for _ in range(group.order)])


def test_pointwise_identities(field11, d9):
    rng = random.Random(1)
    x = rand_elem(d9, field11, rng)
    zero = AlgebraElem.zero(d9, field11)
    assert x + zero == x
    assert 1 * x == x
    assert x + (-x) == zero
    assert x - x == zero
    assert (3 * x) + (8 * x) == zero  # 11 x = 0


def test_mismatch_raises(field11, d9):
    other = AlgebraElem.zero(d9, PrimeField(13))
    with pytest.raises(ValueError):
        AlgebraElem.zero(d9, field11) + other


def test_convolution_embeds_group(field11, d9):
    a = AlgebraElem.from_group_elem(d9.a, field11)
    b = AlgebraElem.from_group_elem(d9.b, field11)
    ab = a * b
    assert ab.support_weight() == 1
    assert ab.coeffs[(d9.a * d9.b).index] == 1
    one = AlgebraElem.one(d9, field11)
    x = rand_elem(d9, field11, random.Random(2))
    assert x * one == x


def test_half_one_plus_b_is_idempotent(field11, d9):
    one = AlgebraElem.one(d9, field11)
    b = AlgebraElem.from_group_elem(d9.b, field11)
    p = (one + b) * field11.inv(2)
    assert p * p == p


def test_convolution_associative_distributive(field11, d9):
    rng = random.Random(3)
    for _ in range(200):
        x, y, z = (rand_elem(d9, field11, rng) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


def test_central_elements_commute(field11, d9, catalog):
    rng = random.Random(4)
    e1 = catalog.component(1)
    for _ in range(50):
        y = rand_elem(d9, field11, rng)
        assert e1 * y == y * e1


def test_hat_trivial_subgroup(field11, d9):
    assert hat(field11, [d9.identity]) == AlgebraElem.one(d9, field11)


def test_hat_H1_frozen(field11, d9):
    h1 = hat(field11, d9.subgroup_H(1))
    expect = [0] * 18
    for t in (0, 3, 6):
        expect[t] = 4  # 1/3 = 4 in F_11
    assert list(h1.coeffs) == expect


def test_hat_idempotent_for_every_subgroup(field11, d9):
    for sub in d9.all_subgroups():
        h = hat(field11, sub)
        assert is_idempotent(h)


def test_hat_absorption(field11, d9):
    subs = d9.all_subgroups()
    pairs = 0
    for H in subs:
        hi = {g.index for g in H}
        for K in subs:
            ki = {g.index for g in K}
            if hi < ki:
                assert hat(field11, H) * hat(field11, K) == hat(field11, K)
                pairs += 1
    assert pairs == 42


def test_hat_rejects_non_invertible_order(d9):
    f3 = PrimeField(3)
    with pytest.raises(ValueError):
        hat(f3, d9.subgroup_H(1))  # |H| = 3 = 0 in F_3


def test_hat_rejects_non_subgroup(field11, d9):
    with pytest.raises(ValueError):
        hat(field11, [d9.identity, d9.a])  # not closed
    with pytest.raises(ValueError):
        hat(field11, [d9.a, d9.a.inverse()])  # no identity


def test_idempotent_central_flags(field11, d9, catalog, gens1):
    e1 = catalog.component(1)
    assert is_idempotent(e1) and is_central(e1)
    f = gens1.f
    assert is_idempotent(f) and not is_central(f)
    zero = AlgebraElem.zero(d9, field11)
    assert is_idempotent(zero) and is_central(zero)


def test_support_weight_examples(field11, d9, catalog):
    assert AlgebraElem.zero(d9, field11).support_weight() == 0
    assert AlgebraElem.from_group_elem(d9.element(4, 1), field11).support_weight() == 1
    assert catalog.component(1).support_weight() == 9


def test_left_translate_matches_convolution(field11, d9):
    rng = random.Random(5)
    x = rand_elem(d9, field11, rng)
    for g in d9.elements():
        ge = AlgebraElem.from_group_elem(g, field11)
        assert left_translate(g, x) == ge * x


def test_invert_identity_of_component(catalog):
    e1 = catalog.component(1)
    assert invert_in_component(e1, e1) == e1


def test_invert_a_minus_a_inverse(field11, d9, catalog):
    e1 = catalog.component(1)
    a = AlgebraElem.from_group_elem(d9.a, field11)
    a_inv = AlgebraElem.from_group_elem(d9.a.inverse(), field11)
    u = (a - a_inv) * e1
    v = invert_in_component(u, e1)
    assert u * v == e1
    assert v * u == e1
    assert v * e1 == v


def test_invert_zero_raises(field11, d9, catalog):
    zero = AlgebraElem.zero(d9, field11)
    with pytest.raises(NotInvertibleError):
        invert_in_component(zero, catalog.component(1))


def test_invert_requires_component_membership(field11, d9, catalog):
    one = AlgebraElem.one(d9, field11)
    with pytest.raises(ValueError):
        invert_in_component(one, catalog.component(1))


def test_coeffs_are_read_only(field11, d9):
    x = AlgebraElem.one(d9, field11)
    with pytest.raises(ValueError):
        x.coeffs[0] = 5


def brute_product(x, y):
    """Python-int oracle: (xy)_{gh} += x_g y_h over GroupElem products, with
    no multiplication or translate table."""
    out = [0] * x.group.order
    for g in x.group.elements():
        for h in x.group.elements():
            out[(g * h).index] += int(x.coeffs[g.index]) * int(y.coeffs[h.index])
    return [v % x.field.q for v in out]


GROUPS = [DihedralGroup(3, 2), AbelianGroup(3, 2), DihedralGroup(5, 1), AbelianGroup(5, 1)]


@pytest.mark.parametrize("group", GROUPS, ids=repr)
@pytest.mark.parametrize("q", [2, 11])
def test_convolve_matches_brute_force(group, q):
    field = PrimeField(q)
    rng = random.Random(6)
    for _ in range(5):
        x, y = rand_elem(group, field, rng), rand_elem(group, field, rng)
        assert list(x.convolve(y).coeffs) == brute_product(x, y)
        for g in group.elements():
            ge = AlgebraElem.from_group_elem(g, field)
            assert list(left_translate(g, y).coeffs) == brute_product(ge, y)


@pytest.mark.parametrize("group", [DihedralGroup(3, 2), AbelianGroup(3, 2)], ids=repr)
def test_invert_in_component_round_trip(field11, group, primitive_idempotents):
    rng = random.Random(7)
    for e in primitive_idempotents(field11, group):
        inverted = 0
        for _ in range(4):
            u = e * rand_elem(group, field11, rng) * e
            if u.is_zero():
                continue
            v = invert_in_component(u, e)
            assert brute_product(u, v) == brute_product(v, u) == list(e.coeffs)
            assert brute_product(e, v) == list(v.coeffs)
            inverted += 1
        assert inverted


def test_int64_bound_refuses_wrapping_products(d9):
    # q = 1000000103: 18 (q-1)^2 >= 2^63, so the int64 product of two
    # all-(q-1) elements used to wrap to 304892324 in every coordinate
    q = 1000000103
    with pytest.raises(ValueError, match=r"2\^63"):
        AlgebraElem(d9, PrimeField(q), [q - 1] * 18)
    with pytest.raises(ValueError, match=r"2\^63"):
        AlgebraElem.zero(d9, PrimeField(715827947))  # smallest prime past the bound


def test_product_exact_just_below_int64_bound(d9):
    q = 715827883  # largest prime with 18 (q-1)^2 < 2^63
    field = PrimeField(q)
    x = AlgebraElem(d9, field, [q - 1] * 18)
    assert list((x * x).coeffs) == brute_product(x, x) == [18] * 18
    y = rand_elem(d9, field, random.Random(8))
    assert list((x * y).coeffs) == brute_product(x, y)
    assert [(q - 1) * int(c) % q for c in y.coeffs] == list(((q - 1) * y).coeffs)
