import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dihedral_codes import (
    AbelianGroup,
    AlgebraElem,
    DihedralGroup,
    PrimeField,
    Subgroup,
    hat,
    is_central,
    is_idempotent,
    left_translate,
    products,
)
from dihedral_codes.algebra import chunk_rows


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
    assert hat(field11, Subgroup(d9, 2)) == AlgebraElem.one(d9, field11)


def test_hat_H1_frozen(field11, d9):
    h1 = hat(field11, Subgroup(d9, 1))
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
        for K in subs:
            if H.within(K) and H != K:
                assert hat(field11, H) * hat(field11, K) == hat(field11, K)
                pairs += 1
    assert pairs == 42


def test_hat_rejects_non_invertible_order(d9):
    f3 = PrimeField(3)
    with pytest.raises(ValueError, match=r"^\|H\| = 3 is not invertible in F_3$"):
        hat(f3, Subgroup(d9, 1))  # |H| = 3 = 0 in F_3


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


@pytest.mark.parametrize("group", [DihedralGroup(3, 2), AbelianGroup(3, 2)], ids=repr)
@pytest.mark.parametrize("q", [2, 11])
def test_convolve_matches_full_translate_matrix(group, q):
    """x y gathers L(y) only on the support of x; it must equal x @ L(y)
    for an empty, a one-point, a subgroup and a full support."""
    field = PrimeField(q)
    rng = random.Random(9)
    subgroup = next(H for H in group.all_subgroups() if 1 < H.order < group.order
                    and H.order % q)
    xs = [AlgebraElem.zero(group, field),
          AlgebraElem.from_group_elem(group.element(1, 1), field),
          hat(field, subgroup),
          rand_elem(group, field, rng)]
    assert [x.support_weight() for x in xs][:3] == [0, 1, subgroup.order]
    for x in xs:
        for y in (rand_elem(group, field, rng), hat(field, subgroup)):
            full = x.coeffs @ y.translates() % q
            assert np.array_equal(x.convolve(y).coeffs, full)


def mult_table_products(group, q, xs, ys):
    """Oracle in Python ints: (xy)_g = sum_h x_h y_{h^-1 g}, where h^-1 g is
    found as the k with h k = g in `mult_table`, with no translate table."""
    solve = np.argsort(group.mult_table, axis=1)  # solve[h, g] = k with h k = g
    xs, ys = xs.astype(object), ys.astype(object)
    return (xs[:, :, None] * ys[:, solve]).sum(axis=1) % q


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([*GROUPS, DihedralGroup(5, 3)]),
    st.sampled_from([2, 3, 11, 715827883]),
    st.integers(0, 4),  # columns of a sparse stack, or 0 for a dense one
    st.booleans(),  # rows on different subsets of those columns, or all on them
    st.integers(0, 2),  # stack size: below, at or past the chunk boundary
    st.integers(0, 2**32 - 1),
)
@example(DihedralGroup(5, 3), 3, 0, True, 2, 0)  # n = 250: a dense chunk is one row
def test_products_match_a_mult_table_oracle(group, q, sparse, mixed, where, seed):
    # the object-dtype oracle is too slow at n = 250 for sparse stacks, which
    # hold up to 263 rows there
    assume(group.order < 250 or (sparse == 0 and q < 1000))
    rng = np.random.default_rng(seed)
    n = group.order
    cols = rng.choice(n, size=sparse or n, replace=False)
    chunk = chunk_rows(group, len(cols))
    B = [max(chunk - 1, 1), chunk, 2 * chunk + 1][where]
    # row r is nonzero on the first ends[r] of cols, ends growing down the
    # stack to the last row's, all of cols: so the union support is cols,
    # and in a mixed stack past the chunk boundary a chunk's own union
    # support is mostly a strict subset of it
    ends = np.sort(rng.integers(1, len(cols) + 1, B)) if mixed else np.full(B, len(cols))
    ends[-1] = len(cols)
    xs = np.zeros((B, n), dtype=np.int64)
    xs[:, cols] = rng.integers(1, q, (B, len(cols))) * (np.arange(len(cols)) < ends[:, None])
    ys = rng.integers(0, q, (B, n))
    out = products(group, PrimeField(q), xs, ys)
    assert out.shape == (B, n) and out.dtype == np.int64
    assert np.array_equal(out, mult_table_products(group, q, xs, ys).astype(np.int64))


def test_products_refuse_the_int64_bound_and_mismatched_stacks(d9):
    with pytest.raises(ValueError, match=r"2\^63"):
        products(d9, PrimeField(1000000103), np.zeros((1, 18)), np.zeros((1, 18)))
    with pytest.raises(ValueError, match="stacks"):
        products(d9, PrimeField(11), np.zeros((2, 18)), np.zeros((3, 18)))
    with pytest.raises(ValueError, match="stacks"):
        products(d9, PrimeField(11), np.zeros((2, 9)), np.zeros((2, 9)))
    assert products(d9, PrimeField(11), np.zeros((0, 18)), np.zeros((0, 18))).shape == (0, 18)


def test_chunk_rows_fit_the_scan_kernel_step():
    # a dense row at n = 250 has a 500 KB index block: one row per chunk
    assert chunk_rows(DihedralGroup(5, 3)) == 1
    assert chunk_rows(DihedralGroup(3, 2)) == 101
    assert chunk_rows(DihedralGroup(3, 2), 0) == chunk_rows(DihedralGroup(3, 2), 1) == 1820
