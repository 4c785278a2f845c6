import random
import tracemalloc

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
    products,
)
from dihedral_codes import algebra
from dihedral_codes._kernels import CELLS


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


def test_translates_rows_match_convolution(field11, d9):
    rng = random.Random(5)
    x = rand_elem(d9, field11, rng)
    L = x.translates()
    assert L.shape == (2, 9, 2, 9) and not L.flags.writeable
    for g in d9.elements():
        ge = AlgebraElem.from_group_elem(g, field11)
        assert np.array_equal(L.reshape(18, 18)[g.index], (ge * x).coeffs)
        assert np.array_equal(L[g.j, g.i].ravel(), (ge * x).coeffs)


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
            assert list(y.translates().reshape(group.order, -1)[g.index]) == brute_product(ge, y)


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
            full = x.coeffs @ y.translates().reshape(group.order, -1) % q
            assert np.array_equal(x.convolve(y).coeffs, full)


def translate_index(group):
    """idx[g, h] = index(g^-1 h), from GroupElem products alone: x[idx] is
    L(x), whose row g is g x, as (g x)_h = x_(g^-1 h)."""
    els = group.elements()
    return np.array([[(g.inverse() * h).index for h in els] for g in els])


@pytest.mark.parametrize(
    "group", [cls(p, m) for cls in (DihedralGroup, AbelianGroup)
              for p, m in ((3, 1), (3, 2), (5, 1), (5, 3))], ids=repr
)
def test_translates_match_an_index_oracle(group):
    """L(x) of a random x, of every subgroup average H^ and of every
    H^ - K^ for nested H < K: the whole view, and rows read at [e, i] for
    index arrays of a^i b^e."""
    field, n, N = PrimeField(11), group.order, group.rot_order
    idx = translate_index(group)
    subs = group.all_subgroups()
    hats = {S: hat(field, S) for S in subs}
    xs = [rand_elem(group, field, random.Random(10)), *hats.values()]
    xs += [hats[H] - hats[K] for H in subs for K in subs if H != K and H.within(K)]
    g = np.random.default_rng(11).permutation(n)
    for x in xs:
        L = x.translates()
        assert L.shape == (2, N, 2, N) and not L.flags.writeable
        assert np.array_equal(L.reshape(n, n), x.coeffs[idx])
        assert np.array_equal(L[g // N, g % N].reshape(n, n), x.coeffs[idx[g]])


def mult_table_products(group, q, xs, ys):
    """Oracle in Python ints: (xy)_g = sum_h x_h y_{h^-1 g}, where h^-1 g is
    found as the k with h k = g in `mult_table`, with no translate table."""
    solve = np.argsort(group.mult_table, axis=1)  # solve[h, g] = k with h k = g
    xs, ys = xs.astype(object), ys.astype(object)
    return (xs[:, :, None] * ys[:, solve]).sum(axis=1) % q


def chunk_boundary(group, q: int, support: int, halves: int) -> int:
    """Rows per chunk of `products` for a stack whose rows have the union
    support S, meeting `halves` halves of x, restated from its memory bound.
    A sparse row, when S is less than half the group and one fits in CELLS
    bytes, holds its buffer W, 32 n bytes, and its copied rows of L,
    8 n |S|.  A dense row holds W with its cyclic tail, 4 (n + s - 1)
    cells, and the lanes of its halves' products, summed in place, 2 h c,
    with s fields a lane (1 below PACK_FROM) and c = ceil(N / s) lanes an
    output half; a packed row also holds P, 2 h (n + s - 1) cells, and
    the fields, 2 c s."""
    n, N = group.order, group.rot_order
    if 2 * support < n and 32 * n + 8 * n * support <= CELLS:
        return max(1, CELLS // (32 * n + 8 * n * support))
    s = 63 // (n * (q - 1) ** 2).bit_length() if N >= algebra.PACK_FROM else 1
    c, h = -(-N // s), halves
    cells = 4 * (n + s - 1) + 2 * h * c + (2 * h * (n + s - 1) + 2 * c * s if s > 1 else 0)
    return max(1, CELLS // (8 * cells))


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([*GROUPS, DihedralGroup(5, 3)]),
    st.sampled_from([2, 3, 11, 715827883]),
    st.integers(0, 4),  # columns of a sparse stack, or 0 for a dense one
    st.booleans(),  # rows on different subsets of those columns, or all on them
    st.integers(0, 3),  # stack size: empty, below, at or past the chunk boundary
    st.sampled_from(["plain", "broadcast left", "broadcast right", "column slices"]),
    st.sampled_from(["both", "a", "b"]),  # the halves of x the columns lie in
    st.integers(0, 2**32 - 1),
)
@example(DihedralGroup(5, 3), 3, 0, True, 3, "plain", "both", 0)  # n = 250, packed chunks
@example(AbelianGroup(5, 3), 3, 0, True, 3, "plain", "both", 0)
@example(DihedralGroup(5, 3), 3, 0, True, 3, "plain", "a", 0)  # x in F_3<a>, as component-field
@example(DihedralGroup(5, 3), 11, 0, False, 3, "plain", "b", 0)
@example(AbelianGroup(5, 3), 2, 0, True, 3, "plain", "b", 0)
@example(DihedralGroup(5, 3), 3, 0, True, 0, "plain", "both", 0)  # empty stacks
@example(AbelianGroup(5, 3), 3, 0, True, 0, "plain", "both", 0)
def test_products_match_a_mult_table_oracle(group, q, sparse, mixed, where, layout, halves, seed):
    # the object-dtype oracle is too slow at n = 250 for huge residues
    assume(group.order < 250 or q < 1000)
    rng = np.random.default_rng(seed)
    n, N = group.order, group.rot_order
    pool = {"both": n, "a": N, "b": N}[halves]
    cols = rng.choice(pool, size=sparse or pool, replace=False) + (N if halves == "b" else 0)
    chunk = chunk_boundary(group, q, len(cols), 2 if halves == "both" else 1)
    B = [0, max(chunk - 1, 1), chunk, 2 * chunk + 1][where]
    # row r is nonzero on the first ends[r] of cols, ends growing down the
    # stack to the last row's, all of cols: so the union support is cols,
    # and in a mixed stack the first row's support is mostly a strict
    # subset of it
    ends = np.sort(rng.integers(1, len(cols) + 1, B)) if mixed else np.full(B, len(cols))
    ends[-1:] = len(cols)
    xs = np.zeros((B, n), dtype=np.int64)
    xs[:, cols] = rng.integers(1, q, (B, len(cols))) * (np.arange(len(cols)) < ends[:, None])
    ys = rng.integers(0, q, (B, n))
    if layout == "broadcast left" and B:  # as `hat-idempotents` passes H^
        xs = np.broadcast_to(xs[-1], xs.shape)
    elif layout == "broadcast right" and B:
        ys = np.broadcast_to(ys[0], ys.shape)
    elif layout == "column slices":  # rows of a wider array: not contiguous
        wide = rng.integers(0, q, (2, B, n + 5))
        wide[0, :, 2 : n + 2], wide[1, :, 3 : n + 3] = xs, ys
        xs, ys = wide[0, :, 2 : n + 2], wide[1, :, 3 : n + 3]
        assert not xs.flags.c_contiguous or B < 2
    out = products(group, PrimeField(q), xs, ys)
    assert out.shape == (B, n) and out.dtype == np.int64
    assert np.array_equal(out, mult_table_products(group, q, xs, ys).astype(np.int64))


@pytest.mark.parametrize("family", [DihedralGroup, AbelianGroup], ids=lambda f: f.__name__)
@pytest.mark.parametrize("p, m", [(3, 4), (11, 2), (5, 3), (13, 2), (3, 5), (5, 4)])
@pytest.mark.parametrize("q", [2, 3, 5, 11, 13])
def test_products_of_top_residues_fill_every_field(family, p, m, q):
    """N = 81 to 625, all packed.  Every unreduced entry of the product of
    two all-(q-1) stacks is n (q-1)^2, the bound the field width is taken
    from, and as (q-1)^2 = 1 mod q every coordinate is n mod q; with x on
    one half only, every entry is N (q-1)^2 = N mod q."""
    group, field = family(p, m), PrimeField(q)
    n, N = group.order, group.rot_order
    assert N >= algebra.PACK_FROM
    top = np.full((3, n), q - 1)
    half = top * (np.arange(n) < N)
    assert (products(group, field, top, top) == n % q).all()
    assert (products(group, field, half, top) == N % q).all()


def test_products_refuse_the_int64_bound_and_mismatched_stacks(d9):
    with pytest.raises(ValueError, match=r"2\^63"):
        products(d9, PrimeField(1000000103), np.zeros((1, 18)), np.zeros((1, 18)))
    with pytest.raises(ValueError, match="stacks"):
        products(d9, PrimeField(11), np.zeros((2, 18)), np.zeros((3, 18)))
    with pytest.raises(ValueError, match="stacks"):
        products(d9, PrimeField(11), np.zeros((2, 9)), np.zeros((2, 9)))
    assert products(d9, PrimeField(11), np.zeros((0, 18)), np.zeros((0, 18))).shape == (0, 18)


def _working_set(group, xs, ys) -> int:
    """Traced peak of one `products` call, less the result it returns."""
    tracemalloc.start()
    try:
        out = products(group, PrimeField(3), xs, ys)
        return tracemalloc.get_traced_memory()[1] - out.nbytes
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("p, m, B, left", [
    (3, 2, 1000, "dense"),
    (5, 3, 200, "dense"),
    (5, 3, 200, "subgroup averages"),
    (5, 4, 20, "dense"),  # n = 1250
], ids=str)
def test_products_peak_memory_is_bounded_by_cells(p, m, B, left):
    group = DihedralGroup(p, m)
    rng = np.random.default_rng(B)
    if left == "dense":
        def stack(rows):
            return rng.integers(0, 3, (rows, group.order))
    else:  # H^ for the subgroups H of H*_1, as `hat-idempotents` stacks them
        averages = [hat(PrimeField(3), H).coeffs for H in group.all_subgroups()
                    if H.within(Subgroup(group, 1, 0)) and H.order % 3]
        def stack(rows):
            return np.array([averages[r % len(averages)] for r in range(rows)])
    peaks = [_working_set(group, stack(b), rng.integers(0, 3, (b, group.order)))
             for b in (B, 4 * B)]
    assert max(peaks) < 2 * CELLS
    assert peaks[1] < peaks[0] + CELLS // 16


class MatmulKinds:
    """Stands in for numpy inside `algebra` and records each chunk's kind
    from its matmul: a sparse chunk multiplies (r, 1, |S|) rows, a dense
    one (r, 2, 1, 1, N) halves."""

    def __init__(self):
        self.kinds = []

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b, **kwargs):
        self.kinds.append({3: "sparse", 5: "dense"}[np.ndim(a)])
        return np.matmul(a, b, **kwargs)


def test_products_choose_sparse_or_dense_per_call(monkeypatch):
    """One call decides for all its chunks from the union support of its
    left factors: the subgroup averages of D_250 inside H*_1, a union of 50
    elements, take only sparse matmuls, and all 160 averages in
    `all_subgroups`' order only dense ones, the small averages first among
    them included.  Every product matches the oracle, and the working set
    stays within the CELLS bound."""
    group, field = DihedralGroup(5, 3), PrimeField(3)
    subs = group.all_subgroups()
    inside = [H for H in subs if H.within(Subgroup(group, 1, 0))]
    assert len(subs) == 160
    for stack, kind in ((inside, "sparse"), (subs, "dense")):
        xs = np.array([hat(field, H).coeffs for H in stack])
        ys = np.random.default_rng(0).integers(0, 3, xs.shape)
        kinds = MatmulKinds()
        monkeypatch.setattr(algebra, "np", kinds)
        out = products(group, field, xs, ys)
        monkeypatch.undo()
        assert np.array_equal(out, mult_table_products(group, 3, xs, ys).astype(np.int64))
        assert len(kinds.kinds) > 1 and set(kinds.kinds) == {kind}
        assert _working_set(group, xs, ys) < 2 * CELLS
