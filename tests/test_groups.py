from collections import Counter

import numpy as np
import pytest

from dihedral_codes import AbelianGroup, DihedralGroup, Subgroup, gamma


def test_presentation_relations(d9):
    a, b = d9.a, d9.b
    assert (a ** 9).is_identity()
    assert (b * b).is_identity()
    assert b * a * b == a.inverse()
    # b.a = a^-1 b forced by the relations
    assert b * a == d9.element(8, 1)


def test_product_of_reflections(d9):
    assert d9.element(2, 1) * d9.element(3, 1) == d9.element(8, 0)
    g = d9.element(5, 1)
    assert g * d9.identity == g


def test_group_mismatch():
    d1, d2 = DihedralGroup(3, 2), DihedralGroup(3, 1)
    with pytest.raises(ValueError):
        d1.a * d2.a


@pytest.mark.parametrize("group", [DihedralGroup(3, 2), AbelianGroup(3, 2), DihedralGroup(5, 2)])
def test_table_is_a_group(group):
    table = np.asarray(group.mult_table)
    n = group.order
    # associativity over all n^3 triples at once
    assert np.array_equal(table[table, :], table[:, table])
    assert np.array_equal(table[0], np.arange(n))
    assert np.array_equal(table[:, 0], np.arange(n))
    for row in table:
        assert len(set(map(int, row))) == n


def test_inverse_examples(d9):
    assert d9.element(3).inverse() == d9.element(6)
    for i in range(9):
        r = d9.element(i, 1)
        assert r.inverse() == r  # reflections are involutions
    assert d9.identity.inverse() == d9.identity
    for g in d9.elements():
        assert (g * g.inverse()).is_identity()


def test_conjugation_by_b_inverts_a(d9):
    for i in range(9):
        assert d9.b * d9.element(i) * d9.b == d9.element(-i)


def test_subgroup_H_chain(d9):
    assert Subgroup(d9, 2).indices() == [0]
    assert Subgroup(d9, 1).indices() == [0, 3, 6]
    assert Subgroup(d9, 0).indices() == list(range(9))
    assert [Subgroup(d9, j).order for j in range(3)] == [9, 3, 1]
    with pytest.raises(ValueError, match=r"^subgroup index 3 out of range 0\.\.2$"):
        Subgroup(d9, 3)
    with pytest.raises(ValueError, match=r"^subgroup index -1 out of range 0\.\.2$"):
        Subgroup(d9, -1)


def test_subgroup_Hstar(d9):
    assert Subgroup(d9, 2, 0).indices() == [0, 9]
    assert Subgroup(d9, 1, 0).indices() == [0, 3, 6, 9, 12, 15]
    assert Subgroup(d9, 0, 0).indices() == list(range(18))
    assert [Subgroup(d9, j, 0).order for j in range(3)] == [18, 6, 2]


@pytest.mark.parametrize("j", [0, 1, 2])
def test_subgroups_closed(d9, j):
    for sub in (Subgroup(d9, j), Subgroup(d9, j, 0)):
        elems = [d9.from_index(t) for t in sub.indices()]
        idx = set(sub.indices())
        assert len(elems) == sub.order
        for g in elems:
            assert g.inverse().index in idx
            for h in elems:
                assert (g * h).index in idx


@pytest.mark.parametrize(
    "group, j, c, message",
    [
        (DihedralGroup(3, 2), 3, None, r"^subgroup index 3 out of range 0\.\.2$"),
        (DihedralGroup(3, 2), -1, 0, r"^subgroup index -1 out of range 0\.\.2$"),
        (DihedralGroup(3, 2), 1, 3, r"^reflection index 3 out of range 0\.\.2$"),
        (DihedralGroup(3, 2), 1, -1, r"^reflection index -1 out of range 0\.\.2$"),
        (DihedralGroup(3, 2), 0, 1, r"^reflection index 1 out of range 0\.\.0$"),
        # in C_9 x C_2, a^c t squares to a^2c: only c = 0 gives a reflection
        (AbelianGroup(3, 2), 1, 1, r"^a\^1\*t is not a reflection of AbelianGroup\(p=3, m=2\)$"),
        (AbelianGroup(3, 2), 2, 8, r"^a\^8\*t is not a reflection of AbelianGroup\(p=3, m=2\)$"),
    ],
)
def test_subgroup_refuses_what_names_no_subgroup(group, j, c, message):
    with pytest.raises(ValueError, match=message):
        Subgroup(group, j, c)


def test_all_subgroups_frozen_at_3_2():
    """Today's order, size and then index list, for both families."""
    D = [[0], [0, 9], [0, 10], [0, 11], [0, 12], [0, 13], [0, 14], [0, 15], [0, 16],
         [0, 17], [0, 3, 6], [0, 3, 6, 9, 12, 15], [0, 3, 6, 10, 13, 16],
         [0, 3, 6, 11, 14, 17], list(range(9)), list(range(18))]
    A = [[0], [0, 9], [0, 3, 6], [0, 3, 6, 9, 12, 15], list(range(9)), list(range(18))]
    for cls, expect in ((DihedralGroup, D), (AbelianGroup, A)):
        subs = cls(3, 2).all_subgroups()
        assert [S.indices() for S in subs] == expect
        assert [S.order for S in subs] == [len(s) for s in expect]


@pytest.mark.parametrize("cls", [DihedralGroup, AbelianGroup])
@pytest.mark.parametrize("p, m", [(3, 1), (3, 2), (5, 2), (3, 3)])
def test_roots_are_the_least_element_of_each_coset(cls, p, m):
    """`roots()` walks the group law; the least of g S is also the row
    minimum of the multiplication table on the columns of S.  `within()`
    and `generators()` agree with the index sets as well."""
    group = cls(p, m)
    table = group.mult_table
    subs = group.all_subgroups()
    for S in subs:
        assert list(S.roots()) == table[:, S.indices()].min(axis=1).tolist(), S
        assert {g.index for g in S.generators()} <= set(S.indices())
        for K in subs:
            assert S.within(K) == (set(S.indices()) <= set(K.indices())), (S, K)
    # kept per group instance: the same tuple again, a new group walks afresh
    assert subs[1].roots() is subs[1].roots()
    assert Subgroup(cls(p, m), subs[1].j, subs[1].c).roots() is not subs[1].roots()


def test_roots_refuse_elements_that_are_not_the_orbit_of_1(monkeypatch):
    """`roots()` proves, when it walks, that the elements with root 1 are
    `indices()`: H*_1 listed with the reflections of Subgroup(group, 1, 1)
    is refused, and nothing is kept for it."""
    group = DihedralGroup(3, 2)
    S, real = Subgroup(group, 1, 0), Subgroup.indices
    moved = Subgroup(group, 1, 1).indices()
    monkeypatch.setattr(Subgroup, "indices", lambda T: moved if T == S else real(T))
    with pytest.raises(RuntimeError, match=r"^the elements of .*c=0\) are not the orbit of 1"):
        S.roots()
    assert (1, 0) not in group._coset_roots
    assert Subgroup(group, 1).roots() == tuple(g % 3 + g // 9 * 9 for g in range(18))


def test_all_subgroups_census(d9):
    subs = d9.all_subgroups()
    census = Counter(S.order for S in subs)
    assert census == Counter({2: 9, 6: 3, 1: 1, 3: 1, 9: 1, 18: 1})
    for sub in subs:
        idx = set(sub.indices())
        assert len(idx) == sub.order
        for g in map(d9.from_index, idx):
            assert g.inverse().index in idx
            for h in map(d9.from_index, idx):
                assert (g * h).index in idx


def test_all_subgroups_census_d25():
    d25 = DihedralGroup(5, 2)
    census = Counter(S.order for S in d25.all_subgroups())
    assert census == Counter({1: 1, 2: 25, 5: 1, 10: 5, 25: 1, 50: 1})


@pytest.mark.parametrize("p, m, total", [(3, 3, 44), (5, 3, 160)])
def test_all_subgroups_count(p, m, total):
    # sum over d | p^m of 1 + d: <a^d> and its d reflection extensions
    assert len(DihedralGroup(p, m).all_subgroups()) == total


def _closure(table, gens) -> frozenset:
    seen, frontier = {0}, [0]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = int(table[x, g])
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


def _subgroups_by_closure(group) -> list[list[int]]:
    """Brute-force reference: every subgroup of these groups is generated by
    at most two elements, so close every pair over the multiplication table."""
    table = group.mult_table
    found = {_closure(table, (g, h)) for g in range(group.order) for h in range(group.order)}
    return sorted((sorted(s) for s in found), key=lambda s: (len(s), s))


@pytest.mark.parametrize("cls", [DihedralGroup, AbelianGroup])
@pytest.mark.parametrize("p, m", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (3, 3)])
def test_all_subgroups_matches_closure(cls, p, m):
    group = cls(p, m)
    found = [sub.indices() for sub in group.all_subgroups()]
    assert found == _subgroups_by_closure(group)


def test_abelian_is_commutative():
    A = AbelianGroup(3, 2)
    table = np.asarray(A.mult_table)
    assert np.array_equal(table, table.T)
    assert (A.t * A.t).is_identity()
    assert (A.a ** 9).is_identity()


def test_gamma_definition(d9):
    A = AbelianGroup(3, 2)
    img = gamma(d9.element(2, 1), A)
    assert img == A.element(2, 1)
    assert gamma(d9.identity, A).is_identity()


def test_gamma_bijection_preserves_index(d9):
    A = AbelianGroup(3, 2)
    images = {gamma(g, A).index for g in d9.elements()}
    assert images == set(range(18))
    for g in d9.elements():
        assert gamma(g, A).index == g.index


def test_gamma_parameter_mismatch(d9):
    with pytest.raises(ValueError):
        gamma(d9.a, AbelianGroup(3, 1))
    with pytest.raises(ValueError):
        gamma(AbelianGroup(3, 2).a, AbelianGroup(3, 2))


def test_construction_validation():
    with pytest.raises(ValueError):
        DihedralGroup(2, 2)  # p must be odd
    with pytest.raises(ValueError):
        DihedralGroup(9, 1)  # p must be prime
    with pytest.raises(ValueError):
        DihedralGroup(3, 0)  # m >= 1


def test_canonical_index_round_trip(d9):
    for t in range(18):
        g = d9.from_index(t)
        assert g.index == t
        assert g.i == t % 9 and g.j == t // 9
    with pytest.raises(ValueError):
        d9.from_index(18)


def _reference_product(group, g, h):
    """(i, j) of g h by each family's own formula: b a^k = a^{-k} b in D,
    componentwise addition in C_{p^m} x C_2."""
    if isinstance(group, DihedralGroup) and g.j == 1:
        i = g.i - h.i
    else:
        i = g.i + h.i
    return i % group.rot_order, (g.j + h.j) % 2


def _reference_inverse(group, g):
    if isinstance(group, DihedralGroup) and g.j == 1:
        return g.i, 1  # reflections are their own inverse
    return -g.i % group.rot_order, g.j


@pytest.mark.parametrize("cls", [DihedralGroup, AbelianGroup])
@pytest.mark.parametrize("p, m", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (3, 3)])
def test_group_law_matches_per_family_formulas(cls, p, m):
    group = cls(p, m)
    pm = group.rot_order
    table = group.mult_table
    for g in group.elements():
        assert g.inverse() == group.element(*_reference_inverse(group, g))
        for h in group.elements():
            i, j = _reference_product(group, g, h)
            assert g * h == group.element(i, j)
            assert table[g.index, h.index] == i + j * pm
