import pytest

from dihedral_codes import DihedralGroup, LinearCode
from dihedral_codes.closed_forms import (
    ChainSubgroup,
    _label_rows,
    _prove,
    canonical_rows,
    central_pair,
    parse_subgroup,
)
from dihedral_codes.gm import format_generator_matrix
from dihedral_codes.ff import phi_prime_power

GROUPS = [(3, 1), (3, 2), (5, 2), (3, 3)]


def _chain(group):
    return [ChainSubgroup(group, star, j) for star in (False, True) for j in range(group.m + 1)]


@pytest.mark.parametrize("p, m", GROUPS)
def test_chain_subgroups_match_the_group(p, m):
    """Order, containment and coset labels agree with the element lists of
    `subgroup_H`/`subgroup_Hstar` and the multiplication table."""
    group = DihedralGroup(p, m)
    table = group.mult_table
    elements = {}
    for S in _chain(group):
        listed = (group.subgroup_Hstar if S.star else group.subgroup_H)(S.j)
        idx = [g.index for g in listed]
        elements[S] = set(idx)
        assert S.order == len(idx)
        assert [S.label(g) for g in range(group.order)] == table[:, idx].min(axis=1).tolist()
    for H in elements:
        for K in elements:
            assert H.within(K) == (elements[H] <= elements[K]), (H, K)


def test_parse_subgroup_errors():
    group = DihedralGroup(3, 2)
    assert parse_subgroup(group, "hstar2") == ChainSubgroup(group, True, 2)
    with pytest.raises(ValueError, match="bad subgroup spec 'k1'; use h<j> or hstar<j>"):
        parse_subgroup(group, "k1")
    with pytest.raises(ValueError, match=r"subgroup index 3 out of range 0\.\.2"):
        parse_subgroup(group, "h3")
    with pytest.raises(ValueError, match=r"component index 0 out of range 1\.\.2"):
        central_pair(group, "e11", 0)


@pytest.mark.parametrize("p, m", GROUPS)
@pytest.mark.parametrize("q", [7, 11])
def test_rows_are_the_cyclic_component_doubled(q, p, m):
    """The labels give [r | r], [r | -r] and [[r | 0], [0 | r]], with r the
    rows of the cyclic component, one per c < phi(p^j)."""
    group, N = DihedralGroup(p, m), p**m
    for j in range(1, m + 1):
        pj, pj1 = p**j, p ** (j - 1)
        r = []
        for c in range(phi_prime_power(p, j)):
            last = c % pj1 + (p - 1) * pj1
            r.append([1 if i % pj == c else q - 1 if i % pj == last else 0 for i in range(N)])
        zero = [0] * N
        expect = {
            "e11": [x + x for x in r],
            "e22": [x + [-v % q for v in x] for x in r],
            "ej": [x + zero for x in r] + [zero + x for x in r],
        }
        for gen, rows in expect.items():
            H, K, twist = central_pair(group, gen, j)
            assert canonical_rows(H, K, q, twist) == rows, (gen, j)


def _proof_error(rows, H, K, q, twist=False):
    with pytest.raises(RuntimeError) as info:
        _prove(rows, H, K, q, twist)
    return str(info.value)


def test_the_proof_rejects_wrong_rows():
    """Each defect of a written matrix is caught by its own part of the
    proof: echelon form, pivot columns, row count, membership in V."""
    q, group = 11, DihedralGroup(3, 2)
    H, K, _ = central_pair(group, "e11", 2)
    rows = _label_rows(H, K, q)
    _prove(rows, H, K, q, False)
    assert "echelon" in _proof_error(rows[::-1], H, K, q)
    # H-cosets a^c <b>, K-cosets c mod 3; label 5, not 8, taken as the last
    # of its K-coset: rows 1_2 - 1_5 and 1_8 - 1_5, the latter led by q - 1
    def coset_row(c, c_last):
        return [1 if H.label(g) == c else q - 1 if H.label(g) == c_last else 0
                for g in range(group.order)]

    assert rows == [coset_row(c, 6 + c % 3) for c in range(6)]
    wrong_last = [coset_row(c, (6, 7, 5)[c % 3]) for c in (0, 1, 2, 3, 4, 8)]
    assert "echelon" in _proof_error(wrong_last, H, K, q)
    added = [row[:] for row in rows]
    added[0] = [(x + y) % q for x, y in zip(rows[0], rows[-1])]
    assert "identity" in _proof_error(added, H, K, q)
    assert "(G:H) - (G:K) = 6" in _proof_error(rows[:-1], H, K, q)
    # code(e22) read as a plain pair code, and code(e11) read as twisted
    assert "V(H, K)" in _proof_error(canonical_rows(H, K, q, twist=True), H, K, q)
    assert "V(H, K)" in _proof_error(rows, H, K, q, twist=True)
    # 1_C - 1_C' with C' in another K-coset: two K-coset sums are +-2
    moved = [row[:] for row in rows]
    moved[0][6] = moved[0][9 + 6] = 0
    moved[0][7] = moved[0][9 + 7] = q - 1
    assert "V(H, K)" in _proof_error(moved, H, K, q)


@pytest.mark.parametrize("rows", [[[1, 0, 2], [0, 1, 10]], []], ids=["k2", "k0"])
def test_one_formatter_for_every_gm_file(rows):
    code = LinearCode(rows or [[0, 0, 0]], 11)
    assert format_generator_matrix(3, 11, rows) == code.to_text()
