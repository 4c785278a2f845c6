import numpy as np
import pytest

from dihedral_codes import (
    AbelianGroup,
    AlgebraElem,
    DihedralGroup,
    LinearCode,
    PrimeField,
    left_ideal_code,
    left_translate,
    subgroup_pair_code,
)
from dihedral_codes.codes import weights
from dihedral_codes.modmat import rref


def span_bfs(rows, q):
    """Independent span enumeration: grow the word set one generator at a
    time.  No row reduction, no scan kernels."""
    n = len(rows[0])
    words = {(0,) * n}
    for row in rows:
        words = {
            tuple((x + c * y) % q for x, y in zip(w, row))
            for w in words
            for c in range(q)
        }
    return words


def test_unit_generates_everything(field11, d9):
    code = left_ideal_code(AlgebraElem.one(d9, field11))
    assert (code.n, code.k) == (18, 18)
    assert code.min_weight() == 1


def test_zero_generator_rejected(field11, d9):
    with pytest.raises(ValueError):
        left_ideal_code(AlgebraElem.zero(d9, field11))


def test_flagship_code_parameters(gens1):
    code = left_ideal_code(gens1.f)
    assert (code.n, code.k) == (18, 2)
    assert code.min_weight() == 15
    dist = code.weight_distribution()
    assert {w: int(c) for w, c in enumerate(dist) if c} == {0: 1, 15: 60, 18: 60}
    assert int(dist.sum()) == 121 and dist[0] == 1


def test_flagship_against_independent_span_oracle(field11, d9, gens1):
    rows = [tuple(int(v) for v in left_translate(g, gens1.f).coeffs) for g in d9.elements()]
    words = span_bfs(rows, 11)
    assert len(words) == 121
    weights = sorted(sum(1 for v in w if v) for w in words if any(w))
    assert weights[0] == 15
    code = left_ideal_code(gens1.f)
    dist = code.weight_distribution()
    from collections import Counter

    expect = Counter(sum(1 for v in w if v) for w in words)
    assert {w: int(c) for w, c in enumerate(dist) if c} == dict(expect)
    # every enumerated word really is in the code and vice versa
    for w in words:
        assert code.contains(np.array(w))


def test_e11_code(units1):
    code = left_ideal_code(units1.e11)
    assert (code.n, code.k) == (18, 2)
    assert code.min_weight() == 12
    assert {w: int(c) for w, c in enumerate(code.weight_distribution()) if c} == {
        0: 1,
        12: 30,
        18: 90,
    }


def test_e22_code(units1):
    code = left_ideal_code(units1.e22)
    assert (code.n, code.k) == (18, 2)
    assert code.min_weight() == 12


def test_full_component_code(catalog):
    code = left_ideal_code(catalog.component(1))
    assert (code.n, code.k) == (18, 4)
    assert code.min_weight() == 6


def test_repetition_style_code(catalog):
    # e11_0 = ((1+b)/2) A^ is the full-group average: a one-dimensional
    # ideal whose nonzero words all have full support
    code = left_ideal_code(catalog.e11_0)
    assert code.k == 1
    dist = code.weight_distribution()
    assert {w: int(c) for w, c in enumerate(dist) if c} == {0: 1, 18: 10}
    assert code.min_weight() == 18


def test_left_ideal_closure(catalog, units1, gens1):
    for gen in (gens1.f, units1.e11, catalog.component(1)):
        assert left_ideal_code(gen).is_left_ideal()


def test_zero_code():
    code = LinearCode(np.zeros((1, 18), dtype=np.int64), 11)
    assert code.k == 0
    with pytest.raises(ValueError):
        code.min_weight()
    dist = code.weight_distribution()
    assert dist[0] == 1 and int(dist.sum()) == 1


def test_budget_semantics(units2):
    code = left_ideal_code(units2.e11)  # k = 6, 11^6 = 1771561 messages
    assert code.min_weight(budget=1000) is None
    # a fresh object with a big enough budget computes the same value as the
    # exact-boundary budget: the budget gates, it never alters
    w1 = left_ideal_code(units2.e11).min_weight(budget=11 ** 6)
    w2 = left_ideal_code(units2.e11).min_weight(budget=1 << 24)
    assert w1 == w2 == 4


def test_budget_boundary():
    code = LinearCode([[1, 1, 0]], 3)  # q^k = 3
    assert code.min_weight(budget=3) == 2  # q^k = budget is computed
    assert LinearCode([[1, 1, 0]], 3).weight_distribution(budget=2) is None
    assert LinearCode([[1, 1, 0]], 3).min_weight(budget=2) is None
    # k = n: the closed form needs no enumeration, even at budget 0
    full = LinearCode(np.eye(3, dtype=np.int64), 3)
    assert full.weight_distribution(budget=0).tolist() == [1, 6, 12, 8]


def test_weights_route_chooser(monkeypatch):
    G = np.array([[1, 1, 0, 0], [0, 1, 2, 1]])  # q^k = 9
    hist = weights(G, 3, 9)
    assert hist.tolist() == [1, 0, 2, 4, 2] and not hist.flags.writeable
    assert weights(G, 3, 8) is None
    full = weights(np.eye(4, dtype=np.int64), 3, 0)  # k = n: no scan
    assert full.tolist() == [1, 8, 24, 32, 16] and not full.flags.writeable
    scans = []
    monkeypatch.setattr("dihedral_codes.codes.weight_histogram",
                        lambda G, q: scans.append(q) or np.zeros(5, dtype=np.int64))
    weights(np.eye(4, dtype=np.int64), 3, 0)
    assert weights(G, 3, 8) is None and scans == []
    with pytest.raises(RuntimeError, match="sanity check"):
        weights(G, 3, 9)  # a histogram without the zero word is refused


def test_none_is_not_cached():
    code = LinearCode([[1, 1, 0], [0, 1, 1]], 3)  # q^k = 9
    assert code.weight_distribution(budget=8) is None
    assert code.min_weight(budget=8) is None
    assert code.weight_distribution(budget=9).tolist() == [1, 0, 6, 2]
    assert code.min_weight(budget=0) == 2  # computed values are cached


def test_full_space_shortcut(field11, d9):
    code = left_ideal_code(AlgebraElem.one(d9, field11))
    dist = code.weight_distribution(budget=10)  # no enumeration needed
    assert dist[0] == 1 and dist[1] == 18 * 10
    assert int(sum(int(c) for c in dist)) == 11 ** 18
    assert code.min_weight(budget=10) == 1


def test_subgroup_pair_hstar(field11, d9, units1):
    code, basis = subgroup_pair_code(field11, d9.subgroup_Hstar(1), d9.subgroup_Hstar(0))
    assert code.k == (18 // 6) - (18 // 18) == 2
    assert code.min_weight() == 12  # 2 |H| = 2 * 6
    assert len(basis) == 2
    # e11 = hat(Hstar_1) - hat(Hstar_0), so this is exactly code(e11)
    assert code.same_code(left_ideal_code(units1.e11))
    for x in basis:
        assert code.contains(x)
        assert x.support_weight() == 12


def test_subgroup_pair_equal_subgroups_zero_code(field11, d9):
    code, basis = subgroup_pair_code(field11, d9.subgroup_H(1), d9.subgroup_H(1))
    assert code.k == 0 and basis == []


def test_subgroup_pair_trivial_in_b(field11, d9):
    """H = {1} inside K = <b>: dimension 9, weight 2 exhibited by 1 - b."""
    H = [d9.identity]
    K = [d9.identity, d9.b]
    code, basis = subgroup_pair_code(field11, H, K)
    assert code.k == 18 - 9 == 9
    one_minus_b = AlgebraElem.one(d9, field11) - AlgebraElem.from_group_elem(d9.b, field11)
    assert code.contains(one_minus_b)
    # no weight-1 codeword: no single coordinate vector lies in the code
    for t in range(18):
        v = np.zeros(18, dtype=np.int64)
        v[t] = 1
        assert not code.contains(v)


def test_subgroup_pair_rejects_non_nested(field11, d9):
    with pytest.raises(ValueError):
        subgroup_pair_code(field11, d9.subgroup_H(0), d9.subgroup_Hstar(2))


def test_generator_matrix_format_round_trip(gens1):
    code = left_ideal_code(gens1.f)
    text = code.to_text()
    lines = text.split("\n")
    assert lines[0] == "18 2 11"
    assert len(lines) == 4 and lines[-1] == ""  # newline-terminated
    assert not any(ln != ln.rstrip() for ln in lines)  # no trailing spaces
    back = LinearCode.from_text(text)
    assert back.same_code(code)
    assert back.to_text() == text  # byte-identical re-export


def test_generator_matrix_file_io(tmp_path, units1):
    code = left_ideal_code(units1.e11)
    path = tmp_path / "e11.gm"
    code.write(path)
    again = LinearCode.read(path)
    assert again.to_text() == code.to_text()


def test_from_text_rejects_malformed():
    with pytest.raises(ValueError):
        LinearCode.from_text("18 2\n")
    with pytest.raises(ValueError):
        LinearCode.from_text("4 2 3\n1 0 0 1\n")  # missing a row
    with pytest.raises(ValueError):
        LinearCode.from_text("4 1 3\n1 0 0\n")  # short row


def test_from_text_rejects_rank_below_header():
    with pytest.raises(ValueError, match="rank 2"):
        LinearCode.from_text("3 3 5\n1 0 0\n0 1 0\n1 1 0\n")


def test_composite_modulus_named_before_elimination():
    with pytest.raises(ValueError, match="field modulus must be prime"):
        LinearCode([[1, 2], [2, 3]], 6)


def test_elimination_int64_bound():
    q = 3037000507  # smallest prime with (q-1)^2 >= 2^63
    with pytest.raises(ValueError, match=r"2\^63"):
        LinearCode([[q - 1, q - 1]], q)
    q = 3037000493  # largest prime below it
    code = LinearCode([[q - 1, q - 1], [q - 2, 5]], q)
    assert code.generator_matrix.tolist() == [[1, 0], [0, 1]]
    assert LinearCode([[q - 1, q - 1]], q).generator_matrix.tolist() == [[1, 1]]


@pytest.mark.parametrize(
    "group, q",
    [(DihedralGroup(3, 2), 11), (AbelianGroup(3, 2), 11),
     (DihedralGroup(5, 1), 7), (AbelianGroup(5, 1), 7)],
    ids=repr,
)
def test_left_ideal_code_against_translate_oracle(group, q, primitive_idempotents):
    """Rows g x built from GroupElem products alone span the code.  x runs
    over r e and e r, so the left ideal is proper and, in D, differs from
    the right ideal."""
    field = PrimeField(q)
    rng = np.random.default_rng(9)
    for e in primitive_idempotents(field, group):
        r = AlgebraElem(group, field, rng.integers(0, q, group.order))
        for x in (r * e, e * r):
            rows = []
            for g in group.elements():
                row = [0] * group.order
                for h in group.elements():
                    row[(g * h).index] = int(x.coeffs[h.index])
                rows.append(row)
            code = left_ideal_code(x)
            assert code.k < group.order
            assert np.array_equal(code.generator_matrix, rref(rows, q)[0])


def test_rref_is_canonical(gens1):
    code = left_ideal_code(gens1.f)
    G = code.generator_matrix
    # scrambled spanning set reaches the identical matrix
    scraps = np.vstack([(3 * G[1]) % 11, (G[0] + 7 * G[1]) % 11, G[0]])
    other = LinearCode(scraps, 11)
    assert np.array_equal(other.generator_matrix, G)
    assert other.same_code(code)


def test_same_code_distinguishes(units1, gens1):
    assert not left_ideal_code(gens1.f).same_code(left_ideal_code(units1.e11))
