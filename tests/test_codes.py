from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dihedral_codes import (
    AbelianGroup,
    AlgebraElem,
    DihedralGroup,
    LinearCode,
    PrimeField,
    Subgroup,
    codes,
    hat,
    left_ideal_code,
    left_translate,
    modmat,
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


def test_shared_scans_keep_scanned_distributions_but_not_refusals():
    G = np.array([[1, 1, 0], [0, 1, 1]])  # q^k = 9
    memo = {}
    with codes.shared_scans(memo):
        assert weights(G, 3, budget=8) is None
        assert memo == {}
        first = weights(G, 3, budget=9)
        assert first.tolist() == [1, 0, 6, 2] and len(memo) == 1
        assert weights(G.copy(), 3, budget=9) is first  # same bytes, no second scan
        assert weights(G, 3, budget=8) is None  # the budget still decides
        assert weights(G, 5, budget=25) is not first  # q is part of the key
    assert len(memo) == 2
    assert weights(G, 3, budget=9) is not first  # outside the block nothing is kept


def test_full_space_shortcut(field11, d9):
    code = left_ideal_code(AlgebraElem.one(d9, field11))
    dist = code.weight_distribution(budget=10)  # no enumeration needed
    assert dist[0] == 1 and dist[1] == 18 * 10
    assert int(sum(int(c) for c in dist)) == 11 ** 18
    assert code.min_weight(budget=10) == 1


def test_subgroup_pair_hstar(field11, d9, units1):
    basis = subgroup_pair_code(field11, Subgroup(d9, 1, 0), Subgroup(d9, 0, 0))
    code = LinearCode(basis, 11, group=d9)
    assert code.k == (18 // 6) - (18 // 18) == 2
    assert code.min_weight() == 12  # 2 |H| = 2 * 6
    assert len(basis) == 2
    # e11 = hat(Hstar_1) - hat(Hstar_0), so this is exactly code(e11)
    assert code.same_code(left_ideal_code(units1.e11))
    for x in basis:
        assert code.contains(x)
        assert np.count_nonzero(x) == 12


def test_subgroup_pair_equal_subgroups_zero_code(field11, d9):
    basis = subgroup_pair_code(field11, Subgroup(d9, 1), Subgroup(d9, 1))
    assert basis.shape == (0, 18) and basis.dtype == np.int64 and not basis.flags.writeable


def test_subgroup_pair_trivial_in_b(field11, d9):
    """H = {1} inside K = <b>: dimension 9, weight 2 exhibited by 1 - b."""
    H = Subgroup(d9, 2)
    K = Subgroup(d9, 2, 0)
    basis = subgroup_pair_code(field11, H, K)
    code = LinearCode(basis, 11, group=d9)
    assert code.k == len(basis) == 18 - 9 == 9
    one_minus_b = AlgebraElem.one(d9, field11) - AlgebraElem.from_group_elem(d9.b, field11)
    assert code.contains(one_minus_b)
    # no weight-1 codeword: no single coordinate vector lies in the code
    for t in range(18):
        v = np.zeros(18, dtype=np.int64)
        v[t] = 1
        assert not code.contains(v)


def test_subgroup_pair_rejects_non_nested(field11, d9):
    with pytest.raises(ValueError, match="^H is not contained in K$"):
        subgroup_pair_code(field11, Subgroup(d9, 0), Subgroup(d9, 2, 0))


def _greedy_transversal(group, sub_indices, pool):
    """Coset representatives of a subgroup, greedy in canonical order."""
    reps, covered = [], set()
    members = sorted(sub_indices)
    for g in pool:
        if g not in covered:
            reps.append(g)
            covered.update(int(t) for t in group.mult_table[g, members])
    return reps


def _predicted_basis_by_loop(field, H, K):
    """The basis {r H^ - r t H^} built one translate at a time: the
    reference for the gathered rows of `subgroup_pair_code`."""
    group = H.group
    h_idx, k_idx = set(H.indices()), set(K.indices())
    hat_H = hat(field, H)
    reps = _greedy_transversal(group, k_idx, range(group.order))
    tau = _greedy_transversal(group, h_idx, sorted(k_idx))
    basis = []
    for r in reps:
        r_hat = left_translate(group.from_index(r), hat_H)
        for t in tau[1:]:
            rt = group.from_index(int(group.mult_table[r, t]))
            basis.append(r_hat - left_translate(rt, hat_H))
    return np.array([x.coeffs for x in basis], dtype=np.int64)


@pytest.mark.parametrize("q, p, m", [(11, 3, 2), (5, 3, 3), (2, 5, 2)])
def test_predicted_basis_matches_the_translate_loop(q, p, m):
    field, group = PrimeField(q), DihedralGroup(p, m)
    subs = [S for S in group.all_subgroups() if S.order % q != 0]
    nested = 0
    for H in subs:
        for K in subs:
            if not set(H.indices()) < set(K.indices()):
                continue
            basis = subgroup_pair_code(field, H, K)
            assert basis.dtype == np.int64 and not basis.flags.writeable
            expect = _predicted_basis_by_loop(field, H, K)
            assert basis.shape == expect.shape and basis.tobytes() == expect.tobytes()
            nested += 1
    assert nested == {11: 42, 5: 166, 2: 3}[q]


def _pair_code_by_elimination(field, H, K):
    """The two-elimination construction: reduce L(H^ - K^), then check that
    the predicted basis has full rank and the same RREF.  Returns the code
    and that basis."""
    code = left_ideal_code(hat(field, H) - hat(field, K))
    basis = _predicted_basis_by_loop(field, H, K)
    R, _ = rref(basis, field.q)
    assert len(R) == code.k and np.array_equal(R, code.generator_matrix)
    return code, basis


def _nested_pairs(group, q):
    subs = [S for S in group.all_subgroups() if S.order % q != 0]
    sets = [set(S.indices()) for S in subs]
    return [
        (H, K) for H, h in zip(subs, sets) for K, k in zip(subs, sets) if h < k
    ]


def _assert_pair_code_is_the_eliminated_one(field, H, K):
    """The proven basis reduces to the RREF of the eliminated L(H^ - K^)."""
    basis = subgroup_pair_code(field, H, K)
    expect, expect_basis = _pair_code_by_elimination(field, H, K)
    got, _ = rref(basis, field.q)
    assert got.shape == expect.generator_matrix.shape
    assert got.tobytes() == expect.generator_matrix.tobytes()
    assert basis.tobytes() == expect_basis.tobytes()
    n = expect.n
    assert expect.k == len(basis) == n // H.order - n // K.order


@pytest.mark.parametrize(
    "group_cls, q, p, m, pairs",
    [
        (DihedralGroup, 11, 3, 2, 42),
        (DihedralGroup, 5, 3, 3, 166),
        (DihedralGroup, 5, 3, 2, 42),
        (DihedralGroup, 2, 5, 2, 3),  # D25 over F_2: odd orders only
        (DihedralGroup, 7, 3, 3, 166),
        (DihedralGroup, 13, 5, 2, 96),
        (AbelianGroup, 11, 3, 2, 12),
        (AbelianGroup, 5, 3, 2, 12),
    ],
)
def test_closed_form_pair_code_matches_two_eliminations(group_cls, q, p, m, pairs):
    field, group = PrimeField(q), group_cls(p, m)
    nested = _nested_pairs(group, q)
    assert len(nested) == pairs
    for H, K in nested:
        _assert_pair_code_is_the_eliminated_one(field, H, K)


def test_closed_form_pair_code_matches_two_eliminations_at_3_5_3():
    """n = 250: the first and the last of the 630 nested pairs with each of
    the 22 pairs of orders (|H|, |K|), from (1, 2) to (125, 250)."""
    field, group = PrimeField(3), DihedralGroup(5, 3)
    nested = _nested_pairs(group, 3)
    assert len(nested) == 630
    first, last = {}, {}
    for H, K in nested:
        first.setdefault((H.order, K.order), (H, K))
        last[H.order, K.order] = (H, K)
    assert len(first) == 22
    for H, K in [*first.values(), *last.values()]:
        _assert_pair_code_is_the_eliminated_one(field, H, K)


def test_pair_code_hands_rref_only_reduced_matrices(monkeypatch):
    """No elimination: `subgroup_pair_code` proves its basis by identities
    and writes no RREF, so it hands `rref` no matrix at all, the zero code
    of H = K included."""
    seen = []
    real = modmat.rref

    def recording(mat, q):
        seen.append(np.array(mat))
        return real(mat, q)

    monkeypatch.setattr(modmat, "rref", recording)
    field, group = PrimeField(5), DihedralGroup(3, 3)
    nested = _nested_pairs(group, 5)
    for H, K in nested + [(K, K) for _, K in nested]:
        subgroup_pair_code(field, H, K)
    assert len(nested) == 166 and seen == []


@pytest.mark.parametrize("q, p, m", [(11, 3, 2), (5, 3, 3)])
def test_pair_basis_is_a_read_only_array_of_full_rank(q, p, m):
    """For every nested pair and every H = K the basis is a C-contiguous,
    read-only int64 (k, n) array of residues, k = (G:H) - (G:K), whose rows
    are independent: `LinearCode` of it keeps all k of them."""
    field, group = PrimeField(q), DihedralGroup(p, m)
    subs = group.all_subgroups()
    pairs = [(H, H) for H in subs] + _nested_pairs(group, q)
    n = group.order
    for H, K in pairs:
        B = subgroup_pair_code(field, H, K)
        assert B.dtype == np.int64 and B.shape == (n // H.order - n // K.order, n)
        assert B.flags.c_contiguous and not B.flags.writeable
        assert ((0 <= B) & (B < q)).all()
        if len(B):
            assert LinearCode(B, q, group=group).k == len(B)
    assert len(pairs) > len(subs)


@pytest.mark.parametrize(
    "corrupted, message",
    [("H", "predicted basis is not linearly independent"),
     ("K", "predicted basis does not span the code")],
    ids=["H", "K"],
)
def test_pair_code_proof_rejects_a_corrupted_generator(monkeypatch, corrupted, message):
    """e = H^ - K^ with one coefficient of H^ or of K^ moved, outside both
    subgroups: e leaves V, and a moved H^ also puts off-diagonal entries in
    the predicted basis on its diagonal columns.  So the proof fails with
    an existing message instead of returning a code."""
    field, group = PrimeField(5), DihedralGroup(3, 3)
    H, K = Subgroup(group, 1), Subgroup(group, 1, 0)
    real_hat = codes.hat

    def corrupt_hat(f, S):
        x = real_hat(f, S)
        if S == {"H": H, "K": K}[corrupted]:
            c = x.coeffs.copy()
            c[-1] += 1
            x = AlgebraElem(group, f, c)
        return x

    monkeypatch.setattr(codes, "hat", corrupt_hat)
    with pytest.raises(RuntimeError, match=message):
        subgroup_pair_code(field, H, K)


def test_pair_code_refuses_elements_that_are_not_the_orbit_of_1(monkeypatch):
    """The cosets are read off `roots()`, which walks the generators, and
    the averages off `indices()`: `roots()` proves the two name one
    subgroup.  H*_1 listed with its reflections a^(3i + 1) b, the elements
    of Subgroup(group, 1, 1), is refused before any average is built."""
    field, group = PrimeField(5), DihedralGroup(3, 3)
    H, K = Subgroup(group, 1), Subgroup(group, 1, 0)
    real = Subgroup.indices
    moved = Subgroup(group, 1, 1).indices()
    monkeypatch.setattr(Subgroup, "indices", lambda S: moved if S == K else real(S))
    monkeypatch.setattr(codes, "hat", None)
    with pytest.raises(RuntimeError, match=r"^the elements of .*c=0\) are not the orbit of 1"):
        subgroup_pair_code(field, H, K)


@pytest.mark.parametrize(
    "averages",
    [
        # e = 0: in V, but R != |H| (p e - l e) = 0
        lambda hH, hK, one: (hH, hH),
        # e = H^ - K^ + (1, ..., 1) is constant on each H-coset, but sums to
        # |K| over each K-coset
        lambda hH, hK, one: (hH, AlgebraElem(hK.group, hK.field, hK.coeffs - 1)),
        # e is right, but B = {r H'^ - r t H'^} leaves V, as H'^ = H^ + 2 is
        # not constant on H; its diagonal stays nonzero
        lambda hH, hK, one: (hH + 2 * one, hK + 2 * one),
    ],
    ids=["zero-generator", "e-outside-V", "basis-outside-V"],
)
def test_pair_code_proof_rejects_averages_that_break_one_identity(monkeypatch, averages):
    """Each pair of averages, handed over by `codes.hat`, breaks one
    identity of the proof and keeps the others, so dropping that
    identity's test would return a wrong code or a wrong basis."""
    field, group = PrimeField(5), DihedralGroup(3, 3)
    H, K = Subgroup(group, 1), Subgroup(group, 1, 0)
    wrong = averages(hat(field, H), hat(field, K), AlgebraElem.one(group, field))
    monkeypatch.setattr(codes, "hat", lambda f, S: wrong[(H, K).index(S)])
    with pytest.raises(RuntimeError, match="predicted basis does not span the code"):
        subgroup_pair_code(field, H, K)


def test_a_code_holds_its_k_rows_only(gens1):
    # rref eliminates in an n x n working array; the code keeps a k x n copy,
    # and its gamma image shares that copy instead of reducing it again
    code = left_ideal_code(gens1.f)
    G = code.generator_matrix
    assert G.shape == (2, 18) and G.flags.owndata and not G.flags.writeable
    assert codes.gamma_image_code(code).generator_matrix is G


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
    with pytest.raises(ValueError, match="row 0 has 6, outside"):
        LinearCode.from_text("3 1 5\n6 -1 12\n")  # not residues mod 5
    with pytest.raises(ValueError, match="row 1 has -1, outside"):
        LinearCode.from_text("3 2 5\n1 0 0\n0 -1 4\n")


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


# -- row-space membership and left-ideal closure against brute force ----------
ROW_SPACE_GROUPS = [
    cls(p, m) for cls in (DihedralGroup, AbelianGroup) for p, m in ((3, 1), (5, 1), (3, 2))
]
SPAN_CAP = 5**6  # words a brute-force span may hold


@cache
def _left_products(group):
    """table[g, h] = index of g h, from GroupElem products alone."""
    els = group.elements()
    return np.array([[(g * h).index for h in els] for g in els])


def _translate(group, g, x):
    """g x for the element of index g: the coefficient of h moves to g h."""
    out = np.zeros_like(x)
    out[_left_products(group)[g]] = x
    return out


def _brute_span(rows, q) -> set[bytes]:
    """Every word of the span, grown one row at a time with no elimination;
    a row already in the span is skipped, so no word repeats."""
    words = np.zeros((1, rows.shape[1]), dtype=np.int64)
    seen = {words[0].tobytes()}
    for row in rows:
        if row.tobytes() not in seen:
            words = (words[None] + np.arange(q)[:, None, None] * row) % q
            words = words.reshape(-1, rows.shape[1])
            seen = {w.tobytes() for w in words}
    return seen


def _vectors(q, n):
    return st.lists(st.integers(0, q - 1), min_size=n, max_size=n).map(
        lambda v: np.array(v, dtype=np.int64)
    )


@st.composite
def row_sets(draw):
    """(group, q, rows) from one of three sources: a few random rows; the
    first p^m rows a^i x of L(x), closed under a but usually not under b; or
    all of L(x), a left ideal that in D is usually not a right ideal.  x is
    y times the sum over a subgroup S, drawn so that the ideal, of dimension
    at most |G|/|S|, has a span small enough to enumerate."""
    group = draw(st.sampled_from(ROW_SPACE_GROUPS))
    q = draw(st.sampled_from([2, 3, 5]))
    n = group.order
    source = draw(st.sampled_from(["random", "powers of a", "ideal"]))
    if source == "random":
        return group, q, np.array([draw(_vectors(q, n)) for _ in range(draw(st.integers(1, 3)))])
    S = draw(st.sampled_from(
        [S for S in group.all_subgroups() if q ** (n // S.order) <= SPAN_CAP]
    ))
    s = np.zeros(n, dtype=np.int64)
    s[S.indices()] = 1
    field = PrimeField(q)
    x = (AlgebraElem(group, field, draw(_vectors(q, n))) * AlgebraElem(group, field, s)).coeffs
    rows = np.array([_translate(group, g, x) for g in range(n)])
    return group, q, rows[: group.rot_order] if source == "powers of a" else rows


@settings(max_examples=60, deadline=None)
@given(row_sets(), st.data())
def test_contains_matches_brute_force_span(case, data):
    group, q, rows = case
    span = _brute_span(rows, q)
    code = LinearCode(rows, q, group=group)
    combo = data.draw(_vectors(q, len(rows))) @ rows % q
    candidates = [combo, data.draw(_vectors(q, group.order))]
    candidates += [_translate(group, g, rows[0]) for g in range(group.order)]
    for v in candidates:
        assert code.contains(v) == (v.tobytes() in span)


@settings(max_examples=60, deadline=None)
@given(row_sets())
def test_is_left_ideal_matches_brute_force_closure(case):
    """Closed under left translation by every group element, not only a, b."""
    group, q, rows = case
    span = _brute_span(rows, q)
    closed = all(
        _translate(group, g, row).tobytes() in span for g in range(group.order) for row in rows
    )
    assert LinearCode(rows, q, group=group).is_left_ideal() == closed
