from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
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
    modmat,
    verify,
)
from dihedral_codes.closed_forms import canonical_rows, pair_labels
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
    L = gens1.f.translates().reshape(18, 18)
    for g in range(18):
        assert np.array_equal(L[g], _translate(d9, g, gens1.f.coeffs))
    rows = [tuple(int(v) for v in row) for row in L]
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


def _pair_matrix(H, K, q):
    """The canonical RREF `closed_forms` writes for the pair, as the pair
    suite scans it: an int64 (k, n) array, (0, n) when H = K."""
    return np.array(canonical_rows(H, K, q), dtype=np.int64).reshape(-1, H.group.order)


def test_subgroup_pair_hstar(field11, d9, units1):
    basis = _pair_matrix(Subgroup(d9, 1, 0), Subgroup(d9, 0, 0), 11)
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
    H = Subgroup(d9, 1)
    assert pair_labels(H, H) == [] and canonical_rows(H, H, 11) == []
    assert _pair_matrix(H, H, 11).shape == (0, 18)


def test_subgroup_pair_trivial_in_b(field11, d9):
    """H = {1} inside K = <b>: dimension 9, weight 2 exhibited by 1 - b."""
    H = Subgroup(d9, 2)
    K = Subgroup(d9, 2, 0)
    basis = _pair_matrix(H, K, 11)
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
    # <a> and <b>: the coset <a> b of <a> meets every coset g<b>
    for write in (pair_labels, lambda H, K: canonical_rows(H, K, 11)):
        with pytest.raises(ValueError, match="^H is not contained in K$"):
            write(Subgroup(d9, 0), Subgroup(d9, 2, 0))


def _rows_by_translate_loop(field, H, K):
    """The rows |H| (c e - c' e), e = H^ - K^, for each H-coset label c
    but the greatest c' of its K-coset, built one translate at a time from
    GroupElem products, with the cosets read off element sets: the
    reference for the rows `closed_forms.canonical_rows` writes."""
    group = H.group
    table = _left_products(group)
    h_cosets = {frozenset(table[g, H.indices()].tolist()) for g in range(group.order)}
    labels = sorted(min(C) for C in h_cosets)
    last = {c: max(x for x in labels if x in table[c, K.indices()]) for c in labels}
    e = (hat(field, H) - hat(field, K)).coeffs * H.order
    rows = [_translate(group, c, e) - _translate(group, last[c], e) for c in labels if c != last[c]]
    return np.array(rows, dtype=np.int64).reshape(-1, group.order) % field.q


@pytest.mark.parametrize("q, p, m", [(11, 3, 2), (5, 3, 3), (2, 5, 2)])
def test_predicted_basis_matches_the_translate_loop(q, p, m):
    field, group = PrimeField(q), DihedralGroup(p, m)
    subs = [S for S in group.all_subgroups() if S.order % q != 0]
    nested = 0
    for H in subs:
        for K in subs:
            if not set(H.indices()) < set(K.indices()):
                continue
            basis = _pair_matrix(H, K, q)
            expect = _rows_by_translate_loop(field, H, K)
            assert basis.shape == expect.shape and basis.tobytes() == expect.tobytes()
            nested += 1
    assert nested == {11: 42, 5: 166, 2: 3}[q]


def _nested_pairs(group, q):
    subs = [S for S in group.all_subgroups() if S.order % q != 0]
    sets = [set(S.indices()) for S in subs]
    return [
        (H, K) for H, h in zip(subs, sets) for K, k in zip(subs, sets) if h < k
    ]


def _assert_pair_code_is_the_eliminated_one(field, H, K):
    """The rows `closed_forms` writes from the coset labels are, byte for
    byte, the RREF `left_ideal_code` eliminates from L(H^ - K^) and the
    RREF `LinearCode` eliminates from the rows themselves."""
    basis = _pair_matrix(H, K, field.q)
    n = basis.shape[1]
    assert len(basis) == n // H.order - n // K.order
    for expect in (
        left_ideal_code(hat(field, H) - hat(field, K)).generator_matrix,
        LinearCode(basis, field.q).generator_matrix,
    ):
        assert basis.shape == expect.shape and basis.dtype == expect.dtype
        assert basis.tobytes() == expect.tobytes()


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
    """No elimination: the pair suite proves each pair on its labels and
    `canonical_rows` writes its rows from them, so neither hands `rref` or
    `eliminate` any matrix, the zero code of H = K included."""
    seen = []
    for name in ("rref", "eliminate"):
        real = getattr(modmat, name)
        monkeypatch.setattr(
            modmat, name, lambda mat, q, real=real: seen.append(np.array(mat)) or real(mat, q)
        )
    field, group = PrimeField(5), DihedralGroup(3, 3)
    assert verify.subgroup_pair_suite(field, group, budget=0) == (166, 0)
    for K in group.all_subgroups():
        canonical_rows(K, K, 5)
    assert seen == []


@pytest.mark.parametrize("q, p, m", [(11, 3, 2), (5, 3, 3)])
def test_pair_basis_is_a_read_only_array_of_full_rank(monkeypatch, q, p, m):
    """For every nested pair and every H = K the written rows make an int64
    (k, n) array of residues, k = (G:H) - (G:K), whose rows are independent
    and already the canonical RREF: `LinearCode` of it keeps all k of them
    and stores them, read-only, byte for byte.  The suite scans such
    arrays, C-contiguous int64, and writes none beyond the budget."""
    field, group = PrimeField(q), DihedralGroup(p, m)
    subs = group.all_subgroups()
    pairs = [(H, H) for H in subs] + _nested_pairs(group, q)
    n = group.order
    for H, K in pairs:
        B = _pair_matrix(H, K, q)
        assert B.dtype == np.int64 and B.shape == (n // H.order - n // K.order, n)
        assert ((0 <= B) & (B < q)).all()
        if len(B):
            G = LinearCode(B, q, group=group).generator_matrix
            assert not G.flags.writeable and G.tobytes() == B.tobytes()
    assert len(pairs) > len(subs)
    written, scanned = [], []
    rows, scan = verify.canonical_rows, verify.weights
    monkeypatch.setattr(verify, "canonical_rows", lambda *a: written.append(a) or rows(*a))
    monkeypatch.setattr(verify, "weights", lambda G, q, b: scanned.append(G) or scan(G, q, b))
    verify.subgroup_pair_suite(field, group, budget=0)
    assert written == scanned == []  # no q^k fits, so no matrix is written
    verify.subgroup_pair_suite(field, group, budget=q**6)
    assert scanned and len(written) == len(scanned)
    assert all(G.dtype == np.int64 and G.flags.c_contiguous for G in scanned)


def _suite_error(monkeypatch, hats, roots=None):
    """The first failure of the pair suite at (5, 3, 3), with the averages
    of H = H_1 and K = H*_1 handed over by `verify.hat` as `hats` gives
    them and, when given, the roots of K replaced."""
    field, group = PrimeField(5), DihedralGroup(3, 3)
    H, K = Subgroup(group, 1), Subgroup(group, 1, 0)
    real_hat, real_roots = verify.hat, Subgroup.roots
    wrong = dict(zip((H, K), hats(real_hat(field, H), real_hat(field, K))))
    monkeypatch.setattr(verify, "hat", lambda f, S: wrong[S] if S in wrong else real_hat(f, S))
    if roots is not None:
        patched = roots(list(real_roots(K)))
        monkeypatch.setattr(Subgroup, "roots", lambda S: patched if S == K else real_roots(S))
    with pytest.raises((verify.CheckFailure, ValueError)) as info:
        verify.subgroup_pair_suite(field, group, budget=0)
    return info


def _move_last_coefficient(x):
    c = x.coeffs.copy()
    c[-1] += 1
    return AlgebraElem(x.group, x.field, c)


@pytest.mark.parametrize("corrupted", ["H", "K"])
def test_pair_code_proof_rejects_a_corrupted_generator(monkeypatch, corrupted):
    """e = H^ - K^ with one coefficient of H^ or of K^ moved, outside both
    subgroups: the suite's check of e on the labels fails, so no pair code
    is claimed."""
    if corrupted == "H":
        hats = lambda hH, hK: (_move_last_coefficient(hH), hK)  # noqa: E731
    else:
        hats = lambda hH, hK: (hH, _move_last_coefficient(hK))  # noqa: E731
    info = _suite_error(monkeypatch, hats)
    assert info.type is verify.CheckFailure
    assert str(info.value).startswith("H^ - K^ is not |H|^-1 1_H - |K|^-1 1_K")


def test_pair_code_refuses_elements_that_are_not_the_orbit_of_1(monkeypatch):
    """The cosets are read off `roots()`, which walks the generators, and
    the averages off `indices()`: `roots()` proves the two name one
    subgroup.  H*_1 listed with its reflections a^(3i + 1) b, the elements
    of Subgroup(group, 1, 1), is refused before any pair is listed."""
    group = DihedralGroup(3, 3)
    H, K = Subgroup(group, 1), Subgroup(group, 1, 0)
    real = Subgroup.indices
    moved = Subgroup(group, 1, 1).indices()
    monkeypatch.setattr(Subgroup, "indices", lambda S: moved if S == K else real(S))
    with pytest.raises(RuntimeError, match=r"^the elements of .*c=0\) are not the orbit of 1"):
        pair_labels(H, K)


def _straddle(k_root):
    """K = H*_1 at (3, 3): a^4, in the H_1-coset of a, moved from the
    K-coset of a to that of a^2.  The roots label 0 the same elements,
    so only the labels of a^4 change."""
    k_root[4] = k_root[2]
    return k_root


@pytest.mark.parametrize(
    "hats, roots, error, message",
    [
        # e = 0 lies in V, but is not the lemma's e
        (lambda hH, hK: (hH, hH), None, verify.CheckFailure, "is not |H|^-1 1_H"),
        # e = H^ - K^ + (1, ..., 1) is constant on each H-coset, but sums to
        # |K| over each K-coset
        (
            lambda hH, hK: (hH, AlgebraElem(hK.group, hK.field, hK.coeffs - 1)),
            None,
            verify.CheckFailure,
            "is not |H|^-1 1_H",
        ),
        # e is right, but the H_1-coset of a straddles two K-cosets, so
        # the row 1_C - 1_C' of its label would leave V
        (lambda hH, hK: (hH, hK), _straddle, ValueError, "H is not contained in K"),
    ],
    ids=["zero-generator", "e-outside-V", "straddling-coset"],
)
def test_pair_code_proof_rejects_averages_that_break_one_identity(
    monkeypatch, hats, roots, error, message
):
    """Each case, averages handed over by `verify.hat` or the roots of K
    patched, breaks one fact the suite proves per pair and keeps the
    others, so dropping that fact's test would claim a wrong pair code."""
    info = _suite_error(monkeypatch, hats, roots)
    assert info.type is error and message in str(info.value)


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
    a row already in the span is skipped, so no word repeats.  The span
    never outgrows SPAN_CAP words: rows of a larger rank, as a faulty
    product would build, fail here before they are enumerated."""
    words = np.zeros((1, rows.shape[1]), dtype=np.int64)
    seen = {words[0].tobytes()}
    for row in rows:
        if row.tobytes() not in seen:
            assert len(words) * q <= SPAN_CAP, f"the span outgrows {SPAN_CAP} words"
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
    return _ideal_rows(group, q, draw(_vectors(q, n)), S, source)


def _ideal_rows(group, q, y, S, source):
    """(group, q, rows): the rows a^i x of L(x), i < p^m, or all of L(x),
    for x = y s, s the sum over S, built from GroupElem products."""
    s = np.zeros(group.order, dtype=np.int64)
    s[S.indices()] = 1
    field = PrimeField(q)
    x = (AlgebraElem(group, field, y) * AlgebraElem(group, field, s)).coeffs
    rows = np.array([_translate(group, g, x) for g in range(group.order)])
    return group, q, rows[: group.rot_order] if source == "powers of a" else rows


def _reflection_cases():
    """All of L(x) for x = y s, S = {1, a^c b} with c != 0 in D, at three
    (p, m, q).  A kernel with sigma = identity on D forms another x there
    (S = <b>, or S without reflections, hides that fault), whose L(x) has
    rank 8 to 17 at these y, so its span outgrows SPAN_CAP."""
    cases = []
    for (p, m, c), q in [((5, 1, 2), 3), ((5, 1, 3), 5), ((3, 2, 4), 2)]:
        group = DihedralGroup(p, m)
        y = np.random.default_rng(1).integers(0, q, group.order)
        cases.append(_ideal_rows(group, q, y, Subgroup(group, m, c), "ideal"))
    return cases


REFLECTION_CASES = _reflection_cases()


@settings(max_examples=60, deadline=None)
@given(row_sets(), st.integers(0, 2**32 - 1))
@example(REFLECTION_CASES[0], 0)
@example(REFLECTION_CASES[1], 0)
@example(REFLECTION_CASES[2], 0)
def test_contains_matches_brute_force_span(case, seed):
    group, q, rows = case
    span = _brute_span(rows, q)
    code = LinearCode(rows, q, group=group)
    rng = np.random.default_rng(seed)
    combo = rng.integers(0, q, len(rows)) @ rows % q
    candidates = [combo, rng.integers(0, q, group.order)]
    candidates += [_translate(group, g, rows[0]) for g in range(group.order)]
    for v in candidates:
        assert code.contains(v) == (v.tobytes() in span)


@settings(max_examples=60, deadline=None)
@given(row_sets())
@example(REFLECTION_CASES[0])
@example(REFLECTION_CASES[1])
@example(REFLECTION_CASES[2])
def test_is_left_ideal_matches_brute_force_closure(case):
    """Closed under left translation by every group element, not only a, b."""
    group, q, rows = case
    span = _brute_span(rows, q)
    closed = all(
        _translate(group, g, row).tobytes() in span for g in range(group.order) for row in rows
    )
    assert LinearCode(rows, q, group=group).is_left_ideal() == closed
