"""`verify` output pinned line for line, and the int64 bound as seen by the
checks."""

import time
import types

import numpy as np
import pytest

from dihedral_codes import (
    AbelianGroup,
    AlgebraElem,
    DihedralGroup,
    PrimeField,
    Subgroup,
    codes,
    idempotents,
    modmat,
    run_checks,
    verify,
)
from dihedral_codes.cli import main

PINNED_11_3_2 = """\
PASS field-axioms: field axioms hold (exhaustive over 11^3 triples)
PASS group-axioms: group axioms hold (dihedral exhaustive, abelian exhaustive)
PASS gamma-map: gamma is an index-preserving bijection on 18 elements
PASS convolution: associativity/distributivity on 1000 seeded triples
PASS hat-idempotents: 16 subgroup averages idempotent, 42 absorption pairs
PASS central-catalog: 4 idempotents; dims 1, 1, dim e_1: 4, dim e_2: 12
PASS matrix-units: all 16 products verified in components 1..2
PASS noncentral-generator: f built two ways matches; dims [2, 6] preserved under conjugation
PASS component-field: every tested nonzero element inverts (e_1: 120 exhaustive; e_2: 64 sampled)
PASS powers-basis: j=1: rank 2; j=2: rank 6
PASS abelian-images: vector identity for all 18 g; row spaces match for j=1..2
"""

PINNED_41_3_1 = """\
PASS field-axioms: field axioms hold (3000 seeded triples)
PASS component-field: every tested nonzero element inverts (e_1: 1680 exhaustive)
"""


def _verify(capsys, q, p, m, checks, *options):
    argv = ["verify", "--q", str(q), "--p", str(p), "--m", str(m), *options]
    for name in checks:
        argv += ["--check", name]
    rc = main(argv)
    return rc, capsys.readouterr().out


def test_verify_stdout_pinned_at_11_3_2(capsys):
    checks = [line.split()[1].rstrip(":") for line in PINNED_11_3_2.splitlines()]
    assert _verify(capsys, 11, 3, 2, checks) == (0, PINNED_11_3_2)


def test_verify_stdout_pinned_at_41_3_1(capsys):
    # q > 31: field-axioms takes its sampled branch
    assert _verify(capsys, 41, 3, 1, ["field-axioms", "component-field"]) == (0, PINNED_41_3_1)


def test_convolution_check_refuses_q_beyond_int64_bound():
    # q = 1000000103 is admissible for (3, 2), but 18 (q-1)^2 >= 2^63: the
    # int64 products used to wrap and the check passed on wrong values
    [res] = run_checks(1000000103, 3, 2, names=["convolution"])
    assert not res.passed
    assert "2^63" in res.detail


def test_field_axioms_time_does_not_grow_with_q():
    # the inverse laws are checked on the drawn residues, not by a pass over
    # all of range(q), which took over 100 s at this q
    start = time.perf_counter()
    [res] = run_checks(1000000103, 3, 2, names=["field-axioms"])
    assert time.perf_counter() - start < 1.0
    assert res.passed and res.detail == "field axioms hold (3000 seeded triples)"


def test_full_verify_at_budget_zero_reports_every_check(capsys):
    # a None weight used to reach sorted() in nonequivalence and abort the
    # whole command with a TypeError before any result line
    rc = main(["verify", "--q", "11", "--p", "3", "--m", "2", "--budget", "0"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1 and len(lines) == 18
    assert [line.split()[0] for line in lines] == ["PASS"] * 17 + ["FAIL"]
    assert lines[-1] == "FAIL nonequivalence: dimension-2 abelian weights are beyond budget 0"


def test_checks_beyond_budget_print_unknown_weights(capsys):
    checks = ["central-codes", "coefficient-claim", "nonequivalence"]
    argv = ["verify", "--q", "11", "--p", "3", "--m", "2", "--budget", "100"]
    for name in checks:
        argv += ["--check", name]
    assert main(argv) == 1
    assert capsys.readouterr().out == (
        "PASS central-codes: j=1: [18, 2, ?]; j=2: [18, 6, ?]\n"
        "PASS coefficient-claim: skipped: the 121 codewords are beyond the budget\n"
        "FAIL nonequivalence: dimension-2 abelian weights are beyond budget 100\n"
    )


def test_full_subgroup_pair_check_at_5_3_3(capsys):
    # every nested pair at the default budget: the 36 weights include the
    # nine [54, 9] codes over F_5 (5^9 words each)
    assert _verify(capsys, 5, 3, 3, ["subgroup-pairs"]) == (
        0,
        "PASS subgroup-pairs: 166 nested pairs: dimension+basis exact; "
        "36 weights within budget\n",
    )
    # the benchmark's budget 5^8 skips the nine [54, 9] codes
    assert _verify(capsys, 5, 3, 3, ["subgroup-pairs"], "--budget", "390625") == (
        0,
        "PASS subgroup-pairs: 166 nested pairs: dimension+basis exact; "
        "27 weights within budget\n",
    )


def test_full_subgroup_pair_check_at_3_5_3(capsys):
    # n = 250: 630 closed-form pair codes, each proven by matrix identities
    assert _verify(capsys, 3, 5, 3, ["subgroup-pairs"]) == (
        0,
        "PASS subgroup-pairs: 630 nested pairs: dimension+basis exact; "
        "13 weights within budget\n",
    )


def _pair_enumerator(q, h, s, cosets):
    """A_0..A_n of (G:K) copies of the zero-sum code of length s = (K:H),
    each coordinate repeated h = |H| times: the weight enumerator
    [((1 + (q-1) z^h)^s + (q-1)(1 - z^h)^s) / q]^(G:K), by polynomial
    arithmetic on coefficient lists."""

    def mul(a, b):
        c = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                c[i + j] += x * y
        return c

    def power(a, e):
        r = [1]
        for _ in range(e):
            r = mul(r, a)
        return r

    plus, minus = power([1, q - 1], s), power([1, -1], s)
    block = [(x + (q - 1) * y) // q for x, y in zip(plus, minus)]  # in z^h
    spread = [0] * (h * s + 1)
    spread[::h] = block
    return power(spread, cosets)


@pytest.mark.parametrize(
    "q, p, m, budget",
    [(11, 3, 2, codes.DEFAULT_BUDGET), (5, 3, 2, codes.DEFAULT_BUDGET),
     (3, 5, 2, codes.DEFAULT_BUDGET), (5, 3, 3, 5**6), (13, 5, 2, codes.DEFAULT_BUDGET)],
)
def test_every_pair_weight_matches_a_scan_of_its_own_code(q, p, m, budget):
    # a pair takes the weight of the first pair of its (|H|, |K|); scan its
    # own code instead, and compare the scan with the lemma's enumerator
    group = DihedralGroup(p, m)
    checked = 0
    for H, K, basis, w in verify._pair_weights(PrimeField(q), group, budget):
        hist = codes.weights(basis, q, budget)
        assert w == (None if hist is None else int(np.flatnonzero(hist)[1]))
        if hist is not None:
            expect = _pair_enumerator(q, H.order, K.order // H.order, group.order // K.order)
            assert hist.tolist() == expect
            checked += 1
    assert checked > 0


@pytest.mark.parametrize(
    "q, p, m, budget, scans",
    [(5, 3, 3, 5**8, 7), (11, 3, 2, 1 << 24, 6), (3, 5, 3, 1 << 24, 5), (13, 5, 2, 1 << 24, 3)],
)
def test_suite_scans_once_per_conjugacy_class(monkeypatch, q, p, m, budget, scans):
    # one scan per (|H|, |K|) within the budget, never more than one per
    # conjugacy class: 27 within-budget pairs in 7 size classes at
    # (5, 3, 3), 18 in 6 at (11, 3, 2), 13 in 5 at (3, 5, 3), 11 in 3 at
    # (13, 5, 2)
    calls = []
    scan = codes.weight_histogram
    monkeypatch.setattr(codes, "weight_histogram", lambda G, q: calls.append(1) or scan(G, q))
    weights = {5: 27, 11: 18, 3: 13, 13: 11}[q]
    assert verify.subgroup_pair_suite(PrimeField(q), DihedralGroup(p, m), budget)[1] == weights
    assert len(calls) == scans


def test_suite_runs_on_the_abelian_group_too():
    # H_j and H*_j = <t> H_j are subgroups of C_{p^m} x C_2 as well, so the
    # scanned chain pairs exist there; the counts are those of a scan of
    # the first pair of each (|H|, |K|)
    for (q, p, m), counts in {(11, 3, 2): (12, 6), (5, 3, 2): (12, 8), (2, 5, 2): (3, 1)}.items():
        assert verify.subgroup_pair_suite(PrimeField(q), AbelianGroup(p, m)) == counts


def test_wrong_representative_weight_fails_at_the_same_pair(capsys, monkeypatch):
    # among the pairs within 5^8, only the three (18, 54) pairs give
    # [54, 2] codes; a scan of every pair meets the first of them first and
    # reports it with this line.  The scan is made to move every nonzero
    # weight of a [54, 2] code up by one.
    scan = verify.weights

    def wrong(G, q, budget):
        hist = scan(G, q, budget)
        if len(G) != 2:
            return hist
        shifted = np.zeros_like(hist)
        shifted[0], shifted[2:] = hist[0], hist[1:-1]
        return shifted

    monkeypatch.setattr(verify, "weights", wrong)
    assert _verify(capsys, 5, 3, 3, ["subgroup-pairs"], "--budget", "390625") == (
        1,
        "FAIL subgroup-pairs: min weight 37 != 2|H| = 36 for |H|=18, |K|=54\n",
    )


def test_a_broken_matrix_unit_fails_the_check(capsys, monkeypatch):
    # the check only builds the units: the proof inside `matrix_units` must
    # turn a wrong e21 into the FAIL line
    units = idempotents.MatrixUnits

    def doubled(j, component, e11, e12, e21, e22):
        return units(j, component, e11, e12, 2 * e21, e22)

    monkeypatch.setattr(idempotents, "MatrixUnits", doubled)
    assert _verify(capsys, 11, 3, 2, ["matrix-units"]) == (
        1,
        "FAIL matrix-units: matrix-unit identity e12 e21 failed in component 1\n",
    )


def test_unexpected_exception_in_one_check_is_reported(capsys, monkeypatch):
    def broken(ctx):
        raise IndexError("index 7 is out of bounds")

    checks = [line.split()[1].rstrip(":") for line in PINNED_11_3_2.splitlines()]
    monkeypatch.setattr(
        verify, "CHECKS", [(n, broken if n == "gamma-map" else fn) for n, fn in verify.CHECKS]
    )
    expect = PINNED_11_3_2.replace(
        "PASS gamma-map: gamma is an index-preserving bijection on 18 elements",
        "FAIL gamma-map: IndexError: index 7 is out of bounds",
    )
    argv = ["verify", "--q", "11", "--p", "3", "--m", "2"]
    for name in checks:
        argv += ["--check", name]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == expect
    assert "Traceback" in captured.err and "IndexError: index 7" in captured.err


def test_coefficient_claim_at_q_4001_reads_the_generator_matrix(capsys):
    # 4001^2 = 16008001 codewords fit the default budget; the claim is
    # checked on the 2 x 18 generator matrix, not by listing every codeword
    start = time.perf_counter()
    result = _verify(capsys, 4001, 3, 2, ["coefficient-claim"])
    assert time.perf_counter() - start < 1.0
    assert result == (
        0,
        "PASS coefficient-claim: all 16008000 nonzero codewords: <= 1 vanishing coset value\n",
    )


def test_coefficient_claim_names_the_vanishing_coset_values(capsys, monkeypatch, units1):
    # code(e11) is also constant on the six cosets, but its [18, 2, 12]
    # words vanish on two of them
    e11_code = verify.left_ideal_code(units1.e11)
    monkeypatch.setattr(verify, "left_ideal_code", lambda x: e11_code)
    assert _verify(capsys, 11, 3, 2, ["coefficient-claim"]) == (
        1,
        "FAIL coefficient-claim: 2 coset values vanish simultaneously\n",
    )


@pytest.mark.parametrize("seed", ["-3", str(2**64 + 7)])
def test_convolution_passes_at_any_integer_seed(capsys, seed):
    assert _verify(capsys, 11, 3, 2, ["convolution"], "--seed", seed) == (
        0,
        "PASS convolution: associativity/distributivity on 1000 seeded triples\n",
    )


def test_streams_from_one_seed_draw_the_same_residues():
    ctx = verify.VerifyContext(11, 3, 2, seed=5)
    first, second = ctx.rng(), ctx.rng()
    xs = ctx.draw(first, (3, 18))
    assert np.array_equal(xs, ctx.draw(second, (3, 18)))
    assert not np.array_equal(xs, ctx.draw(verify.VerifyContext(11, 3, 2, seed=6).rng(), (3, 18)))
    draws = ctx.draw(first, (500, 3), modulus=18), ctx.draw(second, (500, 3), modulus=18)
    assert np.array_equal(*draws)
    assert draws[0].dtype == np.int64 and set(np.unique(draws[0])) == set(range(18))


@pytest.mark.parametrize("q, p, m", [(11, 3, 2), (3, 5, 3)])
def test_a_corrupted_dense_product_fails_convolution(monkeypatch, q, p, m):
    # one coordinate off in every product row with a dense left factor; the
    # sampled elements are dense at both q
    stacked = verify.products

    def corrupted(group, field, xs, ys):
        out = stacked(group, field, xs, ys)
        dense = np.count_nonzero(xs, axis=1) > group.order // 2
        out[dense, 0] = (out[dense, 0] + 1) % field.q
        return out

    monkeypatch.setattr(verify, "products", corrupted)
    [res] = run_checks(q, p, m, names=["convolution"])
    assert (res.passed, res.detail) == (False, "convolution not associative")


@pytest.mark.parametrize("seed", [5, -3])
@pytest.mark.parametrize("q, p, m, triples", [(11, 3, 2, 1000), (3, 5, 3, 4)])
def test_chunked_draws_equal_one_draw_per_triple(seed, q, p, m, triples):
    # `convolution` draws all its triples in one call, then its 50 central
    # elements; the stream gives the same residues in chunks of any size,
    # down to one call per triple and one per central element
    ctx = verify.VerifyContext(q, p, m, seed=seed)
    n = ctx.dihedral.order
    whole = ctx.rng()
    stack, central = ctx.draw(whole, (triples, 3, n)), ctx.draw(whole, (50, n))
    chunked = ctx.rng()
    bounds = [0, 1, triples // 2, triples]
    chunks = [ctx.draw(chunked, (b - a, 3, n)) for a, b in zip(bounds, bounds[1:])]
    assert np.array_equal(np.concatenate(chunks), stack)
    one_by_one = ctx.rng()
    assert np.array_equal([ctx.draw(one_by_one, (3, n)) for _ in range(triples)], stack)
    assert np.array_equal([ctx.draw(one_by_one, (n,)) for _ in range(50)], central)


def _count_scans(monkeypatch):
    scanned = []
    scan = codes.weight_histogram
    monkeypatch.setattr(codes, "weight_histogram", lambda G, q: scanned.append(G) or scan(G, q))
    return scanned


def test_checks_of_one_run_share_scans_of_identical_matrices(monkeypatch):
    # central-codes' codes and survey's member codes are pair codes that
    # subgroup-pairs already scanned: 6 + 4 + 17 scans alone, 20 together
    scanned = _count_scans(monkeypatch)
    alone = {}
    for name in ("subgroup-pairs", "central-codes", "survey"):
        scanned.clear()
        alone[name] = run_checks(11, 3, 2, names=[name])
        assert len(scanned) == {"subgroup-pairs": 6, "central-codes": 4, "survey": 17}[name]
    scanned.clear()
    together = run_checks(11, 3, 2, names=list(alone))
    assert together == [r for results in alone.values() for r in results]
    assert len(scanned) == 20
    assert len({G.tobytes() for G in scanned}) == 20


def test_each_run_scans_afresh(monkeypatch):
    # the memo belongs to one run: a second run scans every matrix again,
    # so a corrupted kernel is seen by the run it corrupts
    checks = ["subgroup-pairs", "central-codes"]
    assert all(r.passed for r in run_checks(11, 3, 2, names=checks))
    scanned = _count_scans(monkeypatch)
    assert all(r.passed for r in run_checks(11, 3, 2, names=checks))
    assert len(scanned) == 8
    monkeypatch.setattr(codes, "weight_histogram", lambda G, q: np.zeros(19, dtype=np.int64))
    [pairs, central] = run_checks(11, 3, 2, names=checks)
    assert not pairs.passed and not central.passed


def test_a_wrong_inverse_is_named_by_the_first_failing_element(monkeypatch):
    # with the abelian formula, a^i b inverts to a^-i b, wrong from a b on
    monkeypatch.setattr(DihedralGroup, "_invert", lambda self, i, j: (-i, j))
    with pytest.raises(verify.CheckFailure, match="^inverse fails for a\\*b$"):
        verify.check_group_axioms(verify.VerifyContext(11, 3, 2))


@pytest.mark.parametrize(
    "rotations, message",
    [([0, 1], "subgroup not closed under inverse"), ([0, 1, 8], "subgroup not closed under product")],
)
def test_a_set_that_is_no_subgroup_fails_group_axioms(monkeypatch, rotations, message):
    # {1, a} lacks a^-1 = a^8; {1, a, a^8} has every inverse but not a^2
    monkeypatch.setattr(Subgroup, "indices", lambda self: rotations)
    with pytest.raises(verify.CheckFailure, match=f"^{message}$"):
        verify.check_group_axioms(verify.VerifyContext(11, 3, 2))


@pytest.mark.parametrize("group", [DihedralGroup(3, 2), AbelianGroup(3, 2)], ids=repr)
def test_group_axioms_checks_every_subgroup_of_both_groups(monkeypatch, group):
    """H_1 = {1, a^3, a^6} of one group read as {1, a, a^8}: every inverse
    is there, but not a^2.  The check finds it in either group, as it
    closes every subgroup of both, not the dihedral chain alone."""
    real = Subgroup.indices
    monkeypatch.setattr(
        Subgroup, "indices", lambda S: [0, 1, 8] if S == Subgroup(group, 1) else real(S)
    )
    with pytest.raises(verify.CheckFailure, match="^subgroup not closed under product$"):
        verify.check_group_axioms(verify.VerifyContext(11, 3, 2))


def test_abelian_images_names_the_first_g_whose_translate_differs(monkeypatch):
    # rows a^4 and a^7 of L((1+t)/2 etil_1) become (1+t)/2 etil_1 itself
    ctx = verify.VerifyContext(11, 3, 2)
    group = ctx.abelian_cat.members[2].group
    table = group.translate_table.copy()
    table[[4, 7]] = table[0]
    monkeypatch.setitem(vars(group), "translate_table", table)
    with pytest.raises(verify.CheckFailure) as exc:
        verify.check_abelian_images(ctx)
    assert str(exc.value) == "gamma(g e11) != gamma(g) (1+t)/2 etil_1 for g = a^4"


@pytest.mark.parametrize("solver", ["exact", "wrong"])
def test_a_non_invertible_element_fails_component_field(monkeypatch, solver):
    # component 1 replaced by 1: F_11<a> = F_11 x F_121 has zero divisors,
    # which the 3-unknown solve finds unsolvable; a wrong solution fails
    # the two exact products instead
    ctx = verify.VerifyContext(11, 3, 1)
    one = AlgebraElem.one(ctx.dihedral, ctx.field)
    vars(ctx)["catalog"] = types.SimpleNamespace(component=lambda j: one)
    monkeypatch.setattr(verify, "phi_prime_power", lambda p, j: p)
    if solver == "wrong":
        monkeypatch.setattr(modmat, "solve", lambda A, b, q: np.ones(A.shape[1], np.int64))
    with pytest.raises(verify.CheckFailure, match="^not invertible in component$"):
        verify.check_component_field(ctx)
