"""Acceptance suite: one test per criterion, everything exact.

Run `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion, or `dihedral-codes verify --q 11 --p 3 --m 2` for the CLI view.
"""

import itertools
import random
from collections import Counter

import numpy as np

from dihedral_codes import (
    AlgebraElem,
    DihedralGroup,
    PrimeField,
    abelian_catalog,
    enumerate_abelian_codes,
    equivalence_necessary_check,
    gamma_image_code,
    hat,
    is_central,
    is_idempotent,
    left_ideal_code,
    subgroup_pair_suite,
    matrix_units,
    noncentral_generator,
    phi_prime_power,
)
from dihedral_codes.modmat import rref


def test_criterion_1_flagship_code(gens1):
    """[18, 2, 15] over F_11: exhaustive over all 121 codewords."""
    code = left_ideal_code(gens1.f)
    assert code.n == 18
    assert code.k == 2 == phi_prime_power(3, 1)
    assert code.min_weight() == 15
    print("PASS criterion 1: F11.D9.f is an exact [18, 2, 15] code")


def test_criterion_2_central_code_parameters(units1, units2):
    """code(e11) and code(e22): [18, 2, 12] for j=1 and [18, 6, 4] for j=2."""
    for units, dim, w, count in ((units1, 2, 12, 121), (units2, 6, 4, 11 ** 6)):
        for gen in (units.e11, units.e22):
            code = left_ideal_code(gen)
            assert code.k == dim
            assert code.size() == count
            assert code.min_weight() == w
    print("PASS criterion 2: central codes are [18, 2, 12] and [18, 6, 4]")


def test_criterion_3_subgroup_pair_suite(field11, d9):
    """Dimension, weight (within budget), and basis for every nested
    subgroup pair of D9 over F_11 and of D25 over F_2."""
    pairs, weights = subgroup_pair_suite(field11, d9)
    assert pairs == 42
    assert weights == 18
    f2 = PrimeField(2)
    d25 = DihedralGroup(5, 2)
    pairs2, weights2 = subgroup_pair_suite(f2, d25)
    # only the three odd-order subgroups {1} < <a^5> < <a> admit averages
    # over F_2; the single within-budget weight is the [50, 8, 10] pair
    assert pairs2 == 3
    assert weights2 == 1
    print("PASS criterion 3: subgroup-pair suite over D9/F11 (42 pairs) and D25/F2 (3 pairs)")


def test_criterion_3_d25_weight_value():
    f2 = PrimeField(2)
    d25 = DihedralGroup(5, 2)
    from dihedral_codes import LinearCode, Subgroup
    from dihedral_codes.closed_forms import canonical_rows

    basis = canonical_rows(Subgroup(d25, 1), Subgroup(d25, 0), 2)
    code = LinearCode(basis, 2, group=d25)
    assert (code.n, code.k) == (50, 8)
    assert code.min_weight() == 10 == 2 * 5
    assert len(basis) == 8
    print("PASS criterion 3b: D25/F2 chain pair gives an exact [50, 8, 10] code")


def test_criterion_4_matrix_unit_identities():
    """All 16 products, the component split, and the conjugation identity,
    for every component of several admissible triples."""
    triples = [(11, 3, 2), (11, 3, 1), (7, 5, 1), (3, 5, 1), (5, 3, 2), (3, 5, 2)]
    from dihedral_codes import central_idempotents

    for q, p, m in triples:
        field = PrimeField(q)
        group = DihedralGroup(p, m)
        catalog = central_idempotents(field, group)
        zero = AlgebraElem.zero(group, field)
        for j in range(1, m + 1):
            units = matrix_units(catalog, j)
            table = units.as_dict()
            for (i1, j1), (h1, k1) in itertools.product(table, repeat=2):
                expect = table[(i1, k1)] if j1 == h1 else zero
                assert table[(i1, j1)] * table[(h1, k1)] == expect
            assert units.e11 + units.e22 == catalog.component(j)
            gens = noncentral_generator(units)
            assert gens.alpha * units.e11 * gens.alpha_inv == units.e11 - units.e12
            assert gens.f == units.e11 - units.e12
    print(f"PASS criterion 4: matrix units verified for {len(triples)} triples")


def test_criterion_5_powers_of_a_basis(field11, d9, catalog):
    """{a^k f : 0 <= k < phi(p^j)} has full rank and spans the ideal."""
    a = AlgebraElem.from_group_elem(d9.a, field11)
    for j in (1, 2):
        gens = noncentral_generator(matrix_units(catalog, j))
        d = phi_prime_power(3, j)
        rows, x = [], gens.f
        for _ in range(d):
            rows.append(x.coeffs)
            x = a * x
        R, _ = rref(np.array(rows), 11)
        assert len(R) == d
        code = left_ideal_code(gens.f)
        assert code.k == d
        assert np.array_equal(R, code.generator_matrix)
    print("PASS criterion 5: {f, af} and the j=2 analogue are bases")


def test_criterion_6_gamma_images_are_cyclic_ideals(field11, catalog):
    """gamma carries code(e11)/code(e22) onto the abelian ideals of
    ((1 +/- t)/2) etil_j, as row spaces."""
    acat = abelian_catalog(field11, 3, 2)
    for j in (1, 2):
        units = matrix_units(catalog, j)
        img11 = gamma_image_code(left_ideal_code(units.e11))
        img22 = gamma_image_code(left_ideal_code(units.e22))
        assert img11.same_code(left_ideal_code(acat.members[2 * j]))
        assert img22.same_code(left_ideal_code(acat.members[2 * j + 1]))
    print("PASS criterion 6: gamma images equal the abelian ideals, j = 1, 2")


def test_criterion_7_nonequivalence_survey(field11, gens1):
    """All 63 abelian codes of F_11[C_9 x C_2]: no dimension-2 code reaches
    weight 13; the f-code is parameter-inequivalent to every one of them."""
    acat = abelian_catalog(field11, 3, 2)
    rows = enumerate_abelian_codes(3, 2)
    assert len(rows) == 63
    dim2 = [r for r in rows if r.dim == 2]
    assert len(dim2) == 3
    assert sorted(r.min_weight for r in dim2) == [9, 12, 12]
    assert all(r.min_weight < 13 for r in dim2)
    code_f = left_ideal_code(gens1.f)
    for row in dim2:
        picked = [x for b, x in enumerate(acat.members) if row.mask >> b & 1]
        gen = sum(picked[1:], picked[0])
        assert equivalence_necessary_check(code_f, left_ideal_code(gen)) == "impossible"
    print("PASS criterion 7: survey max dim-2 weight is 12; f-code inequivalent")


def test_criterion_8_coefficient_claim(gens1):
    """Every nonzero codeword is constant on the six cosets of H_1 and at
    most one coset value vanishes, forcing weight >= 15."""
    code = left_ideal_code(gens1.f)
    coset = [(t % 9) % 3 + 3 * (t // 9) for t in range(18)]
    messages = np.array(list(itertools.product(range(11), repeat=code.k)))
    words = messages @ code.generator_matrix % 11
    assert len({tuple(w) for w in words}) == 121  # no duplicates
    weights = []
    for word in words:
        if not word.any():
            continue
        slots = [set() for _ in range(6)]
        for t, v in enumerate(word):
            slots[coset[t]].add(int(v))
        assert all(len(s) == 1 for s in slots)
        zero_slots = sum(1 for s in slots if s == {0})
        assert zero_slots <= 1
        weights.append(int(np.count_nonzero(word)))
    assert len(weights) == 120
    assert min(weights) == 15  # agrees with criterion 1's direct enumeration
    assert Counter(weights) == Counter({15: 60, 18: 60})
    print("PASS criterion 8: at most one vanishing coset value; weight >= 15")


def test_criterion_9_property_suites(field11, d9, catalog, units1, gens1):
    """Field axioms, convolution laws, averaging idempotents, catalog
    completeness and orthogonality, gamma isometry."""
    # field axioms on residues, exhaustive at q = 11
    q = field11.q
    for x, y, z in itertools.product(range(q), repeat=3):
        assert (x + y) % q == (y + x) % q and x * y % q == y * x % q
        assert ((x + y) % q + z) % q == (x + (y + z) % q) % q
        assert x * y % q * z % q == x * (y * z % q) % q
        assert x * (y + z) % q == (x * y % q + x * z % q) % q
    for x in range(1, q):
        assert x * field11.inv(x) % q == 1
    # convolution laws on 1000 seeded triples
    rng = random.Random(0)

    def rand_elem():
        return AlgebraElem(d9, field11, [rng.randrange(11) for _ in range(18)])

    for _ in range(1000):
        x, y, z = rand_elem(), rand_elem(), rand_elem()
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
    # averaging idempotents over every subgroup
    for sub in d9.all_subgroups():
        assert is_idempotent(hat(field11, sub))
    # catalog completeness and orthogonality
    members = catalog.members()
    total = AlgebraElem.zero(d9, field11)
    for x in members:
        assert is_idempotent(x) and is_central(x)
        total = total + x
    assert total == AlgebraElem.one(d9, field11)
    for x, y in itertools.combinations(members, 2):
        assert (x * y).is_zero()
    # gamma is an isometry on weight distributions
    for gen in (units1.e11, units1.e22, gens1.f, catalog.component(1)):
        code = left_ideal_code(gen)
        assert np.array_equal(
            code.weight_distribution(),
            gamma_image_code(code).weight_distribution(),
        )
    print("PASS criterion 9: property suites (fixed seed 0)")
