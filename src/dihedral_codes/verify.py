"""Named verification checks behind the `verify` CLI command.

Each check re-derives one block of identities or code parameters from
scratch for the given (q, p, m).  Checks either pass with a one-line detail
or fail with the first violated identity; everything is exact, no
tolerances anywhere.
"""

from __future__ import annotations

import itertools
import random
import traceback
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import modmat
from .algebra import (
    AlgebraElem,
    hat,
    invert_in_component,
    is_idempotent,
    left_translate,
)
from .codes import DEFAULT_BUDGET, left_ideal_code, subgroup_pair_code
from .ff import PrimeField, phi_prime_power, require_admissible
from .groups import AbelianGroup, DihedralGroup, gamma
from .idempotents import central_idempotents, matrix_units, noncentral_generator
from .survey import (
    abelian_catalog,
    enumerate_abelian_codes,
    equivalence_necessary_check,
    gamma_image_code,
)


class CheckFailure(AssertionError):
    """A named verification check found a violated identity."""


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


class VerifyContext:
    """Shared objects for one (q, p, m) verification run; the catalogs are
    built on first use."""

    def __init__(self, q, p, m, budget=DEFAULT_BUDGET, seed=0):
        require_admissible(q, p, m)
        self.q, self.p, self.m = q, p, m
        self.budget = budget
        self.seed = seed
        self.field = PrimeField(q)
        self.dihedral = DihedralGroup(p, m)
        self.abelian = AbelianGroup(p, m)

    @cached_property
    def catalog(self):
        return central_idempotents(self.field, self.dihedral)

    @cached_property
    def units(self):
        return {j: matrix_units(self.catalog, j) for j in range(1, self.m + 1)}

    @cached_property
    def noncentral(self):
        return {j: noncentral_generator(self.units[j]) for j in range(1, self.m + 1)}

    @cached_property
    def abelian_cat(self):
        return abelian_catalog(self.field, self.p, self.m)

    def rng(self):
        return random.Random(self.seed)

    def random_elem(self, rng):
        return AlgebraElem(
            self.dihedral,
            self.field,
            [rng.randrange(self.q) for _ in range(self.dihedral.order)],
        )


def _require(cond: bool, msg: str):
    if not cond:
        raise CheckFailure(msg)


# --------------------------------------------------------------- checks
def check_field_axioms(ctx: VerifyContext) -> str:
    """The field laws on residues in [0, q) under + and * mod q."""
    q = ctx.q
    if q <= 31:
        triples = itertools.product(range(q), repeat=3)
        mode = f"exhaustive over {q}^3 triples"
    else:
        rng = ctx.rng()
        triples = (tuple(rng.randrange(q) for _ in range(3)) for _ in range(3000))
        mode = "3000 seeded triples"
    for x, y, z in triples:
        _require(((x + y) % q + z) % q == (x + (y + z) % q) % q, "addition not associative")
        _require(x * y % q * z % q == x * (y * z % q) % q, "multiplication not associative")
        _require((x + y) % q == (y + x) % q and x * y % q == y * x % q, "not commutative")
        _require(x * (y + z) % q == (x * y % q + x * z % q) % q, "not distributive")
        _require((x + -x % q) % q == 0, "missing additive inverse")
        if x:
            _require(x * ctx.field.inv(x) % q == 1, "missing multiplicative inverse")
    return f"field axioms hold ({mode})"


def check_group_axioms(ctx: VerifyContext) -> str:
    results = []
    for group in (ctx.dihedral, ctx.abelian):
        table = np.asarray(group.mult_table)
        n = group.order
        if n <= 50:
            # (gh)k == g(hk) for all triples at once
            _require(
                np.array_equal(table[table, :], table[:, table]),
                f"associativity fails in {group!r}",
            )
            mode = "exhaustive"
        else:
            rng = ctx.rng()
            for _ in range(5000):
                g, h, k = (rng.randrange(n) for _ in range(3))
                _require(
                    table[table[g, h], k] == table[g, table[h, k]],
                    f"associativity fails in {group!r}",
                )
            mode = "sampled"
        _require(np.array_equal(table[0], np.arange(n)), "identity fails on the left")
        _require(np.array_equal(table[:, 0], np.arange(n)), "identity fails on the right")
        for g in group.elements():
            _require((g * g.inverse()).is_identity(), f"inverse fails for {g!r}")
        for row in table:
            _require(len(set(int(v) for v in row)) == n, "multiplication not cancellative")
        results.append(mode)
    D = ctx.dihedral
    for i in range(D.rot_order):
        lhs = D.b * D.element(i) * D.b
        _require(lhs == D.element(-i), "b a^i b != a^-i")
    A = ctx.abelian
    _require(
        np.array_equal(np.asarray(A.mult_table), np.asarray(A.mult_table).T),
        "abelian group is not commutative",
    )
    for j in range(D.m + 1):
        for S in (D.subgroup_H(j), D.subgroup_Hstar(j)):
            idx = {g.index for g in S}
            for g in S:
                _require(g.inverse().index in idx, "subgroup not closed under inverse")
                for h in S:
                    _require((g * h).index in idx, "subgroup not closed under product")
    return f"group axioms hold (dihedral {results[0]}, abelian {results[1]})"


def check_gamma_map(ctx: VerifyContext) -> str:
    D, A = ctx.dihedral, ctx.abelian
    images = set()
    for g in D.elements():
        im = gamma(g, A)
        _require(im.index == g.index, "gamma does not preserve the canonical index")
        images.add(im.index)
    _require(len(images) == D.order, "gamma is not a bijection")
    return f"gamma is an index-preserving bijection on {D.order} elements"


def check_convolution(ctx: VerifyContext) -> str:
    rng = ctx.rng()
    n_triples = 1000 if ctx.dihedral.order <= 18 else 200
    for _ in range(n_triples):
        x, y, z = (ctx.random_elem(rng) for _ in range(3))
        _require((x * y) * z == x * (y * z), "convolution not associative")
        _require(x * (y + z) == x * y + x * z, "convolution not distributive")
    e = ctx.catalog.component(1)
    for _ in range(50):
        y = ctx.random_elem(rng)
        _require(e * y == y * e, "central element does not commute")
    return f"associativity/distributivity on {n_triples} seeded triples"


def check_hat_idempotents(ctx: VerifyContext) -> str:
    field = ctx.field
    subs = ctx.dihedral.all_subgroups()
    hats = []
    for S in subs:
        h = hat(field, S)
        _require(is_idempotent(h), f"hat of subgroup of order {len(S)} is not idempotent")
        hats.append((frozenset(g.index for g in S), h))
    absorbed = 0
    for si, hi in hats:
        for sj, hj in hats:
            if si < sj:
                _require(hi * hj == hj, "hat absorption fails for nested subgroups")
                _require(hj * hi == hj, "hat absorption fails for nested subgroups")
                absorbed += 1
    return f"{len(subs)} subgroup averages idempotent, {absorbed} absorption pairs"


def check_central_catalog(ctx: VerifyContext) -> str:
    cat = ctx.catalog  # construction re-verifies idempotency/centrality/orthogonality/sum
    dims = [left_ideal_code(cat.e11_0).k, left_ideal_code(cat.e22_0).k]
    _require(dims == [1, 1], f"one-dimensional components have dims {dims}")
    parts = []
    for j in range(1, ctx.m + 1):
        d = left_ideal_code(cat.component(j)).k
        expect = 2 * phi_prime_power(ctx.p, j)
        _require(d == expect, f"component {j} has dimension {d}, expected {expect}")
        parts.append(f"dim e_{j}: {d}")
    return f"{len(cat.members())} idempotents; dims 1, 1, " + ", ".join(parts)


def check_matrix_units(ctx: VerifyContext) -> str:
    for j, u in ctx.units.items():  # construction verifies all 16 products
        _require(u.e12 * u.e21 == u.e11, f"e12 e21 != e11 in component {j}")
        _require((u.e11 * u.e22).is_zero(), f"e11 e22 != 0 in component {j}")
        _require(u.e11 + u.e22 == u.component, f"e11 + e22 != e_{j}")
    return f"all 16 products verified in components 1..{ctx.m}"


def check_noncentral_generator(ctx: VerifyContext) -> str:
    dims = []
    for j, gens in ctx.noncentral.items():
        dim_f = left_ideal_code(gens.f).k
        dim_e11 = left_ideal_code(ctx.units[j].e11).k
        _require(
            dim_f == dim_e11 == phi_prime_power(ctx.p, j),
            f"conjugation changed dimension in component {j}",
        )
        dims.append(dim_f)
    return f"f built two ways matches; dims {dims} preserved under conjugation"


def check_component_field(ctx: VerifyContext) -> str:
    """Every nonzero element of F_q<a> e_j inverts inside the component."""
    rng = ctx.rng()
    tested = []
    for j in range(1, ctx.m + 1):
        e = ctx.catalog.component(j)
        # row i < p^m of L(e) is a^i e
        basis, _ = modmat.rref(e.translates()[: ctx.dihedral.rot_order], ctx.q)
        d = basis.shape[0]
        _require(d == phi_prime_power(ctx.p, j), f"F_q<a>e_{j} has wrong dimension")
        if ctx.q**d <= 2048:
            combos = itertools.product(range(ctx.q), repeat=d)
            mode = "exhaustive"
        else:
            combos = [[rng.randrange(ctx.q) for _ in range(d)] for _ in range(64)]
            mode = "sampled"
        count = 0
        for c in combos:
            v = AlgebraElem(ctx.dihedral, ctx.field, np.array(c) @ basis % ctx.q)
            if v.is_zero():
                continue
            invert_in_component(v, e)  # raises when not invertible
            count += 1
        tested.append(f"e_{j}: {count} {mode}")
    return "every tested nonzero element inverts (" + "; ".join(tested) + ")"


def _pair_weights(field, group, budget):
    """Yield (H, K, code, weight) for every nested pair H < K of subgroups
    whose orders are invertible in the field, in scan order, once its
    dimension and basis are checked; the weight is None beyond the budget.
    One pair per conjugacy class is scanned, as `subgroup_pair_suite` says.
    """
    subs = [S for S in group.all_subgroups() if len(S) % field.q != 0]
    index_sets = [frozenset(g.index for g in S) for S in subs]
    # (H, K) as index sets -> (representative's code, g, weight): the pair is
    # the representative conjugated by g
    classes = {}
    for H, h_idx in zip(subs, index_sets):
        for K, k_idx in zip(subs, index_sets):
            if not h_idx < k_idx:
                continue
            code, _ = subgroup_pair_code(field, H, K)  # verifies the basis spans
            sizes = f"|H|={len(H)}, |K|={len(K)}"
            expect = group.order // len(H) - group.order // len(K)
            if code.k != expect:
                raise CheckFailure(f"dim {code.k} != (G:H)-(G:K) = {expect} for {sizes}")
            shared = classes.get((h_idx, k_idx))
            if shared is None:
                w = code.min_weight(budget=budget)
                if w is not None:
                    conj = zip(group.conjugates(sorted(h_idx)), group.conjugates(sorted(k_idx)))
                    for g, (h_g, k_g) in enumerate(conj):
                        classes.setdefault((frozenset(h_g), frozenset(k_g)), (code, g, w))
            else:
                rep, g, w = shared
                if not code.same_code(rep.right_translate(group.from_index(g))):
                    raise CheckFailure(
                        f"code for {sizes} is not a right translate of its class representative"
                    )
            yield H, K, code, w


def subgroup_pair_suite(field, group, budget=DEFAULT_BUDGET):
    """Dimension, basis, and (within budget) weight checks over every nested
    pair of subgroups whose orders are invertible in the field.

    Returns (pairs checked, weights checked).  Not gated on admissibility;
    the construction itself only needs invertible subgroup orders.

    Conjugate pairs give the same code up to a permutation of coordinates.
    Conjugation by g maps H^ to g^{-1} H^ g, and (F_q G) g^{-1} = F_q G, so
        (F_q G)(g^{-1} H^ g - g^{-1} K^ g) = (F_q G)(H^ - K^) g,
    and right translation by g moves coordinate h to hg, which keeps every
    weight.  So only the first pair of each conjugacy class, in scan order,
    is scanned.  Each later member still builds its own code, so its
    dimension and basis checks stay as they are.  Before it takes the
    representative's weight, its generator matrix must equal the RREF of
    the representative's with the columns moved by right translation by g:
    that proves the two codes are right translates of each other.  The
    weight is still compared with 2|H| for every member, so the first
    failing pair is the one a scan of every pair would report.
    """
    pairs = weights = 0
    for H, K, _, w in _pair_weights(field, group, budget):
        pairs += 1
        if w is None:
            continue
        if w != 2 * len(H):
            raise CheckFailure(
                f"min weight {w} != 2|H| = {2 * len(H)} for |H|={len(H)}, |K|={len(K)}"
            )
        weights += 1
    return pairs, weights


def check_subgroup_pairs(ctx: VerifyContext) -> str:
    pairs, weights = subgroup_pair_suite(ctx.field, ctx.dihedral, budget=ctx.budget)
    return f"{pairs} nested pairs: dimension+basis exact; {weights} weights within budget"


def check_powers_basis(ctx: VerifyContext) -> str:
    parts = []
    for j, gens in ctx.noncentral.items():
        d = phi_prime_power(ctx.p, j)
        R, _ = modmat.rref(gens.f.translates()[:d], ctx.q)  # a^i f, i < d
        _require(len(R) == d, f"powers-of-a basis has rank < {d}")
        code = left_ideal_code(gens.f)
        _require(
            np.array_equal(R, code.generator_matrix),
            f"powers-of-a set does not span the ideal in component {j}",
        )
        parts.append(f"j={j}: rank {d}")
    return "; ".join(parts)


def check_abelian_images(ctx: VerifyContext) -> str:
    acat = ctx.abelian_cat
    A = ctx.abelian
    for j in range(1, ctx.m + 1):
        u = ctx.units[j]
        plus, minus = acat.members[2 * j], acat.members[2 * j + 1]
        _require(
            np.array_equal(u.e11.coeffs, plus.coeffs),
            f"gamma(e11) != (1+t)/2 etil_{j} as coefficient vectors",
        )
        _require(
            np.array_equal(u.e22.coeffs, minus.coeffs),
            f"gamma(e22) != (1-t)/2 etil_{j} as coefficient vectors",
        )
        for g in ctx.dihedral.elements():
            lhs = left_translate(g, u.e11)
            rhs = left_translate(gamma(g, A), plus)
            _require(
                np.array_equal(lhs.coeffs, rhs.coeffs),
                f"gamma(g e11) != gamma(g) (1+t)/2 etil_{j} for g = {g!r}",
            )
        img11 = gamma_image_code(left_ideal_code(u.e11), A)
        img22 = gamma_image_code(left_ideal_code(u.e22), A)
        _require(
            img11.same_code(acat.codes[2 * j]),
            f"gamma image of code(e11) is not the abelian ideal, j={j}",
        )
        _require(
            img22.same_code(acat.codes[2 * j + 1]),
            f"gamma image of code(e22) is not the abelian ideal, j={j}",
        )
        _require(img11.is_left_ideal(), "gamma image of code(e11) not an abelian ideal")
    return f"vector identity for all {ctx.dihedral.order} g; row spaces match for j=1..{ctx.m}"


def check_gamma_isometry(ctx: VerifyContext) -> str:
    checked = 0
    for code in (
        left_ideal_code(ctx.units[1].e11),
        left_ideal_code(ctx.units[1].e22),
        left_ideal_code(ctx.noncentral[1].f),
        left_ideal_code(ctx.catalog.component(1)),
    ):
        dist = code.weight_distribution(budget=ctx.budget)
        if dist is None:
            continue
        image = gamma_image_code(code)
        _require(
            np.array_equal(dist, image.weight_distribution(budget=ctx.budget)),
            "gamma changed a weight distribution",
        )
        checked += 1
    return f"weight distributions preserved on {checked} codes"


def check_central_codes(ctx: VerifyContext) -> str:
    parts = []
    for j in range(1, ctx.m + 1):
        expect_dim = phi_prime_power(ctx.p, j)
        expect_w = 4 * ctx.p ** (ctx.m - j)
        shown = expect_w
        for name, gen in (("e11", ctx.units[j].e11), ("e22", ctx.units[j].e22)):
            code = left_ideal_code(gen)
            _require(
                code.k == expect_dim,
                f"dim code({name}, j={j}) = {code.k}, expected {expect_dim}",
            )
            w = code.min_weight(budget=ctx.budget)
            if w is None:
                shown = "?"
            else:
                _require(
                    w == expect_w,
                    f"weight of code({name}, j={j}) = {w}, expected {expect_w}",
                )
        parts.append(f"j={j}: [{2 * ctx.p ** ctx.m}, {expect_dim}, {shown}]")
    return "; ".join(parts)


def check_example_code(ctx: VerifyContext) -> str:
    code = left_ideal_code(ctx.noncentral[1].f)
    _require(code.k == phi_prime_power(ctx.p, 1), "dim code(f) != phi(p)")
    w = code.min_weight(budget=ctx.budget)
    if w is None:
        return f"[{code.n}, {code.k}] dimension verified; weight beyond budget"
    if (ctx.p, ctx.m) == (3, 2) and ctx.q not in (2, 3, 5, 7):
        _require(w == 15, f"weight of the [18, 2] code is {w}, expected 15")
    return f"[{code.n}, {code.k}, {w}] exact over {code.size()} codewords"


def check_coefficient_claim(ctx: VerifyContext) -> str:
    """Codewords of the [2 p^m, phi(p)] code from f are constant on cosets
    of H_1 and at most one coset value vanishes, forcing weight >= 15.
    Specific to p = 3, m = 2, char not in {2, 3, 5, 7}.

    Checked on the generator matrix: its rows are constant on the six
    slots, so by linearity every codeword is, and no nonzero message
    vanishes on two slots when every two slot columns have rank k."""
    if (ctx.p, ctx.m) != (3, 2) or ctx.q in (2, 3, 5, 7):
        return "skipped: claim applies to p=3, m=2 with char not in {2,3,5,7}"
    code = left_ideal_code(ctx.noncentral[1].f)
    w = code.min_weight(budget=ctx.budget)
    if w is None:
        return f"skipped: the {code.size()} codewords are beyond the budget"
    pm, q, G = ctx.dihedral.rot_order, ctx.q, code.generator_matrix
    idx = np.arange(code.n)
    slot = (idx % pm) % 3 + 3 * (idx // pm)
    values = np.zeros((code.k, 6), dtype=np.int64)  # row r's value on each slot
    values[:, slot] = G
    _require(np.array_equal(values[:, slot], G), "codeword not constant on cosets")
    for pair in itertools.combinations(range(6), 2):
        R, pivots = modmat.rref(values[:, list(pair)].T, q)
        if len(R) < code.k:
            # a nonzero message in the left kernel of the two slot columns
            free = min(set(range(code.k)) - set(pivots))
            msg = np.zeros(code.k, dtype=np.int64)
            msg[free] = 1
            msg[pivots] = -R[:, free]
            zero_slots = int(np.count_nonzero(msg @ values % q == 0))
            raise CheckFailure(f"{zero_slots} coset values vanish simultaneously")
    _require(w >= 15, "weight below 15")
    return f"all {code.size() - 1} nonzero codewords: <= 1 vanishing coset value"


def check_survey(ctx: VerifyContext) -> str:
    acat = ctx.abelian_cat
    expect_dims = [1, 1]
    for j in range(1, ctx.m + 1):
        expect_dims += [phi_prime_power(ctx.p, j)] * 2
    _require(list(acat.dims) == expect_dims, f"component dims {acat.dims} != {expect_dims}")
    rows = enumerate_abelian_codes(acat, budget=ctx.budget)
    _require(len(rows) == 2 ** len(acat) - 1, "survey does not cover every subset")
    full = rows[-1]
    _require(full.dim == ctx.abelian.order, "full-catalog subset is not the whole algebra")
    _require(full.min_weight == 1, "whole algebra should have weight 1")
    known = sum(1 for r in rows if r.min_weight is not None)
    return f"{len(rows)} rows; dims consistent; {known} weights exact, rest beyond budget"


def check_nonequivalence(ctx: VerifyContext) -> str:
    if (ctx.p, ctx.m) != (3, 2):
        return "skipped: the survey argument is stated for p=3, m=2"
    acat = ctx.abelian_cat
    rows = enumerate_abelian_codes(acat, dim_filter=2, budget=ctx.budget)
    _require(len(rows) == 3, f"expected 3 dimension-2 abelian codes, found {len(rows)}")
    _require(
        all(r.min_weight is not None for r in rows),
        f"dimension-2 abelian weights are beyond budget {ctx.budget}",
    )
    weights = sorted(r.min_weight for r in rows)
    _require(weights == [9, 12, 12], f"dimension-2 weights {weights} != [9, 12, 12]")
    _require(max(weights) < 13, "an abelian dimension-2 code reaches weight 13")
    if ctx.q in (2, 3, 5, 7):
        return "dim-2 abelian weights are [9, 12, 12]; f-code comparison skipped"
    code_f = left_ideal_code(ctx.noncentral[1].f)
    for row in rows:
        verdict = equivalence_necessary_check(
            code_f, acat.code(row.mask), budget=ctx.budget
        )
        _require(
            verdict == "impossible",
            f"equivalence not excluded against abelian code mask={row.mask}",
        )
    c11 = left_ideal_code(ctx.units[1].e11)
    _require(
        equivalence_necessary_check(c11, gamma_image_code(c11), budget=ctx.budget)
        == "possible",
        "gamma image wrongly ruled out",
    )
    return "no dim-2 abelian code reaches weight 13; f-code ruled inequivalent to all 3"


CHECKS = [
    ("field-axioms", check_field_axioms),
    ("group-axioms", check_group_axioms),
    ("gamma-map", check_gamma_map),
    ("convolution", check_convolution),
    ("hat-idempotents", check_hat_idempotents),
    ("central-catalog", check_central_catalog),
    ("matrix-units", check_matrix_units),
    ("noncentral-generator", check_noncentral_generator),
    ("component-field", check_component_field),
    ("subgroup-pairs", check_subgroup_pairs),
    ("powers-basis", check_powers_basis),
    ("abelian-images", check_abelian_images),
    ("gamma-isometry", check_gamma_isometry),
    ("central-codes", check_central_codes),
    ("example-code", check_example_code),
    ("coefficient-claim", check_coefficient_claim),
    ("survey", check_survey),
    ("nonequivalence", check_nonequivalence),
]

CHECK_NAMES = [name for name, _ in CHECKS]


def run_checks(
    q: int,
    p: int,
    m: int,
    names: list[str] | None = None,
    budget: int = DEFAULT_BUDGET,
    seed: int = 0,
) -> list[CheckResult]:
    """Run the named checks (all by default) for one parameter triple.

    Raises InadmissibleParameters when (q, p, m) fails the standing
    hypothesis; individual check failures are reported, not raised.  An
    unexpected exception inside one check is reported as a failure carrying
    its type, with its traceback on stderr, and the later checks still run.
    """
    if names is not None:
        unknown = set(names) - set(CHECK_NAMES)
        if unknown:
            raise ValueError(f"unknown check names: {sorted(unknown)}")
    ctx = VerifyContext(q, p, m, budget=budget, seed=seed)
    results = []
    for name, fn in CHECKS:
        if names is not None and name not in names:
            continue
        try:
            detail = fn(ctx)
            results.append(CheckResult(name, True, detail))
        except (CheckFailure, RuntimeError, ValueError, ArithmeticError) as exc:
            results.append(CheckResult(name, False, str(exc)))
        except Exception as exc:  # a defect in one check must not hide the others
            traceback.print_exc()
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
    return results
