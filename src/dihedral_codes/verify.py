"""Named verification checks behind the `verify` CLI command.

Each check re-derives one block of identities or code parameters from
scratch for the given (q, p, m).  Checks either pass with a one-line detail
or fail with the first violated identity; everything is exact, no
tolerances anywhere.

The algebra runs on stacks: `convolution` and `component-field` hand
whole stacks of elements to `algebra.products`, which alone splits them
to its memory bound, and `hat-idempotents` squares each subgroup average
in its own call and checks absorption one average against a stack of
others.  Checks of one `run_checks` call share scans of identical
matrices: a weight distribution is scanned once per distinct generator
matrix and run (see `codes.shared_scans`), so `central-codes` and
`survey` reuse what `subgroup-pairs` scanned: the rows `closed_forms`
writes for `construct --gen pair`, which equal the eliminated codes of
e11 and e22.  Each run starts with an empty memo.  `subgroup-pairs`
proves every nested pair on its coset labels in O(n) and writes rows
only for the pairs it scans.

`survey` and `nonequivalence` are the independent oracle of the survey's
closed forms: they build the abelian catalog (`idempotents.abelian_catalog`),
compare its member dimensions with phi(p^j), scan each abelian row within
the budget from its stacked member bases and compare the scan with
`survey.abelian_min_weight`.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import namedtuple
from functools import cached_property, partial

import numpy as np

from . import modmat
from .algebra import hat, products
from .check_names import CHECK_NAMES
from .closed_forms import canonical_rows, central_pair, pair_labels
from .codes import (
    DEFAULT_BUDGET,
    equivalence_necessary_check,
    gamma_image_code,
    left_ideal_code,
    shared_scans,
    weights,
)
from .ff import PrimeField, phi_prime_power, require_admissible
from .groups import AbelianGroup, DihedralGroup, gamma
from .idempotents import abelian_catalog, central_idempotents, matrix_units, noncentral_generator
from .survey import enumerate_abelian_codes


class CheckFailure(AssertionError):
    """A named verification check found a violated identity."""


class CheckResult(namedtuple("CheckResult", "name passed detail")):
    """The outcome of one named check, with its one-line detail."""

    __slots__ = ()


class VerifyContext:
    """Shared objects for one (q, p, m) verification run; the catalogs are
    built on first use, and `scans` holds the run's weight distributions by
    generator matrix."""

    def __init__(self, q, p, m, budget=DEFAULT_BUDGET, seed=0):
        require_admissible(q, p, m)
        self.q, self.p, self.m = q, p, m
        self.budget = budget
        self.seed = seed
        self.field = PrimeField(q)
        self.dihedral = DihedralGroup(p, m)
        self.abelian = AbelianGroup(p, m)
        self.scans = {}

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
        """A fresh stream from the seed; each sampled check starts its own, so
        a check run alone draws what it draws in a full run."""
        return random.Random(self.seed)

    def draw(self, rng, shape, modulus=None):
        """An int64 array of `shape` of residues mod `modulus` (default q).

        Each residue is one little-endian 64-bit word of `rng.randbytes`
        reduced mod the modulus: one call per array, not one `randrange` per
        residue.  Since 2^64 is not a multiple of the modulus, a residue's
        probability differs from uniform by less than 1/2^64, so the whole
        distribution by less than modulus/2^64.  `randbytes` fills 32-bit
        words in stream order, so one call for c arrays of a shape draws what
        c calls in a row draw.  `numpy.random` would draw unbiased residues as
        fast, but importing it costs every `verify` run memory and start-up
        time.
        """
        modulus = self.q if modulus is None else modulus
        words = np.frombuffer(rng.randbytes(8 * math.prod(shape)), dtype="<u8")
        return (words % np.uint64(modulus)).view(np.int64).reshape(shape)


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
            g, h, k = ctx.draw(ctx.rng(), (3, 5000), modulus=n)
            _require(
                np.array_equal(table[table[g, h], k], table[g, table[h, k]]),
                f"associativity fails in {group!r}",
            )
            mode = "sampled"
        ids = np.arange(n)
        _require(np.array_equal(table[0], ids), "identity fails on the left")
        _require(np.array_equal(table[:, 0], ids), "identity fails on the right")
        inverse = group.inverse_indices()
        bad = np.flatnonzero(table[ids, inverse] != 0)
        if bad.size:
            raise CheckFailure(f"inverse fails for {group.from_index(int(bad[0]))!r}")
        # no repeated entry in any row
        _require(np.diff(np.sort(table, axis=1), axis=1).all(), "multiplication not cancellative")
        for S in group.all_subgroups():
            idx = np.array(S.indices())
            member = np.zeros(n, dtype=bool)
            member[idx] = True
            # per g in S: g^-1 in S, and g h in S for every h in S
            inv_ok = member[inverse[idx]]
            ok = inv_ok & member[table[np.ix_(idx, idx)]].all(axis=1)
            if not ok.all():
                _require(inv_ok[ok.argmin()], "subgroup not closed under inverse")
                raise CheckFailure("subgroup not closed under product")
        results.append(mode)
    D = ctx.dihedral
    table, pm = D.mult_table, D.rot_order
    rot = np.arange(pm)
    _require(np.array_equal(table[table[pm, rot], pm], -rot % pm), "b a^i b != a^-i")
    A = ctx.abelian
    _require(
        np.array_equal(np.asarray(A.mult_table), np.asarray(A.mult_table).T),
        "abelian group is not commutative",
    )
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
    """(xy)z = x(yz) and x(y + z) = xy + xz on seeded triples, and e_1 y =
    y e_1 on seeded y, each on whole stacks: x, y, z stack the triples'
    first, second and third elements.  The first failing triple names the
    identity, as a triple-by-triple loop would."""
    rng = ctx.rng()
    mul = partial(products, ctx.dihedral, ctx.field)
    n = ctx.dihedral.order
    n_triples = 1000 if n <= 18 else 200
    x, y, z = ctx.draw(rng, (n_triples, 3, n)).transpose(1, 0, 2)
    xy = mul(x, y)
    assoc = (mul(xy, z) != mul(x, mul(y, z))).any(axis=1)
    dist = (mul(x, (y + z) % ctx.q) != (xy + mul(x, z)) % ctx.q).any(axis=1)
    failed = assoc | dist
    if failed.any():
        _require(not assoc[failed.argmax()], "convolution not associative")
        raise CheckFailure("convolution not distributive")
    y = ctx.draw(rng, (50, n))
    ey = np.broadcast_to(ctx.catalog.component(1).coeffs, y.shape)
    _require(np.array_equal(mul(ey, y), mul(y, ey)), "central element does not commute")
    return f"associativity/distributivity on {n_triples} seeded triples"


def check_hat_idempotents(ctx: VerifyContext) -> str:
    """Every subgroup average is idempotent, each squared in its own call,
    and H^ K^ = K^ H^ = K^ for nested H < K.  The absorption products run
    stacked: H^ against all the K^ above it, then all the H^ below each
    K^ against it.  Every call's left factors lie inside one subgroup, so
    it copies few rows of the circulants `products` reads."""
    field = ctx.field
    mul = partial(products, ctx.dihedral, field)
    subs = ctx.dihedral.all_subgroups()
    hats = np.array([hat(field, S).coeffs for S in subs])
    for S, h in zip(subs, hats[:, None]):
        _require(
            np.array_equal(mul(h, h), h), f"hat of subgroup of order {S.order} is not idempotent"
        )
    sets = [frozenset(S.indices()) for S in subs]
    nested = np.array([[si < sj for sj in sets] for si in sets])  # [i, j]: H_i < H_j
    for i in range(len(sets)):
        hj = hats[nested[i]]
        hi = np.broadcast_to(hats[i], hj.shape)
        _require(np.array_equal(mul(hi, hj), hj), "hat absorption fails for nested subgroups")
    for j in range(len(sets)):
        hi = hats[nested[:, j]]
        hj = np.broadcast_to(hats[j], hi.shape)
        _require(np.array_equal(mul(hj, hi), hj), "hat absorption fails for nested subgroups")
    absorbed = int(nested.sum())
    return f"{len(subs)} subgroup averages idempotent, {absorbed} absorption pairs"


def _require_closed_form(ctx: VerifyContext, code, gen: str, j: int) -> None:
    """The eliminated code(gen) at component j must be, entry for entry,
    the matrix `construct` writes from its closed form."""
    H, K, twist = central_pair(ctx.dihedral, gen, j)
    rows = canonical_rows(H, K, ctx.q, twist)
    _require(
        code.generator_matrix.tolist() == rows,
        f"code({gen}, j={j}) differs from its closed form",
    )


def check_central_catalog(ctx: VerifyContext) -> str:
    """The catalog, built and re-verified (idempotent, central, orthogonal,
    summing to 1), with the dimension of each member's code; each code(e_j)
    must equal its closed form."""
    cat = ctx.catalog
    dims = [left_ideal_code(cat.e11_0).k, left_ideal_code(cat.e22_0).k]
    _require(dims == [1, 1], f"one-dimensional components have dims {dims}")
    parts = []
    for j in range(1, ctx.m + 1):
        code = left_ideal_code(cat.component(j))
        d, expect = code.k, 2 * phi_prime_power(ctx.p, j)
        _require(d == expect, f"component {j} has dimension {d}, expected {expect}")
        _require_closed_form(ctx, code, "ej", j)
        parts.append(f"dim e_{j}: {d}")
    return f"{len(cat.members())} idempotents; dims 1, 1, " + ", ".join(parts)


def check_matrix_units(ctx: VerifyContext) -> str:
    """`matrix_units` proves all 16 products and e11 + e22 = e_j while it
    builds the units, and raises a RuntimeError naming the identity that
    fails, which `run_checks` reports as FAIL; so building them is the check."""
    ctx.units  # built, and so proven, on first use
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


def _frobenius(xs, t: int) -> np.ndarray:
    """x -> x^(q^s) on a stack of elements of F_q<a>, for t = q^s mod N.
    The algebra is commutative of characteristic q and x_i^q = x_i on
    residues, so (sum x_i a^i)^(q^s) = sum x_i a^(t i): a permutation of
    the rotation half, as t is prime to N."""
    N = xs.shape[1] // 2
    out = np.zeros_like(xs)
    out[:, t * np.arange(N) % N] = xs[:, :N]
    return out


def check_component_field(ctx: VerifyContext) -> str:
    """Every nonzero element of F_q<a> e_j inverts inside the component.

    F_q<a> e_j = F_q[a e_j] has dimension d = phi(p^j) (checked), so its
    first d powers (a e_j)^i = a^i e_j, i < d, are a basis, from which the
    tested v are drawn.  The witness w comes from the norm (Itoh and
    Tsujii): in a field of q^d elements, u = v^(q + q^2 + ... + q^(d-1))
    gives v u = N(v) = c e_j with c in F_q nonzero, so w = c^-1 u.  As
    x -> x^q permutes coordinates (`_frobenius`), r_k = v^(1 + q + ... +
    q^(k-1)) follows the bits of d - 1 from r_1 = v by r_2k = r_k sigma^k(r_k)
    and r_(k+1) = sigma(r_k) v, and u = sigma(r_(d-1)): O(log d) products,
    each of one stack per component.  c is read off one coordinate where e_j
    is nonzero, and c = 0 fails.  The route only finds w: v passes only
    when v w = e_j and w v = e_j hold exactly, so a v with no inverse fails
    whatever the route computes.
    """
    rng = ctx.rng()
    D, q, N = ctx.dihedral, ctx.q, ctx.dihedral.rot_order
    mul = partial(products, D, ctx.field)
    tested = []
    for j in range(1, ctx.m + 1):
        e = ctx.catalog.component(j)
        # rows a^i e, i < p^m, of L(e)
        powers = e.translates()[0].reshape(N, -1)
        basis, _ = modmat.rref(powers, q)
        d = basis.shape[0]
        _require(d == phi_prime_power(ctx.p, j), f"F_q<a>e_{j} has wrong dimension")
        if q**d <= 2048:
            combos = np.array(list(itertools.product(range(q), repeat=d)), dtype=np.int64)
            mode = "exhaustive"
        else:
            combos = ctx.draw(rng, (64, d))
            mode = "sampled"
        v = combos @ basis % q
        v = v[v.any(axis=1)]
        r, k = v, 1  # r = r_k
        for bit in bin(d - 1)[3:]:
            r, k = mul(r, _frobenius(r, pow(q, k, N))), 2 * k
            if bit == "1":
                r, k = mul(_frobenius(r, q), v), k + 1
        u = _frobenius(r, q)
        at = int(np.flatnonzero(e.coeffs)[0])  # c = (v u)[at] / e_j[at]
        c = mul(v, u)[:, at] * ctx.field.inv(int(e.coeffs[at])) % q
        _require(c.all(), "not invertible in component")
        w = u * np.array([ctx.field.inv(x) for x in c.tolist()])[:, None] % q
        _require(
            (mul(v, w) == e.coeffs).all() and (mul(w, v) == e.coeffs).all(),
            "not invertible in component",
        )
        tested.append(f"e_{j}: {len(v)} {mode}")
    return "every tested nonzero element inverts (" + "; ".join(tested) + ")"


def subgroup_pair_suite(field, group, budget=DEFAULT_BUDGET):
    """Basis and (within budget) weight checks over every nested pair of
    subgroups whose orders are invertible in the field.

    Returns (pairs checked, weights checked).  Not gated on admissibility;
    the construction itself only needs invertible subgroup orders.

    Every pair proves the lemma in `closed_forms` on its own labels.
    `pair_labels` proves that each H-coset lies in one K-coset and lists
    the pivots c of the rows 1_C - 1_C' of the canonical RREF of A e,
    e = H^ - K^.  Then e must equal |H|^-1 1_H - |K|^-1 1_K, with 1_H and
    1_K the elements the roots label 0.  So e lies in V(H, K), is not 0
    (it is -|K|^-1 on K outside H), and each row is |H| (c e - c' e).
    By the lemma the weight distribution depends on |H| and |K| alone, so
    each (|H|, |K|) is written and scanned once, for its first pair, when
    its q^k codewords fit in the budget (k rows, one per (c, c')): the
    chain pair of H_j or H*_j, whose rows `canonical_rows` proves and
    `construct --gen pair` writes.  Every pair's weight is compared with
    2|H|, so the first failing pair is the one a scan of every pair would
    report.
    """
    q = field.q
    subs = [S for S in group.all_subgroups() if S.order % q != 0]
    elements = {S: frozenset(S.indices()) for S in subs}
    # S^, and |S|^-1 on the elements the roots of S label 0
    hats = {S: hat(field, S).coeffs for S in subs}
    marks = {S: field.inv(S.order) * (np.array(S.roots()) == 0) for S in subs}
    scanned = {}  # (|H|, |K|) -> weight of its first pair, within the budget
    pairs = weights_checked = 0
    for H in subs:
        for K in subs:
            if not elements[H] < elements[K]:
                continue
            k = len(pair_labels(H, K))
            _require(
                np.array_equal((hats[H] - hats[K]) % q, (marks[H] - marks[K]) % q),
                f"H^ - K^ is not |H|^-1 1_H - |K|^-1 1_K for |H|={H.order}, |K|={K.order}",
            )
            pairs += 1
            sizes = (H.order, K.order)
            if sizes not in scanned and q**k <= budget:
                dist = weights(np.array(canonical_rows(H, K, q), dtype=np.int64), q, budget)
                scanned[sizes] = int(np.flatnonzero(dist)[1])
            w = scanned.get(sizes)
            if w is None:
                continue
            if w != 2 * H.order:
                raise CheckFailure(
                    f"min weight {w} != 2|H| = {2 * H.order} for |H|={H.order}, |K|={K.order}"
                )
            weights_checked += 1
    return pairs, weights_checked


def check_subgroup_pairs(ctx: VerifyContext) -> str:
    pairs, weights = subgroup_pair_suite(ctx.field, ctx.dihedral, budget=ctx.budget)
    return f"{pairs} nested pairs: dimension+basis exact; {weights} weights within budget"


def check_powers_basis(ctx: VerifyContext) -> str:
    parts = []
    for j, gens in ctx.noncentral.items():
        d = phi_prime_power(ctx.p, j)
        R, _ = modmat.rref(gens.f.translates()[0, :d].reshape(d, -1), ctx.q)  # a^i f, i < d
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
    for j in range(1, ctx.m + 1):
        u = ctx.units[j]
        plus, minus = acat.members[2 * j], acat.members[2 * j + 1]
        for x, image, name, sign in ((u.e11, plus, "e11", "+"), (u.e22, minus, "e22", "-")):
            _require(
                np.array_equal(x.coeffs, image.coeffs),
                f"gamma({name}) != (1{sign}t)/2 etil_{j} as coefficient vectors",
            )
            # row g of L(x) is g x, and gamma keeps canonical indices
            # (gamma-map), so gamma(g x) = gamma(g) gamma(x) for every g is one
            # matrix identity; equal matrices have one RREF, so the codes of x
            # over D and of its image over C_N x C_2 have one row space
            differs = x.translates() != image.translates()
            bad = np.flatnonzero(differs.reshape(ctx.dihedral.order, -1).any(axis=1))
            if bad.size:
                g = ctx.dihedral.from_index(int(bad[0]))
                raise CheckFailure(
                    f"gamma(g {name}) != gamma(g) (1{sign}t)/2 etil_{j} for g = {g!r}"
                )
        _require(
            acat.codes[2 * j].is_left_ideal(), "gamma image of code(e11) not an abelian ideal"
        )
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
    """code(e11) and code(e22) at each component: dimension phi(p^j), the
    matrix of the closed form, and, within the budget, the scanned weight
    4p^(m-j)."""
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
            _require_closed_form(ctx, code, name, j)
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


def _scanned_weights(ctx: VerifyContext, rows) -> list[int | None]:
    """Each survey row's minimum weight scanned from its stacked member
    bases, None beyond the budget; a scan that disagrees with the row's
    closed form fails the check, naming the mask."""
    scanned = []
    for row in rows:
        dist = weights(ctx.abelian_cat.basis(row.mask), ctx.q, ctx.budget)
        w = None if dist is None else int(np.flatnonzero(dist)[1])
        _require(
            w in (None, row.min_weight),
            f"survey row mask={row.mask}: scan {w} != closed form {row.min_weight}",
        )
        scanned.append(w)
    return scanned


def check_survey(ctx: VerifyContext) -> str:
    acat = ctx.abelian_cat
    expect_dims = [1, 1]
    for j in range(1, ctx.m + 1):
        expect_dims += [phi_prime_power(ctx.p, j)] * 2
    _require(list(acat.dims) == expect_dims, f"component dims {acat.dims} != {expect_dims}")
    rows = enumerate_abelian_codes(ctx.p, ctx.m)
    _require(len(rows) == 2 ** len(acat) - 1, "survey does not cover every subset")
    full = rows[-1]
    _require(full.dim == ctx.abelian.order, "full-catalog subset is not the whole algebra")
    scanned = _scanned_weights(ctx, rows)
    _require(scanned[-1] == 1, "whole algebra should have weight 1")
    known = sum(w is not None for w in scanned)
    return f"{len(rows)} rows; dims consistent; {known} weights exact, rest beyond budget"


def check_nonequivalence(ctx: VerifyContext) -> str:
    if (ctx.p, ctx.m) != (3, 2):
        return "skipped: the survey argument is stated for p=3, m=2"
    acat = ctx.abelian_cat
    rows = enumerate_abelian_codes(ctx.p, ctx.m, dim_filter=2)
    _require(len(rows) == 3, f"expected 3 dimension-2 abelian codes, found {len(rows)}")
    scanned = _scanned_weights(ctx, rows)
    _require(None not in scanned, f"dimension-2 abelian weights are beyond budget {ctx.budget}")
    dim2 = sorted(scanned)
    _require(dim2 == [9, 12, 12], f"dimension-2 weights {dim2} != [9, 12, 12]")
    _require(max(dim2) < 13, "an abelian dimension-2 code reaches weight 13")
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


# check_<name> with "-" read as "_", paired by name, in the order of CHECK_NAMES
CHECKS = [(name, globals()["check_" + name.replace("-", "_")]) for name in CHECK_NAMES]


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
    with shared_scans(ctx.scans):
        for name, fn in CHECKS:
            if names is not None and name not in names:
                continue
            try:
                detail = fn(ctx)
                results.append(CheckResult(name, True, detail))
            except (CheckFailure, RuntimeError, ValueError, ArithmeticError) as exc:
                results.append(CheckResult(name, False, str(exc)))
            except Exception as exc:  # a defect in one check must not hide the others
                import traceback

                traceback.print_exc()
                results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
    return results
