"""Survey of all abelian codes of F_q[C_{p^m} x C_2], from closed forms.

Under the admissibility hypothesis the abelian algebra is semisimple with
2(m+1) primitive idempotents ((1 +/- t)/2) etil_j, j = 0..m, so every ideal
is the direct sum of the ideals of a subset of them; enumerating subsets
enumerates all abelian codes.  This is what makes the non-equivalence
screening exhaustive without any bijection search.

Every field of a row follows from the theory: the member of etil_j has
dimension 1 for j = 0 and phi(p^j) for j >= 1, a row's dimension is the sum
of its members' (they are independent), and its minimum weight is the
closed form `abelian_min_weight`, proven in its docstring.  So this module
builds no algebra element and imports no numpy.  The catalog of the
members and their codes, `idempotents.abelian_catalog`, is the scanned
oracle: `verify`'s `survey` check compares its dimensions with phi(p^j) and
scans the rows within its budget against the closed form.
"""

from __future__ import annotations

from collections import namedtuple

from .ff import phi_prime_power


class SurveyRow(namedtuple("SurveyRow", "mask dim min_weight")):
    """One ideal: bitmask over the catalog, dimension, exact minimum weight."""

    __slots__ = ()


def _cyclic_min_weight(S: frozenset, p: int, m: int) -> int:
    """delta(S, m): minimum weight of the ideal of F_q C_{p^m} spanned by
    etil_j, j in S (nonempty); see `abelian_min_weight`."""
    w = 1
    while m not in S:  # a p-fold blow-up of the code at m - 1
        w, m = w * p, m - 1
    return w if len(S) == m + 1 else 2 * w


def abelian_min_weight(plus, minus, p: int, m: int) -> int:
    """Exact minimum weight of the abelian code of F_q[C_{p^m} x C_2] whose
    members are ((1 + t)/2) etil_j, j in `plus`, and ((1 - t)/2) etil_j,
    j in `minus` (the survey row with bits 2j and 2j + 1), for admissible
    (q, p, m); the weight does not depend on q.  It is

        min(delta(S+ & S-), 2 delta(S+), 2 delta(S-))

    over the nonempty sets among S+ = plus, S- = minus and S+ & S-, where
    delta(S, m) = 1 for S = {0..m}, 2 when m is in S, else p delta(S, m-1).

    Proof.  Let A = F_q C_{p^m}, C(S) = sum_{j in S} A etil_j, and N the
    subgroup <a^{p^(m-1)}> of order p, whose average is hat(H_{m-1}) =
    sum_{j<m} etil_j.  A word of the row is
        y (1 + t)/2 + z (1 - t)/2 = ((y + z) + (y - z) t)/2,
    y in C(S+), z in C(S-), of weight wt(y + z) + wt(y - z); the words
    with z = 0, with y = 0 and with y = z in C(S+ & S-) have weights
    2 wt(y), 2 wt(z) and wt(y), so d is at most the formula.  An ideal
    holding a word of weight 1 (a unit) is the whole algebra.

    delta.  C(S) lies in A hat(N), the words constant on the N-cosets,
    exactly when m is not in S; A hat(N) is F_q C_{p^(m-1)} with each
    coordinate repeated p times, carrying etil_j to etil_j for j < m, so
    delta(S, m) = p delta(S, m-1).  When m is in S, C(S) holds
    (1 - a^{p^(m-1)}) etil_m = 1 - a^{p^(m-1)}, of weight 2, and weight 1
    only when C(S) = A, that is S = {0..m}.

    Lower bound, by induction on m; at m = 0 the rows are {(y | y)},
    {(z | -z)} and F_q^2, of weights 2, 2 and 1.  For m >= 1:
      (i) m in neither set: every word is constant on the N-cosets, the
          row is the p-fold blow-up of the row (S+, S-) at m - 1, and each
          term of the formula is p times its value there.
      (ii) m in S+ & S-: the formula reads 1 for the whole algebra
          (S+ = S- = {0..m}) and 2 otherwise, and a proper ideal has no
          word of weight 1.
      (iii) m in S+ only (m in S- only is the same with y and z swapped,
          as wt(z - y) = wt(y - z)).  If S- is empty the row is {(y | y)},
          of weight 2 delta(S+).  Otherwise delta(S-) >= p, and
          delta(S+ & S-) >= p when S+ & S- is nonempty, as m is in neither
          set.  If S+ = {0..m} the formula is 2 < p and the row is a
          proper ideal (m is not in S-), so d >= 2.  Else the formula is
          2 delta(S+) = 4, since 2 delta(S-) >= 2p and S+ & S- != {0..m-1}
          gives delta(S+ & S-) >= 2p.  Take y, z both
          nonzero (y = 0 or z = 0 give 2 delta(S-) >= 2p or
          2 delta(S+) = 4), and split y = u + u' with u = y etil_m, which
          sums to 0 on each N-coset, and u' in C(S+ - {m}), constant on
          the N-cosets as z is.  On an N-coset P, y +- z = u + c+-, with
          c+- = u' +- z constant on P.  Pick P where z is zeta != 0: then
          c+ - c- = 2 zeta != 0 (q is odd), so no coordinate of P vanishes
          in both y + z and y - z, and P alone adds >= p to the weight.
          So d >= 4 for p >= 5.  For p = 3 suppose the weight is 3.  Then
          y and z vanish off P (on another coset P', u + c = 0 with u
          summing to 0 forces pc = 0, so u = u' = 0 on P').  So u',
          constant on P and zero elsewhere, blows up a word of weight at
          most 1 in C(S+ - {m}) at m - 1; a nonzero one would make that
          code the whole algebra and S+ = {0..m}.  So u' = 0, c+- = +-zeta,
          and y = u is nonzero and lives on P.  Each coordinate of P adds
          exactly 1, so exactly one of u_i + zeta, u_i - zeta is 0: u
          takes the value -zeta r times and zeta 3 - r times, and sums to
          (3 - 2r) zeta, one of +-zeta, +-3 zeta.  That is not 0, as
          admissibility excludes q = 3, against u summing to 0 on P.
          So d >= 4.
    In every case d equals the formula.
    """
    plus, minus = frozenset(plus), frozenset(minus)
    if not plus | minus or not plus | minus <= frozenset(range(m + 1)):
        raise ValueError(f"members must be a nonempty subset of components 0..{m}")
    terms = [(1, plus & minus), (2, plus), (2, minus)]
    return min(c * _cyclic_min_weight(S, p, m) for c, S in terms if S)


def iter_abelian_codes(p: int, m: int, dim_filter: int | None = None):
    """One row per nonempty subset of the 2(m+1) primitive idempotents, made
    one at a time in bitmask order (bits plus_0, minus_0, plus_1, minus_1,
    ...), each with its dimension and its minimum weight from
    `abelian_min_weight`; with `dim_filter`, only the rows of that
    dimension."""
    dims = [phi_prime_power(p, j) for j in range(m + 1) for _ in range(2)]
    for mask in range(1, 1 << len(dims)):
        dim = sum(k for b, k in enumerate(dims) if mask >> b & 1)
        if dim_filter is not None and dim != dim_filter:
            continue
        plus = [j for j in range(m + 1) if mask >> 2 * j & 1]
        minus = [j for j in range(m + 1) if mask >> 2 * j + 1 & 1]
        yield SurveyRow(mask, dim, abelian_min_weight(plus, minus, p, m))


def enumerate_abelian_codes(p: int, m: int, dim_filter: int | None = None) -> list[SurveyRow]:
    """The rows of `iter_abelian_codes`, as a list."""
    return list(iter_abelian_codes(p, m, dim_filter))


def _row_line(row: SurveyRow) -> str:
    return f"{row.mask} {row.dim} {row.min_weight}\n"


def format_survey_table(rows: list[SurveyRow], q: int, p: int, m: int) -> str:
    """Bit-exact export: header 'q p m', then 'bitmask dim weight' per row,
    bitmask ascending."""
    return f"{q} {p} {m}\n" + "".join(map(_row_line, sorted(rows, key=lambda r: r.mask)))


def write_survey_table(rows, q, p, m, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(format_survey_table(rows, q, p, m))


def write_survey(q: int, p: int, m: int, path, dim_filter: int | None = None):
    """Write the survey table of (q, p, m) to `path` a line at a time, as
    `iter_abelian_codes` makes the rows, so that no list of rows is held:
    the bytes `write_survey_table` writes of `enumerate_abelian_codes(p, m,
    dim_filter)`.  Returns the best weight of each dimension, as a dict,
    and the number of rows."""
    best, count = {}, 0
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"{q} {p} {m}\n")
        for row in iter_abelian_codes(p, m, dim_filter):
            fh.write(_row_line(row))
            best[row.dim] = max(best.get(row.dim, 0), row.min_weight)
            count += 1
    return best, count
