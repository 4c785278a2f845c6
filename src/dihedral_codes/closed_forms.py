"""Generator matrices the theory writes down, with no algebra and no
numpy, and the lemma that settles the subgroup-pair codes.

`construct --gen e11|e22|ej|pair` writes its code from here: the canonical
RREF of the code comes from the coset labels (`Subgroup.roots`) of two
nested chain subgroups, is proven at run time in O(k n) integer steps, and
is written through `gm`, the formatter `LinearCode.to_text` shares.  The
chain subgroups are H_j = <a^(p^j)> = Subgroup(D, j) (spec `h<j>`) and
H*_j = <b> H_j = Subgroup(D, j, 0) (spec `hstar<j>`), j = 0..m, in D of
order n = 2N, N = p^m.

The lemma.  Let A = F_q G, H < K nested subgroups of G with |H|
invertible in F_q (for G = D: q is not 2 or p), e = H^ - K^, and V(H, K)
the vectors that are constant on each left coset gH and sum to 0 over
each left coset gK.
  (i) dim V(H, K) = (G:H) - (G:K).  A word of V is its values on the
      H-cosets, each repeated |H| times; a K-coset sums to |H| times the
      sum of the values on its (K:H) H-cosets, so those values sum to 0.
  (ii) A e = V(H, K), and its RREF.  e lies in V, and V is a left ideal
      (g permutes the cosets), so A e lies in V.  Label each coset by its
      least element.  For each H-coset C but the last one C' (by label) of
      its K-coset, with labels c and c', the word
          1_C - 1_C' = |H| (c H^ - c' H^) = |H| (c e - c' e)
      (as c K^ = c' K^) lies in A e.  These words are (G:H) - (G:K) many,
      one per H-coset but one per K-coset, and each is nonzero in the
      column of its label c alone, as no such C is a last C', so they are
      independent and span A e = V.  Each leads with a 1 at c < c', so in
      the order of c they are the RREF of V.  `pair_labels` lists the
      (c, c') and proves on the labels that each H-coset lies in one
      K-coset; `canonical_rows` writes the rows from them.
  (iii) d = 2|H|.  A nonzero word of V is nonzero on some K-coset, where
      its values on the H-cosets sum to 0, so at least two of them are
      nonzero, each on |H| coordinates; each row of (ii) has weight 2|H|.
  (iv) The weight enumerator depends on |H| and |K| alone.  On each of the
      (G:K) K-cosets the s = (K:H) values of a word form a word of the
      zero-sum code of length s, so up to a permutation of coordinates V
      is (G:K) copies of that code, each coordinate repeated |H| times:
          [((1 + (q-1) z^|H|)^s + (q-1)(1 - z^|H|)^s) / q]^(G:K).

`Subgroup.roots` finds each label, the least element of its coset, by
walking the group law.  For the chain subgroups it has a closed form: the
least element of a^i b^e H_j is a^(i mod p^j) b^e, of index
(i mod p^j) + eN, and that of a^i b^e H*_j is a^(i mod p^j).  Then

  code(e_j) = V(H_j, H_(j-1)), as e_j = H_j^ - H_(j-1)^;
  code(e11) = V(H*_j, H*_(j-1)), as e11 = (1 + b)/2 e_j and
      (1 + b)/2 H_j^ = H*_j^;
  code(e22) = sigma code(e11), with sigma(x)(a^i b^e) = (-1)^e x(a^i b^e).
      The character chi of D with chi(a) = 1, chi(b) = -1 makes
      g -> chi(g) g an automorphism of A that fixes e_j and swaps (1 + b)/2
      and (1 - b)/2, so it carries A e11 onto A e22; on coordinates it is
      sigma, which keeps the RREF, as every pivot of code(e11) lies in the
      first N coordinates, and every weight.

So each of these codes has d = 2|H| for its pair (H, K).  With r the rows
of the cyclic component, one per c < phi(p^j),
1[i = c mod p^j] - 1[i = (c mod p^(j-1)) + (p - 1) p^(j-1) mod p^j], these
read [r | r] for e11, [r | -r] for e22 and [[r | 0], [0 | r]] for e_j.

Proof at run time (`canonical_rows`), on the roots of H and K: the rows
are in RREF (each leads with a 1, pivots increase, and the pivot columns
form the identity); each row, after sigma for e22, is constant on the
cosets gH and sums to 0 on the cosets gK; and k = (G:H) - (G:K), counting
roots.  Independent rows of V(H, K) as many as its dimension span it, and
a space has one RREF, so the rows are that of the code: byte for byte
what `left_ideal_code` eliminates.  The rows are written from the same
roots, so the proof checks the writing, not the roots; those come from
the group law, and `Subgroup.roots` proves that each subgroup's elements
are the orbit of 1.
"""

from __future__ import annotations

import re

from .groups import DihedralGroup, Subgroup

_SUBGROUP_SPEC = re.compile(r"^(h|hstar)(\d+)$")

# the generator whose code is settled -> (c of its subgroups, twist):
# c = 0 joins b to the chain, as in H*_j = Subgroup(group, j, 0)
_CENTRAL = {"ej": (None, False), "e11": (0, False), "e22": (0, True)}


def parse_subgroup(group: DihedralGroup, spec: str) -> Subgroup:
    """The chain subgroup of a `--sub-h`/`--sub-k` spec h<j> or hstar<j>."""
    mt = _SUBGROUP_SPEC.match(spec)
    if not mt:
        raise ValueError(f"bad subgroup spec {spec!r}; use h<j> or hstar<j>")
    return Subgroup(group, int(mt.group(2)), 0 if mt.group(1) == "hstar" else None)


def central_pair(group: DihedralGroup, gen: str, j: int):
    """(H, K, twist) of code(gen) for gen = e11, e22 or ej at component j:
    the code is V(H, K), after sigma when `twist` (see the module)."""
    if not 1 <= j <= group.m:  # the message of `CentralCatalog.component`
        raise ValueError(f"component index {j} out of range 1..{group.m}")
    c, twist = _CENTRAL[gen]
    return Subgroup(group, j, c), Subgroup(group, j - 1, c), twist


def _sign(group: DihedralGroup, rows: list[list[int]], q: int) -> list[list[int]]:
    """sigma on each row: the coordinates a^i b, index N + i, change sign."""
    N = group.rot_order
    return [row[:N] + [-v % q for v in row[N:]] for row in rows]


def pair_labels(H: Subgroup, K: Subgroup) -> list[tuple[int, int]]:
    """The (c, c') of the rows 1_C - 1_C' of the lemma: each H-coset label c
    but the greatest label c' of its K-coset, with that c', in the order of
    c.  Raises ValueError unless every H-coset lies in one K-coset, so that
    H <= K, proven on the labels in O(n): each g has the K-label of its
    H-label."""
    h_root, k_root = H.roots(), K.roots()
    if any(k_root[g] != k_root[c] for g, c in enumerate(h_root)):
        raise ValueError("H is not contained in K")
    labels = [c for g, c in enumerate(h_root) if g == c]
    last = {k_root[c]: c for c in labels}  # labels increase, so the greatest stays
    return [(c, last[k_root[c]]) for c in labels if c != last[k_root[c]]]


def _label_rows(H: Subgroup, K: Subgroup, q: int) -> list[list[int]]:
    """The RREF of V(H, K) read off the coset labels: a row 1_C - 1_C' for
    each pair (c, c') of `pair_labels`, in pivot order."""
    h_root = H.roots()
    return [[1 if x == c else q - 1 if x == c_last else 0 for x in h_root]
            for c, c_last in pair_labels(H, K)]


def _prove(rows: list[list[int]], H: Subgroup, K: Subgroup, q: int, twist: bool):
    """Raise RuntimeError unless `rows` is the RREF of V(H, K), after sigma
    when `twist`; the proof is in the module docstring."""
    group = H.group
    pivots = []
    for row in rows:
        lead = next((c for c, v in enumerate(row) if v), None)
        if lead is None or row[lead] != 1 or (pivots and lead <= pivots[-1]):
            raise RuntimeError("closed-form rows are not in reduced row echelon form")
        pivots.append(lead)
    for c in pivots:  # its own row holds 1 there, every other row 0
        if sum(bool(row[c]) for row in rows) != 1:
            raise RuntimeError("closed-form pivot columns are not the identity")
    h_root, k_root = H.roots(), K.roots()
    index = sum(g == x for g, x in enumerate(h_root)) - sum(g == x for g, x in enumerate(k_root))
    if len(rows) != index:
        raise RuntimeError(f"closed form has {len(rows)} rows, but (G:H) - (G:K) = {index}")
    for row in _sign(group, rows, q) if twist else rows:
        sums = [0] * group.order
        for x, v in zip(k_root, row):
            sums[x] += v
        if [row[x] for x in h_root] != row or any(s % q for s in sums):
            raise RuntimeError("closed-form row does not lie in V(H, K)")


def canonical_rows(H: Subgroup, K: Subgroup, q: int, twist: bool = False):
    """The canonical RREF of V(H, K), or of sigma V(H, K) when `twist`, as
    lists of residues mod q, written from the coset labels and proven
    (see the module)."""
    rows = _label_rows(H, K, q)
    if twist:
        rows = _sign(H.group, rows, q)
    _prove(rows, H, K, q, twist)
    return rows
