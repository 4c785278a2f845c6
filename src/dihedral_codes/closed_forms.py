"""Generator matrices the theory writes down, with no algebra and no numpy.

`construct --gen e11|e22|ej|pair` writes its code from here: the canonical
RREF of the code comes from the coset labels of two nested chain
subgroups, is proven at run time in O(k n) integer steps, and is written
through `gm`, the formatter `LinearCode.to_text` shares.  The chain
subgroups are H_j = <a^(p^j)> (spec `h<j>`) and H*_j = <b> H_j (spec
`hstar<j>`), j = 0..m, in D of order n = 2N, N = p^m.

Every such code is a subgroup-pair code, or its sign twist.  Write
V(H, K), for nested H < K, for the vectors that are constant on each left
coset gH and sum to 0 over each left coset gK.  By the lemma of
`codes.subgroup_pair_code`, the left ideal A(H^ - K^) of A = F_q D is
V(H, K), of dimension (G:H) - (G:K), as |H| is invertible in F_q (q is not
2 or p); and the RREF of V(H, K) has one row 1_C - 1_C' per H-coset C that
is not the last C' of its K-coset, its pivot the least element of C.  The
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
      first N coordinates.

With r the rows of the cyclic component, one per c < phi(p^j),
1[i = c mod p^j] - 1[i = (c mod p^(j-1)) + (p - 1) p^(j-1) mod p^j], these
read [r | r] for e11, [r | -r] for e22 and [[r | 0], [0 | r]] for e_j.

Proof at run time (`canonical_rows`), through the group law, not through
the labels that built the rows: the rows are in RREF (each leads with a 1,
pivots increase, and the pivot columns form the identity); each row, after
sigma for e22, is constant on the orbits of right multiplication by the
generators of H, which are the cosets gH, and sums to 0 on the orbits of
those of K; and k = (G:H) - (G:K), counting orbits.  Independent rows of
V(H, K) as many as its dimension span it, and a space has one RREF, so the
rows are that of the code: byte for byte what `left_ideal_code` eliminates.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .groups import DihedralGroup, GroupElem

_SUBGROUP_SPEC = re.compile(r"^(h|hstar)(\d+)$")

# the generator whose code is settled -> (star, twist) of its subgroup pair
_CENTRAL = {"ej": (False, False), "e11": (True, False), "e22": (True, True)}


class ChainSubgroup(namedtuple("ChainSubgroup", "group star j")):
    """H*_j = <b> H_j when `star`, else H_j = <a^(p^j)>, in `group`."""

    __slots__ = ()

    @property
    def order(self) -> int:
        return (2 if self.star else 1) * self.group.p ** (self.group.m - self.j)

    def generators(self) -> list[GroupElem]:
        rotation = [self.group.element(self.group.p**self.j)]
        return rotation + [self.group.b] if self.star else rotation

    def within(self, other: "ChainSubgroup") -> bool:
        """H <= K: H_j <= H_i and H_j <= H*_i iff i <= j, and H*_j lies in
        no H_i."""
        return other.j <= self.j and other.star >= self.star

    def label(self, index: int) -> int:
        """The least index of the left coset g H, g of this `index`."""
        c = index % self.group.p**self.j
        return c if self.star else c + index // self.group.rot_order * self.group.rot_order


def parse_subgroup(group: DihedralGroup, spec: str) -> ChainSubgroup:
    """The chain subgroup of a `--sub-h`/`--sub-k` spec h<j> or hstar<j>."""
    mt = _SUBGROUP_SPEC.match(spec)
    if not mt:
        raise ValueError(f"bad subgroup spec {spec!r}; use h<j> or hstar<j>")
    j = int(mt.group(2))
    if not 0 <= j <= group.m:
        raise ValueError(f"subgroup index {j} out of range 0..{group.m}")
    return ChainSubgroup(group, mt.group(1) == "hstar", j)


def central_pair(group: DihedralGroup, gen: str, j: int):
    """(H, K, twist) of code(gen) for gen = e11, e22 or ej at component j:
    the code is V(H, K), after sigma when `twist` (see the module)."""
    if not 1 <= j <= group.m:  # the message of `CentralCatalog.component`
        raise ValueError(f"component index {j} out of range 1..{group.m}")
    star, twist = _CENTRAL[gen]
    return ChainSubgroup(group, star, j), ChainSubgroup(group, star, j - 1), twist


def _sign(group: DihedralGroup, rows: list[list[int]], q: int) -> list[list[int]]:
    """sigma on each row: the coordinates a^i b, index N + i, change sign."""
    N = group.rot_order
    return [row[:N] + [-v % q for v in row[N:]] for row in rows]


def _label_rows(H: ChainSubgroup, K: ChainSubgroup, q: int) -> list[list[int]]:
    """The RREF of V(H, K) read off the coset labels: a row 1_C - 1_C' for
    each H-coset C but the last C' of its K-coset, in pivot order."""
    n = H.group.order
    members: dict[int, list[int]] = {}  # H-coset label -> its elements
    for g in range(n):
        members.setdefault(H.label(g), []).append(g)
    last: dict[int, int] = {}  # K-coset label -> its greatest H-coset label
    for c in members:
        last[K.label(c)] = max(last.get(K.label(c), c), c)
    rows = []
    for c in sorted(members):
        c_last = last[K.label(c)]
        if c == c_last:
            continue
        row = [0] * n
        for g in members[c]:
            row[g] = 1
        for g in members[c_last]:
            row[g] = q - 1
        rows.append(row)
    return rows


def _orbit_roots(group: DihedralGroup, gens: list[GroupElem]) -> list[int]:
    """For each element g, the least element of its orbit under right
    multiplication by `gens`: the left coset g<gens>, found through the
    group law alone."""
    n, N = group.order, group.rot_order
    steps = []
    for s in gens:
        step = []
        for g in range(n):
            i, e = group._compose(g % N, g // N, s.i, s.j)
            step.append(i % N + e % 2 * N)
        steps.append(step)
    root = [-1] * n
    for g in range(n):  # g is the least element of a coset not yet seen
        if root[g] >= 0:
            continue
        root[g], todo = g, [g]
        while todo:
            x = todo.pop()
            for step in steps:
                if root[step[x]] < 0:
                    root[step[x]] = g
                    todo.append(step[x])
    return root


def _prove(rows: list[list[int]], H: ChainSubgroup, K: ChainSubgroup, q: int, twist: bool):
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
    h_root, k_root = _orbit_roots(group, H.generators()), _orbit_roots(group, K.generators())
    index = sum(g == x for g, x in enumerate(h_root)) - sum(g == x for g, x in enumerate(k_root))
    if len(rows) != index:
        raise RuntimeError(f"closed form has {len(rows)} rows, but (G:H) - (G:K) = {index}")
    for row in _sign(group, rows, q) if twist else rows:
        sums = [0] * group.order
        for x, v in zip(k_root, row):
            sums[x] += v
        if [row[x] for x in h_root] != row or any(s % q for s in sums):
            raise RuntimeError("closed-form row does not lie in V(H, K)")


def canonical_rows(H: ChainSubgroup, K: ChainSubgroup, q: int, twist: bool = False):
    """The canonical RREF of V(H, K), or of sigma V(H, K) when `twist`, as
    lists of residues mod q, written from the coset labels and proven
    (see the module)."""
    rows = _label_rows(H, K, q)
    if twist:
        rows = _sign(H.group, rows, q)
    _prove(rows, H, K, q, twist)
    return rows

