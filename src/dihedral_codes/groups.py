"""Dihedral groups of order 2 p^m, their abelian counterparts C_{p^m} x C_2,
their subgroups with the labels of their cosets, and the index-preserving
bijection between the two.

Every element is a^i b^j (written a^i t^j in the abelian group) and carries
the canonical index i + j p^m.  That index order is THE coordinate order for
all coefficient vectors, generator matrices, and file exports, so the
bijection between the two groups is the identity permutation on coordinates.

numpy loads only in the array tables (`inverse_indices`, `mult_table`,
`translate_table`), so the elements, the group law, the subgroups and their
coset labels serve the numpy-free commands too.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

from .ff import is_prime


class GroupElem:
    """a^i b^j with 0 <= i < p^m and j in {0, 1}, tied to its group."""

    __slots__ = ("group", "i", "j")

    def __init__(self, group, i: int, j: int):
        self.group = group
        self.i = int(i) % group.rot_order
        self.j = int(j) % 2

    @property
    def index(self) -> int:
        return self.i + self.j * self.group.rot_order

    def __mul__(self, other):
        return self.group.mul(self, other)

    def __pow__(self, k: int):
        result = self.group.identity
        base = self if k >= 0 else self.inverse()
        for _ in range(abs(k)):
            result = result * base
        return result

    def inverse(self):
        return self.group.inverse(self)

    def is_identity(self) -> bool:
        return self.i == 0 and self.j == 0

    def __eq__(self, other):
        return (
            isinstance(other, GroupElem)
            and other.group == self.group
            and other.i == self.i
            and other.j == self.j
        )

    def __hash__(self):
        return hash((self.group, self.i, self.j))

    def __repr__(self):
        parts = []
        if self.i:
            parts.append("a" if self.i == 1 else f"a^{self.i}")
        if self.j:
            parts.append(self.group.involution_name)
        return "*".join(parts) if parts else "1"


class _Group:
    """Common machinery for the two group families used here: both are
    <a, b | a^{p^m} = 1 = b^2, b a b = a^flip>, and a subclass fixes flip."""

    involution_name = "b"
    flip: int

    def __init__(self, p: int, m: int):
        if not is_prime(p) or p == 2:
            raise ValueError(f"p must be an odd prime, got {p}")
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        self.p = p
        self.m = m
        self.rot_order = p ** m
        self.order = 2 * p ** m
        # (j, c) -> `Subgroup.roots`, kept per instance as the tables are
        self._coset_roots: dict = {}

    def __eq__(self, other):
        return type(other) is type(self) and (other.p, other.m) == (self.p, self.m)

    def __hash__(self):
        return hash((type(self).__name__, self.p, self.m))

    def __repr__(self):
        return f"{type(self).__name__}(p={self.p}, m={self.m})"

    # -- elements ----------------------------------------------------------
    def element(self, i: int, j: int = 0) -> GroupElem:
        return GroupElem(self, i, j)

    def from_index(self, idx: int) -> GroupElem:
        if not 0 <= idx < self.order:
            raise ValueError(f"index {idx} out of range for group of order {self.order}")
        return GroupElem(self, idx % self.rot_order, idx // self.rot_order)

    @property
    def identity(self) -> GroupElem:
        return GroupElem(self, 0, 0)

    @property
    def a(self) -> GroupElem:
        return GroupElem(self, 1, 0)

    @property
    def b(self) -> GroupElem:
        return GroupElem(self, 0, 1)

    def generators(self) -> tuple[GroupElem, GroupElem]:
        return (self.a, self.b)

    def elements(self) -> list[GroupElem]:
        return [self.from_index(t) for t in range(self.order)]

    # -- structure ---------------------------------------------------------
    def mul(self, g: GroupElem, h: GroupElem) -> GroupElem:
        if g.group != self or h.group != self:
            raise ValueError("group mismatch")
        i, j = self._compose(g.i, g.j, h.i, h.j)
        return GroupElem(self, i, j)

    def inverse(self, g: GroupElem) -> GroupElem:
        if g.group != self:
            raise ValueError("group mismatch")
        return GroupElem(self, *self._invert(g.i, g.j))

    def inverse_indices(self) -> np.ndarray:
        """index(g^{-1}) for every g, by the same formula as `inverse`."""
        import numpy as np

        idx = np.arange(self.order)
        i, j = self._invert(idx % self.rot_order, idx // self.rot_order)
        return i % self.rot_order + j * self.rot_order

    def _compose(self, i1, j1, i2, j2):
        # b a b = a^flip gives (a^i b^j)(a^k b^l) = a^{i + flip^j k} b^{j+l};
        # the same expression serves ints and index arrays
        return i1 + self.flip**j1 * i2, j1 + j2

    def _invert(self, i, j):
        # (a^i b^j)^{-1} = a^{-flip^j i} b^j, for ints and index arrays alike
        return -self.flip**j * i, j

    @cached_property
    def mult_table(self) -> np.ndarray:
        """order x order table of canonical indices: table[g, h] = index(g*h)."""
        import numpy as np

        pm = self.rot_order
        idx = np.arange(self.order)
        i1, j1 = (idx % pm)[:, None], (idx // pm)[:, None]
        i2, j2 = (idx % pm)[None, :], (idx // pm)[None, :]
        i, j = self._compose(i1, j1, i2, j2)
        table = (i % pm) + (j % 2) * pm
        table = np.ascontiguousarray(table, dtype=np.int64)
        table.setflags(write=False)
        return table

    @cached_property
    def translate_table(self) -> np.ndarray:
        """order x order table: translate_table[g, h] = index(g^{-1} h).

        For a coefficient vector x, x[translate_table] is the matrix L(x)
        whose row g is the left translate g x, since (g x)_h = x_{g^{-1} h}.
        """
        table = self.mult_table[self.inverse_indices()]
        table.setflags(write=False)
        return table

    # -- subgroups ---------------------------------------------------------
    def _is_reflection(self, c: int) -> bool:
        """Whether a^c b squares to 1: for every c in D, only for c = 0 mod
        p^m in C_{p^m} x C_2."""
        return self._compose(c, 1, c, 1)[0] % self.rot_order == 0

    def all_subgroups(self) -> list[Subgroup]:
        """Every subgroup, sorted by size and then by index list.

        A subgroup meets the rotations in some <a^d> with d | p^m, and is
        either <a^d> or <a^d> u a^c b <a^d> with 0 <= c < d and
        (a^c b)^2 in <a^d> (K. Conrad, *Dihedral groups II*).  The square
        condition holds for every c in D and only for c = 0 in
        C_{p^m} x C_2, where it says that a^c b is a reflection.
        """
        found = []
        for j in range(self.m + 1):
            found.append(Subgroup(self, j))
            found += [Subgroup(self, j, c) for c in range(self.p**j) if self._is_reflection(c)]
        found.sort(key=lambda S: (S.order, S.indices()))
        return found


class DihedralGroup(_Group):
    """D = <a, b | a^{p^m} = 1 = b^2, b a b = a^{-1}>, order 2 p^m."""

    involution_name = "b"
    flip = -1


class AbelianGroup(_Group):
    """C_{p^m} x C_2 with generators a (order p^m) and t (order 2)."""

    involution_name = "t"
    flip = 1

    @property
    def t(self) -> GroupElem:
        return self.b


def gamma(g: GroupElem, target: AbelianGroup) -> GroupElem:
    """The bijection a^i b^j -> a^i t^j onto the abelian group of the same
    parameters.  Preserves the canonical index."""
    if not isinstance(g.group, DihedralGroup):
        raise ValueError("gamma maps dihedral elements")
    if not isinstance(target, AbelianGroup):
        raise ValueError("gamma targets the abelian group")
    if (g.group.p, g.group.m) != (target.p, target.m):
        raise ValueError("parameter mismatch between dihedral source and abelian target")
    return target.element(g.i, g.j)


class Subgroup(namedtuple("Subgroup", "group j c")):
    """<a^(p^j)>, joined by the reflection a^c b unless c is None: in
    `group`, H_j = Subgroup(group, j) and H*_j = <b> H_j = Subgroup(group,
    j, 0).  Every subgroup of D and of C_{p^m} x C_2 is one of these, each
    with one (j, c), 0 <= c < p^j (see `_Group.all_subgroups`)."""

    __slots__ = ()

    def __new__(cls, group: _Group, j: int, c: int | None = None):
        if not 0 <= j <= group.m:
            raise ValueError(f"subgroup index {j} out of range 0..{group.m}")
        if c is not None:
            if not 0 <= c < group.p**j:
                raise ValueError(f"reflection index {c} out of range 0..{group.p**j - 1}")
            if not group._is_reflection(c):
                raise ValueError(f"a^{c}*{group.involution_name} is not a reflection of {group!r}")
        return super().__new__(cls, group, j, c)

    @property
    def order(self) -> int:
        return (1 if self.c is None else 2) * self.group.p ** (self.group.m - self.j)

    def indices(self) -> list[int]:
        """The canonical indices of the elements, ascending: a^r for r in
        p^j Z, then a^(c + r) b = a^c b a^(-r)."""
        N = self.group.rot_order
        rotations = list(range(0, N, self.group.p**self.j))
        return rotations if self.c is None else rotations + [N + self.c + r for r in rotations]

    def generators(self) -> list[GroupElem]:
        rotation = [self.group.element(self.group.p**self.j)]
        return rotation if self.c is None else rotation + [self.group.element(self.c, 1)]

    def within(self, other: "Subgroup") -> bool:
        """Whether this subgroup lies in `other`, in closed form: <a^(p^j)>
        lies in <a^(p^j')> iff j' <= j, and a^c b in other iff other has
        reflections a^(c' + r) b, r in p^j' Z, with c = c' mod p^j'."""
        if self.group != other.group or other.j > self.j:
            return False
        p_j = self.group.p**other.j
        return self.c is None or other.c is not None and (self.c - other.c) % p_j == 0

    def roots(self) -> tuple[int, ...]:
        """The coset label of every element g, by canonical index: the least
        index in its left coset g S, through the group law alone.  The orbit
        of 1 under right multiplication by `generators()` is walked once,
        and g times it is the orbit of g.  Kept on the group instance, so a
        group with another law (a new instance) walks its own.  Proven as
        walked: the elements of root 1, the orbit of 1, are `indices()`, so
        the roots label the cosets of the subgroup every caller reads there."""
        group, key = self.group, (self.j, self.c)
        if key in group._coset_roots:
            return group._coset_roots[key]
        N, gens = group.rot_order, self.generators()
        orbit, seen = [(0, 0)], {(0, 0)}  # (i, e) of a^i b^e; walked as it grows
        for x in orbit:
            for s in gens:
                i, e = group._compose(*x, s.i, s.j)
                if (i % N, e % 2) not in seen:
                    seen.add((i % N, e % 2))
                    orbit.append((i % N, e % 2))
        root = [-1] * group.order
        for g in range(group.order):  # the least element of a coset not yet seen
            if root[g] < 0:
                for h in orbit:
                    i, e = group._compose(g % N, g // N, *h)
                    root[i % N + e % 2 * N] = g
        if [g for g, r in enumerate(root) if r == 0] != self.indices():
            raise RuntimeError(
                f"the elements of {self} are not the orbit of 1 under its generators"
            )
        group._coset_roots[key] = tuple(root)
        return group._coset_roots[key]
