"""The group algebra F_q G: dense coefficient vectors in canonical element
order, with convolution product, subgroup averages, centrality tests, and
inversion inside a component.

Every product goes through one matrix: L(x), whose row g is the left
translate g x, gathered from the group's `translate_table`.  Then
x y = x @ L(y), the left ideal generated by x is the row space of L(x), and
an inverse inside a component solves x L(u) = e.

Exactness: an entry of x @ L(y) is a sum of `order` products of residues
below q, so it is at most order (q-1)^2.  An element refuses any (G, q) for
which that bound reaches 2^63, so no int64 product or sum can wrap.
"""

from __future__ import annotations

import numpy as np

from . import modmat
from .ff import PrimeField
from .groups import GroupElem


class NotInvertibleError(ArithmeticError):
    """The element has no inverse inside the requested component."""


class AlgebraElem:
    """Element of F_q G: one residue per group element, canonical order.

    Instances are immutable; the coefficient array is read-only.
    """

    __slots__ = ("group", "field", "coeffs")

    def __init__(self, group, field: PrimeField, coeffs):
        bound = group.order * (field.q - 1) ** 2
        if bound >= 1 << 63:
            raise ValueError(
                f"|G| (q-1)^2 = {bound} reaches 2^63; int64 products would overflow"
            )
        c = np.asarray(coeffs, dtype=np.int64) % field.q
        if c.shape != (group.order,):
            raise ValueError(
                f"coefficient vector must have length {group.order}, got {c.shape}"
            )
        c = np.ascontiguousarray(c)
        c.setflags(write=False)
        self.group = group
        self.field = field
        self.coeffs = c

    # -- constructors --------------------------------------------------
    @classmethod
    def zero(cls, group, field: PrimeField) -> "AlgebraElem":
        return cls(group, field, np.zeros(group.order, dtype=np.int64))

    @classmethod
    def one(cls, group, field: PrimeField) -> "AlgebraElem":
        return cls.from_group_elem(group.identity, field)

    @classmethod
    def from_group_elem(cls, g: GroupElem, field: PrimeField) -> "AlgebraElem":
        v = np.zeros(g.group.order, dtype=np.int64)
        v[g.index] = 1
        return cls(g.group, field, v)

    # -- helpers ---------------------------------------------------------
    def _match(self, other: "AlgebraElem"):
        if not isinstance(other, AlgebraElem):
            raise TypeError(f"expected AlgebraElem, got {type(other).__name__}")
        if other.group != self.group or other.field != self.field:
            raise ValueError("algebra mismatch: different group or field")

    def is_zero(self) -> bool:
        return not np.any(self.coeffs)

    def support_weight(self) -> int:
        """Number of nonzero coefficients."""
        return int(np.count_nonzero(self.coeffs))

    # -- pointwise operations ---------------------------------------------
    def __add__(self, other):
        self._match(other)
        return AlgebraElem(self.group, self.field, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._match(other)
        return AlgebraElem(self.group, self.field, self.coeffs - other.coeffs)

    def __neg__(self):
        return AlgebraElem(self.group, self.field, -self.coeffs)

    def scalar_mul(self, c) -> "AlgebraElem":
        return AlgebraElem(self.group, self.field, self.coeffs * (int(c) % self.field.q))

    # -- products ----------------------------------------------------------
    def __mul__(self, other):
        if isinstance(other, AlgebraElem):
            return self.convolve(other)
        if isinstance(other, (int, np.integer)):
            return self.scalar_mul(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, np.integer)):
            return self.scalar_mul(other)
        return NotImplemented

    def convolve(self, other: "AlgebraElem") -> "AlgebraElem":
        """Group algebra product: (xy)_g = sum_h x_h y_{h^{-1} g} = (x @ L(y))_g."""
        self._match(other)
        return AlgebraElem(self.group, self.field, self.coeffs @ other.translates())

    def translates(self) -> np.ndarray:
        """L(x): the order x order matrix whose row g is the left translate g x."""
        return self.coeffs[self.group.translate_table]

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElem)
            and other.group == self.group
            and other.field == self.field
            and np.array_equal(other.coeffs, self.coeffs)
        )

    def __repr__(self):
        terms = []
        for idx in np.nonzero(self.coeffs)[0]:
            g = self.group.from_index(int(idx))
            terms.append(f"{self.coeffs[idx]}*{g!r}")
            if len(terms) == 6:
                terms.append("...")
                break
        body = " + ".join(terms) if terms else "0"
        return f"<{body} in F_{self.field.q}[{self.group!r}]>"


def left_translate(g: GroupElem, x: AlgebraElem) -> AlgebraElem:
    """g x without a full convolution: row g of L(x), a permutation of x."""
    if g.group != x.group:
        raise ValueError("group mismatch")
    return AlgebraElem(x.group, x.field, x.coeffs[x.group.translate_table[g.index]])


def hat(field: PrimeField, subgroup: list[GroupElem]) -> AlgebraElem:
    """The normalized subgroup average (1/|H|) sum_{h in H} h.

    Requires |H| invertible in the field; the result is idempotent.
    """
    if not subgroup:
        raise ValueError("empty subgroup")
    group = subgroup[0].group
    indices = {g.index for g in subgroup}
    if len(indices) != len(subgroup):
        raise ValueError("repeated elements in subgroup")
    if 0 not in indices:
        raise ValueError("subgroup must contain the identity")
    table = group.mult_table
    for g in subgroup:
        if g.group != group:
            raise ValueError("group mismatch inside subgroup")
        if any(int(table[g.index, h]) not in indices for h in indices):
            raise ValueError("set is not closed under multiplication")
    if len(subgroup) % field.q == 0:
        raise ValueError(f"|H| = {len(subgroup)} is not invertible in F_{field.q}")
    inv = field.inv(len(subgroup))
    v = np.zeros(group.order, dtype=np.int64)
    v[sorted(indices)] = inv
    return AlgebraElem(group, field, v)


def is_idempotent(x: AlgebraElem) -> bool:
    return x.convolve(x) == x


def is_central(x: AlgebraElem) -> bool:
    """Commutation against the group generators suffices by linearity."""
    for g in x.group.generators():
        ge = AlgebraElem.from_group_elem(g, x.field)
        if ge.convolve(x) != x.convolve(ge):
            return False
    return True


def invert_in_component(u: AlgebraElem, e: AlgebraElem) -> AlgebraElem:
    """Inverse of u inside the component with identity e.

    e must be idempotent and u must lie in the component (u e = u = e u).
    Found by solving x u = e, that is L(u)^T x = e; then e x e is the
    inverse, which is unique in e A e because one-sided inverses in a finite
    dimensional algebra are two-sided.  Both products are re-verified exactly.
    """
    u._match(e)
    if not is_idempotent(e):
        raise ValueError("e is not idempotent")
    if u.convolve(e) != u or e.convolve(u) != u:
        raise ValueError("u does not lie in the component of e")
    x = modmat.solve(u.translates().T, e.coeffs, u.field.q)
    if x is None:
        raise NotInvertibleError("not invertible in component")
    v = e.convolve(AlgebraElem(u.group, u.field, x)).convolve(e)
    if u.convolve(v) != e or v.convolve(u) != e:
        raise NotInvertibleError("not invertible in component")
    return v
