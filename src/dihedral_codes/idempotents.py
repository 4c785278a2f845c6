"""The idempotent catalog of F_q D for admissible (q, p, m).

Central primitive idempotents come from the subgroup chain of the rotation
subgroup; each nontrivial component carries a set of 2x2 matrix units, and
conjugating e11 by alpha = e11 + e12 + e22 produces the non-central
idempotent f = e11 - e12 whose left ideal is the interesting code.

The abelian catalog holds the 2(m+1) primitive idempotents of
F_q[C_{p^m} x C_2] (`abelian_members`) and the code of each; it is the
scanned oracle of the closed-form survey (`survey`, `verify`'s `survey`
check).

Each identity is proven once, exactly, where its objects are built, and
a failure raises, so a wrong formula cannot propagate silently: the
catalog by `central_idempotents`, the 16 unit products by `matrix_units`,
and of f only what those do not imply, by `noncentral_generator`.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

import numpy as np

from .algebra import AlgebraElem, hat, is_central, is_idempotent
from .codes import LinearCode, left_ideal_code
from .ff import PrimeField, require_admissible
from .groups import AbelianGroup, DihedralGroup, Subgroup


class CentralCatalog(namedtuple("CentralCatalog", "group field e0 e11_0 e22_0 components")):
    """The complete set of primitive central idempotents of F_q D;
    components[j-1] is e_j."""

    __slots__ = ()

    def members(self) -> tuple[AlgebraElem, ...]:
        return (self.e11_0, self.e22_0) + self.components

    def component(self, j: int) -> AlgebraElem:
        if not 1 <= j <= len(self.components):
            raise ValueError(f"component index {j} out of range 1..{len(self.components)}")
        return self.components[j - 1]


class MatrixUnits(namedtuple("MatrixUnits", "j component e11 e12 e21 e22")):
    """e11, e12, e21, e22 exhibiting one central component as 2x2 matrices."""

    __slots__ = ()

    def as_dict(self) -> dict[tuple[int, int], AlgebraElem]:
        return {(1, 1): self.e11, (1, 2): self.e12, (2, 1): self.e21, (2, 2): self.e22}


class NonCentralGenerators(namedtuple("NonCentralGenerators", "units f alpha alpha_inv")):
    """f = e11 - e12 together with the conjugator alpha that produces it."""

    __slots__ = ()


class AbelianCatalog:
    """Primitive idempotents ((1 +/- t)/2) etil_j, j = 0..m, in bit order
    (plus_0, minus_0, plus_1, minus_1, ...), with the code of each.  Read
    only; a plain class, not a named tuple, as its length is the number of
    members."""

    __slots__ = ("group", "field", "members", "codes")

    def __init__(self, group, field, members, codes):
        for name, value in zip(self.__slots__, (group, field, members, codes)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"an AbelianCatalog is read only: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __len__(self):
        return len(self.members)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(code.k for code in self.codes)

    def basis(self, mask: int) -> np.ndarray:
        """The stacked generator matrices of the members this bitmask
        selects: a basis of the row's code, as the member codes are
        independent (checked by `abelian_catalog`)."""
        if not 0 < mask < 1 << len(self.members):
            raise ValueError(f"mask {mask} selects no nonempty subset of the catalog")
        return np.vstack([c.generator_matrix for b, c in enumerate(self.codes) if mask >> b & 1])

    def code(self, mask: int) -> LinearCode:
        """The survey row with this bitmask: the span of the selected member
        codes, which for orthogonal idempotents is the ideal of their sum."""
        return LinearCode(self.basis(mask), self.field.q, group=self.group)


def chain_idempotents(field: PrimeField, group) -> list[AlgebraElem]:
    """hat(H_0), then hat(H_j) - hat(H_{j-1}) for j = 1..m: the central
    idempotents of the rotation chain, shared by both group families."""
    hats = [hat(field, Subgroup(group, j)) for j in range(group.m + 1)]
    return hats[:1] + [hats[j] - hats[j - 1] for j in range(1, group.m + 1)]


def _halves(group, field):
    """(1 + b)/2 and (1 - b)/2, with b the involution t in the abelian group."""
    one = AlgebraElem.one(group, field)
    b = AlgebraElem.from_group_elem(group.b, field)
    half = field.inv(2)
    return (one + b) * half, (one - b) * half


def check_decomposition(members, label: str) -> None:
    """Raise unless the members are idempotents that sum to 1 and are
    pairwise orthogonal; label names the catalog in the error."""
    total = AlgebraElem.zero(members[0].group, members[0].field)
    for x in members:
        if not is_idempotent(x):
            raise RuntimeError(f"{label} member is not idempotent")
        total = total + x
    if total != AlgebraElem.one(total.group, total.field):
        raise RuntimeError(f"{label} does not sum to 1")
    for x, y in itertools.combinations(members, 2):
        if not (x * y).is_zero():
            raise RuntimeError(f"{label} members are not orthogonal")


def central_idempotents(field: PrimeField, group: DihedralGroup) -> CentralCatalog:
    """Build and verify the catalog {e11_0, e22_0, e_1, ..., e_m}."""
    if not isinstance(group, DihedralGroup):
        raise TypeError("central_idempotents needs a dihedral group")
    require_admissible(field.q, group.p, group.m)
    e0, *components = chain_idempotents(field, group)
    pplus, pminus = _halves(group, field)

    catalog = CentralCatalog(group, field, e0, pplus * e0, pminus * e0, tuple(components))
    check_decomposition(catalog.members(), "central catalog")
    if not all(is_central(x) for x in catalog.members()):
        raise RuntimeError("central catalog member is not central")
    return catalog


def matrix_units(catalog: CentralCatalog, j: int) -> MatrixUnits:
    """The four matrix units of the component e = e_j, 1 <= j <= m.

    e21 needs v = (a - a^-1)^-1 e, which has the closed form
    v = p^-j sum_{k < p^j} k a^(2k+1) e.  Proof: let z = a^2 e.  Then
    z^(p^j) = e, as a^(p^j) lies in H_{j-1} and so fixes both averages in
    e = H_j^ - H_{j-1}^.  Also sum_k z^k = 0: 2 is a unit mod p^j, so the
    sum is sum_{k < p^j} a^k e, and both averages take sum_{k < p^j} a^k to
    p^j H_0^.  Hence (z - e) sum_k k z^k = p^j e - sum_k z^k = p^j e, where
    p^j is invertible because q does not divide 2 p^m.  As
    (a - a^-1) e = a^-1 (z - e), (a - a^-1) v = e.  And since
    (1 - b)/2 a (1 + b)/2 = (a - a^-1)(1 + b)/4, the textbook
    e21 = 4 v^2 (1 - b)/2 a (1 + b)/2 e is 2 v e11.  The 16 products and
    e11 + e22 = e, checked below, prove the units at run time.
    """
    e = catalog.component(j)
    group, field = catalog.group, catalog.field
    a = AlgebraElem.from_group_elem(group.a, field)
    pplus, pminus = _halves(group, field)

    e11 = pplus * e
    e22 = pminus * e
    e12 = pplus * a * pminus * e
    k = np.arange(group.p**j)
    c = np.zeros(group.order, dtype=np.int64)
    c[(2 * k + 1) % group.rot_order] = k
    v = field.inv(group.p**j) * AlgebraElem(group, field, c) * e
    e21 = 2 * v * e11

    units = MatrixUnits(j, e, e11, e12, e21, e22)
    table = units.as_dict()
    zero = AlgebraElem.zero(group, field)
    for (i1, j1), (h1, k1) in itertools.product(table, repeat=2):
        expected = table[(i1, k1)] if j1 == h1 else zero
        if table[(i1, j1)] * table[(h1, k1)] != expected:
            raise RuntimeError(
                f"matrix-unit identity e{i1}{j1} e{h1}{k1} failed in component {j}"
            )
    if e11 + e22 != e:
        raise RuntimeError(f"e11 + e22 != e in component {j}")
    return units


def noncentral_generator(units: MatrixUnits) -> NonCentralGenerators:
    """f = e11 - e12 = alpha e11 alpha^-1, alpha = e11 + e12 + e22.

    The 16 matrix-unit identities and e11 + e22 = e, proven by
    `matrix_units`, give alpha alpha^-1 = alpha^-1 alpha = e for
    alpha^-1 = e11 - e12 + e22, alpha e11 alpha^-1 = e11 - e12 = f and
    f^2 = f, so none of these is checked again.  What the identities leave
    open is checked: f agrees with its closed form in a and b, and f is
    not central, which also excludes e = 0, where every unit and f are 0.
    """
    e11, e12, e22 = units.e11, units.e12, units.e22
    e = units.component
    group, field = e.group, e.field

    f = e11 - e12
    alpha = e11 + e12 + e22
    alpha_inv = e11 - e12 + e22

    if is_central(f):
        raise RuntimeError("f is unexpectedly central")

    # closed form (1/4)[(2 - a + a^-1) + (2 + a - a^-1) b] e
    one = AlgebraElem.one(group, field)
    a = AlgebraElem.from_group_elem(group.a, field)
    a_inv = AlgebraElem.from_group_elem(group.a.inverse(), field)
    b = AlgebraElem.from_group_elem(group.b, field)
    quarter = field.inv(4)
    closed = quarter * ((2 * one - a + a_inv) + (2 * one + a - a_inv) * b) * e
    if closed != f:
        raise RuntimeError("closed form of f does not match e11 - e12")

    return NonCentralGenerators(units, f, alpha, alpha_inv)


def abelian_members(field: PrimeField, p: int, m: int) -> tuple[AlgebraElem, ...]:
    """The 2(m+1) primitive idempotents ((1 +/- t)/2) etil_j of
    F_q[C_{p^m} x C_2], in bit order, verified idempotent, pairwise
    orthogonal, and summing to 1."""
    require_admissible(field.q, p, m)
    group = AbelianGroup(p, m)
    halves = _halves(group, field)
    members = tuple(h * e for e in chain_idempotents(field, group) for h in halves)
    check_decomposition(members, "abelian catalog")
    return members


def abelian_catalog(field: PrimeField, p: int, m: int, members=None) -> AbelianCatalog:
    """The catalog of the members (`abelian_members(field, p, m)`, built
    when not given) and their codes, verified to span the algebra
    independently."""
    if members is None:
        members = abelian_members(field, p, m)
    group = members[0].group
    catalog = AbelianCatalog(group, field, members, tuple(left_ideal_code(x) for x in members))
    # independent member codes give every row the sum of its members' dims
    if catalog.code((1 << len(members)) - 1).k != group.order:
        raise RuntimeError("abelian catalog member codes are not independent")
    return catalog
