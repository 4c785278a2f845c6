"""Survey of all abelian codes of F_q[C_{p^m} x C_2].

Under the admissibility hypothesis the abelian algebra is semisimple with
2(m+1) primitive idempotents, so every ideal is the direct sum of the ideals
of a subset of them; enumerating subsets enumerates all abelian codes.  This
is what makes the non-equivalence screening exhaustive without any
bijection search.

The catalog builds and verifies the code of each primitive idempotent once,
and checks that the member codes are independent.  So the stacked generator
matrices of a row's members are a basis of the row's code, and the survey
hands them to the weight route chooser as they are, with no elimination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraElem, hat
from .codes import DEFAULT_BUDGET, LinearCode, left_ideal_code, weights
from .ff import InadmissibleParameters, PrimeField, check_admissible
from .groups import AbelianGroup, DihedralGroup
from .idempotents import check_decomposition


@dataclass(frozen=True)
class AbelianCatalog:
    """Primitive idempotents ((1 +/- t)/2) etil_j, j = 0..m, in bit order
    (plus_0, minus_0, plus_1, minus_1, ...), with the code of each."""

    group: AbelianGroup
    field: PrimeField
    members: tuple[AlgebraElem, ...]
    codes: tuple[LinearCode, ...]

    def __len__(self):
        return len(self.members)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(code.k for code in self.codes)

    def code(self, mask: int) -> LinearCode:
        """The survey row with this bitmask: the span of the selected member
        codes, which for orthogonal idempotents is the ideal of their sum."""
        if not 0 < mask < 1 << len(self.members):
            raise ValueError(f"mask {mask} selects no nonempty subset of the catalog")
        rows = [c.generator_matrix for b, c in enumerate(self.codes) if mask >> b & 1]
        return LinearCode(np.vstack(rows), self.field.q, group=self.group, field=self.field)


@dataclass(frozen=True)
class SurveyRow:
    """One ideal: bitmask over the catalog, dimension, exact minimum weight
    (None when the enumeration exceeded the budget)."""

    mask: int
    dim: int
    min_weight: int | None


def abelian_catalog(field: PrimeField, p: int, m: int) -> AbelianCatalog:
    """The 2(m+1) primitive idempotents of F_q[C_{p^m} x C_2], verified
    idempotent, pairwise orthogonal, and summing to 1, whose codes are
    verified to span the algebra independently."""
    if not check_admissible(field.q, p, m):
        raise InadmissibleParameters(f"(q, p, m) = ({field.q}, {p}, {m}) is not admissible")
    group = AbelianGroup(p, m)
    khats = [hat(field, group.subgroup_K(j)) for j in range(m + 1)]
    etil = [khats[0]] + [khats[j] - khats[j - 1] for j in range(1, m + 1)]
    one = AlgebraElem.one(group, field)
    t = AlgebraElem.from_group_elem(group.t, field)
    half = field.inv(2)
    tplus, tminus = (one + t) * half, (one - t) * half

    members = []
    for j in range(m + 1):
        members.append(tplus * etil[j])
        members.append(tminus * etil[j])
    check_decomposition(members, "abelian catalog")

    catalog = AbelianCatalog(
        group, field, tuple(members), tuple(left_ideal_code(x) for x in members)
    )
    # independent member codes give every row the sum of its members' dims
    if catalog.code((1 << len(members)) - 1).k != group.order:
        raise RuntimeError("abelian catalog member codes are not independent")
    return catalog


def enumerate_abelian_codes(
    catalog: AbelianCatalog,
    dim_filter: int | None = None,
    budget: int = DEFAULT_BUDGET,
) -> list[SurveyRow]:
    """One row per nonempty subset of primitive idempotents, in bitmask
    order.  Rows whose enumeration exceeds the budget get min_weight None
    rather than being skipped."""
    rows = []
    q, mats = catalog.field.q, [code.generator_matrix for code in catalog.codes]
    for mask in range(1, 1 << len(mats)):
        basis = [G for b, G in enumerate(mats) if mask >> b & 1]
        dim = sum(len(G) for G in basis)
        if dim_filter is not None and dim != dim_filter:
            continue
        dist = weights(np.vstack(basis), q, budget)
        weight = None if dist is None else int(np.flatnonzero(dist)[1])
        rows.append(SurveyRow(mask, dim, weight))
    return rows


def format_survey_table(rows: list[SurveyRow], q: int, p: int, m: int) -> str:
    """Bit-exact export: header 'q p m', then 'bitmask dim weight' per row,
    bitmask ascending, '?' for unknown weights."""
    lines = [f"{q} {p} {m}"]
    for row in sorted(rows, key=lambda r: r.mask):
        w = "?" if row.min_weight is None else str(row.min_weight)
        lines.append(f"{row.mask} {row.dim} {w}")
    return "\n".join(lines) + "\n"


def write_survey_table(rows, q, p, m, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(format_survey_table(rows, q, p, m))


def gamma_image_code(code: LinearCode, target: AbelianGroup | None = None) -> LinearCode:
    """Image of a dihedral-group code under the coordinate bijection.

    The bijection preserves the canonical index, so the matrix is reused
    verbatim; only the group the coordinates refer to changes."""
    if not isinstance(code.group, DihedralGroup):
        raise ValueError("gamma_image_code needs a code over a dihedral group")
    if target is None:
        target = AbelianGroup(code.group.p, code.group.m)
    if (target.p, target.m) != (code.group.p, code.group.m):
        raise ValueError("parameter mismatch between code group and target group")
    return LinearCode(code.generator_matrix, code.q, group=target, field=code.field)


def equivalence_necessary_check(
    code_a: LinearCode, code_b: LinearCode, budget: int = DEFAULT_BUDGET
) -> str:
    """'impossible' when length, dimension, or weight distribution rule out
    a combinatorial equivalence; 'possible' otherwise, also when a weight
    distribution lies beyond the budget.  Never a proof of equivalence, only
    of its absence."""
    if code_a.n != code_b.n or code_a.k != code_b.k or code_a.q != code_b.q:
        return "impossible"
    da = code_a.weight_distribution(budget=budget)
    db = None if da is None else code_b.weight_distribution(budget=budget)
    # an unknown distribution rules nothing out
    return "possible" if db is None or np.array_equal(da, db) else "impossible"
