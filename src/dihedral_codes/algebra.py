"""The group algebra F_q G: dense coefficient vectors in canonical element
order, with convolution product, subgroup averages and centrality tests.

Every product goes through one matrix: L(x), whose row g is the left
translate g x, gathered from the group's `translate_table`.  Then
x y = x @ L(y), and the left ideal generated by x is the row space of L(x).

One kernel, `products`, forms every product.  It takes two (B, n) stacks
of residues and returns the B row-wise products.  It works in chunks of
at least one row whose index block, rows x |S| x n int64 indices for S
the union support of the xs rows, fits in `_kernels.CELLS` bytes (256 KB,
the scan kernel's bound).  A chunk gathers L only on S_c, the union
support of its own rows: out[r] = xs[r, S_c] @ L(ys[r])[S_c], so a group
element or a subgroup average costs a few rows of L.  One block, gathered
in place of its own indices, serves every chunk.  Only this module and
`_kernels` know the memory bound; callers hand over whole stacks.  A
dense chunk holds 101 rows at n = 18 and one row at n = 250, so there a
stacked call costs what one-row calls cost.  `AlgebraElem.convolve` is
the one-row call.

Exactness: an entry of x @ L(y) is a sum of `order` products of residues
below q, so it is at most order (q-1)^2.  Elements and `products` refuse
any (G, q) for which that bound reaches 2^63
(`ff.require_int64_products`), so no int64 product or sum can wrap.
"""

from __future__ import annotations

import numpy as np

from ._kernels import CELLS
from .ff import PrimeField, require_int64_products
from .groups import GroupElem, Subgroup


def chunk_rows(group, support: int | None = None) -> int:
    """Rows per chunk of `products` when the xs rows have `support` columns
    in the union of their supports (default: all of them): the most rows
    whose int64 index block, rows x support x order, fits in CELLS bytes,
    and at least one."""
    support = group.order if support is None else max(support, 1)
    return max(1, CELLS // (8 * support * group.order))


def products(group, field: PrimeField, xs, ys) -> np.ndarray:
    """Row-wise products xs[r] ys[r] in F_q G of two (B, n) stacks of
    residues in [0, q), as a new (B, n) int64 array of residues.

    Chunks of `chunk_rows` rows, each gathered on its own support (see the
    module docstring).  The inputs must be reduced: the 2^63 bound holds
    for residues below q only.
    """
    require_int64_products(field.q, group.p, group.m)
    n = group.order
    xs, ys = np.asarray(xs, dtype=np.int64), np.asarray(ys, dtype=np.int64)
    if xs.shape != ys.shape or xs.shape[1:] != (n,):
        raise ValueError(f"expected two (B, {n}) stacks, got {xs.shape} and {ys.shape}")
    S = (xs[0] if len(xs) == 1 else xs.any(axis=0)).nonzero()[0]
    step = chunk_rows(group, len(S))
    out = np.empty_like(xs)
    # one index block, sized for S, serves every chunk: a chunk gathers on
    # its own union support S_c, a subset of S, in a prefix of the block
    block = np.empty(min(step, len(xs)) * len(S) * n, dtype=np.int64)
    for start in range(0, len(xs), step):
        x, y = xs[start : start + step], ys[start : start + step]
        S_c = S if len(x) == len(xs) else x.any(axis=0).nonzero()[0]
        rows = block[: len(y) * len(S_c) * n].reshape(len(y), len(S_c), n)
        # row r indexes y.flat at r n + T[S_c], so gathering puts L(y[r])[S_c]
        # in place of its own indices; "wrap" never wraps, as indices are in
        # range, but unlike "raise" it writes into `rows` without a buffer
        group.translate_table.take(S_c, axis=0, out=rows[0], mode="wrap")
        if len(y) > 1:
            np.add(rows[0], n * np.arange(1, len(y))[:, None, None], out=rows[1:])
        y.take(rows, out=rows, mode="wrap")
        np.matmul(x.take(S_c, axis=1)[:, None], rows, out=out[start : start + step, None])
    out %= field.q
    return out


class AlgebraElem:
    """Element of F_q G: one residue per group element, canonical order.

    Instances are immutable; the coefficient array is read-only.
    """

    __slots__ = ("group", "field", "coeffs")

    def __init__(self, group, field: PrimeField, coeffs):
        require_int64_products(field.q, group.p, group.m)
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
    def _of_residues(cls, group, field: PrimeField, c: np.ndarray) -> "AlgebraElem":
        """Wraps c, a fresh int64 vector of residues mod q, without a copy."""
        c.setflags(write=False)
        x = object.__new__(cls)
        x.group, x.field, x.coeffs = group, field, c
        return x

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
        xy = products(self.group, self.field, self.coeffs[None], other.coeffs[None])
        return AlgebraElem._of_residues(self.group, self.field, xy[0])

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


def hat(field: PrimeField, subgroup: Subgroup) -> AlgebraElem:
    """The normalized subgroup average (1/|H|) sum_{h in H} h.

    Requires |H| invertible in the field; the result is idempotent.
    """
    if subgroup.order % field.q == 0:
        raise ValueError(f"|H| = {subgroup.order} is not invertible in F_{field.q}")
    c = np.zeros(subgroup.group.order, dtype=np.int64)
    c[subgroup.indices()] = field.inv(subgroup.order)
    return AlgebraElem(subgroup.group, field, c)


def is_idempotent(x: AlgebraElem) -> bool:
    return x.convolve(x) == x


def is_central(x: AlgebraElem) -> bool:
    """Commutation against the group generators suffices by linearity."""
    for g in x.group.generators():
        ge = AlgebraElem.from_group_elem(g, x.field)
        if ge.convolve(x) != x.convolve(ge):
            return False
    return True

