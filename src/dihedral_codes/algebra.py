"""The group algebra F_q G: dense coefficient vectors in canonical element
order, with convolution product, subgroup averages and centrality tests.

Both group families are <a> x| <b> with b a b = a^flip, and a^i b^e has the
canonical index i + e N, N = p^m.  So x = x0 + x1 b for two polynomials
x0, x1 in a, read as the two halves of the coefficient vector, and since
b a^k = a^(flip k) b, a product is four cyclic convolutions of length N:

    x y = (x0 y0 + x1 y1^s) + (x0 y1 + x1 y0^s) b,   y^s_k = y_(flip k).

A cyclic convolution u v is u @ circ(v) with circ(v)[i, k] = v_(k-i mod N),
and circ(v)[i, k] = [v v][N - i + k]: a strided view of the doubled half,
rows read backwards, with no index array.  As flip^2 = 1 mod p^m forces
flip = +-1, the doubled y^s is the doubled y read forwards (flip = 1) or
backwards (flip = -1) on every position the view reads, so no half is
gathered either.

L(y), whose row g is the left translate g y, is the 2 x 2 block
[[circ y0, circ y1], [circ y1^s, circ y0^s]].  Its one source,
`circulants`, writes for a stack of rows y one (rows, 2, 2, 2N) int64
buffer W of doubled halves, [y0 y0] and [y1 y1], then [y1^s y1^s] and
[y0^s y0^s], and returns one read-only view L[r, e, i, o, k] =
W[r, e, o, N - i + k]: row a^i b^e of L(y) at column a^k b^o.  One
kernel, `products`, forms every product from the `circulants` of each
chunk of ys: out = x0 @ L[:, 0] + x1 @ L[:, 1], in canonical order, for
two (B, n) stacks of residues.  When the union support S of the whole
xs stack is less than half the group, and |S| rows of L fit in CELLS
bytes, every chunk copies those rows alone and multiplies x[:, S] by
them, 2 n |S| cell operations a row against n^2: a group element or a
subgroup average costs |S| rows of L.  `AlgebraElem.translates` is the
view of one element.

Memory: a row of a chunk holds its W, 32 n bytes, and then either its
copied rows of L, 8 n |S| bytes, or its four half products before they
are summed, 32 n bytes.  A chunk holds as many rows as fit in
`_kernels.CELLS` bytes (256 KB, the scan kernel's bound), and at least
one.  So a call's working set is a fixed multiple of CELLS whatever B is,
for n up to CELLS / 64 = 4096.  Only this module and `_kernels` know the
bound; callers hand over whole stacks.  `AlgebraElem.convolve` is the
one-row call.  The view of one element is its W, 32 n bytes; only a
caller that needs the n x n matrix L(x) copies it out.

Exactness: an entry of x y is a sum of n = 2N products of residues below
q, so it is at most order (q-1)^2.  Elements and `products` refuse any
(G, q) for which that bound reaches 2^63 (`ff.require_int64_products`),
so no int64 product or sum can wrap.
"""

from __future__ import annotations

import numpy as np

from ._kernels import CELLS
from .ff import PrimeField, require_int64_products
from .groups import GroupElem, Subgroup


def circulants(group, ys) -> np.ndarray:
    """L(y) for every row y of an (r, n) stack of residues: the read-only
    view L[r, e, i, o, k] of a fresh buffer of doubled halves (see the
    module docstring), read by `products` and `AlgebraElem.translates`."""
    r, N = len(ys), group.rot_order
    # b a b = a^flip, flip = +-1 mod N: y^s is y read forwards or backwards
    sign = {1: 1, N - 1: -1}[group._compose(0, 1, 1, 0)[0] % N]
    W = np.empty((r, 2, 2, 2 * N), dtype=np.int64)
    W.reshape(r, 2, 2, 2, N)[:, 0] = ys.reshape(r, 2, 1, N)
    # [y1^s y1^s] and [y0^s y0^s] on positions 1..2N-1, all the view reads
    W[:, 1, :, 1:] = W[:, 0, ::-1, 1:][..., ::sign]
    L = np.ndarray((r, 2, N, 2, N), np.int64, buffer=W, offset=8 * N,
                   strides=W.strides[:2] + (-8, W.strides[2], 8))
    L.flags.writeable = False
    return L


def products(group, field: PrimeField, xs, ys) -> np.ndarray:
    """Row-wise products xs[r] ys[r] in F_q G of two (B, n) stacks of
    residues in [0, q), as a new (B, n) int64 array of residues.

    The four cyclic convolutions of each product are read off the
    `circulants` of a chunk of ys, in chunks whose working set fits in
    CELLS bytes; the union support of all of xs makes every chunk sparse
    or every chunk dense (see the module docstring).  The inputs must be
    reduced: the 2^63 bound holds for residues below q only.
    """
    require_int64_products(field.q, group.p, group.m)
    n, N = group.order, group.rot_order
    xs, ys = np.asarray(xs, dtype=np.int64), np.asarray(ys, dtype=np.int64)
    if xs.shape != ys.shape or xs.shape[1:] != (n,):
        raise ValueError(f"expected two (B, {n}) stacks, got {xs.shape} and {ys.shape}")
    S = xs.any(axis=0).nonzero()[0]  # the union support of the stack
    row = 32 * n + 8 * n * len(S)  # bytes a row holds: its W and copied rows of L
    if 2 * len(S) >= n or row > CELLS:
        S, row = None, 64 * n  # its W and its four halves
    step = max(1, CELLS // row)
    out = np.empty((len(xs), n), dtype=np.int64)
    for start in range(0, len(xs), step):
        x, o = xs[start : start + step], out[start : start + step]
        L = circulants(group, ys[start : start + step])
        r = len(x)
        if S is not None:
            e, i = np.divmod(S, N)  # x's coefficient on S takes row a^i b^e of L(y)
            np.matmul(x[:, None, S], L[:, e, i].reshape(r, len(S), n), out=o[:, None])
        else:
            halves = np.matmul(x.reshape(r, 2, 1, 1, N), L.transpose(0, 1, 3, 2, 4))
            np.add(halves[:, 0], halves[:, 1], out=o.reshape(r, 2, 1, N))  # x0 L0 + x1 L1
        del L  # this chunk's buffer goes before the next one is written
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
        """L(x), row g the left translate g x, as the read-only (2, N, 2, N)
        view [e, i, o, k] of `circulants`; `.reshape(n, n)` copies it out."""
        return circulants(self.group, self.coeffs[None])[0]

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
    """Commutation against the group generators suffices by linearity: a x
    and b x against x a and x b, on one stack each way."""
    gens = np.zeros((2, x.group.order), dtype=np.int64)
    gens[[0, 1], [g.index for g in x.group.generators()]] = 1
    xs, G, F = np.broadcast_to(x.coeffs, gens.shape), x.group, x.field
    return np.array_equal(products(G, F, gens, xs), products(G, F, xs, gens))

