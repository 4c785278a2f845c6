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
`circulants`, writes for a stack of rows y one (2, rows, 2, 2N) int64
buffer W of doubled halves, [y0 y0] and [y1 y1], then [y1^s y1^s] and
[y0^s y0^s], and returns one read-only view L[r, e, i, o, k] =
W[e, r, o, N - i + k]: row a^i b^e of L(y) at column a^k b^o.  One
kernel, `products`, forms every product from the W of each chunk of ys:
out = x0 @ L[:, 0] + x1 @ L[:, 1], in canonical order, for two (B, n)
stacks of residues.  When the union support S of the whole xs stack is
less than half the group, and |S| rows of L fit in CELLS bytes, every
chunk copies those rows alone and multiplies x[:, S] by them, 2 n |S|
cell operations a row against n^2: a group element or a subgroup
average costs |S| rows of L.  Otherwise every chunk is dense, and forms
only the convolutions of the halves of x that S meets: x0 @ L[:, 0]
alone for x in F_q<a>.  `AlgebraElem.translates` is the view of one
element.

Packed lanes: every entry of x y, before reduction mod q, is a sum of n
products of residues, so at most n (q-1)^2 < 2^b for b the bit length
of n (q-1)^2; s = floor(63 / b) of them fit in one int64 lane.  From
N = PACK_FROM a dense chunk packs its output index: W is continued
cyclically for s - 1 entries, P[j] = sum_{t<s} W[j + t] 2^(b (s-1-t)) is
built by Horner's rule, and the same strided view of P with column
stride s, L_p[r, e, i, o, K] = P[e, r, o, N - i + K s], multiplies x in
one matmul of ceil(N / s) columns an output half, s times fewer
multiply-adds.  Field t of lane K, shifted out and masked, is
coefficient K s + t; the fields past N are dropped.  Every term is
non-negative and every field's true value is below 2^b, so no field
carries into the next and no lane passes 2^63; the cyclic tail makes the
dropped fields sums of residues too, so even the lowest fields of the
last lane carry nothing up.  With s = 1 this is the unpacked product.
Packing costs a dozen numpy calls a chunk, so it pays from N = 81 on
(2-core VM, best of 5): in stacks it gains from N = 49 (6.3 against
3.9 us a product) and breaks even at 25 and 27, but one-row calls lose
at 49 (23 against 34 us), break even at 81 and gain from 121.

Memory: a sparse row of a chunk holds its W, 32 n bytes, and its copied
rows of L, 8 n |S| bytes.  A dense row holds its W with the tail,
32 (n + s - 1) bytes, and the lanes of its halves' products, summed in
place, 16 h c bytes for h halves and c = ceil(N / s) lanes an output
half; a packed row also holds P, 16 h (n + s - 1) bytes, and the
fields, 16 c s bytes.  A chunk holds as many rows as fit in
`_kernels.CELLS` bytes (256 KB, the scan kernel's bound), and at least
one.  So a call's working set is a fixed multiple of CELLS whatever B
is, for n up to about 3000.  Only this module and `_kernels` know the
bound; callers hand over whole stacks.  `AlgebraElem.convolve` is the
one-row call.  The view of one element is its W, 32 n bytes; only a
caller that needs the n x n matrix L(x) copies it out.

Exactness: an entry of x y is a sum of n = 2N products of residues below
q, so it is at most n (q-1)^2.  Elements and `products` refuse any
(G, q) for which that bound reaches 2^63 (`ff.require_int64_products`),
so no int64 product or sum can wrap, packed or not.
"""

from __future__ import annotations

import numpy as np

from ._kernels import CELLS
from .ff import PrimeField, require_int64_products
from .groups import GroupElem, Subgroup


PACK_FROM = 81  # the least N = p^m at which packed lanes measured no slower


def _doubled_halves(group, ys, tail: int = 0) -> np.ndarray:
    """The (2, r, 2, 2N + tail) int64 buffer W of an (r, n) stack of
    residues: W[0] holds [y0 y0] and [y1 y1], W[1] [y1^s y1^s] and
    [y0^s y0^s], each continued cyclically for `tail` < N more entries.
    Position 0 of W[1] is not written, as no reader reads it.  W[1] is
    written from W[0], a range of memory apart, so with no temporary."""
    r, N = len(ys), group.rot_order
    # b a b = a^flip, flip = +-1 mod N: y^s is y read forwards or backwards
    sign = {1: 1, N - 1: -1}[group._compose(0, 1, 1, 0)[0] % N]
    W = np.empty((2, r, 2, 2 * N + tail), dtype=np.int64)
    W[0, :, :, :N] = W[0, :, :, N : 2 * N] = ys.reshape(r, 2, N)
    W[1, :, :, 1 : 2 * N] = W[0, :, ::-1, 1 : 2 * N][..., ::sign]
    if tail:
        W[..., 2 * N :] = W[..., N : N + tail]
    return W


def _view(buf, N: int, s: int = 1) -> np.ndarray:
    """The read-only view L[r, e, i, o, K] = buf[e, r, o, N - i + K s],
    K < ceil(N / s), of a C-contiguous (h, r, 2, width) int64 buffer."""
    h, r = buf.shape[:2]
    L = np.ndarray((r, h, N, 2, -(-N // s)), np.int64, buffer=buf, offset=8 * N,
                   strides=(buf.strides[1], buf.strides[0], -8, buf.strides[2], 8 * s))
    L.flags.writeable = False
    return L


def circulants(group, ys) -> np.ndarray:
    """L(y) for every row y of an (r, n) stack of residues: the read-only
    view L[r, e, i, o, k] of a fresh buffer of doubled halves (see the
    module docstring), read by `AlgebraElem.translates`; `products` reads
    the same view of each chunk's buffer, or of its packed lanes."""
    return _view(_doubled_halves(group, ys), group.rot_order)


def products(group, field: PrimeField, xs, ys) -> np.ndarray:
    """Row-wise products xs[r] ys[r] in F_q G of two (B, n) stacks of
    residues in [0, q), as a new (B, n) int64 array of residues.

    The four cyclic convolutions of each product are read off the
    circulants of a chunk of ys, in chunks whose working set fits in
    CELLS bytes.  The union support S of all of xs makes every chunk
    sparse or every chunk dense, and a dense chunk forms only the
    convolutions of the halves of x that S meets; from N = PACK_FROM a
    dense chunk packs s output coefficients into each int64 lane (see the
    module docstring).  The inputs must be reduced: the 2^63 bound holds
    for residues below q only.
    """
    require_int64_products(field.q, group.p, group.m)
    n, N = group.order, group.rot_order
    xs, ys = np.asarray(xs, dtype=np.int64), np.asarray(ys, dtype=np.int64)
    if xs.shape != ys.shape or xs.shape[1:] != (n,):
        raise ValueError(f"expected two (B, {n}) stacks, got {xs.shape} and {ys.shape}")
    S = xs.any(axis=0).nonzero()[0]  # the union support of the stack
    row = 32 * n + 8 * n * len(S)  # bytes a row holds: its W and copied rows of L
    sparse, s = 2 * len(S) < n and row <= CELLS, 1
    if sparse:
        e, i = np.divmod(S, N)  # x's coefficient on S takes row a^i b^e of L(y)
    else:
        e = slice(S[0] // N, S[-1] // N + 1)  # the halves of x that S meets
        h = e.stop - e.start
        b = (n * (field.q - 1) ** 2).bit_length()  # every entry of x y is below 2^b
        if N >= PACK_FROM:
            s = 63 // b
            shifts = b * np.arange(s - 1, -1, -1)  # field t of a lane at bit b (s - 1 - t)
        c = -(-N // s)  # lanes per output half
        # cells: W and the h halves' lanes, and, packed, P and the fields
        row = 8 * (4 * (n + s - 1) + 2 * h * c)
        if s > 1:
            row += 8 * (2 * h * (n + s - 1) + 2 * c * s)
    step = max(1, CELLS // row)
    out = np.empty((len(xs), n), dtype=np.int64)
    for start in range(0, len(xs), step):
        x, o = xs[start : start + step], out[start : start + step]
        r = len(x)
        W = _doubled_halves(group, ys[start : start + step], s - 1)
        if sparse:
            L = _view(W, N)[:, e, i].reshape(r, len(S), n)  # a copy of |S| rows of each L(y)
            np.matmul(x[:, None, S], L, out=o[:, None])
        else:
            if s == 1:
                L = _view(W, N)[:, e]
            else:
                W = _packed(W[e], b, s)  # P replaces W, which is freed
                L = _view(W, N, s)
            lanes = np.empty((h, r, 2, 1, c), np.int64)  # contiguous halves: an unbuffered sum
            np.matmul(x.reshape(r, 2, 1, 1, N)[:, e], L.transpose(0, 1, 3, 2, 4),
                      out=lanes.transpose(1, 0, 2, 3, 4))
            if h == 2:
                np.add(lanes[0], lanes[1], out=lanes[0])  # x0 L0 + x1 L1
            if s == 1:
                o.reshape(r, 2, 1, N)[...] = lanes[0]
            else:
                _unpack(lanes[0], b, shifts, o.reshape(r, 2, N))
            del lanes
        del W, L  # this chunk's buffers go before the next one is written
    out %= field.q
    return out


def _packed(W, b: int, s: int) -> np.ndarray:
    """P of W's shape, P[..., j] = sum_{t < s} W[..., j + t] 2^(b (s-1-t))
    for j < 2N: s consecutive entries of a row in one lane, the first in
    the top field, by Horner's rule on the flat buffer, one contiguous
    pass per field.  A window that runs into the next row starts at a
    position j >= 2N, in the tail, which no view reads."""
    w = W.reshape(-1)
    P = np.empty_like(W)
    p = P.reshape(-1)[: len(w) - s + 1]
    p[...] = w[: len(p)]
    for t in range(1, s):
        p <<= b
        p += w[t : t + len(p)]
    return P


def _unpack(lanes, b: int, shifts, o) -> None:
    """Writes the fields of (r, 2, 1, c) lanes into the (r, 2, N) halves o:
    field t of lane K, at bit shifts[t] = b (s - 1 - t), is coefficient
    K s + t."""
    fields = np.right_shift(lanes[..., None], shifts)
    fields &= (1 << b) - 1
    o[...] = fields.reshape(len(o), 2, -1)[..., : o.shape[-1]]


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

