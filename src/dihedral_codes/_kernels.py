"""Exhaustive codeword-weight scan.

`weight_histogram` counts the weights of all q^k codewords of a k x n
generator matrix G over F_q without forming most of them.

Projective messages.  Every nonzero message is lambda m' for one scalar
lambda != 0 and one m' whose leading nonzero digit is 1, and both give
codewords of the same weight.  The m' with leading digit in row i give the
words G[i] + span(G[i+1:]), so the scan walks those (q^k - 1)/(q - 1)
words, multiplies the whole histogram by q - 1 and adds the zero message
to A_0.  The whole histogram is scaled, A_0 included: a zero or dependent
row makes some of these words zero.

Meet in the middle.  The rows after the leading one split into outer rows
and the last `inner` rows of G.  The span B of the inner rows is built
once, coordinate-major: column t of the (n, q^inner) array B is the word
of the t-th inner message in lexicographic order, so the span of its last
j rows is the prefix B[:, :q^j].  It is held as residues in the smallest
unsigned dtype that holds q - 1, and built in that dtype one more
significant digit at a time: B[:, d q^j + t] = (d g + B[:, t]) mod q for
the next row up g and its digits d.  For an outer word a, a + b vanishes
at coordinate c exactly when b_c = -a_c, so weight(a + b) = n - #{c : b_c
= (-a)_c}: one compare of small residues per cell and a count, with no
product and no reduction mod q per codeword.  A step compares w outer
words with the span as a (w, n, q^j) boolean block and sums it over the n
axis, so each count is n additions of contiguous rows, in the smallest
unsigned dtype that holds n.

Exactness: the span build forms d g in the smallest unsigned dtype that
holds (q-1)^2, and d g + B[:, t] in the smallest one that holds 2 (q-1),
so neither can wrap; a count of matches is at most n, in a dtype that
holds n.  The outer words are the int64 product digits @ G: each
entry is a sum of at most k products of residues below q, so at most
k (q-1)^2, and the scan refuses any (G, q) for which that bound reaches
2^63.  Everything else is equality of residues and integer counting, so
every count is exact.

Memory, in bytes, for q <= 128, where a residue and the sum of two take
one byte each: the span holds at most CELLS cells, n coordinates of at
most CELLS / n words, so CELLS bytes.  Building it adds the q - 1
multiples d g of one row, at most 3 (q - 1) n bytes, and nothing else:
each block of new words is summed and reduced in place.  (From q = 129 a
sum, and from q = 257 a residue, takes two bytes, and the span and its
sums scale with them.)  One step then compares a block of outer words with
the span in at most CELLS booleans, and counts the matches of each pair in
one byte up to n = 255 (two up to 65535), at most CELLS / n bytes; bincount
reads the counts as intp, a transient 8 CELLS / n bytes.  The outer words
are int64, 8 n bytes each: a step holds CELLS / (q^j n) of them, or one
when that is below one.  So the working set is a fixed multiple of CELLS
whatever k and q are, and whatever n is up to CELLS.  Traced, [54, 8] over
F_5 peaks at 0.36 MB (1.37 CELLS) and [250, 8] over F_3 at 0.40 MB (1.51
CELLS), against 0.46 MB for both when the span was word-major and the
counts intp, and about 2.9 MB when the span was built as int64 words.
"""

from __future__ import annotations

import numpy as np

CELLS = 1 << 18  # bound on words x n held by the inner span and by one step


def _words(rows, q: int, start: int, stop: int, offset) -> np.ndarray:
    """offset + m @ rows mod q for the messages m numbered start..stop-1 in
    lexicographic order (the first row is the most significant digit)."""
    r = np.arange(start, stop, dtype=np.int64)
    digits = np.empty((stop - start, len(rows)), dtype=np.int64)
    for i in range(len(rows) - 1, -1, -1):
        digits[:, i] = r % q
        r //= q
    return (digits @ rows + offset) % q


def weight_histogram(G, q: int) -> np.ndarray:
    """Counts A_0..A_n of codeword weights over all q^k messages of the k x n
    generator matrix G over F_q.

    Raises ValueError when k (q-1)^2 >= 2^63, the range where the int64
    products could overflow.
    """
    G = np.ascontiguousarray(G, dtype=np.int64) % q
    k, n = G.shape
    if k * (q - 1) ** 2 >= 1 << 63:
        raise ValueError(
            f"k (q-1)^2 = {k * (q - 1) ** 2} reaches 2^63; an int64 scan would overflow"
        )
    inner = 0
    while inner < k - 1 and q ** (inner + 1) * n <= CELLS:
        inner += 1
    B = np.zeros((n, q**inner), dtype=np.min_scalar_type(q - 1))
    prod = np.min_scalar_type((q - 1) ** 2)  # a residue times a residue
    wide = np.min_scalar_type(2 * (q - 1))  # a residue plus a residue
    for j in range(inner):
        # B[:, :q^(j+1)] = d g + B[:, :q^j] for the digits d of the next row up
        s, g = q**j, G[k - 1 - j].astype(prod)
        dg = (g[:, None] * np.arange(1, q, dtype=prod) % q).astype(B.dtype)
        new = B[:, s : q * s].reshape(n, q - 1, s)
        out = new if wide == B.dtype else None  # in place when a sum fits a residue's dtype
        total = np.add(dg[:, :, None], B[:, None, :s], dtype=wide, out=out)
        np.remainder(total, q, out=new, casting="unsafe")
    count = np.min_scalar_type(n)  # a match count, at most n
    hist = np.zeros(n + 1, dtype=np.int64)
    for i in range(k):
        j = min(k - 1 - i, inner)
        span = B[None, :, : q**j]
        outer = G[i + 1 : k - j]
        total = q ** len(outer)
        step = max(1, CELLS // (q**j * max(n, 1)))
        for s in range(0, total, step):
            neg = -_words(outer, q, s, min(s + step, total), G[i]) % q
            zeros = (span == neg.astype(B.dtype)[:, :, None]).sum(axis=1, dtype=count)
            hist[::-1] += np.bincount(zeros.ravel(), minlength=n + 1)
    hist *= q - 1
    hist[0] += 1
    return hist
