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
once, in lexicographic message order, so the span of its last j rows is
B[:q^j]; it is held as residues in the smallest unsigned dtype that holds
q - 1.  For an outer word a, a + b vanishes at coordinate c exactly when
b_c = -a_c, so weight(a + b) = n - #{c : b_c = (-a)_c}: one compare of
small residues per cell and a count, with no product and no reduction mod
q per codeword.

Exactness: the only arithmetic is the int64 product digits @ G for outer
words and the inner span.  Each entry is a sum of at most k products of
residues below q, so at most k (q-1)^2, and the scan refuses any (G, q)
for which that bound reaches 2^63.  Everything else is equality of
residues and integer counting, so every count is exact.

Memory: the inner span holds at most CELLS cells (words x n), and one
step compares a block of outer words with it in at most CELLS cells, so
the working set is a fixed multiple of CELLS whatever k and q are, and
whatever n is up to CELLS (a step always holds at least one word).
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
    B = _words(G[k - inner:], q, 0, q**inner, 0).astype(np.min_scalar_type(q - 1))
    hist = np.zeros(n + 1, dtype=np.int64)
    for i in range(k):
        j = min(k - 1 - i, inner)
        span = B[None, : q**j]
        outer = G[i + 1 : k - j]
        total = q ** len(outer)
        step = max(1, CELLS // (q**j * max(n, 1)))
        for s in range(0, total, step):
            neg = -_words(outer, q, s, min(s + step, total), G[i]) % q
            zeros = np.count_nonzero(span == neg.astype(B.dtype)[:, None], axis=2)
            hist[::-1] += np.bincount(zeros.ravel(), minlength=n + 1)
    hist *= q - 1
    hist[0] += 1
    return hist
