"""Exhaustive codeword-weight scan.

`weight_histogram` walks all q^k messages in lexicographic order, CHUNK at
a time: it writes each chunk's base-q digit vectors into an int64 array,
multiplies by the generator matrix in int64, reduces mod q, and counts the
nonzero coordinates of each codeword.

Exactness: every entry of `digits @ G` is a sum of k products of residues
below q, so it is at most k (q-1)^2.  The scan refuses any (G, q) for which
that bound reaches 2^63, so no product or sum can wrap and every weight is
exact.
"""

from __future__ import annotations

import numpy as np

CHUNK = 1 << 16  # messages per vectorized step


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
    total = q ** k
    hist = np.zeros(n + 1, dtype=np.int64)
    for s in range(0, total, CHUNK):
        e = min(s + CHUNK, total)
        r = np.arange(s, e, dtype=np.int64)
        digits = np.empty((e - s, k), dtype=np.int64)
        for i in range(k - 1, -1, -1):
            digits[:, i] = r % q
            r //= q
        w = np.count_nonzero(digits @ G % q, axis=1)
        hist += np.bincount(w, minlength=n + 1)
    return hist
