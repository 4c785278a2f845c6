"""Dense exact linear algebra over F_q on int64 arrays.

Gaussian elimination with the leftmost-pivot convention.  The reduced row
echelon form is canonical: two matrices have the same row space exactly when
their RREFs are identical.  Code equality relies on this; `LinearCode` stores
its generator matrix in this form and compares codes by comparing matrices,
and a row lies in a code when appending it to that matrix keeps the rank.

An elimination step touches only the rows with a nonzero entry in the pivot
column, and only from that column on; `rref` says why the rest is final.
It skips the columns that are zero below the last pivot, and stops once
those rows are all zero.  A matrix proven reduced elsewhere never comes
here: `LinearCode._from_rref` stores a code's stored matrix as it is for
`gamma_image_code`, and `closed_forms` writes and proves its RREFs without
numpy.

Exactness: elimination only ever forms one product of two residues below q
and subtracts it from a residue, so every intermediate is at most (q-1)^2 in
absolute value.  `asmat` refuses any q for which that bound reaches 2^63.
"""

from __future__ import annotations

import numpy as np


def asmat(mat, q: int) -> np.ndarray:
    if (q - 1) ** 2 >= 1 << 63:
        raise ValueError(
            f"(q-1)^2 = {(q - 1) ** 2} reaches 2^63; int64 elimination would overflow"
        )
    A = np.array(mat, dtype=np.int64, copy=True)
    if A.ndim == 1:
        A = A[None, :]
    if A.ndim != 2:
        raise ValueError("expected a matrix")
    return A % q


def rref(mat, q: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_q.  Returns (R, pivot_columns);
    R keeps only the nonzero rows.

    The step at pivot (r, c) updates only the rows with a nonzero factor in
    column c, from column c on.  Rows r and below are zero left of c, so the
    pivot row would subtract nothing there, and a zero factor changes nothing
    at all: the skipped cells are final.  Only at a column without a pivot
    does the loop look past it: rows r and below are zero up to that column,
    so it jumps to the next column where one of them is not, or stops when
    they are all zero.  A full-rank elimination never takes this branch.
    An input that is already reduced takes one step per pivot, and each
    step's pivot column is nonzero in its own row only.
    The (q-1)^2 bound is unchanged."""
    A = asmat(mat, q)
    rows, cols = A.shape
    r = c = 0
    pivots: list[int] = []
    while r < rows and c < cols:
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            live = np.flatnonzero(A[r:, c + 1 :].any(axis=0))
            if live.size == 0:
                break
            c += 1 + int(live[0])
            continue
        piv = r + int(nz[0])
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        row = A[r, c:] * pow(int(A[r, c]), -1, q) % q
        hit = np.nonzero(A[:, c])[0]
        B = A[hit, c:]
        A[hit, c:] = (B - B[:, :1] * row) % q
        A[r, c:] = row  # row r was in hit and came out 0; restore it
        pivots.append(c)
        r += 1
        c += 1
    return A[:r], pivots


def solve(A, b, q: int) -> np.ndarray | None:
    """One solution x of A x = b over F_q (free variables set to 0), or
    None when the system is inconsistent."""
    A = asmat(A, q)
    b = np.asarray(b, dtype=np.int64).reshape(-1) % q
    if b.shape[0] != A.shape[0]:
        raise ValueError("shape mismatch")
    aug = np.hstack([A, b[:, None]])
    R, pivots = rref(aug, q)
    cols = A.shape[1]
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.int64)
    for row, c in enumerate(pivots):
        x[c] = R[row, cols]
    return x

