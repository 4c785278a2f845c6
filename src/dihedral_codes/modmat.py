"""Dense exact linear algebra over F_q, on integers as narrow as q allows.

Gaussian elimination with the leftmost-pivot convention.  The reduced row
echelon form is canonical: two matrices have the same row space exactly when
their RREFs are identical.  Code equality relies on this; `LinearCode` stores
its generator matrix in this form and compares codes by comparing matrices,
and a row lies in a code when appending it to that matrix keeps the rank.

An elimination step touches only the rows with a nonzero entry in the pivot
column, and only from that column on; `eliminate` says why the rest is final.
It skips the columns that are zero below the last pivot, and stops once
those rows are all zero.  A matrix proven reduced elsewhere never comes
here: `LinearCode._from_rref` stores a code's stored matrix as it is for
`gamma_image_code`, and `closed_forms` writes and proves its RREFs without
numpy.

Exactness: elimination only ever forms one product of two residues below q
and subtracts it from a residue, so every intermediate lies in
[-(q-1)^2, q-1].  It runs in `lane(q)`, the narrowest of int8, int16, int32
and int64 whose maximum exceeds (q-1)^2: int8 for q <= 11 (10^2 = 100 <
127), int16 for q <= 181 (180^2 = 32400 < 32767), int32 for q <= 46337
(46336^2 = 2147024896 < 2^31 - 1), and int64 up to the largest q with
(q-1)^2 < 2^63.  The minimum of each width is below minus its maximum, so
-(q-1)^2 fits as well, and no step can wrap.  `lane` refuses any q beyond
int64.  Every RREF comes back as a new int64 array, whatever the lane.
"""

from __future__ import annotations

from functools import cache

import numpy as np


@cache  # one width per q, not per call or per pivot
def lane(q: int) -> np.dtype:
    """The narrowest signed integer dtype whose maximum exceeds (q-1)^2."""
    for t in (np.int8, np.int16, np.int32, np.int64):
        if np.iinfo(t).max > (q - 1) ** 2:
            return np.dtype(t)
    raise ValueError(
        f"(q-1)^2 = {(q - 1) ** 2} reaches 2^63; int64 elimination would overflow"
    )


def asmat(mat, q: int) -> np.ndarray:
    """mat mod q as a new 2-D lane(q) array; a vector becomes one row."""
    A = np.asarray(mat)
    if A.ndim == 1:
        A = A[None, :]
    if A.ndim != 2:
        raise ValueError("expected a matrix")
    # written into the lane, with no int64 copy
    return np.remainder(A, np.int64(q), out=np.empty(A.shape, lane(q)), casting="unsafe")


def rref(mat, q: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form over F_q.  Returns (R, pivot_columns):
    R is a new int64 array of the nonzero rows only."""
    return eliminate(asmat(mat, q), q)


def eliminate(A: np.ndarray, q: int) -> tuple[np.ndarray, list[int]]:
    """`rref` of A, a 2-D lane(q) array of residues that the caller hands
    over: A is overwritten, and R is copied out of it as int64.

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
    return A[:r].astype(np.int64), pivots
