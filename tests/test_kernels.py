import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dihedral_codes import (
    DihedralGroup,
    LinearCode,
    PrimeField,
    Subgroup,
    central_idempotents,
    left_ideal_code,
    matrix_units,
)
from dihedral_codes import _kernels
from dihedral_codes._kernels import weight_histogram
from dihedral_codes.closed_forms import canonical_rows


def brute_histogram(G, q):
    """Plain python reference: every message, no increments, no vectorization."""
    k, n = G.shape
    hist = [0] * (n + 1)
    for msg in itertools.product(range(q), repeat=k):
        w = sum(1 for c in range(n) if sum(msg[i] * G[i, c] for i in range(k)) % q)
        hist[w] += 1
    return np.array(hist, dtype=np.int64)


def chunked_histogram(G, q):
    """Second reference, the scan this kernel replaced: all q^k messages in
    lexicographic chunks, digits @ G in int64, reduced mod q, weights counted."""
    G = np.asarray(G, dtype=np.int64) % q
    k, n = G.shape
    chunk = 1 << 16
    hist = np.zeros(n + 1, dtype=np.int64)
    for s in range(0, q**k, chunk):
        r = np.arange(s, min(s + chunk, q**k), dtype=np.int64)
        digits = np.empty((len(r), k), dtype=np.int64)
        for i in range(k - 1, -1, -1):
            digits[:, i] = r % q
            r //= q
        hist += np.bincount(np.count_nonzero(digits @ G % q, axis=1), minlength=n + 1)
    return hist


@pytest.mark.parametrize(
    "q,shape,seed", [(2, (4, 9), 0), (3, (4, 7), 1), (11, (2, 18), 2), (5, (3, 12), 3)]
)
def test_weight_histogram_matches_brute_force(q, shape, seed):
    rng = np.random.default_rng(seed)
    G = rng.integers(0, q, size=shape).astype(np.int64)
    assert np.array_equal(weight_histogram(G, q), brute_histogram(G, q))


@st.composite
def generator_matrices(draw, max_k=3, max_n=10):
    q = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    # q^k <= 3125 keeps the python reference fast
    k = draw(st.integers(0, max(i for i in range(max_k + 1) if q**i <= 3125)))
    n = draw(st.integers(1, max_n))
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
                         min_size=k, max_size=k))
    return np.array(rows, dtype=np.int64).reshape(k, n), q


@settings(max_examples=60, deadline=None)
@given(generator_matrices())
def test_weight_histogram_property(case):
    G, q = case
    assert np.array_equal(weight_histogram(G, q), brute_histogram(G, q))


@settings(max_examples=80, deadline=None)
@given(generator_matrices(max_k=5, max_n=12), st.integers(40, 400))
def test_span_prefixes_and_uneven_steps(case, cells):
    """A few hundred cells split the rows into several inner ones, so the
    leading rows near the end read the strided prefixes B[:, :q^j] of the
    span, and the outer words go a few per step, the last step short."""
    G, q = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "CELLS", cells)
        assert np.array_equal(weight_histogram(G, q), brute_histogram(G, q))


def test_zero_row_matrix():
    G = np.zeros((0, 8), dtype=np.int64)
    hist = weight_histogram(G, 5)
    assert hist[0] == 1 and hist.sum() == 1


def test_numpy_chunking_is_exact(monkeypatch):
    rng = np.random.default_rng(17)
    G = rng.integers(0, 5, size=(4, 7)).astype(np.int64)
    # 80 cells hold an inner span of one row (5 words of 7), so the rows
    # after the leading one split into inner and outer rows; with leading
    # row 0 the 25 outer words go 2 per step, the last step holding 1
    monkeypatch.setattr(_kernels, "CELLS", 80)
    assert np.array_equal(weight_histogram(G, 5), brute_histogram(G, 5))


def _e11_code(q, p, m, j):
    catalog = central_idempotents(PrimeField(q), DihedralGroup(p, m))
    return left_ideal_code(matrix_units(catalog, j).e11)


def _pair_code(q, p, m):
    # the matrix `construct --gen pair --sub-h hstar2 --sub-k hstar0` writes,
    # which the pair suite scans for the orders (6, 54)
    group = DihedralGroup(p, m)
    H, K = Subgroup(group, 2, 0), Subgroup(group, 0, 0)
    return LinearCode(np.array(canonical_rows(H, K, q), dtype=np.int64), q)


@pytest.mark.parametrize(
    "build, shape",
    [(lambda: _e11_code(11, 3, 2, 2), (6, 18)), (lambda: _pair_code(5, 3, 3), (8, 54))],
    ids=["e11-j2-at-11-3-2", "pair-code-at-5-3-3"],
)
def test_weight_histogram_matches_the_chunked_scan_on_suite_codes(build, shape):
    code = build()
    G = code.generator_matrix
    assert G.shape == shape
    assert np.array_equal(weight_histogram(G, code.q), chunked_histogram(G, code.q))


@pytest.mark.parametrize("q", [2, 3, 11])
@pytest.mark.parametrize(
    "rows",
    [
        [[0, 0, 0, 0]],  # zero row: all q messages give the zero word
        [[0, 0, 0, 0], [1, 2, 0, 1]],
        [[1, 2, 0, 1], [1, 2, 0, 1]],  # duplicated rows
        [[1, 0, 1, 1], [0, 1, 1, 0], [1, 1, 2, 1]],  # third row = sum of the first two
        [[1, 1, 0, 2], [2, 2, 0, 4], [0, 1, 1, 1]],  # second row = 2 x first
    ],
    ids=["zero", "zero-then-row", "duplicated", "sum", "multiple"],
)
def test_dependent_rows_count_the_zero_words(rows, q):
    G = np.array(rows, dtype=np.int64) % q
    assert np.array_equal(weight_histogram(G, q), brute_histogram(G, q))


@pytest.mark.parametrize(
    "q, rows",
    [
        (257, [[256, 1, 0, 128], [3, 256, 256, 0]]),  # residues up to 256: uint16
        (65537, [[1, 65281, 0, 65025, 65536]]),  # negations 65536, 256, 0, 512, 1: uint32
    ],
)
def test_weight_histogram_at_residue_dtype_edges(q, rows):
    G = np.array(rows, dtype=np.int64)
    assert np.array_equal(weight_histogram(G, q), brute_histogram(G, q))


@pytest.mark.parametrize("n", [255, 256, 257])
def test_match_counts_at_count_dtype_edges(n):
    # the second row negates the first, so message (1, 1) gives the zero
    # word and its n matches fill a uint8 count at n = 255, and need a
    # uint16 one at 256 and 257
    row = np.random.default_rng(n).integers(1, 3, size=n)
    G = np.stack([row, -row % 3])
    assert np.array_equal(weight_histogram(G, 3), brute_histogram(G, 3))


def test_peak_memory_does_not_grow_with_n_or_k():
    def peak(q, k, n, seed):
        G = np.random.default_rng(seed).integers(0, q, size=(k, n))
        tracemalloc.start()
        try:
            weight_histogram(G, q)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peaks = [peak(3, 10, 250, 0), peak(3, 12, 250, 1), peak(3, 8, 486, 2)]
    # the chunked int64 scan peaked at 230 MB on the first case alone
    assert max(peaks) < 64 * _kernels.CELLS
    assert max(peaks) < 4 * min(peaks)


def test_span_sums_take_a_wider_dtype_than_residues():
    # q = 131: a residue fits uint8, but d g + B[t] reaches 260 and d g
    # itself 130^2, so both take uint16; the span of the last two rows
    # (inner = 2 at n = 4) sums nonzero words of the first row's span
    q = 131
    G = np.array([[130, 1, 65, 7], [129, 130, 0, 128], [130, 127, 129, 1]])
    assert np.array_equal(weight_histogram(G, q), chunked_histogram(G, q))


@pytest.mark.parametrize("q, k, n", [(5, 8, 54), (3, 8, 250)])
def test_scan_peaks_below_two_cells(q, k, n):
    """The span is built in its residue dtype, one byte a cell here, so
    it and one step's compare block stay under 2 CELLS bytes together;
    the int64 build of the span alone peaked near 11 CELLS."""
    G = np.random.default_rng(n).integers(0, q, size=(k, n))
    tracemalloc.start()
    try:
        hist = weight_histogram(G, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert hist.sum() == q**k
    assert peak < 2 * _kernels.CELLS


def test_int64_bound_is_checked_before_scanning():
    # 3037000507 is the smallest prime q with (q-1)^2 >= 2^63; a scan would
    # step through all q messages, so the check must come first
    with pytest.raises(ValueError, match=r"2\^63"):
        weight_histogram([[1, 2]], 3037000507)
