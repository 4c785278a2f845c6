import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dihedral_codes import _kernels
from dihedral_codes._kernels import weight_histogram


def brute_histogram(G, q):
    """Plain python reference: every message, no increments, no vectorization."""
    k, n = G.shape
    hist = [0] * (n + 1)
    for msg in itertools.product(range(q), repeat=k):
        w = sum(1 for c in range(n) if sum(msg[i] * G[i, c] for i in range(k)) % q)
        hist[w] += 1
    return np.array(hist, dtype=np.int64)


@pytest.mark.parametrize(
    "q,shape,seed", [(2, (4, 9), 0), (3, (4, 7), 1), (11, (2, 18), 2), (5, (3, 12), 3)]
)
def test_weight_histogram_matches_brute_force(q, shape, seed):
    rng = np.random.default_rng(seed)
    G = rng.integers(0, q, size=shape).astype(np.int64)
    assert np.array_equal(weight_histogram(G, q), brute_histogram(G, q))


@st.composite
def generator_matrices(draw):
    q = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    k = draw(st.integers(0, 3))
    n = draw(st.integers(1, 10))
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
                         min_size=k, max_size=k))
    return np.array(rows, dtype=np.int64).reshape(k, n), q


@settings(max_examples=60, deadline=None)
@given(generator_matrices())
def test_weight_histogram_property(case):
    G, q = case
    assert np.array_equal(weight_histogram(G, q), brute_histogram(G, q))


def test_zero_row_matrix():
    G = np.zeros((0, 8), dtype=np.int64)
    hist = weight_histogram(G, 5)
    assert hist[0] == 1 and hist.sum() == 1


def test_numpy_chunking_is_exact(monkeypatch):
    rng = np.random.default_rng(17)
    G = rng.integers(0, 5, size=(3, 7)).astype(np.int64)
    monkeypatch.setattr(_kernels, "CHUNK", 10)  # 125 messages: 12 full chunks and 5 left
    assert np.array_equal(weight_histogram(G, 5), brute_histogram(G, 5))


def test_int64_bound_is_checked_before_scanning():
    # 3037000507 is the smallest prime q with (q-1)^2 >= 2^63; a scan would
    # step through all q messages, so the check must come first
    with pytest.raises(ValueError, match=r"2\^63"):
        weight_histogram([[1, 2]], 3037000507)
