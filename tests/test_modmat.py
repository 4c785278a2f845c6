"""Properties of the exact F_q linear algebra that code equality rests on:
two matrices have the same row space exactly when their RREFs are identical.
Every property is checked against brute-force enumeration of spans."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dihedral_codes import (
    AlgebraElem,
    DihedralGroup,
    LinearCode,
    PrimeField,
    central_idempotents,
    left_ideal_code,
    matrix_units,
    modmat,
    noncentral_generator,
)
from dihedral_codes.modmat import asmat, lane, rref


def brute_span(A, q) -> set[tuple[int, ...]]:
    """Every F_q combination of the rows of A."""
    return {
        tuple(int(v) for v in np.array(msg, dtype=np.int64) @ A % q)
        for msg in itertools.product(range(q), repeat=A.shape[0])
    }


def is_invertible(T, q) -> bool:
    """No nonzero x with x T = 0, by enumeration."""
    k = T.shape[0]
    return all(
        np.any(np.array(x, dtype=np.int64) @ T % q)
        for x in itertools.product(range(q), repeat=k)
        if any(x)
    )


def matrices(q, rows, cols):
    return st.lists(
        st.lists(st.integers(0, q - 1), min_size=cols, max_size=cols),
        min_size=rows,
        max_size=rows,
    ).map(lambda r: np.array(r, dtype=np.int64).reshape(rows, cols))


@st.composite
def field_and_matrix(draw, min_rows=0):
    q = draw(st.sampled_from([2, 3, 5, 7]))
    k = draw(st.integers(min_rows, 3))
    n = draw(st.integers(1, 6))
    return q, draw(matrices(q, k, n))


@settings(max_examples=80, deadline=None)
@given(field_and_matrix(min_rows=1), st.data())
def test_rref_invariant_under_invertible_row_operations(case, data):
    q, A = case
    k = A.shape[0]
    T = data.draw(matrices(q, k, k))
    assume(is_invertible(T, q))
    R, pivots = rref(A, q)
    R2, pivots2 = rref(T @ A % q, q)
    assert np.array_equal(R, R2) and pivots == pivots2


@settings(max_examples=80, deadline=None)
@given(field_and_matrix())
def test_rref_is_reduced_and_spans_the_row_space(case):
    q, A = case
    R, pivots = rref(A, q)
    assert R.shape == (len(pivots), A.shape[1])
    assert pivots == sorted(set(pivots))
    for r, c in enumerate(pivots):
        assert not np.any(R[r, :c])
        assert np.array_equal(R[:, c], np.eye(len(pivots), dtype=np.int64)[r])
    assert brute_span(R, q) == brute_span(A, q)


@st.composite
def code_pairs(draw):
    """Two matrices over one field and one length.  Half the time the second
    is a random combination of the rows of the first, so equal row spaces of
    different row counts come up often."""
    q, A = draw(field_and_matrix())
    kb = draw(st.integers(0, 3))
    if A.shape[0] and draw(st.booleans()):
        B = draw(matrices(q, kb, A.shape[0])) @ A % q
    else:
        B = draw(matrices(q, kb, A.shape[1]))
    return q, A, B


@settings(max_examples=120, deadline=None)
@given(code_pairs())
def test_same_code_is_span_equality(case):
    q, A, B = case
    same = LinearCode(A, q).same_code(LinearCode(B, q))
    assert same == (brute_span(A, q) == brute_span(B, q))


def test_same_code_needs_same_field_and_length():
    A = np.array([[1, 1, 0]], dtype=np.int64)
    assert LinearCode(A, 3).same_code(LinearCode(A, 3))
    assert not LinearCode(A, 3).same_code(LinearCode(A, 5))
    assert not LinearCode(A, 3).same_code(LinearCode(np.array([[1, 1, 0, 0]]), 3))
    zero3, zero4 = LinearCode(np.zeros((0, 3)), 3), LinearCode(np.zeros((2, 4)), 3)
    assert zero3.same_code(LinearCode(np.zeros((1, 3)), 3))
    assert not zero3.same_code(zero4)


def dense_rref(mat, q):
    """Oracle: elimination in int64, whatever q, that rescales the whole
    pivot row and subtracts a multiple of it from every row, over every
    column."""
    A = np.array(mat, dtype=np.int64) % q
    rows, cols = A.shape
    r = 0
    pivots: list[int] = []
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(A[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        A[r] = A[r] * pow(int(A[r, c]), -1, q) % q
        factors = A[:, c].copy()
        factors[r] = 0
        if np.any(factors):
            A -= factors[:, None] * A[r][None, :]
            A %= q
        pivots.append(c)
        r += 1
    return A[:r], pivots


def assert_same_rref(A, q):
    R, pivots = rref(A, q)
    R0, pivots0 = dense_rref(A, q)
    assert pivots == pivots0
    assert R.dtype == R0.dtype and R.shape == R0.shape
    assert R.tobytes() == R0.tobytes()


def test_rref_matches_dense_oracle_on_translate_matrices():
    """Every L(x) of the (3, 5, 2) catalog, n = 50: the central idempotents,
    each component's matrix units and its non-central f."""
    field, group = PrimeField(3), DihedralGroup(5, 2)
    catalog = central_idempotents(field, group)
    elems = list(catalog.members())
    for j in range(1, group.m + 1):
        units = matrix_units(catalog, j)
        elems += list(units.as_dict().values()) + [noncentral_generator(units).f]
    assert len(elems) == 14
    for x in elems:
        assert_same_rref(x.translates().reshape(group.order, -1), field.q)


@pytest.mark.parametrize("q", [2, 3, 5, 11])
@pytest.mark.parametrize("seed", range(6))
def test_rref_matches_dense_oracle_on_rank_deficient_matrices(q, seed):
    """Up to 40 x 60, rank below both sides, with a zero first row (so the
    first pivot is found below row r), zero columns and duplicated rows."""
    rng = np.random.default_rng([q, seed])
    rows, cols = int(rng.integers(2, 41)), int(rng.integers(2, 61))
    rank = int(rng.integers(1, min(rows, cols)))
    A = rng.integers(0, q, (rows, rank)) @ rng.integers(0, q, (rank, cols)) % q
    A[:, rng.choice(cols, size=cols // 4, replace=False)] = 0
    A[rng.integers(1, rows, size=rows // 3)] = A[rng.integers(1, rows, size=rows // 3)]
    A[0] = 0
    assert_same_rref(A, q)
    assert_same_rref(A.T, q)


class CountingNumpy:
    """Stands in for numpy inside `modmat` and counts pivot searches
    (`np.nonzero` calls); every elimination step makes at least one."""

    def __init__(self):
        self.searches = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def nonzero(self, a):
        self.searches += 1
        return np.nonzero(a)


@st.composite
def reduced_matrices(draw):
    """A random RREF: k pivot columns in increasing order, identity there,
    zeros left of each pivot, anything else to its right."""
    q = draw(st.sampled_from([2, 3, 5, 7, 11]))
    n = draw(st.integers(1, 12))
    k = draw(st.integers(0, n))
    pivots = sorted(draw(st.sets(st.integers(0, n - 1), min_size=k, max_size=k)))
    R = draw(matrices(q, k, n))
    for r, c in enumerate(pivots):
        R[r, :c] = 0
        R[:, c] = 0
        R[r, c] = 1
    return q, R, pivots


@settings(max_examples=120, deadline=None)
@given(reduced_matrices())
def test_rref_returns_a_reduced_input_without_eliminating(case):
    # elimination leaves a reduced input's bytes and pivots as they are
    q, R, pivots = case
    got, got_pivots = rref(R, q)
    assert got_pivots == pivots and got.tobytes() == R.tobytes()
    assert_same_rref(R, q)


def _near_misses():
    """Reduced 4 x 9 matrices over F_5 with one defect each."""
    R = np.array(
        [
            [1, 2, 0, 3, 0, 0, 4, 1, 0],
            [0, 0, 1, 4, 0, 0, 2, 0, 3],
            [0, 0, 0, 0, 1, 0, 1, 1, 1],
            [0, 0, 0, 0, 0, 1, 0, 2, 4],
        ],
        dtype=np.int64,
    )
    zero_row = np.insert(R, 2, 0, axis=0)
    pivot_two = R.copy()
    pivot_two[1] = 2 * pivot_two[1] % 5
    above_pivot = R.copy()
    above_pivot[0, 4] = 3
    repeated_lead = np.vstack([R[:2], R[1:]])
    repeated_lead[2, 3] = 1
    swapped = R[[1, 0, 2, 3]]
    return {
        "reduced": (R, False),
        "zero row": (zero_row, True),
        "pivot 2": (pivot_two, True),
        "nonzero above a pivot": (above_pivot, True),
        "repeated leading column": (repeated_lead, True),
        "leading columns out of order": (swapped, True),
    }


@pytest.mark.parametrize("name", list(_near_misses()))
def test_rref_near_misses_fall_through_to_elimination(name, monkeypatch):
    A, eliminates = _near_misses()[name]
    counting = CountingNumpy()
    monkeypatch.setattr(modmat, "np", counting)
    R, pivots = rref(A, 5)
    monkeypatch.undo()
    if eliminates:
        assert counting.searches > 0
    else:
        assert R.tobytes() == A.tobytes() and pivots == [0, 2, 4, 5]
    assert_same_rref(A, 5)


def test_rref_stops_once_the_rows_below_are_zero(monkeypatch):
    """Rank 2 in 40 x 300: two pivot searches per pivot, one at the zero
    column between them and one at the column after the last pivot, where
    the rows below are found zero; none for the 296 columns after that."""
    A = np.zeros((40, 300), dtype=np.int64)
    A[:, 0] = 1
    A[::2, 2] = 1
    counting = CountingNumpy()
    monkeypatch.setattr(modmat, "np", counting)
    R, pivots = rref(A, 3)
    monkeypatch.undo()
    assert pivots == [0, 2] and counting.searches == 2 + 1 + 2 + 1
    assert_same_rref(A, 3)


# each width's last q and the next prime, where the width steps up
LANE_EDGES = [(11, np.int8), (13, np.int16), (181, np.int16), (191, np.int32),
              (46337, np.int32), (46349, np.int64)]


@pytest.mark.parametrize("q, width", LANE_EDGES)
def test_lane_is_the_narrowest_width_above_the_largest_product(q, width):
    assert lane(q) == width and np.iinfo(width).max > (q - 1) ** 2
    narrower = {np.int16: np.int8, np.int32: np.int16, np.int64: np.int32}.get(width)
    assert narrower is None or np.iinfo(narrower).max < (q - 1) ** 2
    A = asmat([[-1, q, 2 * q + 1], [q - 1, -q - 1, 5 * q]], q)
    assert A.dtype == width and A.tolist() == [[q - 1, 0, 1], [q - 1, q - 1, 0]]


def test_lane_refuses_the_int64_bound():
    # 3037000507 is the smallest prime q with (q-1)^2 >= 2^63
    assert lane(3037000493) == np.int64
    with pytest.raises(ValueError, match=r"2\^63"):
        rref([[1, 2]], 3037000507)


def extreme_matrix(q, rng):
    """Up to 30 x 40 over {0, 1, q - 2, q - 1}, so the products of the
    elimination reach (q-1)^2, with a repeated row and a dependent one."""
    rows, cols = int(rng.integers(3, 31)), int(rng.integers(2, 41))
    A = rng.choice(np.array([0, 1, q - 2, q - 1]), size=(rows, cols))
    A[1] = A[0]
    A[2] = ((q - 1) * A[0] + 2 * A[rows - 1]) % q
    return A


@pytest.mark.parametrize("q", [q for q, _ in LANE_EDGES])
@pytest.mark.parametrize("seed", range(4))
def test_rref_and_solve_match_the_int64_oracle_at_lane_edges(q, seed):
    rng = np.random.default_rng([q, seed])
    A = extreme_matrix(q, rng)
    assert_same_rref(A, q)
    assert_same_rref(A.T, q)
    # a system [A | b], consistent for odd seeds, eliminated whole
    b = A @ rng.integers(0, q, A.shape[1]) % q if seed % 2 else rng.integers(0, q, len(A))
    assert_same_rref(np.column_stack([A, b]), q)


@pytest.mark.parametrize("q, p, m", [(11, 3, 2), (13, 5, 2), (3, 5, 3)])
def test_left_ideal_code_matches_the_int64_route(q, p, m):
    """L(x) copied once into lane(q) and eliminated there gives the RREF
    that int64 elimination of the n x n matrix gives: for the central
    idempotents, each component's matrix units and f, and a random x."""
    field, group = PrimeField(q), DihedralGroup(p, m)
    catalog = central_idempotents(field, group)
    elems = list(catalog.members())
    for j in range(1, m + 1):
        units = matrix_units(catalog, j)
        elems += list(units.as_dict().values()) + [noncentral_generator(units).f]
    rng = np.random.default_rng(q)
    elems.append(AlgebraElem(group, field, rng.integers(0, q, group.order)))
    for x in elems:
        R = left_ideal_code(x).generator_matrix
        R0, _ = dense_rref(x.translates().reshape(group.order, -1), q)
        assert R.dtype == np.int64 and R.shape == R0.shape
        assert R.tobytes() == R0.tobytes()
