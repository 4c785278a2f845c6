"""Left ideals of a group algebra as linear codes: generator matrices in
reduced row echelon form, exact minimum weight and weight distribution by
exhaustive message enumeration, and the image of a dihedral code under
the coordinate bijection gamma with the necessary test for an equivalence
to an abelian code.  The subgroup-pair codes are written and proven in
`closed_forms`, with no algebra.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from math import comb

import numpy as np

from . import modmat
from ._kernels import weight_histogram
from .algebra import AlgebraElem, products
from .ff import DEFAULT_BUDGET, PrimeField
from .gm import format_generator_matrix, write_generator_matrix
from .groups import AbelianGroup, DihedralGroup

_scans: ContextVar[dict | None] = ContextVar("scans", default=None)


@contextmanager
def shared_scans(memo: dict):
    """Inside the block, `weights` keeps each scanned distribution in `memo`,
    keyed by q and the shape, dtype and bytes of the matrix it received,
    and returns a kept one instead of scanning that matrix again.  The memo
    belongs to the caller (one per `verify.run_checks` call), so nothing is
    shared between blocks with different memos."""
    token = _scans.set(memo)
    try:
        yield memo
    finally:
        _scans.reset(token)


def weights(G, q: int, budget: int) -> np.ndarray | None:
    """The one route chooser for exact weight distributions.

    G holds k independent rows of length n over F_q.  The whole space
    (k = n) has a closed form; otherwise the q^k messages are scanned when
    they fit within the budget, and beyond it the answer is None.  The
    budget only decides whether a value is computed; it never changes one.
    The counts A_0..A_n come back read-only.  Within `shared_scans`, a
    matrix already scanned there is not scanned again; None is never kept.
    """
    k, n = np.shape(G)
    memo, key = _scans.get(), None
    if k == n:
        # A_w = C(n, w) (q-1)^w, no enumeration needed
        # (object dtype: the counts overflow int64 already for n = 50)
        hist = np.array([comb(n, w) * (q - 1) ** w for w in range(n + 1)], dtype=object)
    elif q**k <= budget:
        if memo is not None:
            G = np.asarray(G)
            key = (q, G.shape, G.dtype.str, G.tobytes())
            if key in memo:
                return memo[key]
        hist = weight_histogram(G, q)
    else:
        return None
    if hist[0] != 1 or int(hist.sum()) != q**k:
        raise RuntimeError("weight distribution failed internal sanity check")
    hist.setflags(write=False)
    if key is not None:
        memo[key] = hist
    return hist


class LinearCode:
    """[n, k] linear code over the prime field F_q.

    The generator matrix is stored in reduced row echelon form with the
    leftmost-pivot convention, so equal codes have identical matrices and
    rows lie in the code when appending them keeps the rank at k.  Weights
    are computed lazily and exactly, and are None beyond the budget.
    """

    def __init__(self, rows, q: int, group=None):
        PrimeField(q)  # refuses a q that is not prime
        self._store(modmat.rref(rows, q)[0], q, group)

    @classmethod
    def _from_rref(cls, R: np.ndarray, q: int, group=None) -> "LinearCode":
        """The code whose canonical RREF is R: another code's stored matrix
        (see `gamma_image_code`), or a fresh `modmat.eliminate` result (see
        `left_ideal_code`).  R is kept as it is, with no copy, field test or
        elimination: the result equals `LinearCode(R, q, group)`."""
        code = cls.__new__(cls)
        code._store(R, q, group)
        return code

    def _store(self, R: np.ndarray, q: int, group) -> None:
        R.setflags(write=False)
        self.q = q
        self.generator_matrix = R
        self.n = R.shape[1]
        self.k = R.shape[0]
        self.group = group
        if group is not None and group.order != self.n:
            raise ValueError("group order does not match code length")
        self._distribution: np.ndarray | None = None

    def __repr__(self):
        return f"LinearCode(n={self.n}, k={self.k}, q={self.q})"

    def size(self) -> int:
        return self.q ** self.k

    # -- enumeration -------------------------------------------------------
    def weight_distribution(self, budget: int = DEFAULT_BUDGET) -> np.ndarray | None:
        """Exact counts A_0..A_n over all q^k codewords, or None beyond the
        budget (see `weights`).  None is not cached, so a later call with a
        larger budget still computes."""
        if self._distribution is None:
            self._distribution = weights(self.generator_matrix, self.q, budget)
        return self._distribution

    def min_weight(self, budget: int = DEFAULT_BUDGET) -> int | None:
        """Smallest weight of a nonzero codeword, or None beyond the budget."""
        if self.k == 0:
            raise ValueError("empty code has no minimum weight")
        dist = self.weight_distribution(budget=budget)
        return None if dist is None else int(np.flatnonzero(dist)[1])

    # -- membership and comparison -----------------------------------------
    def _absorbs(self, *blocks) -> bool:
        """True when every row of the blocks lies in the code."""
        stacked = np.vstack([self.generator_matrix, *blocks])
        return len(modmat.rref(stacked, self.q)[0]) == self.k

    def contains(self, x) -> bool:
        v = x.coeffs if isinstance(x, AlgebraElem) else np.asarray(x)
        return self._absorbs(v.reshape(1, -1))

    def same_code(self, other: "LinearCode") -> bool:
        """Row-space equality: the stored RREFs are canonical, so two codes
        over the same field are equal exactly when their matrices are."""
        return self.q == other.q and np.array_equal(
            self.generator_matrix, other.generator_matrix
        )

    def is_left_ideal(self) -> bool:
        """Closure of the row space under the left action of the group: the
        translates g x of every basis row x by the generators g = a, b, one
        `products` call each, g broadcast against the basis, lie in the code."""
        if self.group is None:
            raise ValueError("code carries no group")
        G, field = self.generator_matrix, PrimeField(self.q)
        gens = (AlgebraElem.from_group_elem(g, field).coeffs for g in self.group.generators())
        return self._absorbs(
            *(products(self.group, field, np.broadcast_to(g, G.shape), G) for g in gens)
        )

    # -- serialization -------------------------------------------------------
    def to_text(self) -> str:
        """Bit-exact format: 'n k q' then k rows of residues."""
        return format_generator_matrix(self.n, self.q, self.generator_matrix.tolist())

    def write(self, path) -> None:
        write_generator_matrix(path, self.n, self.q, self.generator_matrix.tolist())

    @classmethod
    def from_text(cls, text: str, group=None) -> "LinearCode":
        lines = [ln for ln in text.split("\n") if ln.strip()]
        if not lines:
            raise ValueError("empty generator-matrix text")
        try:
            n, k, q = (int(t) for t in lines[0].split())
        except ValueError as exc:
            raise ValueError("bad generator-matrix header") from exc
        if len(lines) != 1 + k:
            raise ValueError(f"expected {k} matrix rows, found {len(lines) - 1}")
        rows = np.zeros((k, n), dtype=np.int64)
        for i, ln in enumerate(lines[1:]):
            vals = [int(t) for t in ln.split()]
            if len(vals) != n:
                raise ValueError(f"row {i} has {len(vals)} entries, expected {n}")
            bad = [v for v in vals if not 0 <= v < q]
            if bad:
                raise ValueError(f"row {i} has {bad[0]}, outside the residues [0, {q})")
            rows[i] = vals
        code = cls(rows, q, group=group)
        if code.k != k:
            raise ValueError(f"header says k = {k}, but the rows have rank {code.k}")
        return code

    @classmethod
    def read(cls, path, group=None) -> "LinearCode":
        with open(path, "r", encoding="ascii") as fh:
            return cls.from_text(fh.read(), group=group)


def left_ideal_code(x: AlgebraElem) -> LinearCode:
    """The code spanned by all left translates {g x : g in G}: the row space
    of L(x).  The (2, N, 2, N) view of L(x) (`AlgebraElem.translates`) is
    copied once, as n x n residues in the elimination lane of q (int8 for
    q <= 11, see `modmat`), and eliminated in place; only the k rows of
    the RREF come back as int64."""
    if x.is_zero():
        raise ValueError("zero generator")
    q, L = x.field.q, x.translates()
    A = np.empty((x.group.order,) * 2, modmat.lane(q))
    A.reshape(L.shape)[...] = L  # the one copy of L(x): residues, so no cast can wrap
    return LinearCode._from_rref(modmat.eliminate(A, q)[0], q, group=x.group)


def gamma_image_code(code: LinearCode) -> LinearCode:
    """Image of a dihedral-group code under the coordinate bijection, a
    code over the abelian group of the same parameters.

    The bijection preserves the canonical index, so the code's stored RREF
    is reused verbatim, with no elimination; only the group the coordinates
    refer to changes."""
    if not isinstance(code.group, DihedralGroup):
        raise ValueError("gamma_image_code needs a code over a dihedral group")
    target = AbelianGroup(code.group.p, code.group.m)
    return LinearCode._from_rref(code.generator_matrix, code.q, group=target)


def equivalence_necessary_check(
    code_a: LinearCode, code_b: LinearCode, budget: int = DEFAULT_BUDGET
) -> str:
    """'impossible' when length, dimension, or weight distribution rule out
    a combinatorial equivalence; 'possible' otherwise, also when a weight
    distribution lies beyond the budget.  Never a proof of equivalence, only
    of its absence."""
    if code_a.n != code_b.n or code_a.k != code_b.k or code_a.q != code_b.q:
        return "impossible"
    da = code_a.weight_distribution(budget=budget)
    db = None if da is None else code_b.weight_distribution(budget=budget)
    # an unknown distribution rules nothing out
    return "possible" if db is None or np.array_equal(da, db) else "impossible"
