"""Left ideals of a group algebra as linear codes: generator matrices in
reduced row echelon form, exact minimum weight and weight distribution by
exhaustive message enumeration, the subgroup-pair codes, whose RREF is
written down from the coset structure and proven without elimination, and
the image of a dihedral code under the coordinate bijection gamma with the
necessary test for an equivalence to an abelian code.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from math import comb

import numpy as np

from . import modmat
from ._kernels import weight_histogram
from .algebra import AlgebraElem, hat
from .ff import DEFAULT_BUDGET, PrimeField
from .gm import format_generator_matrix, write_generator_matrix
from .groups import AbelianGroup, DihedralGroup, GroupElem

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
        R, _ = modmat.rref(rows, q)
        # R views rref's whole working array; keep a copy of its k rows only
        self._store(R.copy(), q, group)

    @classmethod
    def _from_rref(cls, R: np.ndarray, q: int, group=None) -> "LinearCode":
        """The code whose canonical RREF is R, a C-contiguous int64 array of
        residues mod the prime q that the caller has proven reduced: a
        closed form (see `subgroup_pair_code`) or another code's stored
        matrix (see `gamma_image_code`).  R is kept as it is, with no copy,
        field test or elimination: the result equals `LinearCode(R, q, group)`."""
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
        translates g x, x[T[g]] with T the `translate_table`, of every basis
        row x by the generators g = a, b lie in the code."""
        if self.group is None:
            raise ValueError("code carries no group")
        G, T = self.generator_matrix, self.group.translate_table
        return self._absorbs(*(G[:, T[g.index]] for g in self.group.generators()))

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
    of L(x)."""
    if x.is_zero():
        raise ValueError("zero generator")
    return LinearCode(x.translates(), x.field.q, group=x.group)


def subgroup_pair_code(
    field: PrimeField, H: list[GroupElem], K: list[GroupElem], averages=None
) -> tuple[LinearCode, np.ndarray]:
    """Code of (F_q G)(H^ - K^) for nested subgroups H <= K, together with
    the predicted basis {r (1 - t) H^} over coset representatives r of K in
    G and t != 1 of H in K, as the rows of one read-only int64 (k, n)
    matrix ((0, n) when H = K).  The basis is verified to span the code.

    Closed form.  Let V hold the vectors that are constant on each left
    coset gH and sum to 0 over each left coset gK.  Label each coset by its
    least element and, inside each K-coset, order its H-cosets by label.
    The RREF R has one row 1_C - 1_C' for each H-coset C but the last one
    C' of its K-coset, with the label of C as its pivot, rows in pivot
    order; so k = (G:H) - (G:K).  R is written down from the labels, not
    eliminated.

    Proof, exact over F_q, with e = H^ - K^, A = F_q G, P the pivot
    columns, and p_i, l_i the labels of C and C' for row i:
      (a) the predicted basis B is independent, as B on the columns of the
          cosets rtH is a nonzero diagonal, and |B| = k;
      (b) R, B and e lie in V;
      (c) row i of R is |H| (p_i e - l_i e), from rows p_i and l_i of L(e).
    R[:, P] is the identity, and dim V = (G:H) - (G:K) = k, since |H| is
    invertible and each K-coset sum is |H| times the sum of its H-coset
    values; so by (a) and (b), span R = V = span B.  V is a left ideal
    and e lies in it, so A e lies in V.  (c) writes each row of R from two
    rows of L(e), so R lies in A e.  Hence span R = A e = span B.  Only
    2k rows of L(e) are gathered.

    Minimum weight: d = 2|H| when H < K.  A nonzero word of V is nonzero
    on some coset gK; its values c_i on the H-cosets there satisfy
    |H| sum c_i = 0, so sum c_i = 0 and at least two c_i are nonzero, each
    on |H| coordinates.  Each row 1_C - 1_C' of R has weight exactly 2|H|.

    Weight distribution: it depends on |H| and |K| alone.  A word of V is
    its values on the H-cosets, each repeated |H| times, and on each of
    the (G:K) K-cosets those s = (K:H) values form a word of the zero-sum
    code of length s.  So, up to a permutation of coordinates, V is (G:K)
    copies of that code with each coordinate repeated |H| times, and its
    weight enumerator is
        [((1 + (q-1) z^|H|)^s + (q-1)(1 - z^|H|)^s) / q]^(G:K).

    `averages`, when given, is (hat(field, H), hat(field, K)), already
    built and closure-checked by the caller, which a suite over many pairs
    does once per subgroup rather than once per pair.
    """
    if not H or not K:
        raise ValueError("empty subgroup")
    group = H[0].group
    # list.count compares by identity first, so one shared group costs no __eq__
    if [g.group for g in H + K].count(group) != len(H) + len(K):
        raise ValueError("subgroups must live in one group")
    h_idx = frozenset(g.index for g in H)
    k_idx = frozenset(g.index for g in K)
    if not h_idx <= k_idx:
        raise ValueError("H is not contained in K")

    hat_H = hat(field, H) if averages is None else averages[0]
    if h_idx == k_idx:
        zero = np.zeros((0, group.order), dtype=np.int64)
        return LinearCode._from_rref(zero, field.q, group=group), zero
    e = hat_H - (hat(field, K) if averages is None else averages[1])
    q, n = field.q, group.order
    ids = np.arange(n)
    # label each g by the least element of gH (of gK); a label names a coset
    h_lab = group.mult_table[:, sorted(h_idx)].min(axis=1)
    k_lab = group.mult_table[:, sorted(k_idx)].min(axis=1)
    h_cosets = np.flatnonzero(h_lab == ids)
    k_cosets = np.flatnonzero(k_lab == ids)
    last = np.zeros(n, dtype=np.int64)
    np.maximum.at(last, k_lab[h_cosets], h_cosets)  # last H-coset of each K-coset
    pivots = h_cosets[last[k_lab[h_cosets]] != h_cosets]
    lasts = last[k_lab[pivots]]
    R = ((h_lab == pivots[:, None]).astype(np.int64) - (h_lab == lasts[:, None])) % q

    # the predicted basis, row (r, t) = r H^ - r t H^ read as x[T[g]]; r runs
    # over the K-coset labels and t over the H-coset labels inside K
    T = group.translate_table
    tau = h_cosets[k_lab[h_cosets] == 0]
    r = np.repeat(k_cosets, len(tau) - 1)
    rt = group.mult_table[np.ix_(k_cosets, tau[1:])].ravel()
    rows = (hat_H.coeffs[T[r]] - hat_H.coeffs[T[rt]]) % q

    if not np.array_equal(rows[:, h_lab[rt]] != 0, np.eye(len(rows), dtype=bool)):
        raise RuntimeError("predicted basis is not linearly independent")
    c = e.coeffs
    # V: constant on each H-coset (x = x[h_lab]), zero sum over each K-coset
    in_V = np.vstack((R, rows, c))
    by_k_coset = in_V[:, np.argsort(k_lab, kind="stable")].reshape(len(in_V), len(k_cosets), -1)
    if not (
        len(rows) == len(pivots)
        and np.array_equal(in_V, in_V[:, h_lab])
        and not (by_k_coset.sum(axis=2) % q).any()
        and np.array_equal(len(h_idx) * (c[T[pivots]] - c[T[lasts]]) % q, R)
    ):
        raise RuntimeError("predicted basis does not span the code")
    rows.setflags(write=False)
    return LinearCode._from_rref(R, q, group=group), rows


def gamma_image_code(code: LinearCode, target: AbelianGroup | None = None) -> LinearCode:
    """Image of a dihedral-group code under the coordinate bijection.

    The bijection preserves the canonical index, so the code's stored RREF
    is reused verbatim, with no elimination; only the group the coordinates
    refer to changes."""
    if not isinstance(code.group, DihedralGroup):
        raise ValueError("gamma_image_code needs a code over a dihedral group")
    if target is None:
        target = AbelianGroup(code.group.p, code.group.m)
    if (target.p, target.m) != (code.group.p, code.group.m):
        raise ValueError("parameter mismatch between code group and target group")
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
