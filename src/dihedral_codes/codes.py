"""Left ideals of a group algebra as linear codes: generator matrices in
reduced row echelon form, exact minimum weight and weight distribution by
exhaustive message enumeration, and the subgroup-pair construction with its
predicted basis.
"""

from __future__ import annotations

from math import comb

import numpy as np

from . import modmat
from ._kernels import weight_histogram
from .algebra import AlgebraElem, hat
from .ff import PrimeField
from .groups import GroupElem

DEFAULT_BUDGET = 1 << 24


def weights(G, q: int, budget: int) -> np.ndarray | None:
    """The one route chooser for exact weight distributions.

    G holds k independent rows of length n over F_q.  The whole space
    (k = n) has a closed form; otherwise the q^k messages are scanned when
    they fit within the budget, and beyond it the answer is None.  The
    budget only decides whether a value is computed; it never changes one.
    The counts A_0..A_n come back read-only.
    """
    k, n = np.shape(G)
    if k == n:
        # A_w = C(n, w) (q-1)^w, no enumeration needed
        # (object dtype: the counts overflow int64 already for n = 50)
        hist = np.array([comb(n, w) * (q - 1) ** w for w in range(n + 1)], dtype=object)
    elif q**k <= budget:
        hist = weight_histogram(G, q)
    else:
        return None
    if hist[0] != 1 or int(hist.sum()) != q**k:
        raise RuntimeError("weight distribution failed internal sanity check")
    hist.setflags(write=False)
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
        R = np.ascontiguousarray(R)
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

    def right_translate(self, g: GroupElem) -> "LinearCode":
        """The code C g = {x g : x in C}.  Coordinate h of x lands on hg, so
        column h of the generator matrix moves to column `mult_table[h, g]`;
        the moved matrix is reduced again to its canonical RREF."""
        if self.group is None:
            raise ValueError("code carries no group")
        moved = np.empty_like(self.generator_matrix)
        moved[:, self.group.mult_table[:, g.index]] = self.generator_matrix
        return LinearCode(moved, self.q, group=self.group)

    # -- serialization -------------------------------------------------------
    def to_text(self) -> str:
        """Bit-exact format: 'n k q' then k rows of residues."""
        lines = [f"{self.n} {self.k} {self.q}"]
        for row in self.generator_matrix:
            lines.append(" ".join(str(int(v)) for v in row))
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(self.to_text())

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


def _transversal(group, members: list[int], pool) -> np.ndarray:
    """Left coset representatives of a subgroup within `pool`, an ascending
    union of its left cosets: each g that is the least index of g S."""
    pool = np.asarray(pool)
    return pool[group.mult_table[np.ix_(pool, members)].min(axis=1) == pool]


def subgroup_pair_code(
    field: PrimeField, H: list[GroupElem], K: list[GroupElem]
) -> tuple[LinearCode, list[AlgebraElem]]:
    """Code of (F_q G)(H^ - K^) for nested subgroups H <= K, together with
    the predicted basis {r (1 - t) H^} over coset representatives r of K in
    G and t != 1 of H in K.  The basis is verified to span the code."""
    if not H or not K:
        raise ValueError("empty subgroup")
    group = H[0].group
    if any(g.group != group for g in H + K):
        raise ValueError("subgroups must live in one group")
    h_idx = frozenset(g.index for g in H)
    k_idx = frozenset(g.index for g in K)
    if not h_idx <= k_idx:
        raise ValueError("H is not contained in K")

    hat_H = hat(field, H)
    if h_idx == k_idx:
        code = LinearCode(np.zeros((1, group.order), dtype=np.int64), field.q, group=group)
        return code, []
    hat_K = hat(field, K)
    code = left_ideal_code(hat_H - hat_K)

    h_members, k_members = sorted(h_idx), sorted(k_idx)
    reps = _transversal(group, k_members, range(group.order))
    tau = _transversal(group, h_members, k_members)
    if tau[0] != 0:
        raise RuntimeError("transversal of H in K does not start at 1")
    # row (r, t) is r H^ - r t H^, with the translate g x read as x[T[g]]
    T = group.translate_table
    r = np.repeat(reps, len(tau) - 1)
    rt = group.mult_table[np.ix_(reps, tau[1:])].ravel()
    rows = hat_H.coeffs[T[r]] - hat_H.coeffs[T[rt]]
    basis = [AlgebraElem(group, field, row) for row in rows]

    R, _ = modmat.rref(rows, field.q)
    if len(R) != len(basis):
        raise RuntimeError("predicted basis is not linearly independent")
    if not np.array_equal(R, code.generator_matrix):
        raise RuntimeError("predicted basis does not span the code")
    return code, basis
