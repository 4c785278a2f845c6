"""Left ideals of a group algebra as linear codes: generator matrices in
reduced row echelon form, exact minimum weight and weight distribution by
exhaustive message enumeration, the proven basis of each subgroup-pair
code, and the image of a dihedral code under the coordinate bijection
gamma with the necessary test for an equivalence to an abelian code.
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
from .groups import AbelianGroup, DihedralGroup, Subgroup

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
        """The code whose canonical RREF is R, another code's stored matrix
        (see `gamma_image_code`).  R is kept as it is, with no copy, field
        test or elimination: the result equals `LinearCode(R, q, group)`."""
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


def subgroup_pair_code(field: PrimeField, H: Subgroup, K: Subgroup) -> np.ndarray:
    """The predicted basis B = {r (1 - t) H^} of the left ideal A(H^ - K^) of
    A = F_q G, for nested subgroups H <= K with |H| invertible in F_q: r
    runs over the coset representatives of K in G and t != 1 over those of
    H in K, and B comes back as one read-only int64 (k, n) matrix, (0, n)
    when H = K.  No RREF is written: the code is V(H, K) of the lemma in
    `closed_forms`, whose RREF `closed_forms.canonical_rows` writes for the
    chain subgroups.

    The cosets are those of `Subgroup.roots`, which proves that they are
    the cosets of the subgroup `hat` averages over.  B is proven to span
    A e = V(H, K), e = H^ - K^, exactly over F_q, by the identities of the
    lemma checked on these H and K:
      (a) B is independent, as B on the columns of the cosets rtH is a
          nonzero diagonal, and |B| = (G:H) - (G:K) = dim V;
      (b) B and e lie in V: constant on each H-coset, zero sum over each
          K-coset;
      (c) row (r, t) of B is row r of L(e) minus row rt, as t K^ = K^.
    By (a) and (b), span B = V.  V is a left ideal holding e, so A e lies
    in V, and by (c) B lies in A e.  Hence span B = A e = V.  Only 2k rows
    of L(e) are gathered.
    """
    if not H.within(K):
        raise ValueError("H is not contained in K")
    group = H.group
    h_root, k_root = np.array(H.roots()), np.array(K.roots())
    hat_H = hat(field, H)
    if H == K:
        B = np.zeros((0, group.order), dtype=np.int64)
        B.setflags(write=False)
        return B
    e = hat_H - hat(field, K)
    q, n = field.q, group.order
    ids = np.arange(n)
    h_cosets = np.flatnonzero(h_root == ids)
    k_cosets = np.flatnonzero(k_root == ids)

    # row (r, t) = r H^ - r t H^ read as x[T[g]]; r runs over the K-coset
    # labels and t over the H-coset labels inside K
    T = group.translate_table
    tau = h_cosets[k_root[h_cosets] == 0]
    r = np.repeat(k_cosets, len(tau) - 1)
    rt = group.mult_table[np.ix_(k_cosets, tau[1:])].ravel()
    B = (hat_H.coeffs[T[r]] - hat_H.coeffs[T[rt]]) % q

    if not np.array_equal(B[:, h_root[rt]] != 0, np.eye(len(B), dtype=bool)):
        raise RuntimeError("predicted basis is not linearly independent")
    c = e.coeffs
    # V: constant on each H-coset (x = x[h_root]), zero sum over each K-coset
    in_V = np.vstack((B, c))
    by_k_coset = in_V[:, np.argsort(k_root, kind="stable")].reshape(len(in_V), len(k_cosets), -1)
    if not (
        len(B) == len(h_cosets) - len(k_cosets)
        and np.array_equal(in_V, in_V[:, h_root])
        and not (by_k_coset.sum(axis=2) % q).any()
        and np.array_equal((c[T[r]] - c[T[rt]]) % q, B)
    ):
        raise RuntimeError("predicted basis does not span the code")
    B.setflags(write=False)
    return B


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
