"""Exact arithmetic in prime fields F_q, the modular-order checks that
gate every construction in this package, and the numeric limits the other
layers share: the int64 range of group-algebra products, the default
enumeration budget and the most residues one command writes.

Everything here is integer arithmetic; no floating point anywhere, and no
numpy, so the CLI can gate a command before it loads the algebra stack.
"""

from __future__ import annotations

from functools import cache
from math import gcd


class InadmissibleParameters(ValueError):
    """(q, p, m) fails the standing hypothesis required by a construction."""


# the default cap on q^k, the messages an exhaustive enumeration may scan
DEFAULT_BUDGET = 1 << 24
INT64_LIMIT = 1 << 63
# The most residues one command may write: k n for a generator matrix that
# `construct` writes from its closed form, 3 per row of a `survey` (every
# row it enumerates, also under --dim).  A command above it is refused
# before it builds anything.  On a 2-core VM the largest survey within it,
# 2^20 - 1 rows at (5, 3, 9), takes 16 s and 302 MB peak RSS, and a
# closed-form [4374, 486] matrix 0.6 s and 44 MB.
WRITE_LIMIT = 1 << 22


# The first 13 primes: as Miller-Rabin bases they decide every n below
# PRIME_LIMIT (Sorenson and Webster, Math. Comp. 86 (2017)).
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality for n < PRIME_LIMIT (about 3.3e24) by deterministic
    Miller-Rabin, in time polynomial in the digits of n; larger n raise
    ValueError rather than risk a wrong answer."""
    if n < 2:
        return False
    for b in _BASES:
        if n % b == 0:
            return n == b
    if n >= PRIME_LIMIT:
        raise ValueError(f"primality of {n} is decided only below {PRIME_LIMIT}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:  # b^(n-1) != 1, or 1 has a square root other than +-1
            return False
    return True


class PrimeField:
    """The prime field F_q.  Field values are residues in [0, q)."""

    def __init__(self, q: int):
        q = int(q)
        if not is_prime(q):
            raise ValueError(f"field modulus must be prime, got {q}")
        self.q = q

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self):
        return hash(("PrimeField", self.q))

    def __repr__(self):
        return f"PrimeField({self.q})"

    def inv(self, value: int) -> int:
        """Multiplicative inverse of a residue, returned as an int."""
        v = value % self.q
        if v == 0:
            raise ZeroDivisionError(f"0 has no inverse in F_{self.q}")
        return pow(v, -1, self.q)


def multiplicative_order(q: int, n: int) -> int:
    """Smallest k >= 1 with q^k = 1 (mod n).  n = 1 is order 1 by convention."""
    if n < 1:
        raise ValueError("modulus must be positive")
    if n == 1:
        return 1
    if gcd(q, n) != 1:
        raise ValueError(f"gcd({q}, {n}) != 1, multiplicative order undefined")
    k, v = 1, q % n
    while v != 1:
        v = v * q % n
        k += 1
    return k


def phi_prime_power(p: int, j: int) -> int:
    """Euler phi of p^j for prime p; phi(1) = 1 when j = 0."""
    if j == 0:
        return 1
    return p ** (j - 1) * (p - 1)


@cache  # every AlgebraElem asks, so one (q, p, m) is worked out once
def product_bound(q: int, p: int, m: int) -> int:
    """min(2 p^m (q-1)^2, 2^63).  An entry of a product in F_q G with
    |G| = 2 p^m, summed before it is reduced mod q, is at most
    2 p^m (q-1)^2.  The product is capped once it reaches 2^63, so a huge
    m costs at most 63 multiplications and p^m is never formed."""
    bound = 2 * (q - 1) ** 2
    for _ in range(m):
        if bound >= INT64_LIMIT:
            break
        bound *= p
    return min(bound, INT64_LIMIT)


def require_int64_products(q: int, p: int, m: int) -> None:
    """Raise ValueError when a product in F_q G, |G| = 2 p^m, could wrap
    int64, that is when 2 p^m (q-1)^2 >= 2^63.  The error states the
    product as a number for m <= 64, and as a formula beyond, where it
    would take p^m to write down."""
    if product_bound(q, p, m) >= INT64_LIMIT:
        size = 2 * p**m * (q - 1) ** 2 if m <= 64 else f"2 * {p}^{m} * {q - 1}^2"
        raise ValueError(f"|G| (q-1)^2 = {size} reaches 2^63; int64 products would overflow")


def require_write_size(residues: int, what: str) -> None:
    """Raise ValueError when `what`, a text of `residues` residues, would
    exceed WRITE_LIMIT."""
    if residues > WRITE_LIMIT:
        raise ValueError(f"{what} holds {residues} residues, beyond the write limit {WRITE_LIMIT}")


def _passes_quick_tests(q: int, p: int, m: int) -> bool:
    """Every test of `check_admissible` but the order of q mod p, each in
    time polynomial in the digits of q, p and m.

    gcd(2 p^m, q) = 1 exactly when q is not 2 or p, as q is prime.  A
    generator of the units mod p is a quadratic non-residue, so
    q^((p-1)/2) = -1 mod p (Euler's criterion) is necessary."""
    if not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    if not is_prime(p) or p == 2:
        raise ValueError(f"p must be an odd prime, got {p}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return (
        q not in (2, p)
        and pow(q, (p - 1) // 2, p) == p - 1
        and (m == 1 or pow(q, p - 1, p * p) != 1)
    )


def check_admissible(q: int, p: int, m: int) -> bool:
    """True iff gcd(2 p^m, q) = 1 and q generates the units modulo p^m.

    For odd p, q generates the units mod p^m iff it generates them mod p
    and, when m >= 2, q^(p-1) != 1 mod p^2 (primitive roots lift), so the
    cost does not grow with m.  q must be prime, p an odd prime, m >= 1;
    violations of those shape requirements raise instead of returning False.
    The order of q mod p, a loop of up to p - 1 steps, runs last.
    """
    return _passes_quick_tests(q, p, m) and multiplicative_order(q, p) == p - 1


def require_admissible(q: int, p: int, m: int, int64_products: bool = False) -> None:
    """The gate of every construction that needs the standing hypothesis:
    raise InadmissibleParameters unless `check_admissible(q, p, m)`.

    With `int64_products`, also raise the ValueError of
    `require_int64_products` for an oversize triple.  That test runs after
    the quick tests and before the order of q mod p, whose loop grows with
    p, so an oversize triple is refused at once."""
    ok = _passes_quick_tests(q, p, m)
    if ok and int64_products:
        require_int64_products(q, p, m)
    if not (ok and multiplicative_order(q, p) == p - 1):
        raise InadmissibleParameters(f"(q, p, m) = ({q}, {p}, {m}) is not admissible")
