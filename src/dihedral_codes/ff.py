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


def _pollard_brent(n: int) -> int:
    """A nontrivial factor of the odd composite n, by Brent's variant of
    Pollard's rho (Brent, BIT 20 (1980)), with the constants c = 1, 2, ...
    tried in turn, so the result is the same on every run."""
    c = 0
    while True:
        c += 1
        y, r, prod, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):  # one gcd per 128 steps
                    y = (y * y + c) % n
                    prod = prod * (x - y) % n
                g = gcd(prod, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: redo it one gcd per step
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g != n:
            return g


def prime_factors(n: int) -> set[int]:
    """The distinct primes dividing n >= 1 (n < PRIME_LIMIT): trial division
    by the Miller-Rabin bases, then Pollard-Brent, each part tested by
    `is_prime`."""
    found, todo = set(), []
    for b in _BASES:
        if n % b == 0:
            found.add(b)
            while n % b == 0:
                n //= b
    if n > 1:
        todo.append(n)
    while todo:
        n = todo.pop()
        if is_prime(n):
            found.add(n)
        else:
            d = _pollard_brent(n)
            todo += [d, n // d]
    return found


def is_primitive_root(q: int, p: int) -> bool:
    """True iff q generates the units mod the prime p: q^((p-1)/r) != 1
    mod p for each prime r dividing p - 1, which holds exactly when the
    order of q, a divisor of p - 1, is p - 1 itself."""
    return q % p != 0 and all(pow(q, (p - 1) // r, p) != 1 for r in prime_factors(p - 1))


def multiplicative_order(q: int, n: int) -> int:
    """Smallest k >= 1 with q^k = 1 (mod n).  n = 1 is order 1 by convention.
    A loop of up to n - 1 steps: the reference `is_primitive_root` is
    tested against."""
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


def capped_product(c: int, p: int, e: int, cap: int) -> int:
    """min(c p^e, cap) for c >= 1.  The product stops growing once it
    reaches cap, so a huge e costs at most log2(cap) multiplications and
    p^e is never formed."""
    bound = c
    for _ in range(e):
        if bound >= cap:
            break
        bound *= p
    return min(bound, cap)


@cache  # every AlgebraElem asks, so one (q, p, m) is worked out once
def product_bound(q: int, p: int, m: int) -> int:
    """min(2 p^m (q-1)^2, 2^63), capped (`capped_product`).  An entry of a
    product in F_q G with |G| = 2 p^m, summed before it is reduced mod q,
    is at most 2 p^m (q-1)^2."""
    return capped_product(2 * (q - 1) ** 2, p, m, INT64_LIMIT)


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
    """Every test of `check_admissible` but `is_primitive_root`, each in
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
    `is_primitive_root`, which factors p - 1, runs last.
    """
    return _passes_quick_tests(q, p, m) and is_primitive_root(q, p)


def require_admissible(q: int, p: int, m: int, int64_products: bool = False) -> None:
    """The gate of every construction that needs the standing hypothesis:
    raise InadmissibleParameters unless `check_admissible(q, p, m)`.

    With `int64_products`, also raise the ValueError of
    `require_int64_products` for an oversize triple.  That test runs after
    the quick tests and before `is_primitive_root`, whose factoring of
    p - 1 is the one step that may take long."""
    ok = _passes_quick_tests(q, p, m)
    if ok and int64_products:
        require_int64_products(q, p, m)
    if not (ok and is_primitive_root(q, p)):
        raise InadmissibleParameters(f"(q, p, m) = ({q}, {p}, {m}) is not admissible")
