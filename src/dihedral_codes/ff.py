"""Exact arithmetic in prime fields F_q and the modular-order checks that
gate every construction in this package.

Everything here is integer arithmetic; no floating point anywhere.
"""

from __future__ import annotations

from math import gcd


class InadmissibleParameters(ValueError):
    """(q, p, m) fails the standing hypothesis required by a construction."""


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


def check_admissible(q: int, p: int, m: int) -> bool:
    """True iff gcd(2 p^m, q) = 1 and q generates the units modulo p^m.

    For odd p, q generates the units mod p^m iff it generates them mod p
    and, when m >= 2, q^(p-1) != 1 mod p^2 (primitive roots lift), so the
    cost does not grow with m.  q must be prime, p an odd prime, m >= 1;
    violations of those shape requirements raise instead of returning False.
    """
    if not is_prime(q):
        raise ValueError(f"q must be prime, got {q}")
    if not is_prime(p) or p == 2:
        raise ValueError(f"p must be an odd prime, got {p}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if gcd(2 * p**m, q) != 1:
        return False
    return multiplicative_order(q, p) == p - 1 and (m == 1 or pow(q, p - 1, p * p) != 1)


def require_admissible(q: int, p: int, m: int) -> None:
    """The gate of every construction that needs the standing hypothesis:
    raise InadmissibleParameters unless `check_admissible(q, p, m)`."""
    if not check_admissible(q, p, m):
        raise InadmissibleParameters(f"(q, p, m) = ({q}, {p}, {m}) is not admissible")
