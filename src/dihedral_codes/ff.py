"""Exact arithmetic in prime fields F_q and the modular-order checks that
gate every construction in this package.

Everything here is integer arithmetic; no floating point anywhere.
"""

from __future__ import annotations

from math import gcd


class InadmissibleParameters(ValueError):
    """(q, p, m) fails the standing hypothesis required by a construction."""


def is_prime(n: int) -> bool:
    """Deterministic trial division.  Moduli here are desk-scale."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
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
