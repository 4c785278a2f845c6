import random
import time
from math import gcd

import pytest

from dihedral_codes import (
    AlgebraElem,
    PrimeField,
    check_admissible,
    is_prime,
    multiplicative_order,
    phi_prime_power,
)


def test_construction_rejects_non_prime():
    for bad in (0, 1, 4, 9, 12, 100):
        with pytest.raises(ValueError):
            PrimeField(bad)
    PrimeField(2)
    PrimeField(31)


def test_inv_examples():
    F = PrimeField(11)
    assert F.inv(2) == 6
    assert F.inv(1) == 1
    assert F.inv(4) == 3
    assert F.inv(7) * 7 % 11 == 1
    assert F.inv(13) == F.inv(-9) == 6  # unreduced residues of 2
    with pytest.raises(ZeroDivisionError):
        F.inv(0)
    with pytest.raises(ZeroDivisionError):
        F.inv(22)


def test_field_mismatch_raises(d9):
    x = AlgebraElem.one(d9, PrimeField(11))
    y = AlgebraElem.one(d9, PrimeField(13))
    with pytest.raises(ValueError):
        x + y
    with pytest.raises(ValueError):
        x * y


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11])
def test_field_axioms_exhaustive(q):
    F = PrimeField(q)
    values = range(q)
    for x in values:
        for y in values:
            assert (x + y) % q == (y + x) % q
            assert x * y % q == y * x % q
            for z in values:
                assert ((x + y) % q + z) % q == (x + (y + z) % q) % q
                assert x * y % q * z % q == x * (y * z % q) % q
                assert x * (y + z) % q == (x * y % q + x * z % q) % q
    for x in values:
        assert (x + -x % q) % q == 0
        if x:
            assert x * F.inv(x) % q == 1


def test_multiplicative_order_examples():
    # direct powering oracle
    def brute(q, n):
        k, v = 1, q % n
        while v != 1:
            v = v * q % n
            k += 1
        return k

    assert multiplicative_order(11, 9) == brute(11, 9) == 6
    assert multiplicative_order(2, 7) == brute(2, 7) == 3
    assert multiplicative_order(5, 1) == 1


def test_multiplicative_order_requires_coprime():
    with pytest.raises(ValueError):
        multiplicative_order(6, 9)


def test_order_divides_phi():
    def phi(n):
        return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)

    rng = random.Random(0)
    for _ in range(200):
        n = rng.randrange(2, 200)
        q = rng.randrange(2, 200)
        if gcd(q, n) != 1:
            continue
        assert phi(n) % multiplicative_order(q, n) == 0


def test_check_admissible_examples():
    assert check_admissible(11, 3, 2) is True
    assert check_admissible(7, 3, 2) is False  # ord(7 mod 9) = 3 != 6
    assert check_admissible(3, 3, 1) is False  # gcd(6, 3) != 1
    assert check_admissible(5, 3, 2) is True
    assert check_admissible(3, 5, 2) is True
    assert check_admissible(2, 5, 2) is False  # gcd(50, 2) != 1


def test_check_admissible_matches_the_order_loop():
    """The lifting test against q's order mod p^m, found by powering, on all
    1,872 triples with q < 400 prime, p <= 17 and p^m <= 10^5."""
    for q in filter(is_prime, range(400)):
        for p in (3, 5, 7, 11, 13, 17):
            for m in range(1, 5):
                pm = p**m
                brute = gcd(2 * pm, q) == 1 and (
                    multiplicative_order(q, pm) == phi_prime_power(p, m)
                )
                assert check_admissible(q, p, m) is brute, (q, p, m)


def test_check_admissible_does_not_loop_over_the_units():
    # phi(3^40) is about 8 10^18, so one pass over the units would not end
    t0 = time.perf_counter()
    assert check_admissible(5, 3, 40) is True
    assert check_admissible(17, 3, 40) is False  # 17^2 = 1 mod 9
    assert check_admissible(7, 3, 40) is False  # 7 = 1 mod 3
    assert time.perf_counter() - t0 < 1


def test_check_admissible_validates_shape():
    with pytest.raises(ValueError):
        check_admissible(10, 3, 2)  # q not prime
    with pytest.raises(ValueError):
        check_admissible(11, 2, 2)  # p not odd
    with pytest.raises(ValueError):
        check_admissible(11, 4, 2)  # p not prime
    with pytest.raises(ValueError):
        check_admissible(11, 3, 0)  # m < 1


def test_phi_prime_power():
    assert phi_prime_power(3, 0) == 1
    assert phi_prime_power(3, 1) == 2
    assert phi_prime_power(3, 2) == 6
    assert phi_prime_power(5, 2) == 20


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(32):
        assert is_prime(n) == (n in primes)
