import random
import time
from math import gcd

import pytest

from dihedral_codes import (
    AlgebraElem,
    InadmissibleParameters,
    PrimeField,
    check_admissible,
    is_prime,
    multiplicative_order,
    phi_prime_power,
)
from dihedral_codes.ff import (
    capped_product,
    is_primitive_root,
    prime_factors,
    product_bound,
    require_admissible,
    require_int64_products,
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


def test_primitive_root_test_matches_the_order_loop():
    """q^((p-1)/r) != 1 for every prime r | p - 1 decides the same as q's
    order mod p, found by powering, on every prime p < 2000 and q < 50."""
    checked = 0
    for p in filter(is_prime, range(3, 2000)):
        for q in range(1, 50):
            brute = q % p != 0 and multiplicative_order(q, p) == p - 1
            assert is_primitive_root(q, p) is brute, (q, p)
            checked += brute
    assert checked > 0
    # 7 is a non-residue mod 169553 = 2^4 10597 + 1, of order 16: only the
    # prime factor 10597 of p - 1 shows that it is no generator
    assert multiplicative_order(7, 169553) == 16
    assert is_primitive_root(7, 169553) is False
    assert check_admissible(7, 169553, 1) is False


def test_prime_factors_match_trial_division():
    def trial(n):
        found, d = set(), 2
        while d * d <= n:
            while n % d == 0:
                found.add(d)
                n //= d
            d += 1
        return found | ({n} if n > 1 else set())

    for n in range(1, 5000):
        assert prime_factors(n) == trial(n), n
    # products of primes beyond trial division: squares, and two 36-bit primes
    assert prime_factors(2 * 3 * 10427867 * 575841589) == {2, 3, 10427867, 575841589}
    assert prime_factors(43**2 * 47**3) == {43, 47}
    assert prime_factors(2 * 68719489109 * 68720464409) == {2, 68719489109, 68720464409}


def test_check_admissible_does_not_loop_over_the_units():
    # phi(3^40) is about 8 10^18, so one pass over the units would not end;
    # nor would a loop over the order of q mod p = 36028797018963979, where
    # p - 1 = 2 3 10427867 575841589 factors in milliseconds
    t0 = time.perf_counter()
    assert check_admissible(5, 3, 40) is True
    assert check_admissible(17, 3, 40) is False  # 17^2 = 1 mod 9
    assert check_admissible(7, 3, 40) is False  # 7 = 1 mod 3
    assert check_admissible(3, 36028797018963979, 1) is True
    assert check_admissible(3, 36028797018963979, 2) is True
    assert check_admissible(7, 2305843009213693951, 1) is False  # a non-residue of order < p - 1
    assert time.perf_counter() - t0 < 1


def test_check_admissible_never_forms_p_to_the_m():
    # gcd(2 p^m, q) = 1 is read as q not in {2, p}; building 2 3^(10^7)
    # for the gcd took 5.4 s
    t0 = time.perf_counter()
    assert check_admissible(5, 3, 10**7) is True
    assert check_admissible(3, 3, 10**7) is False
    assert check_admissible(2, 3, 10**7) is False
    assert time.perf_counter() - t0 < 0.1


def test_product_bound_is_the_capped_product():
    for q, p, m in [(11, 3, 2), (3, 5, 3), (2, 3, 1), (1000000103, 3, 2), (5, 3, 40)]:
        assert product_bound(q, p, m) == min(2 * p**m * (q - 1) ** 2, 1 << 63)
    t0 = time.perf_counter()
    assert product_bound(3, 3, 10**9) == 1 << 63  # p^m is never formed
    # the n x n table of `verify`: n^2 = 4 p^(2m), capped just above the limit
    assert capped_product(4, 3, 2 * 10**9, (1 << 22) + 1) == (1 << 22) + 1
    assert time.perf_counter() - t0 < 0.1
    assert [capped_product(4, 3, 2 * m, 100) for m in (1, 2, 3)] == [36, 100, 100]
    # 2 3^36 4^2 < 2^63 <= 2 3^37 4^2: the first triple refused
    require_int64_products(5, 3, 36)
    with pytest.raises(ValueError, match=f"^[|]G[|] [(]q-1[)]\\^2 = {2 * 3**37 * 16} reaches"):
        require_int64_products(5, 3, 37)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=r"= 2 \* 3\^1000000000 \* 4\^2 reaches 2\^63"):
        require_int64_products(5, 3, 10**9)
    assert time.perf_counter() - t0 < 0.1


def test_require_admissible_refuses_an_oversize_triple_before_the_order_loop():
    # 7 is a non-residue mod 2^61 - 1, so it passes every quick test; the
    # int64 gate refuses (7, 2^61 - 1, 1) before p - 1 is factored
    big = 2305843009213693951
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="2\\^63") as exc:
        require_admissible(7, big, 1, int64_products=True)
    assert not isinstance(exc.value, InadmissibleParameters)
    # a triple that fails a quick test is inadmissible, however large
    with pytest.raises(InadmissibleParameters):
        require_admissible(big, 3, 1, int64_products=True)
    with pytest.raises(InadmissibleParameters):
        require_admissible(5, big, 1, int64_products=True)
    assert time.perf_counter() - t0 < 0.1
    # without the flag an oversize admissible triple passes the gate
    require_admissible(5, 3, 40)
    with pytest.raises(ValueError, match="2\\^63"):
        require_admissible(5, 3, 40, int64_products=True)


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


def _trial_division(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division_below_10_5():
    assert [n for n in range(10**5) if is_prime(n)] == [
        n for n in range(10**5) if _trial_division(n)
    ]


@pytest.mark.parametrize("n, prime", [
    (2**61 - 1, True),
    (10**24 + 7, True),
    (2**61 - 1 + 2, False),
    (3215031751, False),  # strong pseudoprime to bases 2, 3, 5, 7
    (3825123056546413051, False),  # to bases 2 .. 23
    (318665857834031151167461, False),  # to bases 2 .. 37
    ((2**31 - 1) * 1000000007, False),
])
def test_is_prime_on_large_and_pseudoprime_cases(n, prime):
    start = time.perf_counter()
    assert is_prime(n) is prime
    assert time.perf_counter() - start < 0.1


def test_is_prime_refuses_beyond_its_proven_range():
    from dihedral_codes.ff import PRIME_LIMIT

    # PRIME_LIMIT is composite, yet a strong pseudoprime to all 13 bases
    assert PRIME_LIMIT == 1287836182261 * 2575672364521
    with pytest.raises(ValueError, match="decided only below"):
        is_prime(PRIME_LIMIT)
    with pytest.raises(ValueError, match="decided only below"):
        PrimeField(PRIME_LIMIT)
    # a small factor still decides
    assert is_prime(PRIME_LIMIT + 1) is False and is_prime(PRIME_LIMIT + 2) is False
