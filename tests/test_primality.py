import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from mersenne_doubling import (
    CapacityError,
    PrimeTable,
    build_prime_table,
    is_prime,
)
from mersenne_doubling import primality
from mersenne_doubling.primality import factor, is_prime64


def test_build_examples():
    assert build_prime_table(10) == PrimeTable(10)
    assert build_prime_table(10).capacity == 100
    full = build_prime_table(2**32)
    assert full.capacity == 2**64
    assert is_prime(2**64 - 59, full) is True  # the largest prime below 2**64


def test_build_default_bound(prime_table):
    assert prime_table == PrimeTable(2_000_000)
    assert prime_table.capacity == 4 * 10**12


def test_build_bound_validation():
    for bad in (2, 0, 2**32 + 1):
        with pytest.raises(ValueError):
            build_prime_table(bad)


def test_is_prime_large_reference_values(prime_table):
    assert is_prime(143047813, prime_table) is True
    assert is_prime(1938935328, prime_table) is False
    assert is_prime(2199023254451, prime_table) is True
    assert is_prime(2047, prime_table) is False


def test_is_prime_small_cases(prime_table):
    assert is_prime(2, prime_table) is True
    assert is_prime(3, prime_table) is True
    assert is_prime(4, prime_table) is False
    with pytest.raises(ValueError):
        is_prime(1, prime_table)
    with pytest.raises(ValueError):
        is_prime(0, prime_table)


def test_is_prime_capacity_error():
    table = build_prime_table(1500)
    assert is_prime(1500 * 1500, table) is False  # exactly at capacity
    for n in (1500 * 1500 + 1, 1500 * 1500 + 2):
        with pytest.raises(CapacityError):
            is_prime(n, table)


def test_is_prime_matches_trial_division(prime_table):
    for n in range(2, 20000):
        assert is_prime(n, prime_table) == oracles.trial_division_is_prime(n)


def test_results_independent_of_bound():
    small = build_prime_table(1500)
    large = build_prime_table(40000)
    for n in list(range(2, 2000)) + [9973, 1493 * 1499, 1499 * 1499, 2047, 104729]:
        assert is_prime(n, small) == is_prime(n, large)


def test_lookup_and_division_cases_agree():
    # n in (1500, 40000] lie above the small table's bound and within the
    # large one's.
    small = build_prime_table(1500)
    large = build_prime_table(40000)
    for n in range(1501, 40001, 2):
        assert is_prime(n, small) == is_prime(n, large)


def test_is_prime_minimal_bound_for_large_witness():
    # Deciding n needs bound**2 >= n; the CapacityError names the smallest
    # such bound, and that bound decides n.
    big = 2199023254451
    assert is_prime(big, build_prime_table(1482911)) is True
    with pytest.raises(CapacityError, match="bound >= 1482911$"):
        is_prime(big, build_prime_table(1482910))
    with pytest.raises(CapacityError, match="bound >= 1501$"):
        is_prime(1501 * 1501, build_prime_table(1500))
    assert is_prime(1501 * 1501, build_prime_table(1501)) is False


# --- 64-bit kernel -----------------------------------------------------------

def test_is_prime64_matches_trial_division():
    for n in range(10**5):
        assert is_prime64(n) == oracles.trial_division_is_prime(n)


def test_is_prime64_reference_values():
    assert is_prime64(3215031751) is False  # strong pseudoprime to bases 2, 3, 5, 7
    assert is_prime64(3825123056546413051) is False  # ... to bases 2..23
    assert is_prime64(2**61 - 1) is True
    assert is_prime64(2**64 - 59) is True  # the largest prime below 2**64
    assert is_prime64(2199023254451) is True


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.one_of(
    st.integers(1, 2**64 - 1),
    st.tuples(st.integers(2**31, 2**32 - 1), st.integers(2**31, 2**32 - 1)).map(math.prod),
))
# Around the end of trial division: d * d > n, d = 997 and the first prime past it.
@example(1)
@example(2)
@example(4)
@example(997**2)
@example(991 * 997)
@example(997 * 1009)
@example(1009**2)
@example(2 * 3 * 997**2)
def test_factor_multiplies_back_to_primes(n):
    primes = factor(n)
    assert math.prod(p**e for p, e in primes.items()) == n
    assert all(is_prime64(p) for p in primes)


def test_factor_by_rho():
    # Every n here has a factor above 997, so each goes through rho: products
    # of two primes near 2**31 and just above 1000, and 300 seeded q below
    # 2**64.
    rng = random.Random(20261019)

    def prime_from(n):
        while not is_prime64(n):
            n += 1
        return n

    for lo in [2**31 - 2**20] * 8 + [1000] * 4:
        p, q = prime_from(rng.randrange(lo, 2 * lo)), prime_from(rng.randrange(lo, 2 * lo))
        assert factor(p * q) == ({p: 2} if p == q else {p: 1, q: 1})
    for n in [rng.randrange(1, 2**64) for _ in range(300)]:
        primes = factor(n)
        assert math.prod(p**e for p, e in primes.items()) == n
        assert all(is_prime64(p) for p in primes)


def test_factor_matches_sieve_oracle():
    limit = 200_000
    spf = oracles.smallest_prime_factors(limit).tolist()
    for n in range(1, limit + 1):
        assert factor(n) == oracles.factor_by_sieve(n, spf)


def test_trial_divisors_are_the_primes_below_1000():
    assert primality._TRIAL_DIVISORS == tuple(
        d for d in range(1000) if oracles.trial_division_is_prime(d))


def test_factor_below_997_squared_runs_no_miller_rabin(monkeypatch):
    # Trial division leaves 1 or a prime for every n < 997**2 (991 * 997 and
    # 2 * 3 * 5 * 7 * 11 * 13 among them), so the prime test is never asked;
    # past the last trial divisor it is.
    tested = []
    monkeypatch.setattr(primality, "is_prime64", lambda n: tested.append(n) or is_prime64(n))
    for n in range(1, 997**2):
        factor(n)
    assert tested == []
    assert factor(1009**2) == {1009: 2}
    assert tested == [1009**2, 1009, 1009]
