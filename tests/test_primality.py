import math

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from mersenne_doubling import (
    CapacityError,
    PrimeTable,
    build_prime_table,
    is_prime,
    load_prime_table,
    save_prime_table,
)
from mersenne_doubling.primality import factor, is_prime64


def test_build_examples():
    assert build_prime_table(10).primes == [3, 5, 7]
    assert build_prime_table(30).primes == [3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_build_default_bound(prime_table):
    assert prime_table.bound == 2_000_000
    assert prime_table.primes[0] == 3
    assert prime_table.primes[-1] == 1999993
    assert prime_table.capacity == 4 * 10**12


def test_build_bound_validation():
    for bad in (2, 0, 2**32 + 1):
        with pytest.raises(ValueError):
            build_prime_table(bad)


def test_table_is_strictly_increasing(prime_table):
    primes = prime_table.primes
    assert all(a < b for a, b in zip(primes, primes[1:]))


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
    # Deciding 2199023254451 needs bound**2 to reach it: 1482911 is the
    # smallest sufficient sieve bound.
    big = 2199023254451
    assert is_prime(big, build_prime_table(1482911)) is True
    with pytest.raises(CapacityError):
        is_prime(big, build_prime_table(1482910))


def test_table_file_layout(tmp_path):
    # Fixed on-disk format: 4-byte magic, u32 version, u64 count, u64 bound,
    # then the primes as little-endian u64 values.
    path = tmp_path / "tiny.ptab"
    save_prime_table(build_prime_table(10), path)
    raw = path.read_bytes()
    assert raw[:4] == b"PTAB"
    assert raw[4:8] == (1).to_bytes(4, "little")
    assert raw[8:16] == (3).to_bytes(8, "little")
    assert raw[16:24] == (10).to_bytes(8, "little")
    assert raw[24:] == b"".join(p.to_bytes(8, "little") for p in (3, 5, 7))


def test_table_file_roundtrip(tmp_path):
    table = build_prime_table(10000)
    path = tmp_path / "primes.ptab"
    save_prime_table(table, path)
    loaded = load_prime_table(path)
    assert loaded.bound == table.bound
    assert loaded.primes == table.primes
    assert is_prime(9999991, loaded) is True  # above the bound, within capacity


def test_table_file_validation(tmp_path):
    table = build_prime_table(100)
    path = tmp_path / "primes.ptab"
    save_prime_table(table, path)
    raw = path.read_bytes()

    bad_magic = tmp_path / "bad_magic.ptab"
    bad_magic.write_bytes(b"XTAB" + raw[4:])
    with pytest.raises(ValueError, match="magic"):
        load_prime_table(bad_magic)

    bad_version = tmp_path / "bad_version.ptab"
    bad_version.write_bytes(raw[:4] + b"\x02\x00\x00\x00" + raw[8:])
    with pytest.raises(ValueError, match="version"):
        load_prime_table(bad_version)

    truncated = tmp_path / "truncated.ptab"
    truncated.write_bytes(raw[:-8])
    with pytest.raises(ValueError, match="primes"):
        load_prime_table(truncated)

    with pytest.raises(ValueError, match="truncated"):
        empty = tmp_path / "empty.ptab"
        empty.write_bytes(b"PT")
        load_prime_table(empty)


def test_prime_table_contains(prime_table):
    assert 3 in prime_table
    assert 1999993 in prime_table
    assert 9 not in prime_table
    assert 2 not in prime_table  # the table holds odd primes only


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
def test_factor_multiplies_back_to_primes(n):
    primes = factor(n)
    assert math.prod(p**e for p, e in primes.items()) == n
    assert all(is_prime64(p) for p in primes)
