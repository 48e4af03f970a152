import pytest

import oracles
from mersenne_doubling import (
    PeriodRecord,
    classify,
    find_divisor_of_mersenne,
    scan_range,
    segment_of,
    write_report,
)
from mersenne_doubling.detector import (
    STREAM_EVEN,
    STREAM_FILES,
    STREAM_LARGE_PRIME,
    STREAM_ODD_NONPRIME,
    STREAM_SMALL_PRIME,
)


def test_segment_of():
    assert segment_of(5) == 3
    assert segment_of(7) == 3
    assert segment_of(9) == 4
    assert segment_of(4398046508903) == 42


def test_period_record_validation():
    PeriodRecord(3, 5, 4)
    with pytest.raises(ValueError):
        PeriodRecord(4, 5, 4)
    with pytest.raises(ValueError):
        PeriodRecord(3, 5, 0)


def test_classify_examples(prime_table):
    assert classify(PeriodRecord(42, 4398046508903, 2199023254451), prime_table) == STREAM_LARGE_PRIME
    assert classify(PeriodRecord(42, 4398046511103, 42), prime_table) == STREAM_EVEN
    assert classify(PeriodRecord(3, 7, 3), prime_table) == STREAM_SMALL_PRIME
    # 73 divides 2**9 - 1 = 511, so its period 9 is odd and composite
    assert classify(PeriodRecord(7, 73, 9), prime_table) == STREAM_ODD_NONPRIME


def test_classify_threshold_boundary(prime_table):
    record = PeriodRecord(3, 7, 3)
    assert classify(record, prime_table, large_threshold=3) == STREAM_SMALL_PRIME
    assert classify(record, prime_table, large_threshold=2) == STREAM_LARGE_PRIME


def test_scan_small_range(prime_table):
    report = scan_range(5, 15, prime_table)
    periods = {rec.q: rec.period for tag in STREAM_FILES for rec in report.stream(tag)}
    assert periods == {5: 4, 7: 3, 9: 6, 11: 10, 13: 12, 15: 4}
    assert [rec.q for rec in report.small_prime] == [7]
    assert [rec.q for rec in report.even] == [5, 9, 11, 13, 15]
    assert report.direction == "up"


def test_scan_direction_invariance(prime_table):
    up = scan_range(5, 99, prime_table)
    down = scan_range(99, 5, prime_table)
    assert down.direction == "down"
    for tag in STREAM_FILES:
        assert up.stream(tag) == down.stream(tag)


def test_scan_partition(prime_table):
    report = scan_range(5, 99, prime_table)
    assert sum(report.counts().values()) == 48
    seen = sorted(rec.q for tag in STREAM_FILES for rec in report.stream(tag))
    assert seen == list(range(5, 100, 2))


def test_scan_matches_oracle(prime_table):
    report = scan_range(101, 301, prime_table)
    for tag in STREAM_FILES:
        for rec in report.stream(tag):
            assert rec.period == oracles.order_by_doubling(rec.q)
            assert rec.segment == rec.q.bit_length()


def test_scan_prime_streams_are_divisor_witnesses(prime_table):
    report = scan_range(5, 2001, prime_table)
    for rec in report.large_prime + report.small_prime:
        assert pow(2, rec.period, rec.q) == 1


def test_scan_sort_orders(prime_table):
    report = scan_range(5, 2001, prime_table)
    for tag in (STREAM_LARGE_PRIME, STREAM_SMALL_PRIME, STREAM_ODD_NONPRIME):
        keys = [(rec.period, rec.q) for rec in report.stream(tag)]
        assert keys == sorted(keys)
    even_qs = [rec.q for rec in report.even]
    assert even_qs == sorted(even_qs)


def test_scan_single_point(prime_table):
    report = scan_range(4291434391, 4291434391, prime_table)
    assert report.counts() == {
        STREAM_LARGE_PRIME: 1,
        STREAM_SMALL_PRIME: 0,
        STREAM_ODD_NONPRIME: 0,
        STREAM_EVEN: 0,
    }
    assert report.large_prime[0] == PeriodRecord(32, 4291434391, 143047813)


def test_scan_workers_deterministic(prime_table):
    sequential = scan_range(5, 399, prime_table, workers=1)
    parallel = scan_range(5, 399, prime_table, workers=2)
    for tag in STREAM_FILES:
        assert sequential.stream(tag) == parallel.stream(tag)


def test_scan_endpoint_validation(prime_table):
    with pytest.raises(ValueError):
        scan_range(4, 10, prime_table)
    with pytest.raises(ValueError):
        scan_range(5, 10, prime_table)
    with pytest.raises(ValueError):
        scan_range(3, 9, prime_table)
    with pytest.raises(ValueError):
        scan_range(9, 2**64 + 1, prime_table)


def test_write_report(tmp_path, prime_table):
    report = scan_range(5, 15, prime_table)
    paths = write_report(report, tmp_path)
    assert set(paths) == set(STREAM_FILES)
    assert paths[STREAM_EVEN].name == "even_periods.tsv"
    assert paths[STREAM_EVEN].read_bytes() == (
        b"3\t5\t4\n4\t9\t6\n4\t11\t10\n4\t13\t12\n4\t15\t4\n"
    )
    assert paths[STREAM_SMALL_PRIME].read_bytes() == b"3\t7\t3\n"
    assert paths[STREAM_LARGE_PRIME].read_bytes() == b""
    assert paths[STREAM_ODD_NONPRIME].read_bytes() == b""


def test_find_divisor_examples(prime_table):
    assert find_divisor_of_mersenne(11, prime_table) == (23, 1)
    assert find_divisor_of_mersenne(29, prime_table) == (233, 4)
    assert find_divisor_of_mersenne(13, prime_table, l_max=100) is None


def test_find_divisor_witnesses_are_sound(prime_table):
    for n in (11, 23, 29, 37, 41, 43, 47, 53):
        q, l = find_divisor_of_mersenne(n, prime_table)
        assert q == 1 + 2 * n * l
        assert (q - 1) % (2 * n) == 0
        assert q % 8 in (1, 7)
        assert pow(2, n, q) == 1
        assert ((1 << n) - 1) % q == 0


def test_find_divisor_none_for_mersenne_primes(prime_table):
    for n in (3, 5, 7, 13, 17, 19, 31):
        assert find_divisor_of_mersenne(n, prime_table, l_max=2000) is None


def test_find_divisor_never_returns_the_trivial_witness(prime_table):
    # The candidate ladder reaches q = M(n) itself at l = (M(n)-1)/(2n); a
    # proper-divisor search must stop short of it even with no l_max in the way.
    assert find_divisor_of_mersenne(3, prime_table) is None
    assert find_divisor_of_mersenne(13, prime_table, l_max=10**6) is None


def test_find_divisor_validation(prime_table):
    with pytest.raises(ValueError):
        find_divisor_of_mersenne(12, prime_table)
    with pytest.raises(ValueError):
        find_divisor_of_mersenne(2, prime_table)
    with pytest.raises(ValueError):
        find_divisor_of_mersenne(9, prime_table)
