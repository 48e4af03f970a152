import importlib
import os
import stat
from pathlib import Path

import pytest

import oracles
from mersenne_doubling import (
    CapacityError,
    PeriodRecord,
    classify,
    find_divisor_of_mersenne,
    period_naive,
    period_of,
    scan_range,
    segment_of,
    write_report,
)
from mersenne_doubling import detector
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


def test_classify_examples():
    assert classify(PeriodRecord(42, 4398046508903, 2199023254451)) == STREAM_LARGE_PRIME
    assert classify(PeriodRecord(42, 4398046511103, 42)) == STREAM_EVEN
    assert classify(PeriodRecord(3, 7, 3)) == STREAM_SMALL_PRIME
    # 73 divides 2**9 - 1 = 511, so its period 9 is odd and composite
    assert classify(PeriodRecord(7, 73, 9)) == STREAM_ODD_NONPRIME


def test_classify_beyond_table_capacity():
    # The period 1000003 is prime and above the capacity 10**6 of a bound-1000
    # table; classify decides it without any table.
    assert classify(PeriodRecord(3, 7, 1000003)) == STREAM_SMALL_PRIME


def test_classify_threshold_boundary():
    record = PeriodRecord(3, 7, 3)
    assert classify(record, large_threshold=3) == STREAM_SMALL_PRIME
    assert classify(record, large_threshold=2) == STREAM_LARGE_PRIME


def test_scan_small_range():
    report = scan_range(5, 15)
    periods = {rec.q: rec.period for tag in STREAM_FILES for rec in report.stream(tag)}
    assert periods == {5: 4, 7: 3, 9: 6, 11: 10, 13: 12, 15: 4}
    assert [rec.q for rec in report.small_prime] == [7]
    assert [rec.q for rec in report.even] == [5, 9, 11, 13, 15]
    assert report.direction == "up"


def test_scan_direction_invariance():
    up = scan_range(5, 99)
    down = scan_range(99, 5)
    assert down.direction == "down"
    for tag in STREAM_FILES:
        assert up.stream(tag) == down.stream(tag)


def test_scan_partition():
    report = scan_range(5, 99)
    assert sum(report.counts().values()) == 48
    seen = sorted(rec.q for tag in STREAM_FILES for rec in report.stream(tag))
    assert seen == list(range(5, 100, 2))


def test_scan_matches_oracle():
    report = scan_range(101, 301)
    for tag in STREAM_FILES:
        for rec in report.stream(tag):
            assert rec.period == oracles.order_by_doubling(rec.q)
            assert rec.segment == rec.q.bit_length()


def _scan_periods(q_lo, q_hi):
    report = scan_range(q_lo, q_hi)
    return {rec.q: rec.period for tag in STREAM_FILES for rec in report.stream(tag)}


def test_scan_matches_independent_periods(monkeypatch):
    # The scan computes the order of 2 only; period_of also replays the orbit
    # for its steps, and perfbench/check.py certifies a period with its own
    # factoring and prime test.
    for q_lo, q_hi in ((2**16 - 2**8 + 1, 2**16 + 2**8 - 1), (2**32 + 1, 2**32 + 63)):
        periods = _scan_periods(q_lo, q_hi)
        assert sorted(periods) == list(range(q_lo, q_hi + 1, 2))
        for q, period in periods.items():
            assert period == period_of(q).period, q
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    check = importlib.import_module("check")
    periods = _scan_periods(2**64 - 127, 2**64 - 1)
    assert len(periods) == 64 and 2**64 - 59 in periods
    for q, period in periods.items():
        assert check.period_ok(q, period), q


def test_scan_prime_streams_are_divisor_witnesses():
    report = scan_range(5, 2001)
    for rec in report.large_prime + report.small_prime:
        assert pow(2, rec.period, rec.q) == 1


def test_scan_sort_orders():
    report = scan_range(5, 2001)
    for tag in (STREAM_LARGE_PRIME, STREAM_SMALL_PRIME, STREAM_ODD_NONPRIME):
        keys = [(rec.period, rec.q) for rec in report.stream(tag)]
        assert keys == sorted(keys)
    even_qs = [rec.q for rec in report.even]
    assert even_qs == sorted(even_qs)


def test_scan_single_point():
    report = scan_range(4291434391, 4291434391)
    assert report.counts() == {
        STREAM_LARGE_PRIME: 1,
        STREAM_SMALL_PRIME: 0,
        STREAM_ODD_NONPRIME: 0,
        STREAM_EVEN: 0,
    }
    assert report.large_prime[0] == PeriodRecord(32, 4291434391, 143047813)


def test_scan_workers_deterministic(monkeypatch):
    monkeypatch.setattr(detector, "_POOL_MIN_S", 0)  # every q goes to the pool
    sequential = scan_range(5, 399, workers=1)
    for parallel in (scan_range(5, 399, workers=2),
                     scan_range(399, 5, workers=2)):
        for tag in STREAM_FILES:
            assert sequential.stream(tag) == parallel.stream(tag)


def test_scan_pool_takes_at_most_one_worker_per_core(inline_pool):
    sequential = scan_range(5, 399, workers=1)
    parallel = scan_range(5, 399, workers=10**6)
    assert inline_pool == [3]
    for tag in STREAM_FILES:
        assert sequential.stream(tag) == parallel.stream(tag)
    assert parallel.workers == 3
    scan_range(5, 5, workers=10**6)  # one q: computed in-process
    assert inline_pool == [3]


def test_scan_pool_only_from_the_price_threshold(inline_pool, monkeypatch):
    # With the threshold between the prices of 5..99 and 5..399, the first
    # scans in process and the second asks for its pool from the first q.
    low, high = detector._scan_seconds(5, 99), detector._scan_seconds(5, 399)
    assert low < high
    monkeypatch.setattr(detector, "_POOL_MIN_S", (low + high) / 2)
    report = scan_range(5, 99, workers=10**6)
    assert inline_pool == []
    assert report.workers == 1
    pooled = scan_range(5, 399, workers=10**6)
    assert inline_pool == [3]
    assert pooled.workers == 3
    sequential = scan_range(5, 399, workers=1)
    for tag in STREAM_FILES:
        assert pooled.stream(tag) == sequential.stream(tag)
    monkeypatch.setattr(detector, "_POOL_MIN_S", high)  # a price that reaches the threshold pools
    assert scan_range(399, 5, workers=2).workers == 2


def test_scan_endpoint_validation():
    with pytest.raises(ValueError):
        scan_range(4, 10)
    with pytest.raises(ValueError):
        scan_range(5, 10)
    with pytest.raises(ValueError):
        scan_range(3, 9)
    with pytest.raises(ValueError):
        scan_range(9, 2**64 + 1)
    with pytest.raises(ValueError):
        scan_range(5.0, 99)


def test_scan_refuses_fewer_than_one_worker(monkeypatch):
    def no_order(q):
        raise AssertionError("a period was computed before workers was checked")

    monkeypatch.setattr(detector, "_order", no_order)
    for workers in (0, -1, -2):
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            scan_range(5, 99, workers=workers)


def test_scan_caps_from_both_sides(monkeypatch):
    # 5..99 holds 48 odd q.  At a cap of 48 q it scans either way; 5..101
    # and 101..5 are refused before any period.
    def no_order(q):
        raise AssertionError("a period was computed before the caps were checked")

    assert len(scan_range(5, 99).even) < 48
    monkeypatch.setattr(detector, "_MAX_SCAN_QS", 48)
    for lo, hi in ((5, 99), (99, 5)):
        assert sum(scan_range(lo, hi).counts().values()) == 48
    monkeypatch.setattr(detector, "_order", no_order)
    for lo, hi in ((5, 101), (101, 5)):
        with pytest.raises(CapacityError, match=rf"the scan {lo}\.\.{hi} takes 49 odd q, over the cap of 48$"):
            scan_range(lo, hi)


def test_scan_caps_admit_the_documented_scans(monkeypatch):
    # The README's 5..99, the benchmark's windows of 64 odd q and one q just
    # below 2**64 lie under the q cap; a range up to 2**64 - 59 does not, and
    # fails at once.
    assert detector._MAX_SCAN_QS >= 64
    monkeypatch.setattr(detector, "_order", lambda q: pytest.fail("a period was computed"))
    for lo, hi in ((5, 2**64 - 59), (2**64 - 59, 5), (5, 5 + 2 * detector._MAX_SCAN_QS)):
        with pytest.raises(CapacityError, match="over the cap of"):
            scan_range(lo, hi)


def test_write_report(tmp_path):
    report = scan_range(5, 15)
    paths = write_report(report, tmp_path)
    assert set(paths) == set(STREAM_FILES)
    assert paths[STREAM_EVEN].name == "even_periods.tsv"
    assert paths[STREAM_EVEN].read_bytes() == (
        b"3\t5\t4\n4\t9\t6\n4\t11\t10\n4\t13\t12\n4\t15\t4\n"
    )
    assert paths[STREAM_SMALL_PRIME].read_bytes() == b"3\t7\t3\n"
    assert paths[STREAM_LARGE_PRIME].read_bytes() == b""
    assert paths[STREAM_ODD_NONPRIME].read_bytes() == b""


def test_write_report_leaves_no_stale_bytes(tmp_path):
    # Rewriting a directory leaves each file as a fresh write would, with no
    # bytes of a longer earlier report after the new rows.
    reused = tmp_path / "reused"
    reports = [scan_range(lo, hi) for lo, hi in [(5, 999), (5, 15), (5, 99)]]
    # odd-nonprime goes from rows to empty and back to rows.
    assert [bool(report.odd_nonprime) for report in reports] == [True, False, True]
    for i, report in enumerate(reports):
        paths = write_report(report, reused)
        fresh = write_report(report, tmp_path / f"fresh-{i}")
        for tag in STREAM_FILES:
            assert paths[tag].read_bytes() == fresh[tag].read_bytes(), (report.q_hi, tag)


def test_write_report_new_file_mode(tmp_path):
    # A new stream file gets the mode open(path, "w") would give it.
    old_umask = os.umask(0o027)
    try:
        paths = write_report(scan_range(5, 15), tmp_path / "out")
        with open(tmp_path / "plain", "w"):
            pass
    finally:
        os.umask(old_umask)
    assert stat.S_IMODE((tmp_path / "plain").stat().st_mode) == 0o640
    for path in paths.values():
        assert stat.S_IMODE(path.stat().st_mode) == 0o640, path.name


def test_write_report_survives_short_writes(monkeypatch, tmp_path):
    # os.write may write fewer bytes than it is given; the rest is written
    # again until the stream file holds every row.
    report = scan_range(5, 999)
    whole = write_report(report, tmp_path / "whole")
    calls = []
    real_write = os.write

    def short_write(fd, data):
        calls.append(fd)
        return real_write(fd, bytes(data[:5]))

    monkeypatch.setattr(detector.os, "write", short_write)
    short = write_report(report, tmp_path / "short")
    monkeypatch.undo()
    assert len(calls) > len(STREAM_FILES)
    for tag in STREAM_FILES:
        assert short[tag].read_bytes() == whole[tag].read_bytes(), tag


def test_write_report_closes_the_file_when_a_write_fails(monkeypatch, tmp_path):
    # The large-prime file of 5..99 is empty and written with no call; the
    # next one's write fails, and both descriptors are closed.
    report = scan_range(5, 99)
    opened, closed, written = [], [], []
    real_open, real_close = os.open, os.close

    def failing_write(fd, data):
        written.append(fd)
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(detector.os, "open", lambda *args: opened.append(real_open(*args)) or opened[-1])
    monkeypatch.setattr(detector.os, "close", lambda fd: closed.append(fd) or real_close(fd))
    monkeypatch.setattr(detector.os, "write", failing_write)
    with pytest.raises(OSError, match="No space left"):
        write_report(report, tmp_path)
    monkeypatch.undo()
    assert not report.large_prime and written == opened[1:] and closed == opened


def test_scan_across_the_table_edge(inline_pool, tmp_path):
    # 65501..65601 crosses 2**16, where factor and is_prime64 leave the
    # smallest-prime-factor table for trial division.  The files are the
    # same up and down, in process and through the pool, and every period
    # is the stepping loop's.
    files = {}
    for name, lo, hi, workers in (("up", 65501, 65601, 1), ("down", 65601, 65501, 1),
                                  ("pool", 65501, 65601, 2), ("pool-down", 65601, 65501, 2)):
        report = scan_range(lo, hi, workers=workers)
        paths = write_report(report, tmp_path / name)
        files[name] = {tag: paths[tag].read_bytes() for tag in STREAM_FILES}
    assert inline_pool == [2, 2]
    assert all(streams == files["up"] for streams in files.values())
    periods = {}
    for tag in STREAM_FILES:
        for line in files["up"][tag].decode().splitlines():
            segment, q, period = map(int, line.split("\t"))
            assert segment == segment_of(q)
            periods[q] = period
    assert sorted(periods) == list(range(65501, 65602, 2))
    for q, period in periods.items():
        assert period == period_naive(q).period, q


def _scan_seconds_per_q(q_lo, q_hi):
    """The time cap's estimate summed one q at a time."""
    def us(q):
        return next(us for bits, us in detector._SCAN_US_PER_Q if q.bit_length() <= bits)

    return sum(us(q) for q in range(q_lo, q_hi + 1, 2)) * 1e-6


def test_scan_seconds_sum_the_bands():
    bands = [bits for bits, _ in detector._SCAN_US_PER_Q]
    assert bands == sorted(bands) and bands[-1] == 64
    for lo, hi in ((5, 5), (5, 99), (65501, 65601), (2**20 - 101, 2**20 + 101), (2**24 - 101, 2**24 + 101),
                   (2**32 - 101, 2**32 + 101), (2**40 - 11, 2**40 + 11), (2**64 - 127, 2**64 - 1)):
        assert detector._scan_seconds(lo, hi) == pytest.approx(_scan_seconds_per_q(lo, hi)), (lo, hi)


def test_scan_time_cap_from_both_sides(monkeypatch):
    # At a cap equal to the estimate of 65501..65601, or of 51 q at 2**20, it
    # scans either way; one q more, priced at the 17-24-bit rate, is refused
    # before any period.
    def no_order(q):
        raise AssertionError("a period was computed before the time cap was checked")

    for first, last in ((65501, 65601), (2**20 - 49, 2**20 + 51)):
        cap = detector._scan_seconds(first, last)
        with monkeypatch.context() as patch:
            patch.setattr(detector, "_MAX_SCAN_S", cap)
            for lo, hi in ((first, last), (last, first)):
                assert sum(scan_range(lo, hi).counts().values()) == 51
            patch.setattr(detector, "_order", no_order)
            for lo, hi in ((first, last + 2), (last + 2, first)):
                with pytest.raises(CapacityError, match=rf"the scan {lo}\.\.{hi} takes about 0 s of order work, "
                                                        rf"over the cap of {cap} s$"):
                    scan_range(lo, hi)


def test_scan_time_cap_admits_the_documented_windows(monkeypatch):
    # The README's 5..99 and windows of 64 odd q at 2**16 and at 2**64 - 2**21
    # scan under the real cap; 2**22 odd q just below 2**64, under the q and
    # bytes caps, are refused by this one, at once.
    for lo in (5, 2**16 - 63, 2**64 - 2**21 + 1):
        hi = 99 if lo == 5 else lo + 126
        assert sum(scan_range(lo, hi).counts().values()) == (hi - lo) // 2 + 1
    monkeypatch.setattr(detector, "_order", lambda q: pytest.fail("a period was computed"))
    lo = 2**64 - 2**23 + 1
    assert len(range(lo, 2**64, 2)) == detector._MAX_SCAN_QS
    with pytest.raises(CapacityError, match=r"takes about 14261 s of order work, over the cap of 600 s$"):
        scan_range(lo, 2**64 - 1)


def test_find_divisor_examples():
    assert find_divisor_of_mersenne(11) == (23, 1)
    assert find_divisor_of_mersenne(29) == (233, 4)
    assert find_divisor_of_mersenne(13, l_max=100) is None
    # a 13-digit prime exponent, above the 4e12 capacity of is_prime's default table
    assert find_divisor_of_mersenne(4000000000039) == (10600000000103351, 1325)


def test_find_divisor_l_max_from_both_sides(monkeypatch):
    assert find_divisor_of_mersenne(11, l_max=1) == (23, 1)
    monkeypatch.setattr(detector, "is_prime64", lambda n: pytest.fail("a candidate was tried"))
    for l_max in (0, -3):
        with pytest.raises(ValueError, match=f"needs l_max >= 1, got {l_max}$"):
            find_divisor_of_mersenne(11, l_max=l_max)


def test_find_divisor_witnesses_are_sound():
    for n in (11, 23, 29, 37, 41, 43, 47, 53):
        q, l = find_divisor_of_mersenne(n)
        assert q == 1 + 2 * n * l
        assert (q - 1) % (2 * n) == 0
        assert q % 8 in (1, 7)
        assert pow(2, n, q) == 1
        assert ((1 << n) - 1) % q == 0


def test_find_divisor_none_for_mersenne_primes():
    for n in (3, 5, 7, 13, 17, 19, 31):
        assert find_divisor_of_mersenne(n, l_max=2000) is None


def test_find_divisor_never_returns_the_trivial_witness():
    # The candidate ladder reaches q = M(n) itself at l = (M(n)-1)/(2n); a
    # proper-divisor search must stop short of it even with no l_max in the way.
    assert find_divisor_of_mersenne(3) is None
    assert find_divisor_of_mersenne(13, l_max=10**6) is None


def test_find_divisor_validation():
    with pytest.raises(ValueError):
        find_divisor_of_mersenne(12)
    with pytest.raises(ValueError):
        find_divisor_of_mersenne(2)
    with pytest.raises(ValueError):
        find_divisor_of_mersenne(9)
    with pytest.raises(CapacityError):
        find_divisor_of_mersenne(2**64 + 13)


def test_divisor_search_cap_from_both_sides(monkeypatch):
    # The default l_max lies under the cap.  At a cap of 100, the searches of
    # test_find_divisor_examples run; l_max = 101 is refused before n is
    # even tested for primality.
    assert detector.DEFAULT_L_MAX <= detector._MAX_L_MAX
    monkeypatch.setattr(detector, "_MAX_L_MAX", 100)
    assert find_divisor_of_mersenne(13, l_max=100) is None
    assert find_divisor_of_mersenne(29, l_max=100) == (233, 4)
    monkeypatch.setattr(detector, "is_prime64", lambda n: pytest.fail("n was tested"))
    for n in (13, 61, 2**61 - 1):
        with pytest.raises(CapacityError, match="l_max = 101 candidates exceeds the cap of 100$"):
            find_divisor_of_mersenne(n, l_max=101)
