import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from mersenne_doubling import dynamics
from mersenne_doubling import (
    FlyingTimeHistogram,
    floor_log2,
    flying_time_histogram,
    is_complete_wrt_flying_times,
    period_capped,
    period_hybrid,
    period_naive,
    period_of,
    poincare_step_naive,
    poincare_step_predictive,
)
from mersenne_doubling.dynamics import (
    _count_reductions,
    _flight_counts_split,
    _flight_counts_stream,
    _gap_table,
    _lane_bits,
    _order,
    _plan,
    _split_levels,
    _wrap_blocks,
)
from mersenne_doubling.errors import CapacityError
from mersenne_doubling.primality import factor, is_prime64


# --- floor_log2 -----------------------------------------------------------

def test_floor_log2_examples():
    assert floor_log2(1) == 0
    assert floor_log2(255) == 7
    assert floor_log2(2**42) == 42
    assert floor_log2(2**42 - 1) == 41


def test_floor_log2_rejects_zero_and_oversize():
    with pytest.raises(ValueError):
        floor_log2(0)
    with pytest.raises(ValueError):
        floor_log2(2**64)


def test_floor_log2_backends_agree_power_neighbourhoods():
    for k in range(1, 64):
        for u in (2**k - 1, 2**k, 2**k + 1):
            if 1 <= u < 2**64:
                t = floor_log2(u)
                assert 2**t <= u < 2**(t + 1)


def test_floor_log2_backends_agree_random_64bit():
    rng = random.Random(0xF100)
    for _ in range(20000):
        u = rng.randrange(1, 2**64)
        t = floor_log2(u)
        assert 2**t <= u < 2**(t + 1)


# --- doubling and return-map steps ----------------------------------------

def test_poincare_step_naive_examples():
    assert poincare_step_naive(1, 5) == (3, 3)
    assert poincare_step_naive(3, 5) == (1, 1)
    assert poincare_step_naive(1, 13) == (3, 4)


def test_poincare_step_predictive_examples():
    assert poincare_step_predictive(5, 13) == (7, 2)
    assert poincare_step_predictive(1, 4398046511103).flying_time == 42


def test_poincare_steps_match_exact_oracle():
    for q in range(5, 302, 2):
        for r in range(1, q):
            expected = oracles.poincare_step_exact(r, q)
            assert poincare_step_naive(r, q) == expected
            assert poincare_step_predictive(r, q) == expected


def test_poincare_step_near_type_limit():
    q = 2**64 - 3
    rng = random.Random(0x5EED)
    for _ in range(200):
        r = rng.randrange(1, q)
        expected = oracles.poincare_step_exact(r, q)
        assert poincare_step_naive(r, q) == expected
        assert poincare_step_predictive(r, q) == expected


def test_first_step_flying_time_law():
    for q in range(5, 3002, 2):
        assert poincare_step_naive(1, q).flying_time == floor_log2(q) + 1
    rng = random.Random(0xAB)
    for _ in range(500):
        q = rng.randrange(5, 2**64) | 1
        assert poincare_step_predictive(1, q).flying_time == floor_log2(q) + 1


def test_step_preconditions():
    with pytest.raises(ValueError):
        poincare_step_naive(1, 3)
    with pytest.raises(ValueError):
        poincare_step_predictive(0, 7)
    with pytest.raises(ValueError):
        poincare_step_naive(7, 7)


# --- periods ---------------------------------------------------------------

def test_period_naive_examples():
    assert period_naive(5) == (5, 4, 2)
    assert period_naive(7) == (7, 3, 1)
    assert period_naive(13) == (13, 12, 6)


def test_period_naive_preconditions():
    for bad in (3, 4, 1, -3, 2**64 + 1):
        with pytest.raises(ValueError):
            period_naive(bad)


def test_period_hybrid_examples():
    assert period_hybrid(5).period == 4
    assert period_hybrid(4398046511103) == (4398046511103, 42, 1)


def test_period_hybrid_preconditions():
    with pytest.raises(ValueError):
        period_hybrid(13, kappa=4)  # 2**4 > 13
    with pytest.raises(ValueError):
        period_hybrid(6)
    with pytest.raises(ValueError):
        period_hybrid(9, kappa=0)


def test_period_of_examples():
    assert period_of(3) == (3, 2, 1)
    assert period_of(9).period == oracles.order_by_doubling(9) == 6
    assert period_of(5).period == 4


def test_period_of_rejects_even():
    with pytest.raises(ValueError):
        period_of(6)


def test_periods_agree_small_range():
    for q in range(5, 2002, 2):
        expected = oracles.order_by_doubling(q)
        naive = period_naive(q)
        hybrid = period_hybrid(q)
        assert naive.period == hybrid.period == expected
        assert naive.steps == hybrid.steps
        assert period_of(q) == naive


def test_hybrid_agrees_across_kappas_sampled():
    rng = random.Random(0x1234)
    qs = [rng.randrange(5, 100000) | 1 for _ in range(60)]
    for q in qs:
        expected = period_naive(q)
        for kappa in range(1, 13):
            if (1 << kappa) <= q:
                assert period_hybrid(q, kappa) == expected


@pytest.mark.slow
def test_hybrid_agrees_across_kappas_full_sweep():
    # Every odd q in [5, 1e5) and every usable kappa in 1..12.
    for q in range(5, 100000, 2):
        expected = period_naive(q)
        for kappa in range(1, 13):
            if (1 << kappa) <= q:
                assert period_hybrid(q, kappa) == expected


def test_engine_matches_stepping():
    # period_capped runs the order search and the wrap-bit stream for every q.
    for q in range(5, 602, 2):
        assert period_of(q) == period_capped(q, q - 1) == period_naive(q)
    rng = random.Random(0xE2)
    for _ in range(40):
        q = rng.randrange(1 << 16, 1 << 22) | 1
        assert period_of(q) == period_naive(q)


def test_routing_boundary_matches_oracles():
    # period_of and flying_time_histogram take one path for every q; this
    # window around 2**16 (the name is kept so the test id stays stable) holds
    # both to the stepping and flying-time oracles.
    for q in range(2**16 - 2**9 + 1, 2**16 + 2**9, 2):
        assert period_of(q) == period_naive(q)
        times = oracles.flying_times_exact(q)
        expected = {t: times.count(t) for t in sorted(set(times))}
        assert flying_time_histogram(q).counts == expected


def test_engine_table_rows():
    # Larger moduli where only the block-doubling backend is practical; the
    # periods are pinned by the divisor law 2**period = 1 (mod q) plus
    # minimality over the divisors of the period.  Each row's period and
    # steps are pinned too; the last four are the README's period rows.
    rows = {
        4291783591: (143059453, 71529552),
        4398046511101: (1938935328, 969555949),
        4398046511103: (42, 1),
        4398046511097: (5511336480, 2755666029),
        4291434391: (143047813, 71523699),
    }
    for q, (period, steps) in rows.items():
        result = period_of(q)
        assert result == (q, period, steps)
        assert pow(2, result.period, q) == 1
        for p in (2, 3, 5, 7, 11, 13):
            if result.period % p == 0:
                assert pow(2, result.period // p, q) != 1


def test_mersenne_angle_law():
    for n in range(2, 31):
        result = period_of(2**n - 1)
        assert result.period == n
        assert result.steps == 1


def test_divisor_law():
    for q in range(3, 5001, 2):
        assert pow(2, period_of(q).period, q) == 1


def test_multiples_law():
    for q in range(3, 1001, 2):
        period = period_of(q).period
        for mult in range(1, 5):
            assert pow(2, mult * period, q) == 1


def test_order_minimality_small():
    for q in range(3, 2002, 2):
        period = period_of(q).period
        assert oracles.order_by_doubling(q) == period


# --- capped periods --------------------------------------------------------

def test_period_capped_examples():
    assert period_capped(23, 31) == (23, 11, 4)
    assert period_capped(13, 5) is None
    assert period_capped(7, 31) == (7, 3, 1)


def test_period_capped_edges():
    assert period_capped(3, 2) == (3, 2, 1)
    assert period_capped(3, 1) is None
    assert period_capped(13, 12) == period_of(13)
    assert period_capped(13, 11) is None
    with pytest.raises(ValueError):
        period_capped(13, 0)


def test_period_capped_engine_paths():
    assert period_capped(4398046511103, 42) == (4398046511103, 42, 1)
    assert period_capped(4398046511103, 41) is None
    assert period_capped(4398046511101, 10**9) is None
    assert period_capped(4291783591, 143059453).period == 143059453
    assert period_capped(2**64 - 59, 2**63) is None  # order 2**64 - 60


def test_period_capped_matches_full_period():
    rng = random.Random(0xCA9)
    for _ in range(300):
        q = rng.randrange(5, 1 << 18) | 1
        full = period_of(q)
        cap = rng.randrange(1, 2 * full.period)
        capped = period_capped(q, cap)
        if full.period <= cap:
            assert capped == full
        else:
            assert capped is None


# --- flying-time histograms -------------------------------------------------

def test_histogram_examples():
    assert flying_time_histogram(13).counts == {1: 3, 2: 1, 3: 1, 4: 1}
    assert flying_time_histogram(5).counts == {1: 1, 3: 1}


def test_histogram_matches_exact_oracle():
    for q in range(5, 1502, 2):
        times = oracles.flying_times_exact(q)
        expected = {t: times.count(t) for t in sorted(set(times))}
        hist = flying_time_histogram(q)
        assert hist.counts == expected
        assert hist.period == sum(times)
        assert hist.steps == len(times)


def test_histogram_accounting_identity():
    for q in range(5, 1002, 2):
        hist = flying_time_histogram(q)
        result = period_of(q)
        assert hist.period == result.period
        assert hist.steps == result.steps


def test_histogram_stream_backend_matches_loop(monkeypatch):
    # The wrap-bit stream against the exact-integer stepping oracle: first as
    # the real constants route each q (the bigint blocks alone), then in 2
    # lanes of 2-step chunks, where every orbit of 64 or more doublings takes
    # the lanes and most of them cross chunk joins.
    rng = random.Random(0x57E)
    qs = [*range(5, 502, 2), *(rng.randrange(1 << 16, 1 << 21) | 1 for _ in range(20))]
    for shrunk in (False, True):
        if shrunk:
            _shrink_lanes(monkeypatch, lanes=2, chunk=2)
        in_lanes = 0
        for q in qs:
            times = oracles.flying_times_exact(q)
            expected = {t: times.count(t) for t in sorted(set(times))}
            n = sum(times)
            in_lanes += bool(_lane_bits(q, n))
            arr = _flight_counts_stream(q, n)
            assert {t: int(arr[t]) for t in range(1, 65) if arr[t]} == expected, (q, shrunk)
            assert _count_reductions(q, n) == len(times), (q, shrunk)
        assert (in_lanes > len(qs) // 3) if shrunk else not in_lanes


def test_gap_fold_over_occupied_bins_matches_oracle():
    # A stream of at most 16 * _FEW_WORDS doublings folds the gap table over
    # the bins its words occupy, a longer one over all 65536.  Orbits of
    # 32748 and 32770 doublings lie just under and just over that line; both
    # hold about 2048 distinct words.
    for q, short in ((32749, True), (32771, False)):
        times = oracles.flying_times_exact(q)
        assert (sum(times) <= 16 * dynamics._FEW_WORDS) == short
        assert np.array_equal(_flight_counts_stream(q, sum(times)), np.bincount(times, minlength=65)), q


def test_gap_table_matches_definition():
    # gap[t, w] counts the adjacent set bits of w that lie t apart.
    expected = np.zeros((16, 65536), dtype=np.int64)
    for w in range(65536):
        bits = [i for i in range(16) if w >> i & 1]
        for a, b in zip(bits, bits[1:]):
            expected[b - a, w] += 1
    assert np.array_equal(dynamics._gap_table(), expected)


def _column(positions, rows, w):
    """rows w-bit words in uint16 with a set bit at each position, first doubling in the top of the w bits."""
    words = np.zeros(rows, dtype=np.uint16)
    for p in positions:
        words[p // w] |= 1 << (w - 1 - p % w)
    return words


def test_read_flights_guard():
    # Hand-made words of w = 16, 15 and 12 bits, 96 positions or a few more
    # (6, 7 and 8 rows), as one lane (int32 positions, as for the bigint
    # blocks) and as three (int16, as for the lanes).  Lane 0 flies 64 into
    # the last row across zero words, as the orbit mod 2**64 - 1 does, and
    # the flights hold whether the rows come as one chunk or as all but the
    # last row and then the last.  Starting it one doubling earlier makes a
    # flight of 65, which must raise both inside a chunk and in the carry out
    # of the first chunk, 65 after that bit.
    others = [(-1, [0, 15, 16, 40, 90]), (-64, [0, 3, 4, 5, 6, 7, 31, 95])]
    for w in (16, 15, 12):
        rows = -(-96 // w)
        end = (rows - 1) * w  # the first position of the last row
        for n_lanes, dtype in ((1, np.int32), (3, np.int16)):
            for flight in (64, 65):
                lanes = [(-3, [end - flight, end, end + 1, rows * w - 1]), *others][:n_lanes]
                words = np.stack([_column(positions, rows, w) for _, positions in lanes], axis=1)
                carry = np.array([c for c, _ in lanes], dtype=dtype)
                if flight == 65:
                    for chunks in ([words], [words[:-1]]):
                        with pytest.raises(ArithmeticError, match="above 64"):
                            dynamics._read_flights(2**64 - 1, w, chunks, carry, np.zeros(65, dtype=np.int64),
                                                   np.zeros(65536, dtype=np.int64))
                    continue
                for chunks in ([words], [words[:-1], words[-1:]]):
                    counts = np.zeros(65, dtype=np.int64)
                    word_hist = np.zeros(65536, dtype=np.int64)
                    out = dynamics._read_flights(2**64 - 1, w, chunks, carry, counts, word_hist)
                    assert out.tolist() == [positions[-1] - w * rows for _, positions in lanes]
                    assert np.array_equal(word_hist, np.bincount(words.ravel(), minlength=65536))
                    assert not word_hist[1 << w:].any()
                    counts[1:16] += dynamics._gap_table()[1:] @ word_hist
                    expected = np.zeros(65, dtype=np.int64)
                    for c, positions in lanes:
                        np.add.at(expected, np.diff([c, *positions]), 1)
                    assert np.array_equal(counts, expected), (w, n_lanes, len(chunks))


def test_flights_above_2_48_match_oracle(monkeypatch):
    # q >= 2**48 take the bigint stream at every n.  Their flights of 49 to
    # 64 doublings leave runs of zero words, and blocks of 16, 48 and 80
    # doublings put block joins inside them, some blocks holding no wrap.
    qs = (2**64 - 1, 2**61 - 1, 2**56 + 1, 2**49 - 1, (2**32 + 1) * (2**16 + 1), 2**48 + 1)
    blocks = (16, 48, 80, dynamics._STREAM_BLOCK)
    for q in qs:
        times = oracles.flying_times_exact(q)
        m = sum(times)
        assert max(times) > 48
        for block in blocks:
            monkeypatch.setattr(dynamics, "_STREAM_BLOCK", block)
            for j in (1, 3):
                expected = np.zeros(65, dtype=np.int64)
                for t in times:
                    expected[t] += j
                assert not _lane_bits(q, j * m)
                assert _count_reductions(q, j * m) == j * len(times), (q, block, j)
                assert np.array_equal(_flight_counts_stream(q, j * m), expected), (q, block, j)


# --- lane digits against the bigint digits ---------------------------------
# Both digit sources go through the same flight reader, so these tests compare
# the digits; flight correctness is held to oracles.flying_times_exact above.

def _bigint_stream(monkeypatch, q, n):
    """Steps and flight histogram from the bigint blocks alone: the digits the lanes are compared with."""
    with monkeypatch.context() as patch:
        patch.setattr(dynamics, "_LANE_MIN_DOUBLINGS", 1 << 64)
        assert not _lane_bits(q, n)
        return _count_reductions(q, n), _flight_counts_stream(q, n)


def _shrink_lanes(monkeypatch, lanes, chunk):
    monkeypatch.setattr(dynamics, "_LANES", lanes)
    monkeypatch.setattr(dynamics, "_LANE_CHUNK", chunk)
    monkeypatch.setattr(dynamics, "_LANE_MIN_DOUBLINGS", 0)


def _assert_lanes_match(monkeypatch, q, n):
    count, hist = _bigint_stream(monkeypatch, q, n)
    assert _count_reductions(q, n) == count, q
    assert np.array_equal(_flight_counts_stream(q, n), hist), q


def test_lanes_match_bigint_on_stream_ranges(monkeypatch):
    # The q of test_histogram_stream_backend_matches_loop, in 2 lanes of
    # 2-step chunks, so that every orbit of 64 or more doublings takes the
    # lanes and most of them cross chunk joins; the digits, read by one
    # reader, must give the bigint blocks' steps and flights.
    _shrink_lanes(monkeypatch, lanes=2, chunk=2)
    rng = random.Random(0x57E)
    qs = [*range(5, 502, 2), *(rng.randrange(1 << 16, 1 << 21) | 1 for _ in range(20))]
    in_lanes = 0
    for q in qs:
        n = _order(q)
        in_lanes += _lane_bits(q, n) == 32
        _assert_lanes_match(monkeypatch, q, n)
    assert in_lanes > len(qs) // 3


# Digit widths (count, histogram) by bit length of q: the widest k with
# r << k inside uint64 for the count; for the histogram, the widest even k
# of 24 or more, read as two words of k / 2 bits, else one word of 16.
_WIDTHS = {
    **dict.fromkeys(range(2, 33), (32, 32)),
    **{b: (64 - b, (64 - b) & ~1) for b in range(33, 41)},
    **{b: (64 - b, 16) for b in range(41, 49)},
    **dict.fromkeys(range(49, 65), (0, 0)),
}


def test_lanes_match_bigint_at_width_edges(monkeypatch):
    # The smallest and the largest odd q of each bit length from 31 to 49,
    # and q with orders in the thousands just beside 2**32 and below 2**48.
    # Any multiple of the order closes the orbit, so n takes a few thousand
    # doublings.
    edges = [4294967261, 4294967191, 4294967439, 4294968093, 281472829358079]
    edges += [q for b in range(31, 50) for q in (2**(b - 1) + 1, 2**b - 1)]
    for q in edges:
        m = _order(q)
        n = m * -(-4000 // m)
        for lanes, chunk in ((1, 1), (2, 3), (5, 2)):
            _shrink_lanes(monkeypatch, lanes, chunk)
            assert (_lane_bits(q, n), _lane_bits(q, n, True)) == _WIDTHS[q.bit_length()], q
            _assert_lanes_match(monkeypatch, q, n)


def test_lanes_match_bigint_at_every_width(monkeypatch):
    # One q of each bit length from 31 to 48 with the orbit of a 20-bit prime
    # p, times primes whose orders divide p's: their digits are as irregular
    # as the prime's, where the edges above repeat a short cycle.  Each width
    # of both rules runs in 61 lanes of 3-step chunks.
    p = 1048609  # prime; the order of 2 is 524304 = 2**4 * 3**2 * 11 * 331
    n = _order(p)
    small = [r for r in range(3, 1 << 12, 2) if is_prime64(r) and n % _order(r) == 0]
    qs = {}
    for i, a in enumerate(small):
        for b in [1, *small[i + 1:]]:
            for c in [1, *small[i + 1:]]:
                if c == 1 or c > b > 1:
                    qs.setdefault((p * a * b * c).bit_length(), p * a * b * c)
    assert set(range(31, 49)) <= set(qs)
    _shrink_lanes(monkeypatch, lanes=61, chunk=3)
    widths = set()
    for bits in range(31, 49):
        q = qs[bits]
        assert _order(q) == n
        widths.add((_lane_bits(q, n), _lane_bits(q, n, True)))
        _assert_lanes_match(monkeypatch, q, n)
    assert widths == {_WIDTHS[b] for b in range(31, 49)}


def _wrap_positions(q, n):
    bits = 0
    for length, quotient in _wrap_blocks(q, n):
        bits = bits << length | quotient
    return [i for i, bit in enumerate(format(bits, f"0{n}b")) if bit == "1"]


def test_lanes_carry_long_flights_across_joins(monkeypatch):
    # Flights longer than a word leave zero words: 16-bit words below 2**32
    # and from 41 bits, 15-bit words at 33 and 34 bits, 12-bit words at 39
    # and 40.  Each q here has such flights, and for each, some lane count
    # and chunk length of the histogram's lanes puts one across a lane join
    # and one across a chunk join inside a lane.
    words = set()
    for q in (2**32 - 1, 2**32 + 1, 2**34 - 1, 2**38 + 1, 2**40 - 1, 2**48 - 1):
        m = _order(q)
        n = m * -(-3000 // m)
        positions = _wrap_positions(q, n)
        straddles = {"lane": 0, "chunk": 0}
        for lanes, chunk in ((2, 1), (3, 2), (5, 1), (7, 3)):
            _shrink_lanes(monkeypatch, lanes, chunk)
            k = _lane_bits(q, n, True)
            w = dynamics._word_bits(k)
            words.add(w)
            long_flights = [(a, b) for a, b in zip(positions, positions[1:]) if b - a > w]
            steps = n // k // lanes
            joins = {
                "lane": [i * steps * k for i in range(1, lanes + 1)],
                "chunk": [(i * steps + c) * k for i in range(lanes) for c in range(chunk, steps, chunk)],
            }
            for kind, at in joins.items():
                straddles[kind] += any(a < j <= b for a, b in long_flights for j in at)
            _assert_lanes_match(monkeypatch, q, n)
        assert straddles["lane"] and straddles["chunk"], q
    assert words == {16, 15, 12}


def test_lanes_at_the_cutoff():
    # The real lane constants, for n just below and just above the cutoff.
    # The stream of j * order doublings is the cycle j times over, so its
    # steps and flights are j times those of one cycle, which stays on the
    # bigint stream.
    for q, k in ((131213, (32, 32)), (4302784771, (31, 30))):  # primes of orders 131212, 265686
        m = _order(q)
        count, hist = _count_reductions(q, m), _flight_counts_stream(q, m)
        assert not _lane_bits(q, m)
        below = m * ((dynamics._LANE_MIN_DOUBLINGS - 1) // m)
        for n in (below, below + m):
            assert (_lane_bits(q, n), _lane_bits(q, n, True)) == (k if n >= dynamics._LANE_MIN_DOUBLINGS else (0, 0))
            assert _count_reductions(q, n) == n // m * count
            assert np.array_equal(_flight_counts_stream(q, n), n // m * hist)


def test_lane_starts_are_powers_of_two(monkeypatch):
    # The Python products and the vector ladder after them against pow, at
    # the count's and the histogram's widths beside the width edges (words of
    # 16, 15 and 12 bits), with the real lane count and with lane counts that
    # are not powers of two: all products (5, 7), one vector step of 1
    # residue (64) and a partial step (200).
    n = 3 * (1 << 20) + 5
    for lanes in (dynamics._LANES, 5, 7, 64, 200):
        monkeypatch.setattr(dynamics, "_LANES", lanes)
        for q, widths in ((2**32 - 5, (32, 32)), (2**32 + 15, (31, 30)), (2**40 - 87, (24, 24)),
                          (2**40 + 15, (23, 16)), (2**48 - 59, (16, 16))):
            for histogram, k in zip((False, True), widths):
                width, starts, _, _ = dynamics._digit_sources(q, n, histogram)
                stride = n // k // lanes * k
                assert width == k
                assert starts.tolist() == [pow(2, i * stride, q) for i in range(lanes + 1)], (q, lanes)


def test_lane_count_matches_bigint_popcount():
    for q, k in ((4291434391, 32), (8599306381, 30)):
        n = _order(q)
        assert _lane_bits(q, n) == k
        assert _count_reductions(q, n) == sum(quotient.bit_count() for _, quotient in _wrap_blocks(q, n)), q


def test_streams_raise_when_the_orbit_does_not_close():
    # 4194371 is prime with order 4194370, above the lane cutoff.
    for q, lanes in ((13, False), (4194371, True)):
        m = _order(q)
        for n in (m - 1, m + 1):
            assert bool(_lane_bits(q, n)) == lanes
            with pytest.raises(ArithmeticError):
                _count_reductions(q, n)
            with pytest.raises(ArithmeticError):
                _flight_counts_stream(q, n)


def test_histogram_zero_counts_omitted():
    hist = flying_time_histogram(11)
    assert 3 not in hist.counts
    assert set(hist.counts) == {1, 2, 4}


def test_completeness_examples():
    assert is_complete_wrt_flying_times(13) is True
    assert is_complete_wrt_flying_times(11) is False


def test_completeness_matches_definition():
    for q in range(5, 1002, 2):
        times = set(oracles.flying_times_exact(q))
        s = floor_log2(q) + 1
        assert is_complete_wrt_flying_times(q) == (set(range(1, s + 1)) <= times)


def test_histogram_type_properties():
    hist = FlyingTimeHistogram(13, {1: 3, 2: 1, 3: 1, 4: 1})
    assert hist.period == 12
    assert hist.steps == 6


# --- order of 2 -------------------------------------------------------------

def test_order_matches_oracle():
    rng = random.Random(0x0D)
    qs = [*range(3, 1 << 12, 2), *(rng.randrange(5, 1 << 17) | 1 for _ in range(200))]
    for q in qs:
        assert _order(q) == oracles.order_by_doubling(q)


def test_order_matches_vector_oracle_on_scan_small_slice():
    # Every odd q that the scan benchmark's small windows draw from.
    qs = np.arange(57345, 65536, 2)
    assert [_order(int(q)) for q in qs] == oracles.orders_by_doubling_vector(qs).tolist()


def _next_prime(n: int) -> int:
    while not is_prime64(n):
        n += 1
    return n


_U32_PRIMES = st.integers(1 << 31, (1 << 32) - 1000).map(_next_prime)
_ODD_Q64 = st.one_of(
    st.integers(1, (1 << 63) - 1).map(lambda h: 2 * h + 1),
    st.integers(1, 1 << 20).map(lambda k: (1 << 64) - 2 * k + 1),
    st.tuples(_U32_PRIMES, _U32_PRIMES).map(lambda pq: pq[0] * pq[1]),
)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_ODD_Q64)
def test_order_certificate_64bit(q):
    n = _order(q)
    assert pow(2, n, q) == 1
    primes = factor(n)
    assert math.prod(p**e for p, e in primes.items()) == n
    assert all(is_prime64(p) for p in primes)
    for p in primes:
        assert pow(2, n // p, q) != 1


# --- composite q: the split and the plan -------------------------------------

def _coprime_splits(q):
    """Every (a, b, order of 2 mod a, order mod b) with a * b = q, gcd(a, b) = 1, a, b > 1."""
    primes = factor(q)
    powers = [p**e for p, e in primes.items()]
    for mask in range(1, (1 << len(powers)) - 1):
        a = math.prod(m for i, m in enumerate(powers) if mask >> i & 1)
        yield a, q // a, _order(a), _order(q // a)


def _assert_split_matches_stream(q, splits):
    n = _order(q)
    steps, flights = _count_reductions(q, n), _flight_counts_stream(q, n)
    for split in splits:
        assert n - _split_levels(q, split, 1)[1] == steps, (q, split)
        assert np.array_equal(_flight_counts_split(q, split), flights), (q, split)


def test_split_matches_stream_on_every_coprime_split(monkeypatch):
    # Both orders of every split, the short side first and last; then again
    # with the short side searched in blocks of 7 and the long side sorted in
    # blocks of 4 residues (of g when g > 4), so that blocks join on both.
    qs = [q for q in range(9, 3001, 2) if len(factor(q)) > 1]
    splits = {q: list(_coprime_splits(q)) for q in qs}
    assert len(qs) == 1044 and sum(map(len, splits.values())) == 3208
    gcds = [math.gcd(n_a, n_b) for s in splits.values() for _, _, n_a, n_b in s]
    sides = [n_b for s in splits.values() for _, _, _, n_b in s]
    joined = [g for g, n_b in zip(gcds, sides) if n_b > max(1, 4 // g) * g]  # more than one long-side block
    assert len(joined) == 2260 and sum(g > 1 for g in joined) == 1690 and sum(g > 4 for g in joined) == 250
    for block, long_block in ((dynamics._SPLIT_BLOCK, dynamics._SPLIT_LONG_BLOCK), (7, 4)):
        monkeypatch.setattr(dynamics, "_SPLIT_BLOCK", block)
        monkeypatch.setattr(dynamics, "_SPLIT_LONG_BLOCK", long_block)
        for q in qs:
            _assert_split_matches_stream(q, splits[q])


def _small_order_parts():
    """Odd prime powers whose order of 2 is small: the primes of 2**k - 1 for k <= 60, and five higher powers."""
    primes = {p for k in range(2, 61) for p in factor((1 << k) - 1)}
    return sorted(primes) + [3**5, 7**2, 5**3, 11**2, 13**2]


def test_split_matches_stream_on_random_composites(monkeypatch):
    # Seeded composites of 30-47 bits from prime powers of small order and
    # random primes below 2**18, so that the stream oracle stays short
    # (n <= 2**22).  The first ones hold 3**5 and 7**2.  Short sides longer
    # than 512 residues are searched in blocks, long sides longer than 4096
    # sorted in blocks.
    rng = random.Random(0x5B17)
    pool = _small_order_parts()
    qs = []
    while len(qs) < 40:
        parts = [3**5, 7**2][:2 - len(qs) // 5] if len(qs) < 10 else []
        parts += rng.sample(pool, rng.randint(1, 3))
        if rng.random() < 0.5:
            parts.append(_next_prime(rng.randrange(1 << 8, 1 << 18)))
        q = math.prod(parts)
        coprime = all(math.gcd(a, b) == 1 for i, a in enumerate(parts) for b in parts[:i])
        if coprime and 30 <= q.bit_length() <= 47 and _order(q) <= 1 << 22:
            qs.append(q)
    splits = {q: [s for s in _coprime_splits(q) if s[2] <= s[3]] for q in qs}  # the short side first
    assert any(math.gcd(n_a, n_b) > 1 for s in splits.values() for _, _, n_a, n_b in s)
    assert sum(n_a > 512 for s in splits.values() for _, _, n_a, _ in s) >= 5
    assert sum(n_b > 4096 for s in splits.values() for _, _, _, n_b in s) >= 5
    assert sum(q % 3**5 == 0 for q in qs) >= 5 and sum(q % 7**2 == 0 for q in qs) >= 5
    monkeypatch.setattr(dynamics, "_SPLIT_BLOCK", 512)
    monkeypatch.setattr(dynamics, "_SPLIT_LONG_BLOCK", 4096)
    for q in qs:
        _assert_split_matches_stream(q, splits[q])


def test_public_paths_take_the_split_and_match_the_stream(monkeypatch):
    # With every orbit long enough to split and the stream priced far above
    # the split, the plan's split through the public functions, against the
    # stream.
    monkeypatch.setattr(dynamics, "_SPLIT_MIN_DOUBLINGS", 0)
    monkeypatch.setattr(dynamics, "_STREAM_NS", dict.fromkeys(("bigint", "lane_step", "lane_doubling"), (1e9, 1e9)))
    split = 0
    for q in [*range(1001, 1400, 2), 3**5 * 7**2 * 31, 1433959207]:
        n = _order(q)
        for histogram in (False, True):
            split += _plan(q, n, histogram).path == "split"
        assert period_of(q) == (q, n, _count_reductions(q, n)), q
        flights = _flight_counts_stream(q, n)
        assert flying_time_histogram(q).counts == {t: int(c) for t, c in enumerate(flights) if c}, q
    assert split >= 100


def test_split_matches_stream_on_long_orbits():
    # Composite q whose orbits of about 1.4e8 doublings the plan splits: both
    # calls, or the histogram alone, in 2 to 6 long-side blocks, where the
    # count streams.  Those are the last four: a small factor times a prime
    # whose order is n / 92 .. n / 267, or (16365973057, 34 bits, orders 630
    # and 437908) n / 315 in 30-bit lanes.
    for q in (2877926213, 1158788783, 16172454177, 11971098199, 1433959207,
              1928914067, 4224669655, 1337563717, 16365973057):
        n = _order(q)
        assert _plan(q, n, True).path == "split", q
        assert _plan(q, n, False).path == ("lanes" if q in (1928914067, 4224669655, 1337563717, 16365973057)
                                           else "split"), q
        assert period_of(q) == (q, n, _count_reductions(q, n)), q
        flights = _flight_counts_stream(q, n)
        assert flying_time_histogram(q).counts == {t: int(c) for t, c in enumerate(flights) if c}, q


def test_plan_paths():
    # Stream: a prime, a prime power, splits whose long side is nearly the
    # whole orbit (3 * a prime, 3 * 13 * a prime), orbits under
    # _SPLIT_MIN_DOUBLINGS, and q of 2**48 or more (the _mulmod bound; n
    # passed in, the plan reads no more).
    p = 65519  # order 32759: p * p has order 65519 * 32759
    stream = {4291434391: "lanes", p * p: "lanes", 3 * 4291434391: "lanes", 5560062339: "lanes",
              4194371 * 3: "lanes", 4398046511103: "bigint", 13: "bigint"}
    for q, path in stream.items():
        n = _order(q)
        for histogram in (False, True):
            assert _plan(q, n, histogram) == (n, path, ()), q
    assert _order(p * p) >= dynamics._SPLIT_MIN_DOUBLINGS
    assert _plan(2**48 + 21, 1 << 30, True) == (1 << 30, "bigint", ())
    # Split, short side first: 2877926213 into orders 2039 and 70348 for the
    # count and 1636 and 87677 for the histogram; 1928914067 (orders 198 and
    # 735665, three long-side blocks) for its histogram only.
    for q, histograms in ((2877926213, (False, True)), (4398046511101, (False, True)), (1928914067, (True,))):
        n = _order(q)
        for histogram in histograms:
            plan = _plan(q, n, histogram, factor(q))
            a, b, n_a, n_b = plan.split
            assert plan.path == "split" and a * b == q and math.gcd(a, b) == 1
            assert (_order(a), _order(b)) == (n_a, n_b) and n_a <= n_b
            assert math.lcm(n_a, n_b) == n and n_a <= dynamics._SPLIT_MAX_SHORT and n_b <= dynamics._SPLIT_MAX_LONG
    assert _plan(2877926213, _order(2877926213), False).split[2:] == (2039, 70348)
    assert _plan(2877926213, _order(2877926213), True).split[2:] == (1636, 87677)
    assert _plan(1928914067, _order(1928914067), True).split == (437, 4413991, 198, 735665)


def test_split_caps_from_both_sides(monkeypatch):
    # 1928914067 = 19 * 23 * 4413991: the histogram's split is 437 | 4413991
    # (orders 198 and 735665); every other split has a long side of order
    # 11 * 735665 or more, and costs more than the stream.
    q = 1928914067
    n = _order(q)
    for short, long, path in ((198, 735665, "split"), (197, 735665, "lanes"), (198, 735664, "lanes")):
        monkeypatch.setattr(dynamics, "_SPLIT_MAX_SHORT", short)
        monkeypatch.setattr(dynamics, "_SPLIT_MAX_LONG", long)
        assert _plan(q, n, True).path == path, (short, long)
        assert flying_time_histogram(q).period == n
    # At both caps the model prices a split at about 450 s: no longer than
    # the slow tier's longest stream (row 9a, 455 s).
    call_ns, long_ns, short_ns, search_ns = dynamics._SPLIT_NS
    full = dynamics._SPLIT_MAX_LONG // dynamics._SPLIT_LONG_BLOCK * dynamics._SPLIT_MAX_SHORT
    levels = math.log2(dynamics._SPLIT_LONG_BLOCK) + 2
    assert (long_ns * dynamics._SPLIT_MAX_LONG + (short_ns + search_ns * levels) * full) * 1e-9 < 500


def test_split_cost_counts_each_long_block(monkeypatch):
    # Each long-side block searches the whole short side again: in blocks of
    # 2**10 residues, the 719 blocks of 1928914067's long side price its
    # split above the stream.
    q = 1928914067
    n = _order(q)
    assert _plan(q, n, True).path == "split"
    monkeypatch.setattr(dynamics, "_SPLIT_LONG_BLOCK", 1 << 10)
    assert _plan(q, n, True).path == "lanes"


def test_split_peak_memory_stays_under_the_stream():
    # One long-side block is refilled, so the split of a long side of 3 or 6
    # blocks holds no more at once than the histogram stream.
    _gap_table()  # built once per process: left out of both peaks
    for q in (1928914067, 4224669655):
        n = _order(q)
        peaks = []
        for count in (lambda: _flight_counts_stream(q, n), lambda: _flight_counts_split(q, _plan(q, n, True).split)):
            tracemalloc.start()
            try:
                count()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0], (q, peaks)


def test_stream_cap_from_both_sides(monkeypatch):
    # The default cap admits the slow tier's rows 9a and 9b.
    assert 2199023254451 <= dynamics._MAX_STREAM_DOUBLINGS and 1099511611060 <= dynamics._MAX_STREAM_DOUBLINGS
    q, n = 4194371, 4194370  # prime
    monkeypatch.setattr(dynamics, "_MAX_STREAM_DOUBLINGS", n)
    assert period_of(q).period == n and period_capped(q, n).period == n
    assert flying_time_histogram(q).period == n
    monkeypatch.setattr(dynamics, "_MAX_STREAM_DOUBLINGS", n - 1)
    for call in (period_of, flying_time_histogram, is_complete_wrt_flying_times, lambda q: period_capped(q, n)):
        with pytest.raises(CapacityError, match=rf"n = {n}\b.*cap of {n - 1} doublings"):
            call(q)
    assert period_capped(q, n - 1) is None  # over the caller's cap: None, before any plan
    # The split streams nothing, and the reference loops are not gated.
    monkeypatch.setattr(dynamics, "_MAX_STREAM_DOUBLINGS", 1)
    assert period_of(2877926213) == (2877926213, 143439572, 71719849)
    assert flying_time_histogram(2877926213).period == 143439572
    assert period_naive(131213).period == period_hybrid(131213).period == 131212
