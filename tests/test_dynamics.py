import math
import random

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
    _flight_counts_stream,
    _lane_bits,
    _order,
    _wrap_blocks,
)
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
    # minimality over the divisors of the period.
    for q in (4291783591, 4398046511101):
        result = period_of(q)
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


def test_gap_table_matches_definition():
    # gap[t, w] counts the adjacent set bits of w that lie t apart.
    expected = np.zeros((16, 65536), dtype=np.int64)
    for w in range(65536):
        bits = [i for i in range(16) if w >> i & 1]
        for a, b in zip(bits, bits[1:]):
            expected[b - a, w] += 1
    assert np.array_equal(dynamics._gap_table(), expected)


def _column(positions, rows):
    """rows 16-bit words with a set bit at each position, first doubling in the top bit."""
    words = np.zeros(rows, dtype=np.uint16)
    for p in positions:
        words[p // 16] |= 1 << (15 - p % 16)
    return words


def test_read_flights_guard():
    # Hand-made words of 6 rows, as one lane (int32 positions, as for the
    # bigint blocks) and as three (int16, as for the lanes).  Lane 0 flies 64
    # from bit 16 across three zero words, as the orbit mod 2**64 - 1 does,
    # and the flights hold whether the rows come as one chunk or as 5 and 1.
    # Starting it at bit 15 makes a flight of 65, which must raise both inside
    # a chunk and in the carry out of the first 5 rows, 65 after that bit.
    others = [(-1, [0, 15, 16, 40, 90]), (-64, [0, 3, 4, 5, 6, 7, 31, 95])]
    for n_lanes, dtype in ((1, np.int32), (3, np.int16)):
        for flight in (64, 65):
            lanes = [(-3, [80 - flight, 80, 81, 95]), *others][:n_lanes]
            words = np.stack([_column(positions, 6) for _, positions in lanes], axis=1)
            carry = np.array([c for c, _ in lanes], dtype=dtype)
            if flight == 65:
                for chunks in ([words], [words[:5]]):
                    with pytest.raises(ArithmeticError, match="above 64"):
                        dynamics._read_flights(2**64 - 1, chunks, carry, np.zeros(65, dtype=np.int64),
                                               np.zeros(65536, dtype=np.int64))
                continue
            for chunks in ([words], [words[:5], words[5:]]):
                counts = np.zeros(65, dtype=np.int64)
                word_hist = np.zeros(65536, dtype=np.int64)
                out = dynamics._read_flights(2**64 - 1, chunks, carry, counts, word_hist)
                assert out.tolist() == [positions[-1] - 16 * 6 for _, positions in lanes]
                assert np.array_equal(word_hist, np.bincount(words.ravel(), minlength=65536))
                counts[1:16] += dynamics._gap_table()[1:] @ word_hist
                expected = np.zeros(65, dtype=np.int64)
                for c, positions in lanes:
                    np.add.at(expected, np.diff([c, *positions]), 1)
                assert np.array_equal(counts, expected), (n_lanes, len(chunks))


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


def test_lanes_match_bigint_at_width_edges(monkeypatch):
    # The largest q below and the smallest above 2**32 and 2**48, and q with
    # orders in the thousands just beside 2**32 and below 2**48.  Any multiple
    # of the order closes the orbit, so n takes a few thousand doublings.
    edges = {
        2**32 - 1: 32, 4294967261: 32, 4294967191: 32,
        2**32 + 1: 16, 4294967439: 16, 4294968093: 16,
        281472829358079: 16, 2**48 - 1: 16, 2**48 + 1: 0,
    }
    for q, k in edges.items():
        m = _order(q)
        n = m * -(-4000 // m)
        for lanes, chunk in ((1, 1), (2, 3), (5, 2)):
            _shrink_lanes(monkeypatch, lanes, chunk)
            assert _lane_bits(q, n) == k
            _assert_lanes_match(monkeypatch, q, n)


def _wrap_positions(q, n):
    bits = 0
    for length, quotient in _wrap_blocks(q, n):
        bits = bits << length | quotient
    return [i for i, bit in enumerate(format(bits, f"0{n}b")) if bit == "1"]


def test_lanes_carry_long_flights_across_joins(monkeypatch):
    # Flights longer than 16 leave zero 16-bit words.  Each q here has such
    # flights, and for each, some lane count and chunk length puts one across
    # a lane join and one across a chunk join inside a lane.
    for q in (2**32 - 1, 2**32 + 1, 2**48 - 1):
        m = _order(q)
        n = m * -(-3000 // m)
        positions = _wrap_positions(q, n)
        long_flights = [(a, b) for a, b in zip(positions, positions[1:]) if b - a > 16]
        straddles = {"lane": 0, "chunk": 0}
        for lanes, chunk in ((2, 1), (3, 2), (5, 1), (7, 3)):
            _shrink_lanes(monkeypatch, lanes, chunk)
            k = _lane_bits(q, n)
            steps = n // k // lanes
            joins = {
                "lane": [i * steps * k for i in range(1, lanes + 1)],
                "chunk": [(i * steps + c) * k for i in range(lanes) for c in range(chunk, steps, chunk)],
            }
            for kind, at in joins.items():
                straddles[kind] += any(a < j <= b for a, b in long_flights for j in at)
            _assert_lanes_match(monkeypatch, q, n)
        assert straddles["lane"] and straddles["chunk"], q


def test_lanes_at_the_cutoff():
    # The real lane constants, for n just below and just above the cutoff.
    # The stream of j * order doublings is the cycle j times over, so its
    # steps and flights are j times those of one cycle, which stays on the
    # bigint stream.
    for q, k in ((131213, 32), (131213 * 65537, 16)):  # orders 131212, 1049696
        m = _order(q)
        count, hist = _count_reductions(q, m), _flight_counts_stream(q, m)
        assert not _lane_bits(q, m)
        below = m * ((dynamics._LANE_MIN_DOUBLINGS - 1) // m)
        for n in (below, below + m):
            assert _lane_bits(q, n) == (k if n >= dynamics._LANE_MIN_DOUBLINGS else 0)
            assert _count_reductions(q, n) == n // m * count
            assert np.array_equal(_flight_counts_stream(q, n), n // m * hist)


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
