import math
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
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
    _order,
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


def test_histogram_stream_backend_matches_loop():
    # The wrap-bit stream against the exact-integer stepping oracle.
    rng = random.Random(0x57E)
    qs = [*range(5, 502, 2), *(rng.randrange(1 << 16, 1 << 21) | 1 for _ in range(20))]
    for q in qs:
        times = oracles.flying_times_exact(q)
        expected = {t: times.count(t) for t in sorted(set(times))}
        n = sum(times)
        arr = _flight_counts_stream(q, n)
        assert {t: int(arr[t]) for t in range(1, 65) if arr[t]} == expected
        assert _count_reductions(q, n) == len(times)


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
