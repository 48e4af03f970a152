from math import isqrt
from time import perf_counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from mersenne_doubling import (
    CapacityError,
    candidate_count,
    iter_candidates,
    period_capped,
    period_of,
    run_census,
    sqrt_of_mersenne,
)
from mersenne_doubling import census
from mersenne_doubling.census import (
    REASON_MULTIPLE,
    REASON_NO_WITNESS,
    REASON_PROPER_DIVISOR,
    REASON_SELF_WITNESS,
)
from mersenne_doubling.cli import main
from mersenne_doubling.primality import factor


def test_sqrt_of_mersenne_examples():
    assert sqrt_of_mersenne(31) == 46340
    assert sqrt_of_mersenne(3) == 2
    assert sqrt_of_mersenne(61) == 1518500249


def test_sqrt_of_mersenne_is_exact():
    for n0 in (3, 5, 7, 13, 31, 61, 89, 127):
        root = sqrt_of_mersenne(n0)
        m = (1 << n0) - 1
        assert root * root <= m < (root + 1) * (root + 1)
    assert sqrt_of_mersenne(127) < 2**64


def test_sqrt_of_mersenne_validation():
    with pytest.raises(CapacityError):
        sqrt_of_mersenne(131)
    with pytest.raises(CapacityError):
        sqrt_of_mersenne(128)
    with pytest.raises(ValueError):
        sqrt_of_mersenne(9)
    with pytest.raises(ValueError):
        sqrt_of_mersenne(2)


def test_candidates_small():
    assert list(iter_candidates(7)) == [7, 9]
    assert candidate_count(7) == 2


def test_candidates_structure():
    qs = list(iter_candidates(31))
    assert len(qs) == candidate_count(31) == 11584
    assert qs == sorted(qs)
    assert all(q % 8 in (1, 7) for q in qs)
    assert all(7 <= q <= 46340 for q in qs)
    assert qs[0] == 7 and qs[-1] == 46337


def test_census_n0_7():
    census = run_census(7)
    assert census.sqrt_bound == 11
    assert census.counts == {3: 1, 4: 0, 5: 0, 6: 1, 7: 0}
    assert census.verdicts == {3: True, 5: True, 7: True}
    assert census.reasons == {
        3: REASON_SELF_WITNESS,
        5: REASON_NO_WITNESS,
        7: REASON_NO_WITNESS,
    }


def test_census_n0_31_counts():
    census = run_census(31)
    expected = {3: 1, 5: 1, 7: 1, 11: 3, 13: 1, 17: 0, 19: 0, 23: 1, 29: 3, 31: 0}
    assert {j: census.counts[j] for j in expected} == expected


def test_census_n0_31_verdicts():
    census = run_census(31)
    assert census.verdicts == {
        3: True, 5: True, 7: True, 11: False, 13: True,
        17: True, 19: True, 23: False, 29: False, 31: True,
    }
    assert census.reasons[23] == REASON_PROPER_DIVISOR
    assert census.reasons[11] == REASON_MULTIPLE
    assert census.reasons[17] == REASON_NO_WITNESS
    assert census.reasons[13] == REASON_SELF_WITNESS


def test_census_counts_match_capped_periods():
    # The vector tally must agree with scalar capped-period calls.
    for n0 in (7, 13, 17):
        census = run_census(n0)
        expected = {j: 0 for j in range(3, n0 + 1)}
        for q in iter_candidates(n0):
            result = period_capped(q, n0)
            if result is not None and result.period >= 3:
                expected[result.period] += 1
        assert census.counts == expected


def test_census_self_witness_invariant():
    census = run_census(31)
    for j in census.verdicts:
        if (1 << j) - 1 <= census.sqrt_bound:
            assert census.counts[j] >= 1
            assert period_of((1 << j) - 1).period == j


def test_census_filter_loses_no_divisor():
    # Tallying over all odd q (not only +-1 mod 8) must not change any verdict.
    n0 = 31
    census = run_census(n0)
    bound = census.sqrt_bound
    unfiltered = {j: 0 for j in range(3, n0 + 1)}
    for q in range(3, bound + 1, 2):
        result = period_capped(q, n0)
        if result is not None and result.period >= 3:
            unfiltered[result.period] += 1
    for j, verdict in census.verdicts.items():
        vj = unfiltered[j]
        self_in = (1 << j) - 1 <= bound
        assert verdict == (vj == 0 or (vj == 1 and self_in))
        assert vj == census.counts[j]  # prime j: every divisor is +-1 mod 8


def test_census_workers_deterministic():
    # n0=31 and n0=41 stay in-process; n0=47 goes to the pool.
    for n0 in (31, 41, 47):
        assert run_census(n0, workers=1) == run_census(n0, workers=2)


def test_census_pool_takes_at_most_one_worker_per_core(inline_pool, monkeypatch):
    monkeypatch.setattr(census, "_POOL_MIN_LANES", 1)
    assert run_census(31, workers=10**6) == run_census(31, workers=1)
    assert inline_pool == [3]


def test_census_counts_match_unskipped_lanes():
    # Every lane of the oracle doubles from r = 1 through all n0 steps, so
    # the census's start at 2**k is checked against steps it never takes.
    for n0 in (41, 43):
        qs = np.arange(3, sqrt_of_mersenne(n0) + 1, 2, dtype=np.uint64)
        qs = qs[(qs % 8 == 1) | (qs % 8 == 7)]
        tally = oracles.first_returns_capped(qs, n0)
        assert run_census(n0).counts == {j: int(tally[j]) for j in range(3, n0 + 1)}, n0


def _divisors(n):
    divisors = [1]
    for p, e in factor(n).items():
        divisors = [d * p**k for d in divisors for k in range(e + 1)]
    return divisors


def _has_order(q, n):
    """Whether 2 has order exactly n mod a divisor q of 2**n - 1."""
    return all(pow(2, n // p, q) != 1 for p in factor(n))


def _tally_by_divisors(n0):
    """v(j) from the divisors of M(j), j = 3..n0 <= 63, by the kernel's factor.

    A candidate has order j exactly when it divides M(j) and not M(j/p) for
    any prime p | j.
    """
    bound = sqrt_of_mersenne(n0)
    return {j: sum(1 for d in _divisors((1 << j) - 1) if 7 <= d <= bound and d % 8 in (1, 7) and _has_order(d, j))
            for j in range(3, n0 + 1)}


@pytest.mark.parametrize("n0", [31, 41, 43, 47, 53, pytest.param(61, marks=pytest.mark.slow)])
def test_census_counts_match_divisors_of_mersenne_numbers(n0):
    assert run_census(n0, workers=2).counts == _tally_by_divisors(n0)


def test_census_refuses_a_bound_of_2_63_up_front(capsys):
    # No lane width steps q >= 2**63, and n0 = 127 is the one prime exponent
    # whose candidate bound reaches it (about 3e18 candidates): both the
    # library and the CLI fail at once, before any lane runs.
    start = perf_counter()
    for workers in (1, 2):
        with pytest.raises(CapacityError):
            run_census(127, workers=workers)
    assert main(["mersenne-test", "127"]) == 3
    assert perf_counter() - start < 1
    assert capsys.readouterr().out == ""
    with pytest.raises(CapacityError):
        census._census_block(2**63 + 1, 8, 127)


def _capped_tally(qs, n0):
    expected = [0] * (n0 + 1)
    for q in qs:
        result = period_capped(q, n0)
        if result is not None:
            expected[result.period] += 1
    return expected


def test_census_chunk_and_dtype_boundaries(monkeypatch):
    n0_31 = run_census(31)
    monkeypatch.setattr(census, "_LANE_CHUNK", 7)
    assert run_census(31) == n0_31
    # Each chunk of 7 starts from its own 2**k, k = floor(log2(smallest q)).
    for n0 in (17, 31):
        counts = run_census(n0).counts
        assert counts == {j: c for j, c in enumerate(_capped_tally(iter_candidates(n0), n0)) if j >= 3}
    # Windows of 40 lanes, in chunks of 7: the top lanes under the bound of
    # n0=61 (uint32, 2r above 2**31) and of n0=67 (uint64), the top uint32
    # lanes (last q = 2**32 - 1, period 32), and windows around q with
    # period <= n0 a million lanes below those bounds.
    windows = [
        (61, sqrt_of_mersenne(61) - 8 * 39),
        (67, 2**32 - 1 - 8 * 39),
        (61, 1509346321 - 8 * 20),  # period 45
        (61, 1509176295 - 8 * 20),  # period 60
        (67, sqrt_of_mersenne(67) - 8 * 39),
        (67, 12135901505 - 8 * 20),  # period 60
        # The lane width follows the chunk's largest q.  Lanes 14..20 of the
        # first window end exactly at q = 2**31 - 1 (period 31) and run as
        # uint32 jumps of one; lanes 21..27, above 2**31, as uint64 jumps of
        # three.  In the second, lanes 14..20 straddle 2**31 with
        # q = 2**31 + 1 (period 62) inside and run as uint64.
        (61, 2**31 - 1 - 8 * 20),
        (67, 2**31 + 1 - 8 * 17),
    ]
    for n0, first in windows:
        qs = range(first, first + 8 * 40, 8)
        assert list(census._census_block(first, 40, n0)) == _capped_tally(qs, n0), (n0, first)


def _width(q_hi):
    """Lane width in bits of a chunk whose largest q is q_hi."""
    return 32 if q_hi < 2**31 else 64


def _jump(q_lo, q_hi):
    """(reduction, doublings per pass) of a chunk from q_lo to q_hi."""
    k = q_lo.bit_length() - 1
    estimate = min(k, 31 - q_hi.bit_length())
    if estimate >= census._ESTIMATE_JUMP:
        return "estimate", estimate
    return "subtract", min(census._JUMP, k, _width(q_hi) - q_hi.bit_length())


# Every jump length of either reduction: the estimate's J = min(k, 31 -
# bitlen(largest q)) is at most 15, with k = 15 and q below 2**16.
_JUMP_LENGTHS = {("subtract", jump) for jump in range(1, census._JUMP + 1)} | {
    ("estimate", jump) for jump in range(census._ESTIMATE_JUMP, 16)}


def test_census_block_matches_unskipped_lanes_across_jump_edges(monkeypatch):
    # Windows of 40 lanes in chunks of 7 against lanes that take every step
    # from r = 1.  Windows from q = 7 and 9, where k bounds the jump; across
    # 2**e for e = 8 .. 16 and 25, where the estimate's J runs 15 .. 5;
    # across 2**26, where one call hands over from estimate jumps of 5 to
    # subtract jumps of 3; across 2**29 and 2**30, where the subtract jump
    # goes 3 -> 2 -> 1 in uint32; across 2**31, where one call runs uint32
    # jumps of one and uint64 jumps of three; across 2**32; across 2**61 and
    # 2**62, where it goes 3 -> 2 -> 1 in uint64.
    monkeypatch.setattr(census, "_LANE_CHUNK", 7)
    windows = [(31, 7), (31, 9)]
    windows += [(61, 2**e + 1 - 8 * 20) for e in (*range(8, 17), 25, 26)]
    windows += [(67, 2**e + 1 - 8 * 20) for e in (29, 30, 31, 32)]
    windows += [(127, 2**e + 1 - 8 * 20) for e in (61, 62)]
    jumps = set()
    for n0, first in windows:
        qs = [first + 8 * i for i in range(40)]
        chunks = {(_width(qs[min(i + 6, 39)]), *_jump(qs[i], qs[min(i + 6, 39)])) for i in range(0, 40, 7)}
        if first < 2**26 < qs[-1]:
            assert {(32, "estimate", 5), (32, "subtract", 3)} <= chunks
        if first < 2**31 < qs[-1]:
            assert {(32, "subtract", 1), (64, "subtract", 3)} <= chunks
        jumps |= {(reduction, jump) for _, reduction, jump in chunks}
        assert list(census._census_block(first, 40, n0)) == list(oracles.first_returns_capped(qs, n0)), (n0, first)
    assert jumps == _JUMP_LENGTHS


@st.composite
def _census_windows(draw):
    """(first q, lanes, n0): first q = +-1 (mod 8) of any bit length, every lane below 2**63."""
    count = draw(st.integers(1, 40))
    bits = draw(st.integers(3, 63))
    q = draw(st.integers(2 ** (bits - 1), min(2**bits, 2**63 - 8 * count) - 1))
    return max(7, q - q % 8 + draw(st.sampled_from((-1, 1)))), count, draw(st.integers(3, 127))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_census_windows())
def test_census_block_matches_unskipped_lanes(window):
    # Both lane widths, both reductions and every jump length, in chunks of 7.
    first, count, n0 = window
    qs = [first + 8 * i for i in range(count)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(census, "_LANE_CHUNK", 7)
        assert list(census._census_block(first, count, n0)) == list(oracles.first_returns_capped(qs, n0))


def test_census_block_counts_each_step_of_a_jump():
    # One lane of a q of small order j, a divisor of 2**j - 1 that divides
    # no 2**(j/p) - 1, capped at n0 = j .. j + max(J, _JUMP) - 1: its first
    # return falls on every step of a full jump and of every shorter final
    # jump, of both reductions, and is counted at j once.  A jump of 15
    # needs k = 15, q below 2**16, so its returns fall on step
    # (j - 16) % 15 + 1: step 2 from j = 92 (q = 39057), step 11 from
    # j = 56 (q = 55709), and step 8 from no q of order below 188, so that
    # step is never reached.
    lanes = [(q, j) for j in range(10, 48) for q in _divisors((1 << j) - 1) if q > 8 and _has_order(q, j)]
    seen, jumps = set(), set()
    for q, j in [*lanes, (39057, 92), (55709, 56)]:
        reduction, jump = _jump(q, q)
        jumps.add((reduction, jump))
        k = q.bit_length() - 1
        start = k + (j - k - 1) // jump * jump  # steps done when the jump holding j begins
        for n0 in range(j, j + max(jump, census._JUMP)):
            seen.add((reduction, j - start, min(jump, n0 - start)))
            v = census._census_block(q, 1, n0)
            assert v[j] == 1 and v.sum() == 1, (q, n0)
    assert jumps == _JUMP_LENGTHS
    longest = {"subtract": census._JUMP, "estimate": 15}
    every_step = {(reduction, step, length) for reduction in longest
                  for length in range(1, longest[reduction] + 1) for step in range(1, length + 1)}
    assert seen == every_step - {("estimate", 8, 15)}


def test_census_estimate_passes_ending_next_to_a_multiple_of_q():
    # A pass that ends on residue 1 or q - 1 has s = m*q + 1 or (m+1)*q - 1,
    # where s / q lies nearest an integer and the estimate's d must still be
    # m or m - 1.  Lanes q | 2**x - 1 of order x and q | 2**x + 1 of order
    # 2x, with x a pass end k + i*J, for every estimate length J, both at
    # the smallest k = J (q below 2**(J+1)) and the largest k = 30 - J (q
    # below 2**(31-J)).  Each counts once at its order, if that is <= n0.
    # No divisor of 2**x + 1, x < 64, ends a pass of 8 from k = 8 on q - 1;
    # 449 does at x = 112.
    n0, lengths = 113, range(census._ESTIMATE_JUMP, 16)
    lanes = {(449, 224, 112, 8, 8)}  # (q, order, pass end x, J, k)
    for jump in lengths:
        for k in {jump, 30 - jump}:
            for x in range(k + jump, 64, jump):
                for order, m in ((x, (1 << x) - 1), (2 * x, (1 << x) + 1)):
                    lanes |= {(q, order, x, jump, k) for q in _divisors(m)
                              if q.bit_length() == k + 1 and _has_order(q, order)}
    assert {(order == x, jump, k) for _, order, x, jump, k in lanes} == {
        (ends_on_1, jump, k) for jump in lengths for k in (jump, 30 - jump) for ends_on_1 in (True, False)}
    for q, order, x, jump, k in sorted(lanes):
        assert pow(2, x, q) == (1 if order == x else q - 1) and (x - k) % jump == 0
        assert _jump(q, q) == ("estimate", jump)
        assert list(census._census_block(q, 1, n0)) == [int(j == order) for j in range(n0 + 1)], q


def test_census_block_counts_an_order_once():
    # 2**13 - 1 returns to 1 at steps 13, 26 and 39 in an estimate chunk,
    # alone and among 20 other lanes; 2**29 - 1 at steps 29 and 58 in a
    # subtract chunk.  Only the first return counts.
    for first, count, n0 in ((2**13 - 1, 1, 40), (2**13 - 1 - 8 * 10, 21, 40), (2**29 - 1, 1, 61)):
        qs = [first + 8 * i for i in range(count)]
        assert _jump(qs[0], qs[-1])[0] == ("estimate" if first < 2**26 else "subtract")
        v = census._census_block(first, count, n0)
        assert list(v) == list(oracles.first_returns_capped(qs, n0))
        assert v[13 if first < 2**26 else 29] == 1


def test_census_multiple_witnesses_mean_composite():
    census = run_census(31)
    for j, count in census.counts.items():
        if count >= 2 and j in census.verdicts:
            assert census.verdicts[j] is False


def test_census_validation():
    with pytest.raises(ValueError):
        run_census(9)
    with pytest.raises(CapacityError):
        run_census(131)


@pytest.mark.slow
def test_census_67_finds_coles_divisor():
    # M(67) = 193707721 * 761838257287.  Only Cole's factor lies under the
    # bound 12148001999, so it is the lone witness and 67 is composite.
    census = run_census(67, workers=2)
    assert census.counts[67] == 1
    assert census.reasons[67] == REASON_PROPER_DIVISOR
    assert census.verdicts[67] is False
    smaller = run_census(61, workers=2).verdicts
    assert {j: census.verdicts[j] for j in smaller} == smaller
