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
    # n0=31 and n0=47 stay in-process; n0=53 goes to the pool.
    for n0 in (31, 47, 53):
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


@pytest.mark.parametrize("n0", [31, 41, 43, 47, 53, 61])
def test_census_counts_match_divisors_of_mersenne_numbers(n0):
    assert run_census(n0, workers=2).counts == oracles.tally_by_divisors(n0)


def test_census_block_matches_divisors_in_uint64_windows():
    # Windows of 2**20 uint64 lanes, where the float64 estimate runs with
    # J = 31, 33 and 36, against the divisors of M(j) inside them: from 2**31 + 1
    # (2**31 + 1 itself, order 62, and at n0 = 73 a divisor of order 72) and
    # from 2**33 + 1 (orders 44 and 66), at n0 = 67 and 73, and the window
    # ending at the largest candidate of n0 = 73, which holds no divisor.
    # No census reaches q >= 2**37 (the lane-step cap refuses n0 >= 79), so
    # J = 36 is the longest that run_census runs.
    lanes = 2**20
    top = sqrt_of_mersenne(73)
    windows = [(n0, first) for n0 in (67, 73) for first in (2**31 + 1, 2**33 + 1)] + [(73, top - 8 * (lanes - 1))]
    found = 0
    for n0, first in windows:
        expected = oracles.first_returns_by_divisors(range(first, first + 8 * lanes, 8), n0)
        assert list(census._census_block(first, lanes, n0)) == list(expected), (n0, first)
        found += expected.sum()
    assert found == 7 and top % 8 == 7


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
    # n0=61 (uint32, where s = r << 19 wraps) and of n0=67 (uint64), the
    # lanes just under 2**32 (last q = 2**32 - 1, period 32), and windows
    # around q with period <= n0 a million lanes below those bounds.
    windows = [
        (61, sqrt_of_mersenne(61) - 8 * 39),
        (67, 2**32 - 1 - 8 * 39),
        (61, 1509346321 - 8 * 20),  # period 45
        (61, 1509176295 - 8 * 20),  # period 60
        (67, sqrt_of_mersenne(67) - 8 * 39),
        (67, 12135901505 - 8 * 20),  # period 60
        # The lane width follows the chunk's largest q.  Lanes 14..20 of the
        # first window end exactly at q = 2**31 - 1 (period 31) and run as
        # float32 jumps of 19; lanes 21..27, above 2**31, as float64 jumps
        # of 31.  In the second, the cut at 2**31 ends a chunk of three
        # lanes at 2**31 - 7 and starts one at q = 2**31 + 1 (period 62).
        (61, 2**31 - 1 - 8 * 20),
        (67, 2**31 + 1 - 8 * 17),
    ]
    for n0, first in windows:
        qs = range(first, first + 8 * 40, 8)
        assert list(census._census_block(first, 40, n0)) == _capped_tally(qs, n0), (n0, first)


# k of the lowest chunk: every lane's q is at least the floor.
_FLOOR_K = census._LANE_FLOOR.bit_length() - 1


def _jump(q_lo, q_hi):
    """(float type, doublings per pass) of the estimate in a chunk from q_lo to q_hi."""
    k = q_lo.bit_length() - 1
    return ("float32", min(k, 19)) if q_hi < 2**31 else ("float64", min(k, 44))


# Every jump length that the window test below reaches: the float32
# estimate's J = min(k, 19) takes every length from k = 5 at the floor;
# float64 chunks have k >= 31.
_JUMP_LENGTHS = {("float32", jump) for jump in range(_FLOOR_K, 20)} | {("float64", jump) for jump in (31, 32, 43, 44)}


@pytest.fixture
def chunks(monkeypatch):
    """The (smallest q, lanes) of every chunk that _census_block runs, in order."""
    seen = []
    run = census._census_chunk

    def spy(q_lo, n, *args):
        seen.append((q_lo, n))
        run(q_lo, n, *args)

    monkeypatch.setattr(census, "_census_chunk", spy)
    return seen


def test_census_block_cuts_chunks_at_powers_of_two(chunks):
    # Below 2**16 each stream is one chunk, from its first q above the floor
    # of 32: 39 after 7, 15, 23, 31, and 33 after 9, 17, 25.  From 2**16 up
    # every power of two ends a chunk, and from 2**18 up an octave holds
    # whole chunks.
    census._census_block(7, 2**13, 31)
    census._census_block(2**16 + 1 - 8 * 20, 40, 61)
    census._census_block(2**18 + 1, 3 * 2**15, 61)
    assert chunks == [(39, 2**13 - 4), (2**16 - 159, 20), (2**16 + 1, 20),
                      (2**18 + 1, 2**15), (2**19 + 1, 2**15), (2**19 + 2**18 + 1, 2**15)]
    chunks.clear()
    assert run_census(47).counts == oracles.tally_by_divisors(47)
    bottom = [(q_lo, n) for q_lo, n in chunks if q_lo < 2**16]
    assert bottom == [(39, 2**13 - 4), (33, 2**13 - 4)]
    for q_lo, n in chunks:
        k = q_lo.bit_length() - 1
        assert q_lo < 2**16 or q_lo + 8 * (n - 1) < 2 ** (k + 1)
        assert q_lo < 2**18 or n == census._LANE_CHUNK or q_lo + 8 * n > sqrt_of_mersenne(47)


def test_census_block_matches_unskipped_lanes_across_jump_edges(monkeypatch, chunks):
    # Windows of 40 lanes in chunks of 7 against lanes that take every step
    # from r = 1.  Windows from q = 7 and 9, whose q below the floor of 32
    # are counted by their order and whose lanes, from 39 and 33, start at
    # k = 5, where k bounds the jump and chunks span octaves; across 2**e
    # for e = 8 .. 20, where the float32 estimate's J = min(k, 19) runs
    # 7 .. 19; across 2**25, 2**26, 2**29 and 2**30, all on J = 19; across
    # 2**31, where one call hands float32 jumps of 19 over to float64 jumps
    # of 31; across 2**32, 2**44 and 2**45, where J = min(k, 44) reaches 44;
    # across 2**61 and 2**62.
    monkeypatch.setattr(census, "_LANE_CHUNK", 7)
    windows = [(31, 7), (31, 9)]
    windows += [(61, 2**e + 1 - 8 * 20) for e in (*range(8, 21), 25, 26)]
    windows += [(67, 2**e + 1 - 8 * 20) for e in (29, 30, 31, 32)]
    windows += [(127, 2**e + 1 - 8 * 20) for e in (44, 45, 61, 62)]
    jumps = set()
    for n0, first in windows:
        qs = [first + 8 * i for i in range(40)]
        chunks.clear()
        assert list(census._census_block(first, 40, n0)) == list(oracles.first_returns_capped(qs, n0)), (n0, first)
        forms = {_jump(q_lo, q_lo + 8 * (n - 1)) for q_lo, n in chunks}
        if first < 2**26 < qs[-1]:
            assert forms == {("float32", 19)}
        if first < 2**31 < qs[-1]:
            assert forms == {("float32", 19), ("float64", 31)}
        jumps |= forms
    assert jumps == _JUMP_LENGTHS


def test_census_chunk_leaves_every_residue_reduced():
    # After a chunk every lane that returned sits on q = 7 at residue 3, 6
    # or 5, and every other lane at 2**n0 mod q: no pass left t outside
    # 0 .. 2q - 1.  Without its bias, about one estimate in a thousand
    # would round past floor(2**J * r / q) in the float64 chunks.
    cases = [(2**13 - 1 - 8 * 10, 21, 40), (2**29 - 1 - 8 * 10, 21, 127), (2**31 + 1, 21, 127),
             (2**30 + 1, 4000, 127), (2**44 + 1, 4000, 127), (2**56 + 7, 4000, 113)]
    for q_lo, n, n0 in cases:
        dtype = census._lane_dtype(q_lo + 8 * (n - 1))
        buffers = [np.empty(n, dtype=dtype) for _ in range(5)]
        v = np.zeros(n0 + 1, dtype=np.int64)
        census._census_chunk(q_lo, n, n0, buffers, np.arange(0, 8 * n, 8, dtype=np.uint32), v)
        qs, r = buffers[0].tolist(), buffers[1].tolist()
        parked = [i for i in range(n) if qs[i] == 7]
        assert len(parked) == v.sum() and (len(parked) >= 1 or n == 4000), q_lo
        assert {r[i] for i in parked} <= {3, 5, 6}, q_lo
        assert all(r[i] == pow(2, n0, q_lo + 8 * i) for i in range(n) if qs[i] != 7), q_lo


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
    # Both lane widths, every jump length and the q below the floor of 32, in chunks of 7.
    first, count, n0 = window
    qs = [first + 8 * i for i in range(count)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(census, "_LANE_CHUNK", 7)
        assert list(census._census_block(first, count, n0)) == list(oracles.first_returns_capped(qs, n0))


def test_census_block_counts_each_step_of_a_jump():
    # One lane of a q of small order j, a divisor of 2**j - 1 that divides
    # no 2**(j/p) - 1, capped at n0 = j .. j + J - 1: its first return falls
    # on every step of a full jump and of every shorter final jump, and is
    # counted at j once.  The orders j = 10 .. 47 of the q from the floor of
    # 32 up reach every step of the float32 estimate.  A float64 chunk has
    # k >= 31, so they return at most 16 doublings into a pass there: they
    # reach its steps 1 .. 14 only, at lengths 1 .. 44.
    lanes = [(q, j) for j in range(10, 48) for q in oracles.divisors((1 << j) - 1)
             if q >= census._LANE_FLOOR and oracles.has_order(q, j)]
    seen, jumps = set(), set()
    for q, j in lanes:
        form, jump = _jump(q, q)
        jumps.add((form, jump))
        k = q.bit_length() - 1
        start = k + (j - k - 1) // jump * jump  # steps done when the jump holding j begins
        for n0 in range(j, j + jump):
            seen.add((form, j - start, min(jump, n0 - start)))
            v = census._census_block(q, 1, n0)
            assert v[j] == 1 and v.sum() == 1, (q, n0)
    assert jumps == _JUMP_LENGTHS | {("float64", jump) for jump in range(31, 45)}
    assert {step for step in seen if step[0] == "float32"} == {
        ("float32", step, length) for length in range(1, 20) for step in range(1, length + 1)}
    assert {step for form, step, _ in seen if form == "float64"} == set(range(1, 15))
    assert {length for form, _, length in seen if form == "float64"} == set(range(1, 45))


def test_census_estimate_passes_ending_next_to_a_multiple_of_q():
    # A pass that ends on residue 1 or q - 1 has 2**J * r = m*q + 1 or
    # (m+1)*q - 1, where the quotient lies nearest an integer and the
    # estimate's d must still be m or m - 1.  Lanes q | 2**x - 1 of order x
    # and q | 2**x + 1 of order 2x, with x < 64 a pass end k + i*J, for
    # every float32 length J = 5 .. 19 at its smallest k = J (q below
    # 2**(J+1)) and for float64 J = k = 31.  Each counts once at its order,
    # if that is <= n0.  None ends a pass of 8 or 16 on q - 1: 449 does at
    # x = 112, and no q below 2**17 does before it has returned (65537 has
    # order 32).  At the largest float32 k = 30 none does for x < 64:
    # 1149816047 and 2033100449 end passes of 19 on 1 at x = 68 and 87, and
    # 1610612739 (order 174) on q - 1 at x = 87.  q = 2**k + 1 has order 2k,
    # so its first pass, of J = k, ends on 1: every float64 length 32 .. 44.
    n0 = 127
    passes = [(jump, jump) for jump in range(_FLOOR_K, 20)] + [(19, 30), (31, 31)]  # (J, k)
    lanes = {(449, 224, 112, 8, 8), (1149816047, 68, 68, 19, 30), (2033100449, 87, 87, 19, 30),
             (1610612739, 174, 87, 19, 30)}  # (q, order, pass end x, J, k)
    lanes |= {(2**k + 1, 2 * k, 2 * k, k, k) for k in range(32, 45)}
    for jump, k in passes:
        for x in range(k + jump, 64, jump):
            for order, m in ((x, (1 << x) - 1), (2 * x, (1 << x) + 1)):
                lanes |= {(q, order, x, jump, k) for q in oracles.divisors(m)
                          if q.bit_length() == k + 1 and oracles.has_order(q, order)}
    assert {(order == x, jump, k) for _, order, x, jump, k in lanes} == {
        (ends_on_1, jump, k) for jump, k in passes for ends_on_1 in (True, False)} - {
        (False, 16, 16)} | {(True, k, k) for k in range(32, 45)}
    for q, order, x, jump, k in sorted(lanes):
        assert pow(2, x, q) == (1 if order == x else q - 1) and (x - k) % jump == 0
        assert _jump(q, q) == ("float32" if q < 2**31 else "float64", jump)
        assert list(census._census_block(q, 1, n0)) == [int(j == order) for j in range(n0 + 1)], q


def test_census_block_counts_an_order_once():
    # Only a lane's first return counts.  It then parks on the 7-cycle and
    # rides at least two more passes, the last short one among them.
    # float32: 2**6 - 1 (order 6) at the floor, k = J = 5, passes ending at
    # 10, 15, 20 and 22; 2**13 - 1 (J = 12, returns at 13, 26 and 39
    # of passes ending at 24, 36 and 40), alone and among 20 other lanes;
    # 2**29 - 1 (J = 19, passes ending at 47, 66, ... 123, 127).  float64:
    # 2**31 + 1 (order 62, J = 31) returns exactly at the end of its first
    # pass, then rides passes ending at 93, 124 and 127, alone and among 20
    # lanes of which 10 run float32; 2**37 - 1 (J = 36) at 72, 108, 127.
    cases = [(2**6 - 1, 1, 22, 6), (2**13 - 1, 1, 40, 13), (2**13 - 1 - 8 * 10, 21, 40, 13), (2**29 - 1, 1, 127, 29),
             (2**31 + 1, 1, 127, 62), (2**31 + 1 - 8 * 10, 21, 127, 62), (2**37 - 1, 1, 127, 37)]
    forms = set()
    for first, count, n0, order in cases:
        q = first + 8 * (count // 2)
        forms.add(_jump(q, q)[0])
        assert pow(2, order, q) == 1 and oracles.has_order(q, order)
        v = census._census_block(first, count, n0)
        assert list(v) == list(oracles.first_returns_capped([first + 8 * i for i in range(count)], n0))
        assert v[order] == 1, (first, count)
    assert forms == {"float32", "float64"}


def test_census_multiple_witnesses_mean_composite():
    census = run_census(31)
    for j, count in census.counts.items():
        if count >= 2 and j in census.verdicts:
            assert census.verdicts[j] is False


def test_census_lane_step_cap_from_both_sides(capsys, monkeypatch):
    # The default cap admits the M(67) slow test and refuses n0 = 79.  Over
    # the cap, the library and the CLI fail at once, before any lane runs.
    assert candidate_count(67) * 67 <= census._MAX_LANE_STEPS < candidate_count(79) * 79
    steps = candidate_count(31) * 31
    monkeypatch.setattr(census, "_MAX_LANE_STEPS", steps)
    assert run_census(31).verdicts[31] is True
    monkeypatch.setattr(census, "_MAX_LANE_STEPS", steps - 1)
    start = perf_counter()
    for workers in (1, 2):
        with pytest.raises(CapacityError, match=rf"n0=31 runs {steps} lane-steps, over the cap of {steps - 1}"):
            run_census(31, workers=workers)
    assert main(["mersenne-test", "31"]) == 3
    assert perf_counter() - start < 1
    assert capsys.readouterr().out == ""
    assert candidate_count(127) == 3260954456333195552  # still answers; its census is refused


def test_census_validation(monkeypatch):
    with pytest.raises(ValueError):
        run_census(9)
    with pytest.raises(CapacityError):
        run_census(131)

    def no_lanes(*args):
        raise AssertionError("a lane ran before workers was checked")

    monkeypatch.setattr(census, "_census_block", no_lanes)
    for workers in (0, -1):
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            run_census(13, workers=workers)


@pytest.mark.slow
def test_census_67_finds_coles_divisor():
    # M(67) = 193707721 * 761838257287.  Only Cole's factor lies under the
    # bound 12148001999, so it is the lone witness and 67 is composite.
    # Every v(j) equals the divisor oracle's.
    census = run_census(67, workers=2)
    assert census.counts == oracles.tally_by_divisors(67)
    assert census.counts[67] == 1
    assert census.reasons[67] == REASON_PROPER_DIVISOR
    assert census.verdicts[67] is False
    smaller = run_census(61, workers=2).verdicts
    assert {j: census.verdicts[j] for j in smaller} == smaller
