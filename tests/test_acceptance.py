"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 4 and 9 are the long tier (census to n0=61, trillion-step periods);
they carry the `slow` marker and run via `pytest -m slow`.
"""

import multiprocessing
import random
import re
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import oracles
from mersenne_doubling import (
    build_prime_table,
    flying_time_histogram,
    is_complete_wrt_flying_times,
    is_prime,
    period_hybrid,
    period_naive,
    period_of,
    run_census,
)
from mersenne_doubling.cli import main as cli_main
from mersenne_doubling.dynamics import _count_reductions, _flight_counts_stream, _plan


def run_cli(capsys, *args):
    code = cli_main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _oracle_mismatch(q, order):
    """The first of criterion 1's checks that q fails, or None."""
    naive = period_naive(q)
    hybrid = period_hybrid(q, 2)
    if naive.period != order:
        return f"period_naive({q})"
    if hybrid.period != order:
        return f"period_hybrid({q})"
    if naive.steps != hybrid.steps:
        return f"step counts differ at q={q}"
    return None


def test_criterion_01_oracle_equivalence(capsys):
    start = time.perf_counter()
    qs = np.arange(5, 100000, 2, dtype=np.uint64)
    expected = oracles.orders_by_doubling_vector(qs)
    qs, expected = qs.tolist(), expected.tolist()
    try:
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
            mismatches = list(pool.map(_oracle_mismatch, qs, expected, chunksize=500))
    except ValueError:  # no fork on this platform
        mismatches = [_oracle_mismatch(q, order) for q, order in zip(qs, expected)]
    for mismatch in mismatches:
        assert mismatch is None, mismatch
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(f"\nCRITERION 1 PASS: naive = hybrid = doubling oracle on odd q in "
              f"[5, 99999] ({elapsed:.1f}s)")


TABLE_FAST_ROWS = [
    (4398046511103, 42),
    (4398046511101, 1938935328),
    (4398046511097, 5511336480),
    (4291783591, 143059453),
    (4291592791, 143053093),
    (4291434391, 143047813),
]


def test_criterion_02_table_fast_rows(capsys):
    for q, expected in TABLE_FAST_ROWS:
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "period", q)
        elapsed = time.perf_counter() - start
        assert code == 0
        match = re.search(r"period=(\d+)", out)
        assert match and int(match.group(1)) == expected, f"q={q}"
        assert elapsed <= 60, f"q={q} took {elapsed:.1f}s"
    with capsys.disabled():
        print("CRITERION 2 PASS: six reference periods exact, each within 60s")


def test_criterion_03_census_31(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "mersenne-test", 31)
    elapsed = time.perf_counter() - start
    assert code == 0
    rows = {}
    for line in out.splitlines()[1:]:
        j, v, _, verdict = line.split("\t")
        rows[int(j)] = (v, verdict)
    expected_v = {3: 1, 5: 1, 7: 1, 11: 3, 13: 1, 17: 0, 19: 0, 23: 1, 29: 3, 31: 0}
    for j, v in expected_v.items():
        assert rows[j][0] == str(v), f"v({j})"
    for j in (3, 5, 7, 13, 17, 19, 31):
        assert rows[j][1] == "prime"
    for j in (11, 23, 29):
        assert rows[j][1] == "composite"
    assert elapsed < 5, f"census took {elapsed:.2f}s"
    with capsys.disabled():
        print(f"CRITERION 3 PASS: n0=31 census reproduced exactly ({elapsed:.2f}s)")


KNOWN_MERSENNE_PRIME_EXPONENTS_TO_61 = {3, 5, 7, 13, 17, 19, 31, 61}


@pytest.mark.slow
def test_criterion_04_census_61(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "mersenne-test", 61, "--workers", 2)
    elapsed = time.perf_counter() - start
    assert code == 0
    verdicts = {}
    for line in out.splitlines()[2:]:  # skip header and the fixed j=2 row
        j, _, _, verdict = line.split("\t")
        verdicts[int(j)] = verdict == "prime"
    assert set(verdicts) == {3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61}
    for j, verdict in verdicts.items():
        assert verdict == oracles.mersenne_is_prime_trial(j), f"j={j}"
        assert verdict == (j in KNOWN_MERSENNE_PRIME_EXPONENTS_TO_61), f"j={j}"
    with capsys.disabled():
        print(f"\nCRITERION 4 PASS: n0=61 verdicts match trial-division oracle "
              f"({elapsed:.0f}s)")


def test_criterion_05_divisor_witnesses(capsys):
    code, out, _ = run_cli(capsys, "find-divisor", 11)
    assert code == 0
    assert "q=23 l=1" in out
    assert pow(2, 11, 23) == 1

    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "find-divisor", 2199023254451)
    elapsed = time.perf_counter() - start
    assert code == 0
    match = re.search(r"q=(\d+) l=(\d+)", out)
    assert match
    assert int(match.group(1)) == 4398046508903
    assert int(match.group(2)) == 1
    assert elapsed < 60, f"took {elapsed:.1f}s"
    with capsys.disabled():
        print(f"CRITERION 5 PASS: M(11) and M(2199023254451) divisors found "
              f"({elapsed:.2f}s for the large one)")


def _accounting_check(q):
    """Criterion 6 for q, and the stream on every q: where the plan splits, the split against the stream.

    Returns q and whether the check held, then how many of the two calls the plan split.
    """
    hist = flying_time_histogram(q)
    result = period_of(q)
    ok = hist.period == result.period and hist.steps == result.steps
    n = result.period
    split = 0
    if _plan(q, n, histogram=True).split:
        flights = _flight_counts_stream(q, n)
        ok &= hist.counts == {t: int(c) for t, c in enumerate(flights) if c}
        split += 1
    if _plan(q, n, histogram=False).split:
        ok &= result.steps == _count_reductions(q, n)
        split += 1
    return q, ok, split


def test_criterion_06_flying_time_accounting(capsys):
    start = time.perf_counter()
    rng = random.Random(0xF17E)
    qs = sorted({rng.randrange(5, 2**32) | 1 for _ in range(1000)})
    assert len(qs) == 1000
    try:
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
            results = list(pool.map(_accounting_check, qs, chunksize=20))
    except ValueError:  # no fork on this platform
        results = [_accounting_check(q) for q in qs]
    for q, ok, _ in results:
        assert ok, f"accounting identity failed at q={q}"
    assert is_complete_wrt_flying_times(13) is True
    assert is_complete_wrt_flying_times(11) is False
    split = sum(s for _, _, s in results)
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        print(f"CRITERION 6 PASS: sum(t*phi)=period and sum(phi)=steps for 1000 "
              f"random q < 2^32, {split} of 2000 calls split and held to the stream ({elapsed:.0f}s)")


def test_criterion_07_step_equivalence(capsys):
    from mersenne_doubling import poincare_step_naive, poincare_step_predictive

    for q in range(5, 2002, 2):
        for r in range(1, q):
            naive = poincare_step_naive(r, q)
            predictive = poincare_step_predictive(r, q)
            assert naive == predictive, f"(r={r}, q={q})"
            intermediate = r << (predictive.flying_time - 1)
            assert intermediate <= q - 1, f"(r={r}, q={q})"
    with capsys.disabled():
        print("CRITERION 7 PASS: naive and predictive steps identical for odd "
              "q <= 2001, intermediates within 64 bits")


def test_criterion_08_primality_postprocessing(capsys, prime_table):
    assert is_prime(143047813, prime_table) is True
    assert is_prime(2199023254451, prime_table) is True
    assert is_prime(2047, prime_table) is False
    composite = oracles.composite_mask_by_trial_division(10**6)
    for n in range(2, 10**6 + 1):
        assert is_prime(n, prime_table) == (not composite[n]), f"n={n}"
    with capsys.disabled():
        print("CRITERION 8 PASS: table primality matches trial division up to 1e6")


@pytest.mark.slow
def test_criterion_09_long_tier_period(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "period", 4398046508903)
    elapsed = time.perf_counter() - start
    assert code == 0
    match = re.search(r"period=(\d+) steps=(\d+)", out)
    assert match and int(match.group(1)) == 2199023254451
    assert int(match.group(2)) == 1099510770885
    with capsys.disabled():
        print(f"\nCRITERION 9a PASS: period(4398046508903) = 2199023254451, "
              f"steps = 1099510770885 ({elapsed:.0f}s)")


@pytest.mark.slow
def test_criterion_09_long_tier_histogram(capsys):
    start = time.perf_counter()
    hist = flying_time_histogram(1099511611061)
    elapsed = time.perf_counter() - start
    assert hist.counts[1] == 274877902765
    assert hist.counts[40] == 1
    assert hist.period == 1099511611060
    # every flight 1..40 occurs: q is complete with respect to flying times
    assert set(hist.counts) == set(range(1, 41))
    with capsys.disabled():
        print(f"\nCRITERION 9b PASS: flying-time column for q=1099511611061 "
              f"({elapsed:.0f}s)")


@pytest.mark.slow
def test_reference_row_through_literal_hybrid(capsys):
    # The combined stepping algorithm itself (not the fast backend) reproduces
    # a published-scale row, across the first few kappa values.
    code, out, _ = run_cli(capsys, "bench-kappa", "--qs", "4291783591",
                           "--kappas", "1..4")
    assert code == 0
    rows = out.splitlines()
    assert len(rows) == 4
    for row in rows:
        assert "period=143059453" in row


def test_criterion_10_kappa_sweep(capsys):
    qs = [999983, 1048573, 1299709]
    code, out, err = run_cli(capsys, "bench-kappa",
                             "--qs", ",".join(map(str, qs)), "--kappas", "1..12")
    assert code == 0
    assert err == ""
    rows = out.splitlines()
    assert len(rows) == 12 * len(qs)
    per_q_periods: dict[int, set[int]] = {}
    per_kappa_seconds: dict[int, float] = {}
    for row in rows:
        fields = dict(part.split("=") for part in row.split())
        per_q_periods.setdefault(int(fields["q"]), set()).add(int(fields["period"]))
        per_kappa_seconds[int(fields["kappa"])] = (
            per_kappa_seconds.get(int(fields["kappa"]), 0.0) + float(fields["seconds"])
        )
    for q in qs:
        assert len(per_q_periods[q]) == 1, f"period varies with kappa for q={q}"
    with capsys.disabled():
        print("CRITERION 10 PASS: kappa sweep 1..12 consistent; timings "
              "(hardware-dependent, not asserted):")
        for kappa in sorted(per_kappa_seconds):
            print(f"  kappa={kappa:2d}  {per_kappa_seconds[kappa]:.3f}s")
