"""The four seeded workloads, built round by round, with their output checks.

Each workload is a closed loop with one caller: the runner executes a
round's operations one after another and starts the next round when the
last one is done.  A round's inputs are drawn from the seed, but its cost
is held the same across seeds: the costly inputs are drawn inside a narrow
band of period (the number of doublings their work is proportional to), and
the checker's own order computation decides membership of the band.  That
keeps medians and tails comparable between runs with different seeds.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Any, Callable

import check as C

# README rows of `mdbl period` that finish within about a second.
README_ROWS = (4398046511103, 4291434391)
# Periods of the long orbit inputs; 4291434391 (period 143047813) lies inside.
ORBIT_BAND = (136_000_000, 146_000_000)
SMALL_WINDOW = 64                         # odd q per window of the small slice
SMALL_BAND = (780_000, 860_000)           # doublings of one window of the small slice
MID_BAND = (430_000_000, 470_000_000)     # doublings of one window of the mid slice
WIDE_DEADLINE_S = 0.5
# Census exponents, one round, run at workers=1.  All but one call are at
# n0 = 43, so the median and the tail rank both fall among its calls
# whatever the number of rounds.  n0 = 47 (1.6 s a call) and 53 (about 10 s)
# are left out: with one call a round, they held the ten slowest calls in
# some runs and not in others, and the tail moved with them.
CENSUS_MIX = (41, 43, 43, 43, 43, 43, 43)


@dataclass
class Op:
    label: str                          # names the operation in failure listings
    call: Callable[[Any], Any]          # the timed calls into the program; gets the runner
    reduce: Callable[[Any], Any]        # plain, picklable summary of what call returned
    verify: Callable[[Any], list[str]]  # independent check of a summary: its problems
    items: int                          # items completed when the operation succeeds
    slice: str | None = None            # scan slice that per-layer metrics are grouped by
    deadline: float | None = None       # if set, run in a forked child stopped at the deadline


_wrap_count = cache(C.wrap_count)
_census_counts = cache(C.census_counts)


def _log_uniform_odd(rng, lo: int, hi: int) -> int:
    return min(hi, int(math.exp(rng.uniform(math.log(lo), math.log(hi))))) | 1


def _in_band(rng, lo: int, hi: int, band: tuple[int, int]) -> int:
    while True:
        q = _log_uniform_odd(rng, lo, hi)
        if band[0] <= C.order2(q) <= band[1]:
            return q


def _next_prime(n: int) -> int:
    n |= 1
    while not C.is_prime(n):
        n += 2
    return n


# --- orbit: period_of then flying_time_histogram, one q per operation ------

def orbit(rng, out_dir: Path) -> list[Op]:
    qs = list(README_ROWS)
    qs += [_log_uniform_odd(rng, 2**17, 2**20) for _ in range(2)]
    qs += [_in_band(rng, 2**30, 2**34, ORBIT_BAND) for _ in range(4)]
    rng.shuffle(qs)
    return [_orbit_op(q) for q in qs]


def _orbit_op(q: int) -> Op:
    def call(runner):
        dynamics = runner.package.dynamics
        return dynamics.period_of(q), dynamics.flying_time_histogram(q)

    def reduce(out):
        result, hist = out
        return result.q, result.period, result.steps, hist.q, dict(hist.counts)

    def verify(summary):
        rq, period, steps, hq, counts = summary
        if (rq, hq) != (q, q) or not C.period_ok(q, period):
            return [f"q={q}: period {period} is not the order of 2"]
        problems = []
        if _wrap_count(q, period) != steps:
            problems.append(f"q={q}: steps {steps} != popcount(M(n)/q)")
        if sum(t * c for t, c in counts.items()) != period or sum(counts.values()) != steps:
            problems.append(f"q={q}: histogram does not sum to period and steps")
        return problems

    return Op(f"orbit q={q}", call, reduce, verify, items=1)


# --- scan: scan_range then write_report over a window, workers=1 ----------

def scan(rng, out_dir: Path) -> list[Op]:
    # Sixteen small windows, one mid operation and one wide one per round.
    # The median and the tail rank fall among the small windows whatever the
    # number of rounds (fewer than ten), so both are times of the stepping
    # loops.  The mid operations (big-integer and numpy work) kept their
    # speed in host phases that slowed interpreted loops and the reference
    # work, and a tail among them moved with those phases.
    ops = []
    for _ in range(16):
        while True:
            lo = 2 * rng.randrange(7 * 2**12, 2**15 - SMALL_WINDOW) + 1
            doublings = sum(C.order2(q) for q in range(lo, lo + 2 * SMALL_WINDOW, 2))
            if SMALL_BAND[0] <= doublings <= SMALL_BAND[1]:
                break
        ops.append(_scan_op("small", lo, lo + 2 * (SMALL_WINDOW - 1), out_dir))
    if rng.random() < 0.5:
        q = _prime_period_q(rng)
        ops.append(_scan_op("mid", q, q, out_dir))
    else:
        while True:
            lo = 2**32 + 1 + 2 * rng.randrange(2**27)
            if MID_BAND[0] <= C.order2(lo) + C.order2(lo + 2) <= MID_BAND[1]:
                break
        ops.append(_scan_op("mid", lo, lo + 2, out_dir))
    q = 2**64 - 1 - 2 * rng.randrange(2**20)
    ops.append(_scan_op("wide", q, q, out_dir, deadline=WIDE_DEADLINE_S))
    rng.shuffle(ops)
    return ops


def _prime_period_q(rng) -> int:
    """A prime q just above 2**32 whose period is a prime p in MID_BAND.

    q = 2kp + 1 with 2**p = 1 (mod q) has order p, because p is prime.
    Such q put a record in the large-prime stream and make classify run its
    trial division.
    """
    while True:
        p = _next_prime(rng.randrange(*MID_BAND))
        for k in range(-(-2**32 // (2 * p)), (2**32 + 2**30) // (2 * p) + 1):
            q = 2 * k * p + 1
            if C.is_prime(q) and pow(2, p, q) == 1:
                return q


def _scan_op(slice_: str, lo: int, hi: int, out_dir: Path, deadline: float | None = None) -> Op:
    dest = out_dir / f"scan-{slice_}"

    def call(runner):
        detector = runner.package.detector
        report = detector.scan_range(lo, hi, runner.table)
        return report, detector.write_report(report, dest)

    def reduce(out):
        report, paths = out
        streams = {tag: [(r.segment, r.q, r.period) for r in report.stream(tag)]
                   for tag in C.STREAM_FILES}
        return streams, {tag: Path(paths[tag]).read_text() for tag in C.STREAM_FILES}

    return Op(f"scan.{slice_} q={lo}..{hi}", call, reduce,
              lambda summary: C.check_scan(lo, hi, *summary),
              items=(hi - lo) // 2 + 1, slice=slice_, deadline=deadline)


# --- census: run_census at workers=1 ---------------------------------------

def census(rng, out_dir: Path) -> list[Op]:
    # The same round whatever the seed: with the order of calls drawn from
    # the seed, the process's peak RSS moved by 8% between runs.
    return [_census_op(n0) for n0 in CENSUS_MIX]


def _census_op(n0: int) -> Op:
    def call(runner):
        return runner.package.census.run_census(n0, workers=1)

    def reduce(c):
        return c.n0, c.sqrt_bound, dict(c.counts), dict(c.verdicts)

    def verify(summary):
        got_n0, bound, counts, verdicts = summary
        problems = []
        if (got_n0, bound) != (n0, C.census_bound(n0)):
            problems.append(f"n0={n0}: wrong n0 or bound {bound}")
        want = _census_counts(n0)
        wrong = [j for j in want if counts.get(j) != want[j]]
        if wrong or len(counts) != len(want):
            problems.append(f"n0={n0}: v(j) wrong at j={wrong}")
        primes = [j for j in range(3, n0 + 1) if C.is_prime(j)]
        if verdicts != {j: j in C.MERSENNE_EXPONENTS for j in primes}:
            problems.append(f"n0={n0}: verdicts disagree with the known Mersenne exponents")
        return problems

    return Op(f"census n0={n0}", call, reduce, verify, items=C.candidate_total(n0))


# --- cli: mdbl commands through cli.main, one at a time -------------------
# The commands run in the benchmark's process.  Starting an interpreter and
# importing the package took a quarter longer or shorter from one minute to
# the next on the shared 2-vCPU host, and no reference work followed it;
# setup_s (fresh interpreters) and cli.cold_start_s measure that cost.

def cli(rng, out_dir: Path) -> list[Op]:
    scan_dir = out_dir / "cli-scan"
    prime_n = _next_prime(rng.randrange(2 * 10**12, 4 * 10**12 - 10**6))
    ops = [_cli_op(["period", str(q)], 0, _period_text(q))
           for q in (*README_ROWS, _log_uniform_odd(rng, 2**17, 2**20))]
    ops += [
        _cli_op(["histogram", "13"], 0, _histogram_text(13)),
        _cli_op(["is-prime", str(prime_n)], 0, _is_prime_text(prime_n)),
        _cli_op(["find-divisor", "11"], 0, _find_divisor_text(11)),
        _cli_op(["find-divisor", "2199023254451"], 0, _find_divisor_text(2199023254451)),
        _cli_op(["mersenne-test", "31"], 0, _mersenne_test_text(31)),
        _cli_op(["scan", "5", "99", "--out-dir", str(scan_dir)], 0, _scan_text(5, 99, scan_dir)),
        # usage error: an even modulus
        _cli_op(["period", str(2 * rng.randrange(2, 2**40))], 2, _silent),
        # capacity error: an odd n above the default table's capacity of 4e12
        _cli_op(["is-prime", str(2 * rng.randrange(2 * 10**12 + 1, 5 * 10**12) + 1)], 3, _silent),
    ]
    rng.shuffle(ops)
    return ops


def _cli_op(args: list[str], code: int, check_stdout: Callable[[str], list[str]]) -> Op:
    label = "mdbl " + " ".join(args)

    def verify(summary):
        returncode, stdout = summary
        if returncode != code:
            return [f"{label}: exit {returncode}, expected {code}"]
        return [f"{label}: {p}" for p in check_stdout(stdout)]

    return Op(label, lambda runner: runner.run_cli(args), lambda out: out, verify, items=1)


def _silent(stdout: str) -> list[str]:
    return [] if stdout == "" else [f"unexpected stdout {stdout!r}"]


def _period_text(q: int):
    def check(stdout):
        m = re.fullmatch(rf"q={q} period=(\d+) steps=(\d+) seconds=\d+\.\d+\n", stdout)
        if not m:
            return [f"bad output {stdout!r}"]
        n, steps = int(m[1]), int(m[2])
        if not C.period_ok(q, n) or _wrap_count(q, n) != steps:
            return [f"wrong period {n} or steps {steps}"]
        return []
    return check


def _histogram_text(q: int):
    def check(stdout):
        rows = [tuple(map(int, line.split("\t"))) for line in stdout.splitlines()]
        n = C.order2(q)
        ok = (rows == sorted(rows) and all(c > 0 for _, c in rows)
              and sum(t * c for t, c in rows) == n and sum(c for _, c in rows) == _wrap_count(q, n))
        return [] if ok else [f"histogram rows {rows} do not sum to period and steps"]
    return check


def _is_prime_text(n: int):
    want = f"n={n} verdict={'prime' if C.is_prime(n) else 'composite'}\n"
    return lambda stdout: [] if stdout == want else [f"got {stdout!r}, expected {want!r}"]


def _find_divisor_text(n: int):
    def witness(q):
        return q % 8 in (1, 7) and pow(2, n, q) == 1

    def check(stdout):
        m = re.fullmatch(rf"n={n} q=(\d+) l=(\d+) seconds=\d+\.\d+\n", stdout)
        if not m:
            return [f"bad output {stdout!r}"]
        q, l = int(m[1]), int(m[2])
        if q != 1 + 2 * n * l or not witness(q) or (n < 64 and q >= (1 << n) - 1):
            return [f"q={q} is not a proper divisor of M({n}) of the form 1 + 2nl"]
        if any(witness(1 + 2 * n * k) for k in range(1, l)):
            return [f"q={q} is not the smallest witness"]
        return []
    return check


def _mersenne_test_text(n0: int):
    counts, bound = _census_counts(n0), C.census_bound(n0)
    lines = ["j\tv\trel\tverdict", "2\t-\t-\tprime"]
    for j in range(3, n0 + 1):
        if C.is_prime(j):
            rel = "<=" if (1 << j) - 1 <= bound else ">"
            verdict = "prime" if j in C.MERSENNE_EXPONENTS else "composite"
            lines.append(f"{j}\t{counts[j]}\t{rel}\t{verdict}")
    want = "\n".join(lines) + "\n"
    return lambda stdout: [] if stdout == want else [f"census table differs: {stdout!r}"]


def _scan_text(lo: int, hi: int, scan_dir: Path):
    def check(stdout):
        streams = {}
        for tag, name in C.STREAM_FILES.items():
            lines = (scan_dir / name).read_text().splitlines()
            streams[tag] = [tuple(map(int, line.split("\t"))) for line in lines]
        want = "".join(f"{tag}\t{len(streams[tag])}\t{scan_dir / name}\n"
                       for tag, name in C.STREAM_FILES.items())
        problems = [] if stdout == want else [f"summary {stdout!r}, expected {want!r}"]
        return problems + C.check_scan(lo, hi, streams, None)
    return check


WORKLOADS = {"orbit": orbit, "scan": scan, "census": census, "cli": cli}
