"""Range scanning for doubling-map periods and divisor search for M(n).

Every odd q in a range gets its period computed and classified by what the
period says about Mersenne numbers: a prime period n means q divides
M(n) = 2**n - 1, exhibiting M(n) as composite without ever evaluating it.
Records flow into four streams mirroring the classification, written as
tab-separated files.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .dynamics import U64_MAX, floor_log2, period_of
from .primality import PrimeTable, is_prime

# Exponent of the largest known Mersenne prime; periods beyond it are "large".
DEFAULT_LARGE_THRESHOLD = 136_279_841

DEFAULT_L_MAX = 1_000_000

STREAM_LARGE_PRIME = "large-prime"
STREAM_SMALL_PRIME = "small-prime"
STREAM_ODD_NONPRIME = "odd-nonprime"
STREAM_EVEN = "even"

STREAM_FILES = {
    STREAM_LARGE_PRIME: "large_prime_periods.tsv",
    STREAM_SMALL_PRIME: "small_prime_periods.tsv",
    STREAM_ODD_NONPRIME: "odd_nonprime_periods.tsv",
    STREAM_EVEN: "even_periods.tsv",
}


def segment_of(q: int) -> int:
    """The s with 2**(s-1) < q < 2**s (q odd, so never a power of two)."""
    return floor_log2(q) + 1


@dataclass(frozen=True)
class PeriodRecord:
    segment: int
    q: int
    period: int

    def __post_init__(self) -> None:
        if not (1 << (self.segment - 1)) < self.q < (1 << self.segment):
            raise ValueError(f"segment {self.segment} does not bracket q={self.q}")
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")


@dataclass
class ScanReport:
    q_lo: int
    q_hi: int
    direction: str  # "up" or "down"
    large_threshold: int
    large_prime: list[PeriodRecord] = field(default_factory=list)
    small_prime: list[PeriodRecord] = field(default_factory=list)
    odd_nonprime: list[PeriodRecord] = field(default_factory=list)
    even: list[PeriodRecord] = field(default_factory=list)

    def stream(self, tag: str) -> list[PeriodRecord]:
        return {
            STREAM_LARGE_PRIME: self.large_prime,
            STREAM_SMALL_PRIME: self.small_prime,
            STREAM_ODD_NONPRIME: self.odd_nonprime,
            STREAM_EVEN: self.even,
        }[tag]

    def counts(self) -> dict[str, int]:
        return {tag: len(self.stream(tag)) for tag in STREAM_FILES}


def classify(
    record: PeriodRecord,
    table: PrimeTable,
    large_threshold: int = DEFAULT_LARGE_THRESHOLD,
) -> str:
    """Stream tag for a record: even, odd-nonprime, or small/large prime period."""
    period = record.period
    if period % 2 == 0:
        return STREAM_EVEN
    if not is_prime(period, table):
        return STREAM_ODD_NONPRIME
    return STREAM_LARGE_PRIME if period > large_threshold else STREAM_SMALL_PRIME


def _scan_chunk(args: tuple[int, int]) -> list[tuple[int, int]]:
    lo, hi = args
    return [(q, period_of(q).period) for q in range(lo, hi + 1, 2)]


def scan_range(
    q_lo: int,
    q_hi: int,
    table: PrimeTable,
    large_threshold: int = DEFAULT_LARGE_THRESHOLD,
    workers: int = 1,
) -> ScanReport:
    """Periods of every odd q between the endpoints (inclusive), classified.

    A first endpoint above the second scans downwards; the resulting record
    set is the same either way.  With workers > 1 the range is split into
    contiguous chunks computed in separate processes; the final sort makes
    the output deterministic regardless.
    """
    for endpoint in (q_lo, q_hi):
        if endpoint % 2 == 0:
            raise ValueError(f"scan endpoints must be odd, got {endpoint}")
        if endpoint < 5:
            raise ValueError(f"scan endpoints must be >= 5, got {endpoint}")
        if endpoint > U64_MAX:
            raise ValueError(f"scan endpoints must fit in 64 bits, got {endpoint}")
    direction = "down" if q_lo > q_hi else "up"
    lo, hi = min(q_lo, q_hi), max(q_lo, q_hi)

    if workers > 1:
        count = (hi - lo) // 2 + 1
        chunk = max(1, -(-count // (workers * 4)))
        tasks = []
        start = lo
        while start <= hi:
            end = min(start + 2 * (chunk - 1), hi)
            tasks.append((start, end))
            start = end + 2
        pairs: list[tuple[int, int]] = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_scan_chunk, tasks):
                pairs.extend(part)
    else:
        qs = range(lo, hi + 1, 2) if direction == "up" else range(hi, lo - 1, -2)
        pairs = [(q, period_of(q).period) for q in qs]

    report = ScanReport(q_lo, q_hi, direction, large_threshold)
    for q, period in pairs:
        record = PeriodRecord(segment_of(q), q, period)
        report.stream(classify(record, table, large_threshold)).append(record)
    for tag in (STREAM_LARGE_PRIME, STREAM_SMALL_PRIME, STREAM_ODD_NONPRIME):
        report.stream(tag).sort(key=lambda rec: (rec.period, rec.q))
    report.even.sort(key=lambda rec: rec.q)
    return report


def write_report(report: ScanReport, out_dir: str | Path) -> dict[str, Path]:
    """Write the four record streams as segm<TAB>q<TAB>period lines, LF-terminated."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    for tag, name in STREAM_FILES.items():
        path = out / name
        with open(path, "w", newline="\n") as fh:
            for rec in report.stream(tag):
                fh.write(f"{rec.segment}\t{rec.q}\t{rec.period}\n")
        paths[tag] = path
    return paths


def find_divisor_of_mersenne(
    n: int,
    table: PrimeTable,
    l_max: int = DEFAULT_L_MAX,
) -> Optional[tuple[int, int]]:
    """Smallest witness divisor q = 1 + 2*n*l of M(n) for prime n, with its l.

    Any divisor of M(n) with n prime is 1 (mod 2n) and +-1 (mod 8), so only
    such candidates are tested.  Since n is prime, q divides M(n) exactly
    when 2**n = 1 (mod q), which is also the sole way the period of 1/q can
    be n or less without being 1.  Returns None when l_max (or the 64-bit
    candidate limit) is exhausted; M(n) may still be composite.
    """
    if n < 3:
        raise ValueError(f"divisor search needs n >= 3, got {n}")
    if not is_prime(n, table):
        raise ValueError(f"divisor search requires a prime exponent, got {n}")
    # Witnesses of compositeness are proper divisors, q <= M(n) - 2; for small
    # n the candidate ladder would otherwise reach the trivial q = M(n).
    limit = min(U64_MAX, (1 << n) - 2) if n < 64 else U64_MAX
    step = 2 * n
    q = 1
    for l in range(1, l_max + 1):
        q += step
        if q > limit:
            break
        if q & 7 not in (1, 7):
            continue
        if pow(2, n, q) == 1:
            return q, l
    return None
