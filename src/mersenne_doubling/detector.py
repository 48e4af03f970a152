"""Range scanning for doubling-map periods and divisor search for M(n).

Every odd q in a range gets its period computed and classified by what the
period says about Mersenne numbers: a prime period n means q divides
M(n) = 2**n - 1, exhibiting M(n) as composite without ever evaluating it.
Records flow into four streams mirroring the classification, written as
tab-separated files.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from .dynamics import U64_MAX, _check_modulus, _check_workers, _order, floor_log2
from .dynamics import period_of  # unused here; perfbench/tracing.PATCHES wraps it by name
from .errors import CapacityError
from .primality import PrimeTable, is_prime64
from .primality import is_prime  # unused here; perfbench/tracing.PATCHES wraps it by name

# Exponent of the largest known Mersenne prime; periods beyond it are "large".
DEFAULT_LARGE_THRESHOLD = 136_279_841

DEFAULT_L_MAX = 1_000_000

# Most candidates l that find_divisor_of_mersenne may try: near n = 10**9 an
# l takes about 2.8 us on two shared vCPUs (2.82 s for the default l_max of
# 10**6), so a search at the cap takes about 5 minutes.
_MAX_L_MAX = 100_000_000

# Most odd q one scan takes: every record stays in memory until the write,
# about 239 bytes a record (tracemalloc, 100 000 records), so a scan at the
# cap holds about 1.0 GB.
_MAX_SCAN_QS = 1 << 22

# Most seconds of order work one scan may take, at the upper cost a q of
# _SCAN_US_PER_Q.  Each band (last bit length, us a q) costs its q at the
# largest mean scan_range time a q measured over windows of 64 odd q at the
# band's last bit length: 4 runs of 9 to 30 windows on two shared vCPUs,
# whose speed moved 1.7x from run to run.  The 130 us of 17-24 bits is one
# slow window; the others there took at most 38 us a q.  So the 2**22 q
# from 5 are priced at about 540 s, and about 176 000 q just below 2**64
# reach the cap, where 2**22 of them would take about 4 h.
_SCAN_US_PER_Q = ((16, 12), (24, 130), (32, 130), (40, 300), (48, 480), (56, 1200), (64, 3400))
_MAX_SCAN_S = 600

# Least _scan_seconds price at which a scan with workers > 1 starts a process
# pool from its first q; a cheaper range runs in process.  A workers=2 pool
# takes 7-12 ms to start, and the price runs about 1-8x the in-process time.
# Medians of 7 calls on two shared vCPUs, 4 runs, price / in process /
# workers=2 pool from the first q, in ms: 16 q just below 2**64 54 / 37-42 /
# 43-46, 192 q at 2**39 58 / 24-36 / 23-30, 128 q at 2**47 61 / 29-47 /
# 30-39.  55 ms lies between the dearest range measured faster in process
# and the cheapest measured faster in a pool.
_POOL_MIN_S = 0.055

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

# ScanReport field that holds each stream's records.
_STREAM_FIELDS = {
    STREAM_LARGE_PRIME: "large_prime",
    STREAM_SMALL_PRIME: "small_prime",
    STREAM_ODD_NONPRIME: "odd_nonprime",
    STREAM_EVEN: "even",
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
    workers: int = field(default=1, compare=False)  # size of the pool the scan started, or 1

    def stream(self, tag: str) -> list[PeriodRecord]:
        return getattr(self, _STREAM_FIELDS[tag])

    def counts(self) -> dict[str, int]:
        return {tag: len(self.stream(tag)) for tag in STREAM_FILES}


def classify(record: PeriodRecord, large_threshold: int = DEFAULT_LARGE_THRESHOLD) -> str:
    """Stream tag for a record: even, odd-nonprime, or small/large prime period.

    The period is decided by is_prime64, exact for every period below 2**64.
    """
    period = record.period
    if period % 2 == 0:
        return STREAM_EVEN
    if not is_prime64(period):
        return STREAM_ODD_NONPRIME
    return STREAM_LARGE_PRIME if period > large_threshold else STREAM_SMALL_PRIME


def _scan_chunk(qs: range) -> list[tuple[int, int]]:
    return [(q, _order(q)) for q in qs]


def _scan_seconds(q_lo: int, q_hi: int) -> float:
    """Upper estimate of the seconds the order work of the odd q in [q_lo, q_hi] takes, summed per band."""
    seconds, below = 0.0, q_lo
    for bits, us in _SCAN_US_PER_Q:
        top = min(q_hi, (1 << bits) - 1)
        if top >= below:
            seconds += ((top - below) // 2 + 1) * us * 1e-6
            below = top + 2
    return seconds


def _scan_qs(q_lo: int, q_hi: int, workers: int) -> tuple[range, float]:
    """The odd q from q_lo to q_hi (inclusive) in scan order, and their _scan_seconds price.

    Fewer than one worker or a bad endpoint is a ValueError; more than
    _MAX_SCAN_QS q, or order work priced over _MAX_SCAN_S seconds, is a
    CapacityError.  Nothing is computed.
    """
    _check_workers(workers)
    for endpoint in (q_lo, q_hi):
        _check_modulus(endpoint, minimum=5)
    qs = range(q_lo, q_hi + 1, 2) if q_lo <= q_hi else range(q_lo, q_hi - 1, -2)
    if len(qs) > _MAX_SCAN_QS:
        raise CapacityError(f"the scan {q_lo}..{q_hi} takes {len(qs)} odd q, "
                            f"over the cap of {_MAX_SCAN_QS}")
    seconds = _scan_seconds(min(q_lo, q_hi), max(q_lo, q_hi))
    if seconds > _MAX_SCAN_S:
        raise CapacityError(f"the scan {q_lo}..{q_hi} takes about {seconds:.0f} s of order work, "
                            f"over the cap of {_MAX_SCAN_S} s")
    return qs, seconds


def scan_range(q_lo: int, q_hi: int, table: Optional[PrimeTable] = None,
               large_threshold: int = DEFAULT_LARGE_THRESHOLD, workers: int = 1) -> ScanReport:
    """Periods of every odd q between the endpoints (inclusive), classified.

    Each period is the order of 2 mod q alone; table is never read.  A first
    endpoint above the second scans downwards; the record set is the same
    either way.  With more than one worker, a range whose _scan_seconds price
    reaches _POOL_MIN_S goes from its first q to a pool of at most one worker
    process per core and per q, in contiguous chunks; any other range runs
    in process.  The final sort makes the output deterministic whatever the
    chunks.  report.workers is the pool's size, or 1.  The inputs are checked
    by _scan_qs before any work.
    """
    qs, seconds = _scan_qs(q_lo, q_hi, workers)
    direction = "down" if q_lo > q_hi else "up"
    workers = min(workers, os.cpu_count() or 1, len(qs)) if seconds >= _POOL_MIN_S else 1
    if workers > 1:
        size = -(-len(qs) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(_scan_chunk, [qs[i:i + size] for i in range(0, len(qs), size)])
            pairs = [pair for part in parts for pair in part]
    else:
        pairs = _scan_chunk(qs)

    report = ScanReport(q_lo, q_hi, direction, large_threshold, workers=workers)
    for q, period in pairs:
        record = PeriodRecord(segment_of(q), q, period)
        report.stream(classify(record, large_threshold)).append(record)
    for tag in (STREAM_LARGE_PRIME, STREAM_SMALL_PRIME, STREAM_ODD_NONPRIME):
        report.stream(tag).sort(key=lambda rec: (rec.period, rec.q))
    report.even.sort(key=lambda rec: rec.q)
    return report


def write_report(report: ScanReport, out_dir: str | Path) -> dict[str, Path]:
    """Write the four record streams as segm<TAB>q<TAB>period lines, LF-terminated.

    out_dir is made if missing.  Each stream's rows are joined into one
    string, written with os.write to the descriptor os.open gives (again
    after a short write), and the file is then cut at the end of the new
    rows: it ends up byte for byte as a fresh write would leave it, and a
    new file gets mode 0o666 less the umask.  The truncation on open that
    this avoids took 52-93 us per file on an ext4 root mounted with discard,
    against 3-11 us for the overwrite and cut.  The write is not atomic: one
    that fails part way can leave old bytes after the new rows.
    """
    out = Path(out_dir)
    if not out.is_dir():  # one stat, where mkdir(exist_ok=True) of an existing directory raises and catches
        out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    for tag, name in STREAM_FILES.items():
        path = out / name
        data = "".join([f"{rec.segment}\t{rec.q}\t{rec.period}\n" for rec in report.stream(tag)]).encode()
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
        paths[tag] = path
    return paths


def find_divisor_of_mersenne(n: int, l_max: int = DEFAULT_L_MAX) -> Optional[tuple[int, int]]:
    """Smallest witness divisor q = 1 + 2*n*l of M(n) for prime n, with its l.

    is_prime64 decides n; n >= 2**64 raises CapacityError.  Any divisor of
    M(n) with n prime is 1 (mod 2n) and +-1 (mod 8), so only such candidates
    are tested.  Since n is prime, q divides M(n) exactly when 2**n = 1
    (mod q), which is also the sole way the period of 1/q can be n or less
    without being 1.  Returns None when l_max (or the 64-bit candidate
    limit) is exhausted; M(n) may still be composite.  l_max below 1 raises
    ValueError, and l_max over _MAX_L_MAX CapacityError, before any
    candidate is tried.
    """
    if n < 3:
        raise ValueError(f"divisor search needs n >= 3, got {n}")
    if n > U64_MAX:
        raise CapacityError(f"divisor search needs n < 2**64, got {n}")
    if l_max < 1:
        raise ValueError(f"divisor search needs l_max >= 1, got {l_max}")
    if l_max > _MAX_L_MAX:
        raise CapacityError(f"divisor search of l_max = {l_max} candidates exceeds the cap of {_MAX_L_MAX}")
    if not is_prime64(n):
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
