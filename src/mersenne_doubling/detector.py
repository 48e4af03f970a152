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
from time import perf_counter
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

# Most odd q one scan takes, and most bytes its records may hold: every
# record stays in memory until the write, about 239 bytes a record
# (tracemalloc, 100 000 records).  A scan at the q cap holds about 1.0 GB,
# and takes about 32 s at 7.6 us a q near 2**16, up to 3 h at 2.5 ms a q
# just below 2**64.
_MAX_SCAN_QS = 1 << 22
_SCAN_RECORD_BYTES = 239
_MAX_SCAN_BYTES = 1 << 30

# In-process time after which a scan with workers > 1 hands its remaining q
# to a process pool: about what starting the pool costs.  The cost of a q
# varies about 1000x with q, so a count of q would not do.  Medians on two
# shared vCPUs, in process / workers=2 pool from the first q / this rule:
# 5..99 0.1-0.3 / 11-14 / 0.3-0.4 ms, 4k q near 2**16 36-39 / 54-59 /
# 55-65 ms, 16 q just below 2**64 45-72 / 51-55 / 52-58 ms, 64 q just
# below 2**64 160 / 114-118 / 115-136 ms.
_POOL_START_S = 0.01

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


def _scan_qs(q_lo: int, q_hi: int, workers: int) -> range:
    """The odd q from q_lo to q_hi (inclusive) in scan order, once the scan's inputs are checked.

    Fewer than one worker or a bad endpoint is a ValueError; more than
    _MAX_SCAN_QS q, or records of more than _MAX_SCAN_BYTES at
    _SCAN_RECORD_BYTES each, is a CapacityError.  Nothing is computed.
    """
    _check_workers(workers)
    for endpoint in (q_lo, q_hi):
        _check_modulus(endpoint, minimum=5)
    qs = range(q_lo, q_hi + 1, 2) if q_lo <= q_hi else range(q_lo, q_hi - 1, -2)
    if len(qs) > _MAX_SCAN_QS:
        raise CapacityError(f"the scan {q_lo}..{q_hi} takes {len(qs)} odd q, "
                            f"over the cap of {_MAX_SCAN_QS}")
    if len(qs) * _SCAN_RECORD_BYTES > _MAX_SCAN_BYTES:
        raise CapacityError(f"the scan {q_lo}..{q_hi} holds about {len(qs) * _SCAN_RECORD_BYTES} bytes "
                            f"of records, over the cap of {_MAX_SCAN_BYTES}")
    return qs


def scan_range(q_lo: int, q_hi: int, table: Optional[PrimeTable] = None,
               large_threshold: int = DEFAULT_LARGE_THRESHOLD, workers: int = 1) -> ScanReport:
    """Periods of every odd q between the endpoints (inclusive), classified.

    Each period is the order of 2 mod q alone; table is never read.  A first
    endpoint above the second scans downwards; the record set is the same
    either way.  With more than one worker, the q are taken in scan order in
    process until that has taken _POOL_START_S, and only the q left then go
    to a pool of at most one worker process per core and per q, in
    contiguous chunks.  The final sort makes the output deterministic
    whatever the split.  report.workers is the pool's size, or 1.  The
    inputs are checked by _scan_qs before any work.
    """
    qs = _scan_qs(q_lo, q_hi, workers)
    direction = "down" if q_lo > q_hi else "up"
    workers = min(workers, os.cpu_count() or 1)
    pairs: list[tuple[int, int]] = []
    if workers > 1:
        stop = perf_counter() + _POOL_START_S
        for q in qs:
            if perf_counter() >= stop:
                break
            pairs.append((q, _order(q)))
    rest = qs[len(pairs):]
    workers = max(1, min(workers, len(rest)))
    if workers > 1:
        size = -(-len(rest) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = pool.map(_scan_chunk, [rest[i:i + size] for i in range(0, len(rest), size)])
            pairs += [pair for part in parts for pair in part]
    else:
        pairs += _scan_chunk(rest)

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

    out_dir is made if missing.  Each file is overwritten in place and then
    cut at the end of its new rows, so it ends up byte for byte as a fresh
    write would leave it; a new file gets mode 0o666 less the umask.  The
    truncation on open that this avoids took 52-93 us per file on an ext4
    root mounted with discard, against 3-11 us for the overwrite and cut.
    The write is not atomic: one that fails part way can leave old bytes
    after the new rows.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    for tag, name in STREAM_FILES.items():
        path = out / name
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", newline="\n") as fh:
            for rec in report.stream(tag):
                fh.write(f"{rec.segment}\t{rec.q}\t{rec.period}\n")
            fh.truncate()
        paths[tag] = path
    return paths


def find_divisor_of_mersenne(n: int, l_max: int = DEFAULT_L_MAX) -> Optional[tuple[int, int]]:
    """Smallest witness divisor q = 1 + 2*n*l of M(n) for prime n, with its l.

    is_prime64 decides n; n >= 2**64 raises CapacityError.  Any divisor of
    M(n) with n prime is 1 (mod 2n) and +-1 (mod 8), so only such candidates
    are tested.  Since n is prime, q divides M(n) exactly when 2**n = 1
    (mod q), which is also the sole way the period of 1/q can be n or less
    without being 1.  Returns None when l_max (or the 64-bit candidate
    limit) is exhausted; M(n) may still be composite.  l_max over _MAX_L_MAX
    raises CapacityError before any candidate is tried.
    """
    if n < 3:
        raise ValueError(f"divisor search needs n >= 3, got {n}")
    if n > U64_MAX:
        raise CapacityError(f"divisor search needs n < 2**64, got {n}")
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
