"""Census-based primality test for all Mersenne numbers M(j), prime j <= n0.

Every odd divisor candidate q <= floor(sqrt(M(n0))) with q = +-1 (mod 8) has
its doubling period computed, capped at n0 since larger periods are
irrelevant.  v(j) counts the candidates of period exactly j.  For prime j,
M(j) is prime exactly when v(j) = 0, or v(j) = 1 with M(j) itself below the
square-root bound (the lone witness then being M(j), which always has period
j).  Two or more witnesses mean a proper divisor exists.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import isqrt
from typing import Iterator

import numpy as np

from .errors import CapacityError
from .primality import is_prime64

MAX_EXPONENT = 127  # beyond this the candidate bound exceeds 64 bits

REASON_NO_WITNESS = "no-witness"
REASON_SELF_WITNESS = "self-witness-only"
REASON_PROPER_DIVISOR = "proper-divisor-witness"
REASON_MULTIPLE = "multiple-witnesses"

# Lanes stepped together: as uint32, a chunk's q, residues and two
# temporaries take 1 MB and stay in a core's L2 cache through all n0 steps.
_LANE_CHUNK = 1 << 16

# Fewest candidates worth a process pool.  On two vCPUs, workers=2 against
# in-process: n0=37 (93k candidates) 15.0 vs 3.7 ms, n0=41 (371k) 22.9 vs
# 13.6 ms, n0=43 (741k) 28.8 vs 23.0 ms, n0=47 (3.0M) 60.8 vs 84.0 ms.
_POOL_MIN_LANES = 1 << 20


def sqrt_of_mersenne(n0: int) -> int:
    """Exact floor(sqrt(2**n0 - 1)) for prime n0 up to 127."""
    if n0 > MAX_EXPONENT:
        raise CapacityError(f"candidate bound for n0={n0} exceeds 64 bits (max n0={MAX_EXPONENT})")
    if n0 < 3:
        raise ValueError(f"the test needs n0 >= 3, got {n0}")
    if not is_prime64(n0):
        raise ValueError(f"the test needs a prime n0, got {n0}")
    return isqrt((1 << n0) - 1)


def _streams(bound: int) -> list[tuple[int, int]]:
    """(first q, count) of the two candidate streams q = 7 and q = 1 (mod 8) up to bound."""
    return [(first, (bound - first) // 8 + 1) for first in (7, 9) if bound >= first]


def candidate_count(n0: int) -> int:
    """Number of divisor candidates: odd q = +-1 (mod 8), 3 <= q <= sqrt bound."""
    return sum(count for _, count in _streams(sqrt_of_mersenne(n0)))


def iter_candidates(n0: int) -> Iterator[int]:
    """The divisor candidates for n0, ascending: 7, 9, 15, 17, 23, 25, ..."""
    bound = sqrt_of_mersenne(n0)
    q = 7
    while q <= bound:
        yield q
        q += 2 if q & 7 == 7 else 6


@dataclass(frozen=True)
class MersenneCensus:
    n0: int
    sqrt_bound: int
    counts: dict[int, int]        # j -> v(j) for every j in 3..n0
    verdicts: dict[int, bool]     # prime j -> M(j) is prime
    reasons: dict[int, str]       # prime j -> which branch decided


def _census_block(first_q: int, count: int, n0: int) -> np.ndarray:
    """Tally of first-return times <= n0 over count candidates first_q, first_q+8, ...

    Lanes double in parallel, _LANE_CHUNK at a time in buffers allocated
    once, as uint32 when every q is below 2**32 and as uint64 otherwise.
    Each chunk skips its known prefix: with k = floor(log2) of the chunk's
    smallest q, every lane has 2**j < q for j <= k, so its residue after k
    doublings is 2**k and none of the first k can be 1.  The chunk fills r
    with 2**k and steps k+1..n0.

    The step form is chosen per chunk from its largest q.  If that q is at
    most 2**(w-1) for a lane width of w bits, then 2r < 2**w, and
    s = 2r, t = s - q, r = min(s, t) is exact in wrapping unsigned
    arithmetic: t wraps above s when 2r < q and is 2r - q < s otherwise.
    Above that bound 2r itself wraps, and a chunk takes five passes instead:
    with t = q - r, the next residue is min(r - t, r + min(r, t)); no sum
    there exceeds q, so it is exact for every q < 2**w.  A lane whose
    residue first returns to 1 at step j contributes to v(j) and is then
    parked at r = q, which both forms fix (the 3-pass form because q is odd,
    so 2q < 2**w), so it never counts again.  Every other residue lies in
    1..q-1, so one read, r.min() == 1, tells whether any lane hit 1 at a
    step; only then are the hits found and counted.
    """
    dtype = np.uint32 if first_q + 8 * (count - 1) < 2**32 else np.uint64
    half = 1 << (np.iinfo(dtype).bits - 1)
    size = min(_LANE_CHUNK, count)
    qs = first_q + 8 * np.arange(size, dtype=dtype)
    r, t, s = (np.empty(size, dtype=dtype) for _ in range(3))
    hit = np.empty(size, dtype=bool)
    v = np.zeros(n0 + 1, dtype=np.int64)
    for start in range(0, count, _LANE_CHUNK):
        n = min(_LANE_CHUNK, count - start)
        if n < size:
            qs, r, t, s, hit = (a[:n] for a in (qs, r, t, s, hit))
        q_lo = first_q + 8 * start
        k = q_lo.bit_length() - 1
        three_pass = q_lo + 8 * (n - 1) <= half
        r.fill(1 << k)
        for j in range(k + 1, n0 + 1):
            if three_pass:
                np.add(r, r, out=s)
                np.subtract(s, qs, out=t)
                np.minimum(s, t, out=r)
            else:
                np.subtract(qs, r, out=t)
                np.minimum(r, t, out=s)
                np.add(r, s, out=s)
                np.subtract(r, t, out=r)
                np.minimum(r, s, out=r)
            if r.min() == 1:
                np.equal(r, 1, out=hit)
                v[j] += np.count_nonzero(hit)
                np.copyto(r, qs, where=hit)
        qs += 8 * n
    return v


def _slices(first_q: int, count: int, parts: int) -> list[tuple[int, int]]:
    """count candidates from first_q in at most parts contiguous (first q, count) slices."""
    size = -(-count // parts)
    return [(first_q + 8 * start, min(size, count - start)) for start in range(0, count, size)]


def run_census(n0: int, workers: int = 1) -> MersenneCensus:
    """Count period-j witnesses over all candidates and turn them into verdicts.

    With more than one worker (at most one per core) and at least
    _POOL_MIN_LANES candidates, each worker process takes one contiguous
    slice of each candidate stream.
    """
    bound = sqrt_of_mersenne(n0)
    streams = _streams(bound)
    workers = min(workers, os.cpu_count() or 1)
    v = np.zeros(n0 + 1, dtype=np.int64)
    if workers > 1 and sum(count for _, count in streams) >= _POOL_MIN_LANES:
        tasks = [(first, size, n0) for stream in streams for first, size in _slices(*stream, workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_census_block, *zip(*tasks)):
                v += part
    else:
        for first, count in streams:
            v += _census_block(first, count, n0)

    counts = {j: int(v[j]) for j in range(3, n0 + 1)}
    verdicts: dict[int, bool] = {}
    reasons: dict[int, str] = {}
    for j in filter(is_prime64, range(3, n0 + 1)):
        vj = counts[j]
        self_in_range = (1 << j) - 1 <= bound
        if vj == 0:
            verdicts[j], reasons[j] = True, REASON_NO_WITNESS
        elif vj == 1 and self_in_range:
            verdicts[j], reasons[j] = True, REASON_SELF_WITNESS
        elif vj == 1:
            verdicts[j], reasons[j] = False, REASON_PROPER_DIVISOR
        else:
            verdicts[j], reasons[j] = False, REASON_MULTIPLE
    return MersenneCensus(n0, bound, counts, verdicts, reasons)
