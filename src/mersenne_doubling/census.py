"""Census-based primality test for all Mersenne numbers M(j), prime j <= n0.

Every odd divisor candidate q <= floor(sqrt(M(n0))) with q = +-1 (mod 8) has
its doubling period computed, capped at n0 since larger periods are
irrelevant.  v(j) counts the candidates of period exactly j.  For prime j,
M(j) is prime exactly when v(j) = 0, or v(j) = 1 with M(j) itself below the
square-root bound (the lone witness then being M(j), which always has period
j).  Two or more witnesses mean a proper divisor exists.
"""

from __future__ import annotations

import heapq
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

# Lanes stepped together.  A chunk's q, residues, a temporary and q << 1,
# q << 2 take 640 KB as uint32 (1.25 MB as uint64) and stay in a core's L2
# cache through all n0 steps.  Medians of 25 alternating calls on two shared
# vCPUs at 2**16 / 3 * 2**14 / 2**15 lanes: run_census(41) 6.26 / 5.58 /
# 5.45 ms, run_census(43) 11.7 / 10.8 / 10.8 ms; 2**18 lanes from 2**33 at
# n0=67 (uint64, jumps of 3) 9.96 / 8.98 / 8.36 ms, from 2**28 at n0=61
# 4.08 / 3.80 / 3.85 ms, from 2**31 at n0=67 (uint64, jumps of 3) 11.75 /
# 10.73 / 10.03 ms.
_LANE_CHUNK = 1 << 15

# Most doublings per pass of the subtract jump, which reduces every chunk
# that the estimate below does not.  Medians of 15 alternating run_census
# calls on two shared vCPUs, 2**16 lanes a chunk, all chunks on the
# subtract jump, J = 1 (the 3-pass step) / 2 / 3 / 4 / 5:
# n0=41 7.42 / 5.97 / 5.67 / 5.76 / 5.89 ms, n0=43 12.48 / 10.18 / 9.68 /
# 10.36 / 10.37 ms, n0=47 (5 calls) 44.7 / 36.5 / 33.2 / 36.3 / 36.0 ms.
# A jump of J costs one shift, J subtract/min pairs and one read.
_JUMP = 3

# Shortest jump that the float32 quotient estimate reduces.  Its pass costs
# the same whatever J is, so it wins where J can be long: J = min(k,
# 31 - bitlen(largest q)) is 5 just below 2**26 and 4 just below 2**27.
# Medians of 21 alternating _census_block calls on two shared vCPUs,
# 2**17 lanes ending at 2**e - 7, estimate over subtract jump: e = 26 (J =
# 5) 0.94 / 0.91 at n0 = 47 / 61, e = 27 (J = 4) 1.12-1.16 / 1.00-1.01;
# e = 19..25 (J = 12..6, 9 calls) 0.64-0.84 / 0.58-0.80.
_ESTIMATE_JUMP = 5

# Fewest candidates worth a process pool.  Medians on two vCPUs, workers=2
# against in-process: n0=37 (93k candidates) 19.5 vs 5.2 ms, n0=41 (371k)
# 24.6 vs 10.3 ms, n0=43 (741k) 27.7 vs 17.8 ms, n0=47 (3.0M) 52.9 vs
# 61.1 ms, n0=53 (24M) 293 vs 481 ms.
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
    streams = _streams(sqrt_of_mersenne(n0))
    return heapq.merge(*(range(first, first + 8 * count, 8) for first, count in streams))


@dataclass(frozen=True)
class MersenneCensus:
    n0: int
    sqrt_bound: int
    counts: dict[int, int]        # j -> v(j) for every j in 3..n0
    verdicts: dict[int, bool]     # prime j -> M(j) is prime
    reasons: dict[int, str]       # prime j -> which branch decided


def _lane_dtype(q_hi: int) -> type[np.unsignedinteger]:
    """Lane width for q up to q_hi, one headroom bit left: uint32 below 2**31, uint64 below 2**63."""
    if q_hi >= 2**63:
        raise CapacityError(f"census lanes need q < 2**63 (n0 <= 113), got q = {q_hi}")
    return np.uint32 if q_hi < 2**31 else np.uint64


def _census_block(first_q: int, count: int, n0: int) -> np.ndarray:
    """Tally of first-return times <= n0 over count candidates first_q, first_q+8, ...

    Lanes double in parallel, _LANE_CHUNK at a time, in buffers allocated
    once per call at the width _lane_dtype gives the call's largest q.  Each
    chunk runs as views of them at the width _lane_dtype gives its own
    largest q, so its lane width w is 32 or 64 and that q is below 2**(w-1).

    Each chunk skips its known prefix: with k = floor(log2) of the chunk's
    smallest q, every lane has 2**j < q for j <= k, so its residue after k
    doublings is 2**k and none of the first k can be 1.  The chunk fills r
    with 2**k and steps k+1..n0.

    A chunk then advances J doublings per pass, s = r << J, and reduces s
    to 2**J * r mod q in one of two ways, a rule on its q:

    * The estimate, when J = min(k, 31 - bitlen(largest q)) >= _ESTIMATE_JUMP
      (k >= 5 and every q below 2**26, so w = 32).  Then s < 2**31 reads
      the same as int32.  With inv = float32((1 - 2**-20) / q), made once
      per chunk, the quotient estimate d = int32(float32(s) * inv) takes
      four float32 roundings of at most 2**-24 each (q, the division, s,
      the product), so it lies within a factor 1 +- 2**-21 of
      (1 - 2**-20) * s / q: below s / q, and short of it by less than
      2**-19 * s / q < 2**(J - 19).  J <= k < bitlen(q) and
      J <= 31 - bitlen(q) give J <= 15, so the shortfall is below 1/16 and
      d is floor(s / q) or one less.  Then d * q <= s, s - d * q lies in
      0 .. 2q - 1, and one pair, r = min(t, t - q), ends the pass: t - q
      wraps above t when t < q.  A pass costs ten array operations, the
      read included, whatever J is.
    * The subtract jump otherwise: J = min(_JUMP, k, w - bitlen(largest q))
      >= 1, then s = min(s, s - (q << i)) for i = J-1 .. 0.  Every sum is
      exact in wrapping unsigned arithmetic, because s < q << (i + 1) <=
      q << J < 2**w before the subtraction at i: it wraps above s when
      s < q << i.  A pass costs one shift, J subtract/min pairs and a read.

    The last jump of a chunk is cut to the steps left.  Every q in the chunk
    exceeds 2**k, so its order exceeds k >= J and a lane returns to 1 at
    most once in a jump.  A lane that first returned at step j - e, e < J,
    ends the jump at j on r = 2**e, and r = 2**e < q at j means
    2**(j-e) = 1 mod q.  Such a lane contributes to v(j - e) and is then
    parked where its pass keeps it: at r = q under the subtract jump, at
    r = 0 under the estimate, so it never counts again.  Every other residue
    lies in 1..q-1, so one read per pass tells whether any lane may have
    returned, r.min() < 2**J, or (r - 1).min() < 2**J - 1 where parked lanes
    wrap to the top; only then are those residues found and the powers of
    two among them counted.
    """
    size = min(_LANE_CHUNK, count)
    widest = _lane_dtype(first_q + 8 * (count - 1))
    # q, r, t, then q << 1 .. q << (_JUMP - 1) or the estimate's inv and float32(s)
    buffers = [np.empty(size, dtype=widest) for _ in range(2 + _JUMP)]
    offsets = np.arange(0, 8 * size, 8, dtype=np.uint32)
    v = np.zeros(n0 + 1, dtype=np.int64)
    for start in range(0, count, _LANE_CHUNK):
        _census_chunk(first_q + 8 * start, min(_LANE_CHUNK, count - start), n0, buffers, offsets, v)
    return v


def _census_chunk(q_lo: int, n: int, n0: int, buffers: list[np.ndarray], offsets: np.ndarray,
                  v: np.ndarray) -> None:
    """Add to v the first returns of the n lanes q_lo, q_lo + 8, ..., stepped in buffers.

    offsets holds 0, 8, 16, ...; the chunk's q, q_lo + offsets, go into the
    first buffer.
    """
    q_hi = q_lo + 8 * (n - 1)
    dtype = _lane_dtype(q_hi)
    qs, r, t, *spare = (b.view(dtype)[:n] for b in buffers)
    np.add(offsets[:n], dtype(q_lo), out=qs)
    k = q_lo.bit_length() - 1
    jump = min(k, 31 - q_hi.bit_length())
    estimate = jump >= _ESTIMATE_JUMP
    if estimate:
        inv, f = (b.view(np.float32) for b in spare)
        np.divide(np.float32(1 - 2**-20), qs, out=inv, dtype=np.float32)
        s, d = t.view(np.int32), r.view(np.int32)
    else:
        jump = min(_JUMP, k, 8 * qs.itemsize - q_hi.bit_length())
        shifted = [qs, *spare][:jump]  # q << i, i = 0 .. jump - 1
        for i in range(1, jump):
            np.left_shift(qs, i, out=shifted[i])
    r.fill(1 << k)
    j = k
    while j < n0:
        step = min(jump, n0 - j)
        np.left_shift(r, step, out=t if estimate else r)
        if estimate:
            np.copyto(f, s)  # from int32: s < 2**31
            np.multiply(f, inv, out=f)
            np.copyto(d, f, casting="unsafe")  # d, in r: floor(s / q) or one less
            np.multiply(r, qs, out=r)
            np.subtract(t, r, out=t)  # s - d*q, in 0 .. 2q - 1
            np.subtract(t, qs, out=r)
            np.minimum(t, r, out=r)
            low, bound = np.subtract(r, 1, out=t), (1 << step) - 1  # parked lanes, at 0, wrap to the top
        else:
            for q_i in reversed(shifted[:step]):
                np.subtract(r, q_i, out=t)
                np.minimum(r, t, out=r)
            low, bound = r, 1 << step
        j += step
        if low.min() < bound:
            lanes = (low < bound).nonzero()[0]
            lanes = lanes[np.bitwise_count(r[lanes]) == 1]  # r = 2**e: a first return at j - e
            np.add.at(v, j - np.bitwise_count(r[lanes] - 1).astype(np.intp), 1)
            r[lanes] = 0 if estimate else qs[lanes]


def _slices(first_q: int, count: int, parts: int) -> list[tuple[int, int]]:
    """count candidates from first_q in at most parts contiguous (first q, count) slices."""
    size = -(-count // parts)
    return [(first_q + 8 * start, min(size, count - start)) for start in range(0, count, size)]


def run_census(n0: int, workers: int = 1) -> MersenneCensus:
    """Count period-j witnesses over all candidates and turn them into verdicts.

    With more than one worker (at most one per core) and at least
    _POOL_MIN_LANES candidates, each candidate stream is cut into one
    contiguous slice per worker, and the pool takes them highest q first.
    A bound of 2**63 or more (n0 = 127) fails up front with CapacityError.
    """
    bound = sqrt_of_mersenne(n0)
    _lane_dtype(bound)  # refuses a bound of 2**63 or more before any lane runs
    streams = _streams(bound)
    workers = min(workers, os.cpu_count() or 1)
    v = np.zeros(n0 + 1, dtype=np.int64)
    if workers > 1 and sum(count for _, count in streams) >= _POOL_MIN_LANES:
        # Highest q first: J falls and lanes widen as q grows, so cheap slices fill the tail.
        tasks = sorted(((first, size, n0) for stream in streams
                        for first, size in _slices(*stream, workers)), reverse=True)
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
