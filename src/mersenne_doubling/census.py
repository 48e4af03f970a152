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

from .dynamics import _check_workers, _order
from .errors import CapacityError
from .primality import is_prime64

MAX_EXPONENT = 127  # beyond this the candidate bound exceeds 64 bits

REASON_NO_WITNESS = "no-witness"
REASON_SELF_WITNESS = "self-witness-only"
REASON_PROPER_DIVISOR = "proper-divisor-witness"
REASON_MULTIPLE = "multiple-witnesses"

# Lanes stepped together.  A chunk's q, residues, a temporary and the
# estimate's two buffers, inv and float(r), take 640 KB as uint32 (1.25 MB as
# uint64) and stay in a core's L2 cache through all n0 steps.  Medians of 15
# alternating calls on two shared vCPUs, 2**14 / 2**16 lanes over 2**15:
# run_census(41) 0.96 / 1.18, run_census(43) 1.02 / 1.12, 2**18 lanes from
# 2**28 at n0=61 0.97 / 1.24, from 2**33 at n0=67 (uint64) 0.99 / 1.23.
_LANE_CHUNK = 1 << 15

# Smallest q that runs in a lane.  The seven candidates below it, 7, 9, 15,
# ..., 31, are counted by dynamics._order, so every chunk starts at k >= 5
# and the quotient estimate takes at least 5 doublings a pass.  Medians of
# 21-41 alternating run_census calls on two shared vCPUs, two runs, over a
# floor of 32: with lanes from q = 7 (the estimate at J = 2), n0=13
# 1.29-1.33, n0=31 1.83-2.04, n0=41 1.20-1.24, n0=43 1.07-1.14; a floor of
# 16 / 64 / 128, n0=31..43: 1.02-1.18 / 0.92-1.01 / 0.90-0.97.
_LANE_FLOOR = 32

# A stream is cut into chunks at every power of two from this one up, so
# that each chunk from here on lies in one octave 2**k <= q < 2**(k+1) and
# starts at its own k.  From 2**18 up an octave holds whole _LANE_CHUNK
# chunks of a stream, so the cut adds no chunk there.  Below it each stream
# keeps one chunk, from its first q at or above _LANE_FLOOR.  Medians of
# 21-31 alternating run_census calls on two shared vCPUs, a floor of 2**12 /
# 2**15 / 2**18 over 2**16: n0=31 1.55 / 1.08 / 1.02, n0=41 1.10 / 1.03 /
# 1.40, n0=43 1.05 / 0.99 / 1.22.
_SPLIT_FLOOR = 1 << 16

# The estimate per lane width: float type, signed integer of the same
# width, longest jump J and bias beta of inv = (1 - beta) * 2**J / q.  See
# _census_block for why d is floor(2**J * r / q) or one less.
_ESTIMATE = {
    np.uint32: (np.float32, np.int32, 19, 2**-20),
    np.uint64: (np.float64, np.int64, 44, 2**-46),
}

# Fewest candidates worth a process pool.  Medians of alternating calls on
# two shared vCPUs, workers=2 against in-process: n0=43 (741k candidates)
# 5.1 vs 5.2 ms, n0=47 (3.0M) 25-32 vs 16-22 ms, n0=53 (24M) 71-92 vs
# 105-149 ms, n0=59 (190M) 0.60 vs 1.13 s.  The pool costs about 25 ms,
# so it pays from about twice that in-process, some 9M candidates.
_POOL_MIN_LANES = 1 << 23

# Most lane-steps, candidate_count(n0) * n0, that run_census runs: past it,
# it raises CapacityError before any lane runs.  n0 = 67 runs 2.0e11 (the
# M(67) slow test, 14.5 s on two workers), n0 = 73 1.8e12; 2**42 = 4.4e12
# refuses n0 = 79 (1.5e13, about 17 min on two workers at the M(67) rate).
_MAX_LANE_STEPS = 1 << 42


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

    The candidates below _LANE_FLOOR are counted by their order,
    dynamics._order.  The rest double in parallel in lanes, in chunks of at
    most _LANE_CHUNK, cut also at every power of two from _SPLIT_FLOOR up,
    in buffers allocated once per call at the width _lane_dtype gives the
    call's largest q.  Each chunk runs as views of them at the width
    _lane_dtype gives its own largest q, so its lane width w is 32 or 64 and
    that q is below 2**(w-1).

    Each chunk skips its known prefix: with k = floor(log2) of the chunk's
    smallest q, every lane has 2**j < q for j <= k, so its residue after k
    doublings is 2**k and none of the first k can be 1.  The chunk fills r
    with 2**k and steps k+1..n0.  k >= 5, since every lane's q is at least
    _LANE_FLOOR.

    A chunk then advances J doublings per pass, s = r << J, and reduces s
    to 2**J * r mod q by a quotient estimate.  J = min(k, 19) in uint32
    lanes and min(k, 44) in uint64 lanes, and inv = (1 - beta) * 2**J / q
    is made once per chunk in float32 with beta = 2**-20, or in float64
    with beta = 2**-46.  A pass takes d = int(float(r) * inv), t = s - d*q
    and one pair r = min(t, t - q): t - q wraps above t when t < q.  s and
    d*q may wrap, but their difference is exact as long as its true value,
    2**J * r - d*q, lies in 0 .. 2q - 1 < 2**w, that is, as long as d is
    floor(2**J * r / q) or one less.  Four roundings (q, the division, r,
    the product) keep float(r) * inv within a factor 1 +- 2**-22 (float32)
    or 1 +- 2**-51 (float64) of (1 - beta) * 2**J * r / q.  So it lies
    below 2**J * r / q, and short of it by less than 2**J * 1.25 * 2**-20 <=
    0.625 (float32, J <= 19) or 2**J * 1.04 * 2**-46 < 0.27 (float64,
    J <= 44), since r < q.  r < 2**(w-1) is cast through the signed type,
    and d < 2**J is exact in either float.  The last, short pass of
    step < J doublings scales inv by 2**(step - J), which is exact.

    Every q in the chunk exceeds 2**k, so its order exceeds k >= J and a
    lane returns to 1 at most once in a jump.  A lane that first returned at
    step j - e, e < J, ends the jump at j on r = 2**e, and 2**e < q at j
    means 2**(j-e) = 1 mod q.  One exact read per pass, (r & (r - 1)).min()
    == 0, tells whether some r is a power of two.  Only then are the lanes
    found whose r is a power of two below 2**step, 2**(step-1) % r == 0,
    and counted: a chunk that spans octaves below _SPLIT_FLOOR also holds
    residues 2**j >= 2**(k + step) not yet reduced.  A counted lane is then
    parked on the 7-cycle (q = 7, r = 3, inv made for 7: residues 3, 6, 5),
    where it never reads as a power of two.
    """
    v = np.zeros(n0 + 1, dtype=np.int64)
    below = range(first_q, min(first_q + 8 * count, _LANE_FLOOR), 8)
    for q in below:
        order = _order(q)
        if order <= n0:
            v[order] += 1
    first_q, count = first_q + 8 * len(below), count - len(below)
    size = min(_LANE_CHUNK, count)
    widest = _lane_dtype(first_q + 8 * (count - 1))
    buffers = [np.empty(size, dtype=widest) for _ in range(5)]  # q, r, t, inv, float(r)
    offsets = np.arange(0, 8 * size, 8, dtype=np.uint32)
    start = 0
    while start < count:
        q_lo = first_q + 8 * start
        edge = max(1 << q_lo.bit_length(), _SPLIT_FLOOR)  # the next cut above q_lo
        n = min(_LANE_CHUNK, count - start, (edge - q_lo + 7) // 8)
        _census_chunk(q_lo, n, n0, buffers, offsets, v)
        start += n
    return v


def _census_chunk(q_lo: int, n: int, n0: int, buffers: list[np.ndarray], offsets: np.ndarray,
                  v: np.ndarray) -> None:
    """Add to v the first returns of the n lanes q_lo, q_lo + 8, ..., stepped in buffers.

    offsets holds 0, 8, 16, ...; the chunk's q, q_lo + offsets, go into the
    first buffer.
    """
    dtype = _lane_dtype(q_lo + 8 * (n - 1))
    real, signed, longest, bias = _ESTIMATE[dtype]
    qs, r, t = (b.view(dtype)[:n] for b in buffers[:3])
    inv, f = (b.view(real)[:n] for b in buffers[3:])
    np.add(offsets[:n], dtype(q_lo), out=qs)
    k = q_lo.bit_length() - 1
    jump = min(k, longest)
    scale = real((1 - bias) * 2**jump)
    np.divide(scale, qs, out=inv, dtype=real)
    inv_7, r_signed = scale / real(7), r.view(signed)
    r.fill(1 << k)
    j = k
    while j < n0:
        step = min(jump, n0 - j)
        np.left_shift(r, step, out=t)  # s, which may wrap
        if step < jump:  # the last pass: inv * 2**(step - jump) is exact
            np.multiply(inv, real(2.0 ** (step - jump)), out=inv)
        np.copyto(f, r_signed)
        np.multiply(f, inv, out=f)
        np.copyto(r_signed, f, casting="unsafe")  # d, in r: floor(2**step * r / q) or one less
        np.multiply(r, qs, out=r)
        np.subtract(t, r, out=t)  # s - d*q, in 0 .. 2q - 1
        np.subtract(t, qs, out=r)
        np.minimum(t, r, out=r)
        j += step
        low = np.bitwise_and(r, np.subtract(r, 1, out=t), out=t)  # 0 where r is a power of two
        if low.min() == 0:
            lanes = (low == 0).nonzero()[0]
            lanes = lanes[(1 << step - 1) % r[lanes] == 0]  # r = 2**e, e < step: a return at j - e
            np.add.at(v, j - np.bitwise_count(r[lanes] - 1).astype(np.intp), 1)
            qs[lanes], r[lanes], inv[lanes] = 7, 3, inv_7


def _slices(first_q: int, count: int, parts: int) -> list[tuple[int, int]]:
    """count candidates from first_q in at most parts contiguous (first q, count) slices."""
    size = -(-count // parts)
    return [(first_q + 8 * start, min(size, count - start)) for start in range(0, count, size)]


def run_census(n0: int, workers: int = 1) -> MersenneCensus:
    """Count period-j witnesses over all candidates and turn them into verdicts.

    With more than one worker (at most one per core) and at least
    _POOL_MIN_LANES candidates, each candidate stream is cut into one
    contiguous slice per worker, and the pool takes them in stream order.
    A census of more than _MAX_LANE_STEPS lane-steps fails up front with
    CapacityError.  So does every bound of 2**63 or more (n0 = 127), which
    no lane width steps: its 2**61 candidates are far over the cap.  Fewer
    than one worker is a ValueError.
    """
    _check_workers(workers)
    bound = sqrt_of_mersenne(n0)
    streams = _streams(bound)
    candidates = sum(count for _, count in streams)
    if candidates * n0 > _MAX_LANE_STEPS:
        raise CapacityError(f"the census for n0={n0} runs {candidates * n0} lane-steps, over "
                            f"the cap of {_MAX_LANE_STEPS}")
    workers = min(workers, os.cpu_count() or 1)
    v = np.zeros(n0 + 1, dtype=np.int64)
    if workers > 1 and candidates >= _POOL_MIN_LANES:
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
