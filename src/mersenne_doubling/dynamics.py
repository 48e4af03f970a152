"""Doubling-map dynamics on rational angles 1/q with odd denominator.

The angle 1/q is periodic under theta -> 2*theta (mod 1) exactly when q is
odd, and its period equals the multiplicative order of 2 modulo q.  All
computations here work on the integer orbit r -> 2r (mod q) over
Z_q = {1, ..., q-1}, compressed through the return map

    r -> 2^p * r - q,   p minimal with 2^p * r >= q,

whose exponent p is the "flying time" of the step.  The period of 1/q is the
sum of the flying times over one cycle of that return map.

Everything in this module is a pure function of its arguments; q and all
residues are plain ints, kept within 64 unsigned bits to match the intended
production range.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .primality import factor

U64_MAX = 2**64 - 1

DEFAULT_KAPPA = 2


def floor_log2(u: int) -> int:
    """Return the t with 2**t <= u < 2**(t+1), for 1 <= u < 2**64."""
    if u < 1:
        raise ValueError("floor_log2 needs u >= 1 (zero has no dominant one)")
    if u > U64_MAX:
        raise ValueError("floor_log2 operates on 64-bit values")
    return u.bit_length() - 1


def _check_modulus(q: int, minimum: int = 3) -> None:
    if not isinstance(q, int):
        raise ValueError(f"modulus must be an int, got {type(q).__name__}")
    if q % 2 == 0:
        raise ValueError(f"modulus must be odd, got {q}")
    if q < minimum:
        raise ValueError(f"modulus must be >= {minimum}, got {q}")
    if q > U64_MAX:
        raise ValueError(f"modulus must fit in 64 unsigned bits, got {q}")


def _check_residue(r: int, q: int) -> None:
    if not 1 <= r <= q - 1:
        raise ValueError(f"residue must lie in 1..{q - 1}, got {r}")


def _check_kappa(kappa: int) -> None:
    if not 1 <= kappa <= 64:
        raise ValueError(f"kappa must lie in 1..64, got {kappa}")


class PoincareStep(NamedTuple):
    next_r: int
    flying_time: int


class PeriodResult(NamedTuple):
    q: int
    period: int
    steps: int  # number of return-map steps whose flying times sum to the period


@dataclass(frozen=True)
class FlyingTimeHistogram:
    """Absolute frequency of each flying time along the full cycle of 1.

    counts maps t -> frequency; flying times that never occur are omitted.
    """

    q: int
    counts: dict[int, int]

    @property
    def period(self) -> int:
        return sum(t * c for t, c in self.counts.items())

    @property
    def steps(self) -> int:
        return sum(self.counts.values())


def poincare_step_naive(r: int, q: int) -> PoincareStep:
    """Next return-map value and flying time, by doubling until the orbit wraps."""
    _check_modulus(q, minimum=5)
    _check_residue(r, q)
    qh = (q - 1) >> 1
    a = r
    ft = 0
    while a <= qh:
        a += a
        ft += 1
    return PoincareStep(a - (q - a), ft + 1)


def poincare_step_predictive(r: int, q: int) -> PoincareStep:
    """Next return-map value and flying time, with the flight predicted in one shot.

    The flying time p satisfies 2**p > (q-1)/r >= 2**(p-1), so
    p - 1 = floor_log2((q-1) // r).  The intermediate a = r * 2**(p-1) never
    exceeds q - 1, which keeps the arithmetic inside 64 bits.
    """
    _check_modulus(q, minimum=5)
    _check_residue(r, q)
    t = floor_log2((q - 1) // r)
    a = r << t
    return PoincareStep(a - (q - a), t + 1)


def period_naive(q: int) -> PeriodResult:
    """Period of 1/q by iterating the return map with trial-and-error flights."""
    _check_modulus(q, minimum=5)
    qh = (q - 1) >> 1
    r = 1
    period = 0
    steps = 0
    while True:
        ft = 0
        while r <= qh:
            r += r
            ft += 1
        r -= q - r
        period += ft + 1
        steps += 1
        if r == 1:
            return PeriodResult(q, period, steps)


def period_hybrid(q: int, kappa: int = DEFAULT_KAPPA) -> PeriodResult:
    """Period of 1/q, choosing per residue between plain and predicted flights.

    The first step always flies for floor_log2(q) + 1 doublings and is seeded
    directly.  Afterwards residues above floor(q / 2**kappa) take the
    non-predictive branch, the rest the predictive one.  Requires
    q >= max(5, 2**kappa) so that the boundary is at least 1.
    """
    _check_kappa(kappa)
    _check_modulus(q, minimum=5)
    if q < (1 << kappa):
        raise ValueError(f"hybrid stepping needs q >= 2**kappa = {1 << kappa}, got {q}")
    qh = (q - 1) >> 1
    qm1 = q - 1
    r_boundary = q >> kappa
    t = floor_log2(q)
    a = 1 << t
    r = a - (q - a)
    period = t + 1
    steps = 1
    while r != 1:
        if r > r_boundary:
            t = 0
            a = r
            while a <= qh:
                a += a
                t += 1
        else:
            t = floor_log2(qm1 // r)
            a = r << t
        r = a - (q - a)
        period += t + 1
        steps += 1
    return PeriodResult(q, period, steps)


# ---------------------------------------------------------------------------
# Order and wrap-bit stream.
#
# The period is the order of 2 mod q (_order), for every odd q >= 3:
# period_of, period_capped and flying_time_histogram all start from it, and
# the scan reads nothing else.  Steps and flying times come from the wrap bits
# of its n doublings: k doublings from residue x are one division,
# x << k = digit * q + new_x, whose quotient digit has a set bit at every
# doubling that wrapped past q.  Steps = popcount, flying times = gaps between
# set bits: inside a 16-bit word from _gap_table, across words from
# _read_flights, which reads each word's first and last set bits off float32
# exponents.
#
# Two sources produce the same digits; _digit_sources splits the orbit
# between them.  The bigint source (_wrap_blocks) divides one Python int per
# block of _STREAM_BLOCK doublings: q >= 2**48, short orbits and the
# doublings after the last full lane step.  The lane source (_lane_digits)
# splits the orbit into _LANES numpy uint64 lanes that step independently
# from their start residues 2**(i*L*k) (Knuth, TAOCP vol. 2, 4.3.1: each
# quotient digit needs only its own remainder).  A step is t = r << k;
# d = t // q; r = t - d*q: uint64 floor_divide by a scalar costs about 0.8 ns
# an element, remainder about 4 ns, so the remainder comes from the quotient
# (Lemire, Kaser & Kurz, SPE 2019).
# ---------------------------------------------------------------------------

# Doublings per divmod block; a multiple of 16, so that blocks and the lane
# hand-off join on the 16-bit word boundaries that _read_flights counts in.
_STREAM_BLOCK = 1 << 18

# Lanes stepped side by side, and lane steps per chunk.  On two shared
# vCPUs, ns per doubling for count / histogram at k = 32 (q = 4291434391,
# n = 1.4e8) and k = 16 (q = 8599306381, n = 1.3e8), best of three:
#   2**12 lanes,  8 steps: 0.110 / 0.761 and 0.217 / 0.850
#   2**13 lanes,  4 steps: 0.100 / 0.680 and 0.203 / 0.811
#   2**13 lanes,  8 steps: 0.102 / 0.615 and 0.204 / 0.719
#   2**13 lanes, 16 steps: 0.102 / 0.624 and 0.229 / 0.699
#   2**14 lanes,  8 steps: 0.100 / 0.655 and 0.174 / 0.760
# (bigint stream: about 0.8 / 2.7).  At 2**13 lanes and 8 steps the
# histogram's chunk buffers take 1.9 MB.  The start residues cost
# 0.1-0.3 us a lane.
_LANES = 1 << 13
_LANE_CHUNK = 8

# Shortest orbit streamed in lanes.  Bigint time over lane time for count /
# histogram, n a multiple of the order of q = 131213 (k = 32) and of
# q = 8599306381 (k = 16): at 2.1e6 doublings 0.50 / 1.37 and 0.62 / 1.21,
# at 4.2e6 0.83 / 1.51 and 1.03 / 1.65, at 8.4e6 1.31 / 2.30 and
# 2.16 / 2.19.
_LANE_MIN_DOUBLINGS = 1 << 22


def _order(q: int) -> int:
    """Order of 2 mod odd q >= 3, from its multiple lambda(q) (Cohen, GTM 138, 1.4).

    Each prime r of n = lambda(q) is divided out while 2**(n/r) = 1 (mod q).
    """
    n = 1
    for p, e in factor(q).items():
        n = math.lcm(n, p ** (e - 1) * (p - 1))
    for r in factor(n):
        while n % r == 0 and pow(2, n // r, q) == 1:
            n //= r
    return n


def _wrap_blocks(q: int, n: int, done: int = 0, x: int = 1) -> Iterator[tuple[int, int]]:
    """Doublings done..n of the orbit of 1 as (length, wrap bits) blocks.

    x is the residue 2**done mod q.  The wrap bits of a block are its divmod
    quotient, first doubling in the most significant of its length bits.
    Raises ArithmeticError after the last block if the orbit has not
    returned to 1.
    """
    while done < n:
        k = min(_STREAM_BLOCK, n - done)
        quotient, x = divmod(x << k, q)
        yield k, quotient
        done += k
    if x != 1:
        raise ArithmeticError(f"orbit of 1 mod {q} did not close after {n} doublings")


def _lane_bits(q: int, n: int) -> int:
    """Digit width k of the lane stream for n doublings mod q, or 0 for the bigint stream.

    A lane shifts its residue r < q left by k bits inside uint64, so k = 32
    needs q < 2**32 and k = 16 needs q < 2**48.
    """
    k = 32 if q < 2**32 else 16 if q < 2**48 else 0
    return k if n >= _LANE_MIN_DOUBLINGS and n >= k * _LANES else 0


def _digit_sources(q: int, n: int) -> tuple[int, np.ndarray, Iterable[np.ndarray],
                                             Iterator[tuple[int, int]]]:
    """The lane digits and the bigint blocks after them, for n doublings of the orbit of 1.

    Returns the digit width k from _lane_bits, the residues 2**(i*L*k) mod q
    where the _LANES lanes of L steps start, then the two sources.  The last
    residue is where the bigint blocks take over; with k = 0 it is the only
    one, 1, and no lane digit comes.
    """
    k = _lane_bits(q, n)
    if not k:
        return 0, np.array([1], dtype=np.uint64), (), _wrap_blocks(q, n)
    steps = n // k // _LANES
    stride = pow(2, steps * k, q)
    r = 1
    starts = [r]
    for _ in range(_LANES):
        r = r * stride % q
        starts.append(r)
    starts = np.array(starts, dtype=np.uint64)
    return k, starts, _lane_digits(q, k, steps, starts), _wrap_blocks(q, n, _LANES * steps * k, r)


def _lane_digits(q: int, k: int, steps: int, starts: np.ndarray) -> Iterator[np.ndarray]:
    """The k-bit wrap-bit digits of every lane, in (lane steps, _LANES) chunks.

    Row j of a chunk holds each lane's digit for its next k doublings.  A
    chunk's buffer is refilled for the next chunk, so a reader may consume
    it in place.  Raises ArithmeticError after the last chunk if a lane did
    not end on the next lane's start residue.
    """
    divisor, shift = np.uint64(q), np.uint64(k)
    r = starts[:-1].copy()
    t = np.empty_like(r)
    digits = np.empty((min(_LANE_CHUNK, steps), _LANES), dtype=np.uint64)
    for first in range(0, steps, _LANE_CHUNK):
        chunk = digits[:min(_LANE_CHUNK, steps - first)]
        for d in chunk:
            np.left_shift(r, shift, out=t)
            np.floor_divide(t, divisor, out=d)
            np.multiply(d, divisor, out=r)
            np.subtract(t, r, out=r)
        yield chunk
    if not np.array_equal(r, starts[1:]):
        raise ArithmeticError(f"a lane of the orbit of 1 mod {q} did not end on the next lane's start")


def _count_reductions(q: int, n: int) -> int:
    """Number of wrapped doublings among the n doublings closing the orbit of 1.

    The popcount of every lane digit, then of the bigint blocks after them.
    """
    _, _, digits, blocks = _digit_sources(q, n)
    total = sum(int(np.bitwise_count(chunk).sum()) for chunk in digits)
    return total + sum(quotient.bit_count() for _, quotient in blocks)


@functools.cache
def _gap_table() -> np.ndarray:
    """gap[t, w]: pairs of adjacent set bits at distance t inside the 16-bit word w.

    A pair at distance t is a set bit i with bit i + t set and bits
    i + 1 .. i + t - 1 clear; between[w] keeps those clear bits as t grows.
    No two bits of a 16-bit word lie 16 apart, so t < 16.  Counted in int32
    and widened: freeing the 4 MB table lifts glibc's mmap and trim
    thresholds above the buffers each histogram and census call allocates
    (up to 4 MB), which otherwise fault back in on every call.
    """
    w = np.arange(65536, dtype=np.uint16)
    gap = np.zeros((16, 65536), dtype=np.int32)
    between = np.full_like(w, 0xFFFF)
    for t in range(1, 16):
        gap[t] = np.bitwise_count(w & (w >> t) & between)
        between &= ~(w >> t)
    return gap.astype(np.int64)


def _read_flights(q: int, chunks: Iterable[np.ndarray], carry: np.ndarray,
                  counts: np.ndarray, word_hist: np.ndarray) -> np.ndarray:
    """Add the flights that cross 16-bit words to counts, the words to word_hist.

    chunks yields (rows, lanes) uint16 arrays, none longer than the first.
    Column j holds lane j's words in time order, first doubling in the most
    significant bit, so bit b of row i lies at position 16 * i + 15 - b.
    carry holds each lane's last wrap before row 0, a position below 0, and
    positions are counted in its dtype.  A word's first and last set bits
    come from the float32 exponent of w and of its lowest set bit w & -w
    (exact below 2**24).  A running maximum down the rows carries each lane's
    last set bit across zero words and chunks, so the flight ending at a
    word's first set bit is its distance to that carried bit.  Returns the
    carry after the last chunk, relative to the row after it.  Raises
    ArithmeticError on a flight above 64.
    """
    last = None
    for words in chunks:
        rows, lanes = words.shape
        if last is None:  # buffers for the first chunk, reused for the rest
            zero = np.empty(words.shape, dtype=bool)
            exponent = np.empty(words.shape, dtype=np.float32)
            first = np.empty(words.shape, dtype=carry.dtype)
            last = np.empty((rows + 1, lanes), dtype=carry.dtype)  # row 0: the carry
            last[0] = carry
            base = 16 * np.arange(rows, dtype=carry.dtype)[:, None] + 142  # 15 + float32 exponent bias
        z, e, f, lw = zero[:rows], exponent[:rows], first[:rows], last[:rows + 1]
        b = e.view(np.int32)
        np.equal(words, 0, out=z)
        low = f.view(np.uint16)[:, :lanes]  # w & -w, in f's memory until f takes the first set bits
        np.negative(words, out=low)
        np.bitwise_and(low, words, out=low)
        np.copyto(e, low)
        np.right_shift(b, 23, out=b)
        np.subtract(base[:rows], b, out=lw[1:])  # last set bit: 16 * row + 15 - ctz(w)
        np.copyto(lw[1:], -(1 << 14), where=z)
        np.copyto(e, words)
        np.right_shift(b, 23, out=b)
        np.subtract(base[:rows], b, out=f)  # first set bit: 16 * row + 15 - floor_log2(w)
        if lanes == 1:  # accumulate is fast down one column, slow across many lanes
            np.maximum.accumulate(lw, axis=0, out=lw)
        else:
            for i in range(rows):
                np.maximum(lw[i], lw[i + 1], out=lw[i + 1])
        np.subtract(f, lw[:-1], out=f)
        np.copyto(f, 0, where=z)
        flights = np.bincount(f.ravel(), minlength=65)
        np.subtract(lw[-1], 16 * rows, out=last[0])
        if flights.size > 65 or last[0].min() < -64:
            raise ArithmeticError(f"flying time above 64 in orbit of 1 mod {q}")
        counts[1:] += flights[1:]
        word_hist += np.bincount(words.ravel(), minlength=65536)
    return carry if last is None else last[0]


def _lane_words(k: int, digits: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    """Each chunk of k-bit lane digits as 16-bit words, k // 16 rows per digit, high word first."""
    per_digit = k // 16
    words = np.empty((_LANE_CHUNK * per_digit, _LANES), dtype=np.uint16)
    for chunk in digits:
        w = words[:len(chunk) * per_digit]
        by_digit = w.reshape(len(chunk), per_digit, _LANES)
        for h in reversed(range(per_digit)):  # low word last in time
            np.copyto(by_digit[:, h], chunk, casting="unsafe")
            np.right_shift(chunk, np.uint64(16), out=chunk)
        yield w


def _flight_counts_stream(q: int, n: int) -> np.ndarray:
    """Histogram (index 1..64) of flying times over the n-doubling orbit of 1.

    Gaps inside 16-bit words come from _gap_table over the histogram of the
    words, gaps across words from _read_flights: over the lane words with
    int16 positions (a chunk has at most 16 rows), then over the bigint
    blocks with int32 positions (up to 2**14 rows).  Before the first word
    from start residue x, the last wrap lies ctz(x) + 1 doublings back: a
    doubling wrapped exactly when the residue it produced is odd, since q is
    odd, and a residue halves with every step back from an even one.  So a
    flight across a lane join is counted once, in the later lane.  The orbit
    closes on a wrap, so the gaps between set bits are the flying times.
    """
    gap = _gap_table()  # first: building it lifts the allocator thresholds for the stream's buffers
    counts = np.zeros(65, dtype=np.int64)
    word_hist = np.zeros(65536, dtype=np.int64)
    k, starts, digits, blocks = _digit_sources(q, n)
    carry = -np.bitwise_count(starts ^ (starts - np.uint64(1))).astype(np.int32)  # -(ctz(x) + 1)
    _read_flights(q, _lane_words(k, digits), carry[:-1].astype(np.int16), counts, word_hist)
    columns = (np.frombuffer((d << -m % 16).to_bytes((m + 15) // 16 * 2, "big"), ">u2").reshape(-1, 1)
               for m, d in blocks)  # each block as one lane, its final partial word padded with zeros
    _read_flights(q, columns, carry[-1:], counts, word_hist)
    counts[1:16] += gap[1:] @ word_hist  # row 0 is empty: no flight has length 0
    return counts


def period_of(q: int) -> PeriodResult:
    """Period of 1/q under the doubling map, for any odd q >= 3.

    The period is the order of 2 from factor(q), the steps the wrapped
    doublings of the stream; both equal what the stepping algorithms above
    return, which the tests hold them to.
    """
    _check_modulus(q)
    n = _order(q)
    return PeriodResult(q, n, _count_reductions(q, n))


def period_capped(q: int, cap: int) -> Optional[PeriodResult]:
    """period_of, or None when the period exceeds cap."""
    _check_modulus(q)
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    n = _order(q)
    if n > cap:
        return None
    return PeriodResult(q, n, _count_reductions(q, n))


def flying_time_histogram(q: int) -> FlyingTimeHistogram:
    """Frequency of every flying time along the full cycle of 1 in Z_q."""
    _check_modulus(q, minimum=5)
    arr = _flight_counts_stream(q, _order(q))
    return FlyingTimeHistogram(q, {t: int(arr[t]) for t in range(1, 65) if arr[t]})


def is_complete_wrt_flying_times(q: int) -> bool:
    """Whether every flying time 1..s occurs for 1/q, where 2**(s-1) < q < 2**s."""
    hist = flying_time_histogram(q)
    s = floor_log2(q) + 1
    return all(t in hist.counts for t in range(1, s + 1))
