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

from .errors import CapacityError
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


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


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
# the scan reads nothing else.  Then one plan (_plan, below) picks how the
# steps or flights are counted: for composite q, often from the orbits mod
# two coprime factors (the split, below); otherwise, and in the tests as the
# split's oracle, from the wrap bits of the n doublings (the stream).
# k doublings from residue x are one division,
# x << k = digit * q + new_x, whose quotient digit has a set bit at every
# doubling that wrapped past q.  Steps = popcount, flying times = gaps between
# set bits: inside a word of at most 16 bits from _gap_table, across words
# from _read_flights, which reads each word's first and last set bits off
# float32 exponents.
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
# (Lemire, Kaser & Kurz, SPE 2019).  A lane step costs about the same at
# every k, so each lane steps the widest digit that r << k leaves inside
# uint64 (_lane_bits): k = 32 below 2**32, 64 - bit length from 33 to 48
# bits.  The histogram reads a digit as words of _word_bits(k) bits, two of
# 12 to 16 bits for even k of 24 to 32, else one of 16, so from 41 bits it
# steps k = 16.  The lane starts are the fixed cost of the lane source:
# Python products, then a ladder of vector products whose float64 quotient
# estimate makes each product mod q exact for q < 2**48 (_powers, _mulmod),
# about 0.09 ms a call.  Short orbits take the bigint source alone and build
# no starts; _LANE_MIN_DOUBLINGS is where the lanes overtake it.
# ---------------------------------------------------------------------------

# Doublings per divmod block; a multiple of 16, so that one block joins the
# next on the 16-bit word boundaries that _read_flights counts in.  The lane
# hand-off needs no such boundary: the first block starts from its own carry.
_STREAM_BLOCK = 1 << 18

# Lanes stepped side by side, and lane steps per chunk.  On two shared
# vCPUs, ns per doubling for count / histogram at k = 32 (q = 4291434391,
# n = 1.4e8) and k = 16 (q = 8599306381, n = 1.3e8, a multiple of its
# order; it has 34 bits and took k = 16 before the widths of _lane_bits),
# best of three:
#   2**12 lanes,  8 steps: 0.110 / 0.761 and 0.217 / 0.850
#   2**13 lanes,  4 steps: 0.100 / 0.680 and 0.203 / 0.811
#   2**13 lanes,  8 steps: 0.102 / 0.615 and 0.204 / 0.719
#   2**13 lanes, 16 steps: 0.102 / 0.624 and 0.229 / 0.699
#   2**14 lanes,  8 steps: 0.100 / 0.655 and 0.174 / 0.760
# (bigint stream: about 0.8 / 2.7).  At 2**13 lanes and 8 steps the
# histogram's chunk buffers take 1.9 MB.
_LANES = 1 << 13
_LANE_CHUNK = 8

# Shortest orbit streamed in lanes.  Bigint time over lane time for count /
# histogram, n a multiple of the order of q = 131213 (k = 32) and of
# q = 8599306381 (then k = 16), medians of 9 alternating calls:
#   k = 32: 5.2e5 0.73 / 1.09, 6.6e5 0.81 / 1.03, 7.9e5 0.84 / 1.10,
#           9.2e5 0.78 / 1.31, 1.05e6 1.31 / 1.33, 2.1e6 1.96 / 1.39
#   k = 16: 1.05e6 2.23 / 1.47, 2.1e6 3.09 / 1.74
# The count is slower in lanes below 2**20 doublings, neither is above.
_LANE_MIN_DOUBLINGS = 1 << 20

# Most words a stream may read for its gap fold to gather only the bins
# they occupy: n <= 16 * _FEW_WORDS doublings read at most _FEW_WORDS + 1
# words.  Folding all 65536 bins of the gap table takes 0.57-0.70 ms; the
# bins found and gathered, best of 9 on two shared vCPUs: 1 bin 0.05 ms,
# 1024 bins 0.19 ms, 2048 bins 0.39 ms, 4096 bins 0.48 ms, 8192 bins 0.76 ms.
_FEW_WORDS = 1 << 11

# Most residues that one _powers step multiplies at once: the lane starts
# in one block, and the temporaries of a split's side within 200 KB.
_POWERS_BLOCK = 1 << 13

# Residues that _powers builds as Python products before its vector ladder:
# a ladder step on a few residues costs about 10 us of numpy overhead.  The
# 8193 lane starts took, best of 9 x 300 calls on two shared vCPUs, 111 us
# from 1 residue (14 vector steps), 91 us from 16, 87-90 from 32, 83-86
# from 48 and 64, 84 from 96, 87-89 from 128 and 97-99 from 256.
_POWERS_HEAD = 64

# The one start of an orbit on the bigint source alone, built once, so that
# short orbits make no numpy call for it.
_BIGINT_START = np.ones(1, dtype=np.uint64)
_BIGINT_START.flags.writeable = False


def _order(q: int, factors: Optional[dict[int, int]] = None) -> int:
    """Order of 2 mod odd q >= 3, from its multiple lambda(q) (Cohen, GTM 138, 1.4).

    factors is factor(q), computed here when not given.  Each prime r of
    n = lambda(q) is divided out while 2**(n/r) = 1 (mod q).
    """
    n = 1
    for p, e in (factor(q) if factors is None else factors).items():
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


def _lane_bits(q: int, n: int, histogram: bool = False) -> int:
    """Digit width k of the lane stream for n doublings mod q, or 0 for the bigint stream.

    A lane shifts its residue r < q left by k bits inside uint64, so k is
    at most 64 - bit length of q: 32 below 2**32, down to 16 below 2**48.
    The count steps the widest such k.  The histogram reads each digit as
    words of _word_bits(k) bits, two words of 12 to 16 bits, so it steps
    the widest even k of 24 or more, up to 40-bit q, and from 41 bits on
    k = 16, one 16-bit word: narrower words made its reader slower.
    """
    k = min(32, 64 - q.bit_length())
    if histogram and 16 < k < 32:
        k = k & ~1 if k >= 24 else 16
    return k if k >= 16 and n >= _LANE_MIN_DOUBLINGS and n >= k * _LANES else 0


def _word_bits(k: int) -> int:
    """Bits w of the words a k-bit lane digit is read as: 16 up to k = 16, else the digit's halves."""
    return k // 2 if k > 16 else 16


def _digit_sources(q: int, n: int, histogram: bool = False) -> tuple[int, np.ndarray, Iterable[np.ndarray],
                                                                     Iterator[tuple[int, int]]]:
    """The lane digits and the bigint blocks after them, for n doublings of the orbit of 1.

    Returns the digit width k from _lane_bits (the histogram's when
    histogram is set), the residues 2**(i*L*k) mod q where the _LANES lanes
    of L steps start, then the two sources.  The last residue is where the
    bigint blocks take over; with k = 0 it is the only one, 1, and no lane
    digit comes.  The starts are stride**i for
    stride = 2**(L*k), built by _powers: 64 Python products, then 8 vector
    steps that double the filled prefix for 2**13 lanes.
    """
    k = _lane_bits(q, n, histogram)
    if not k:
        return 0, _BIGINT_START, (), _wrap_blocks(q, n)
    steps = n // k // _LANES
    starts = _powers(1, pow(2, steps * k, q), q, np.empty(_LANES + 1, dtype=np.uint64))
    return k, starts, _lane_digits(q, k, steps, starts), _wrap_blocks(q, n, _LANES * steps * k, int(starts[-1]))


def _powers(first: int, ratio: int, q: int, s: np.ndarray) -> np.ndarray:
    """s, filled with first * ratio**i mod q for i < len(s), for first, ratio < q < 2**48.

    s is uint64.  The first _POWERS_HEAD residues are Python products; then
    a ladder of vector steps doubles the filled prefix,
    s[m:2m] = s[:m] * ratio**m (mod q), each an exact _mulmod, in blocks of
    at most _POWERS_BLOCK residues so that its temporaries stay small.
    """
    count = len(s)
    m = min(_POWERS_HEAD, count)
    head, x = [], first
    for _ in range(m):
        head.append(x)
        x = x * ratio % q
    s[:m] = head
    c = pow(ratio, m, q)
    while m < count:  # c = ratio**m
        end = min(2 * m, count)
        for i in range(m, end, _POWERS_BLOCK):
            stop = min(i + _POWERS_BLOCK, end)
            s[i:stop] = _mulmod(s[i - m:stop - m], c, q)
        c, m = c * c % q, 2 * m
    return s


def _mulmod(a: np.ndarray, c: int, q: int) -> np.ndarray:
    """a * c mod q for uint64 residues a < q and c < q < 2**48.

    The float64 quotient is taken of a * c / q scaled by 1 - 2**-50: three
    roundings of 2**-53 each leave it below a * c / q < 2**48, and short of
    it by less than 2**48 * 11 * 2**-53 < 1.  So it truncates to
    floor(a * c / q) or one less, and the remainder a * c - quotient * q,
    taken modulo 2**64, is exact and lies in 0 .. 2q - 1.  Then
    min(rem, rem - q) is rem mod q: rem - q wraps above rem when rem < q.
    About 5 ns an element, against 9 ns for a floored estimate and % q.
    """
    quotient = (a * (c / q * (1 - 2**-50))).astype(np.uint64)
    rem = a * np.uint64(c) - quotient * np.uint64(q)
    return np.minimum(rem, rem - np.uint64(q))


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
    A chunk's uint8 popcounts are summed down its rows per lane in uint16
    (at most _LANE_CHUNK * 32 = 256 a lane), which costs less than summing
    them all into a wider total.
    """
    _, _, digits, blocks = _digit_sources(q, n)
    total = sum(int(np.add.reduce(np.bitwise_count(chunk), axis=0, dtype=np.uint16).sum()) for chunk in digits)
    return total + sum(quotient.bit_count() for _, quotient in blocks)


@functools.cache
def _gap_table() -> np.ndarray:
    """gap[t, w]: pairs of adjacent set bits at distance t inside the 16-bit word w.

    A pair at distance t is a set bit i with bit i + t set and bits
    i + 1 .. i + t - 1 clear; between[w] keeps those clear bits as t grows.
    No two bits of a 16-bit word lie 16 apart, so t < 16.  A word of fewer
    bits, w < 2**b for b < 16, has the gaps of the same 16-bit word, so its
    first 2**b columns serve the lanes' narrower words too.  Counted in int32
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


def _read_flights(q: int, w: int, chunks: Iterable[np.ndarray], carry: np.ndarray,
                  counts: np.ndarray, word_hist: np.ndarray) -> np.ndarray:
    """Add the flights that cross w-bit words to counts, the words to word_hist.

    chunks yields (rows, lanes) uint16 arrays of words below 2**w, w <= 16,
    none longer than the first.  Column j holds lane j's words in time
    order, first doubling in the most significant of the w bits, so bit b
    of row i lies at position w * i + (w - 1) - b.  word_hist has 65536
    bins whatever w, as _gap_table has columns, and these words fill its
    first 2**w.  carry holds each lane's last wrap before row 0, a position
    below 0, and positions are counted in its dtype.  A word x's first and
    last set bits come from the float32 exponent of x and of its lowest set
    bit x & -x (exact below 2**24).  A running maximum down the rows carries
    each lane's last set bit across zero words and chunks, so the flight
    ending at a word's first set bit is its distance to that carried bit.
    The flights are tallied in pairs, a * 65 + b over the two halves of a
    chunk, by one bincount of 4225 bins folded back to 65, plus the odd one
    left over: half as many elements, spread over more bins.  Returns the
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
            base = w * np.arange(rows, dtype=carry.dtype)[:, None] + (w - 1 + 127)  # float32 exponent bias 127
        z, e, f, lw = zero[:rows], exponent[:rows], first[:rows], last[:rows + 1]
        b = e.view(np.int32)
        np.equal(words, 0, out=z)
        low = f.view(np.uint16)[:, :lanes]  # w & -w, in f's memory until f takes the first set bits
        np.negative(words, out=low)
        np.bitwise_and(low, words, out=low)
        np.copyto(e, low)
        np.right_shift(b, 23, out=b)
        np.subtract(base[:rows], b, out=lw[1:])  # last set bit: w * row + w - 1 - ctz(word)
        np.copyto(lw[1:], -(1 << 14), where=z)
        np.copyto(e, words)
        np.right_shift(b, 23, out=b)
        np.subtract(base[:rows], b, out=f)  # first set bit: w * row + w - 1 - floor_log2(word)
        if lanes == 1:  # accumulate is fast down one column, slow across many lanes
            np.maximum.accumulate(lw, axis=0, out=lw)
        else:
            for i in range(rows):
                np.maximum(lw[i], lw[i + 1], out=lw[i + 1])
        np.subtract(f, lw[:-1], out=f)
        np.copyto(f, 0, where=z)
        np.subtract(lw[-1], w * rows, out=last[0])
        if f.max() > 64 or last[0].min() < -64:  # before packing: a * 65 + b of larger flights may wrap int16
            raise ArithmeticError(f"flying time above 64 in orbit of 1 mod {q}")
        flat = f.ravel()
        h = flat.size // 2
        pairs = np.bincount(flat[:h] * 65 + flat[h:2 * h], minlength=65 * 65).reshape(65, 65)
        flights = pairs.sum(axis=0) + pairs.sum(axis=1) + np.bincount(flat[2 * h:], minlength=65)
        counts[1:] += flights[1:]
        word_hist[:1 << w] += np.bincount(words.ravel(), minlength=1 << w)
    return carry if last is None else last[0]


def _lane_words(k: int, digits: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    """Each chunk of k-bit lane digits as uint16 words of w = _word_bits(k) bits, high word first.

    k // w rows per digit: one for k = 16, two for even k of 24 to 32.
    """
    w = _word_bits(k)
    per_digit = k // w
    words = np.empty((_LANE_CHUNK * per_digit, _LANES), dtype=np.uint16)
    for chunk in digits:
        out = words[:len(chunk) * per_digit]
        by_digit = out.reshape(len(chunk), per_digit, _LANES)
        for h in reversed(range(per_digit)):  # low word last in time
            np.copyto(by_digit[:, h], chunk, casting="unsafe")
            np.right_shift(chunk, np.uint64(w), out=chunk)
        if w < 16:  # the low word took the high word's bits too
            np.bitwise_and(by_digit[:, -1], (1 << w) - 1, out=by_digit[:, -1])
        yield out


def _flight_counts_stream(q: int, n: int) -> np.ndarray:
    """Histogram (index 1..64) of flying times over the n-doubling orbit of 1.

    Gaps inside words come from _gap_table over the histogram of the words,
    over its occupied bins only when n <= 16 * _FEW_WORDS.  Gaps across
    words come from _read_flights: over the lane words of _word_bits(k) bits
    with int16 positions (a chunk has at most 16 rows), then over the bigint
    blocks' 16-bit words with int32 positions (up to 2**14 rows).  Before the first word
    from start residue x, the last wrap lies ctz(x) + 1 doublings back: a
    doubling wrapped exactly when the residue it produced is odd, since q is
    odd, and a residue halves with every step back from an even one.  So a
    flight across a lane join is counted once, in the later lane.  The orbit
    closes on a wrap, so the gaps between set bits are the flying times.
    """
    gap = _gap_table()  # first: building it lifts the allocator thresholds for the stream's buffers
    counts = np.zeros(65, dtype=np.int64)
    word_hist = np.zeros(65536, dtype=np.int64)
    k, starts, digits, blocks = _digit_sources(q, n, histogram=True)
    carry = -np.bitwise_count(starts ^ (starts - np.uint64(1))).astype(np.int32)  # -(ctz(x) + 1)
    _read_flights(q, _word_bits(k), _lane_words(k, digits), carry[:-1].astype(np.int16), counts, word_hist)
    columns = (np.frombuffer((d << -m % 16).to_bytes((m + 15) // 16 * 2, "big"), ">u2").reshape(-1, 1)
               for m, d in blocks)  # each block as one lane, its final partial word padded with zeros
    _read_flights(q, 16, columns, carry[-1:], counts, word_hist)
    # Row 0 is empty: no flight has length 0.  einsum, not @: integer matmul has no BLAS.
    bins = (word_hist != 0).nonzero()[0] if n <= 16 * _FEW_WORDS else slice(None)
    counts[1:16] += np.einsum("tw,w->t", gap[1:, bins], word_hist[bins])
    return counts


# ---------------------------------------------------------------------------
# Composite q: the orbit mod q from the orbits mod a and mod b.
#
# Let q = a*b with gcd(a, b) = 1, n_a and n_b the orders of 2 mod a and mod b,
# and g = gcd(n_a, n_b).  By the Chinese remainder theorem (Cohen, GTM 138,
# 1.3-1.4), 2**i mod q = (X[i mod n_a] + Y[i mod n_b]) mod q, with
# X[alpha] = b * (b**-1 * 2**alpha mod a) and Y[beta] = a * (a**-1 * 2**beta mod b),
# and a pair (alpha, beta) occurs for exactly one i < n = lcm(n_a, n_b): the
# one with alpha = beta (mod g).  A doubling wraps exactly when its residue
# exceeds q >> 1, and lands on an odd residue h whose flight is at least t
# exactly when h <= q >> (t - 1); the even residues of the orbit up to x are
# twice those up to x / 2.  So with N_j = #{i < n : 2**i mod q <= q >> j} and
# N_0 = n,
#     steps = n - N_1,    counts[t] = N_{t-1} - 2 N_t + N_{t+1},
# and each N_j counts pairs (X, Y): binary searches of the n_a short-side
# residues into the n_b long-side residues, sorted in blocks as narrow keys
# class * b + r (Y = a * r), stand for the n doublings of the stream.  _plan
# picks the split or the stream for each call; the stream stays the path of
# prime q, prime powers and splits whose long side is most of the orbit,
# and the tests' oracle for the split.
# ---------------------------------------------------------------------------

# Shortest orbit that may be split: below it, the count streams in about a
# millisecond and the histogram in a few.
_SPLIT_MIN_DOUBLINGS = 1 << 24

# Most residues of a split's short side, and of its long side; the long
# side's residues sorted together, and the short side's searched together
# level by level.  With both sides at their caps the cost model below
# prices a split at about 2**28 * (10.8 + 40 + 55 * 20) ns = 309 s (uint64
# keys; 307 s in uint32), under the 455 s of the slow tier's row 9a, the
# longest stream it runs.  Peak memory under tracemalloc, in MB: the
# stream's count 0.82, its histogram 4.37 at k = 32 (q = 4291434391) and
# 2.73 at k = 16 (q = 8599306381); the split's 2.15 for the count of
# q = 4398046511101 (sides of 36212 and 214176 residues), and, refilling
# one long-side block of uint32 keys, 1.25-1.31 for the histograms of
# 1928914067 (198 and 735665), 4224669655 (92 and 1525151) and
# 4398046511101 (2231 and 869088).  A histogram took, in ms, for long-side
# blocks of 2**15 / 2**16 / 2**17 / 2**18 / 2**19 / 2**20 residues:
# 18.4 / 12.4 / 8.8 / 6.9 / 6.7 / 5.8 for 1928914067, 27.5 / 18.8 / 14.2 /
# 9.9 / 9.5 / 10.4 for 4224669655, 67 / 48 / 41 / 37 / 36 / 37 for
# 2269084019 (21 and 6733186).  Short-side blocks of 2**11 to 2**15
# residues timed within 25% of each other.
_SPLIT_MAX_SHORT = 1 << 18
_SPLIT_MAX_LONG = 1 << 28
_SPLIT_LONG_BLOCK = 1 << 18
_SPLIT_BLOCK = 1 << 13

# The plan's cost model, in ns, on two shared vCPUs.  The bigint stream
# costs 0.8 (count) and 2.7 (histogram) a doubling (the _LANES table).  A
# lane step costs about the same at every digit width k, and the histogram's
# reader adds about the same per doubling at the word widths it reads (12 to
# 16 bits), so a lane doubling costs lane_step / k + lane_doubling.  Best of 5 calls at each bit
# length of q from 31 to 48 (n = 6.7e7, two runs): 1.86-2.28 ns a count's
# lane step (least squares 2.12, errors up to 14%), and for the histogram
# 0.38 + 2.38 / k (errors up to 6.4%).  The constants keep this shape but
# give k = 32 and k = 16 the prices that the split's constants below were
# set against (best of 3 calls on 16 random q with n = 1.8e7 .. 1.8e8, the
# lowest of each range: count 0.064 and 0.13, histogram 0.42 and 0.50):
#   k           32     30     28     26     24     20     16
#   count       0.065  0.069  0.074  0.080  0.086  0.103  0.129
#   histogram   0.420  0.425  0.431  0.438  0.447  -      0.500
# The split: a call, a long-side residue (priced per uint32 key; a uint64
# key costs twice as much, 12.4-13.1 against 6.8-7.1 ns a residue for
# long sides of 4.7e6 to 6.2e7), and per long-side block a short-side
# residue and that residue's search at each level it stays live.  Fitted
# by least relative squares to the count and the histogram of two samples
# of 120 and 100 random splits (a prime of 2**3 .. 2**18 times one of
# 2**14 .. 2**23.5, up to 30 blocks, uint32 keys): 164e3, 5.4, 40 and
# 55 ns, with measured over fitted times of 0.78-1.96 (counts) and
# 0.68-2.05 (histograms), rms 0.18.  A fifth term per block and level
# fitted to 1 us and left the rest unchanged.  The constants are the fit:
# in the same runs the stream took 5-17% more than the prices of
# _STREAM_NS, and over 240 in-band orbit q the plan splits 137 counts and
# 180 histograms, each in at most 0.87-0.89 of the stream's time in two
# runs (alternating calls, best of 3).  With a short side of a few hundred
# residues the model splits a histogram from about n / n_b = 15 and a count
# from about 85 (at k = 32; 42 at k = 16).
_STREAM_NS = {"bigint": (0.8, 2.7), "lane_step": (2.07, 2.56), "lane_doubling": (0.0, 0.34)}
_SPLIT_NS = (164e3, 5.4, 40.0, 55.0)

# Most doublings any stream runs: past it, _plan raises CapacityError.  Row
# 9a of the slow tier streams 2.2e12 doublings (455 s), row 9b 1.1e12
# (889 s); 2**42 = 4.4e12.  The split streams nothing; its own caps
# are _SPLIT_MAX_SHORT and _SPLIT_MAX_LONG.
_MAX_STREAM_DOUBLINGS = 1 << 42


class _Plan(NamedTuple):
    n: int  # the period: the order of 2 mod q
    path: str  # "lanes", "bigint" or "split"
    split: tuple[int, ...] = ()  # (a, b, n_a, n_b), n_a <= n_b, on the split path


def _plan(q: int, n: int, histogram: bool, factors: Optional[dict[int, int]] = None) -> _Plan:
    """How the steps, or with histogram the flights, of the n-doubling orbit mod q are counted.

    The split of _split_of when there is one, else the lane or bigint stream.
    factors is factor(q); only orbits of at least _SPLIT_MIN_DOUBLINGS below
    2**48 read it, and it is computed here when not given.  Raises
    CapacityError for a stream of more than _MAX_STREAM_DOUBLINGS doublings.
    """
    if n >= _SPLIT_MIN_DOUBLINGS and q < 2**48:
        split = _split_of(q, n, histogram, factor(q) if factors is None else factors)
        if split:
            return _Plan(n, "split", split)
    if n > _MAX_STREAM_DOUBLINGS:
        raise CapacityError(f"the period of 1/{q} is n = {n}, and streaming it exceeds "
                            f"the cap of {_MAX_STREAM_DOUBLINGS} doublings")
    return _Plan(n, "lanes" if _lane_bits(q, n, histogram) else "bigint")


def _stream_ns(q: int, n: int, histogram: bool) -> float:
    """The plan's price in ns of one doubling of the stream that would run: lane_step / k + lane_doubling in lanes."""
    k = _lane_bits(q, n, histogram)
    if not k:
        return _STREAM_NS["bigint"][histogram]
    return _STREAM_NS["lane_step"][histogram] / k + _STREAM_NS["lane_doubling"][histogram]


def _split_of(q: int, n: int, histogram: bool, factors: dict[int, int]) -> tuple[int, ...]:
    """The coprime split (a, b, n_a, n_b) of q that costs least, or () if the stream costs less.

    Every split of the prime powers of q into two sides is costed with
    _SPLIT_NS, for one level (the count) or for the levels that a histogram's
    searches stay live in a long-side block (log2(block / g) + 2 of them),
    against the stream's _STREAM_NS per doubling, a uint64 long-side key at
    twice the price of a uint32 one (_key_dtype).  A split is left out when
    its short side holds more than _SPLIT_MAX_SHORT residues, its long side
    more than _SPLIT_MAX_LONG, or when its keys, up to g * b - 1, would not
    fit uint64.
    """
    if len(factors) < 2:
        return ()
    parts = [(p**e, _order(p**e, {p: e})) for p, e in factors.items()]
    best, best_ns = (), n * _stream_ns(q, n, histogram)
    call_ns, long_ns, short_ns, search_ns = _SPLIT_NS
    for mask in range(1, 1 << (len(parts) - 1)):  # the last part stays on side b
        a = b = n_a = n_b = 1
        for i, (m, order) in enumerate(parts):
            if mask >> i & 1:
                a, n_a = a * m, math.lcm(n_a, order)
            else:
                b, n_b = b * m, math.lcm(n_b, order)
        if n_a > n_b:
            a, b, n_a, n_b = b, a, n_b, n_a
        g = math.gcd(n_a, n_b)
        if n_a > _SPLIT_MAX_SHORT or n_b > _SPLIT_MAX_LONG or g * b >= 2**64:
            continue
        size = max(1, _SPLIT_LONG_BLOCK // g) * g
        levels = min(math.log2(min(n_b, size) / g) + 2, q.bit_length() - 1) if histogram else 1
        long_key_ns = long_ns * np.dtype(_key_dtype(g, b)).itemsize / 4
        ns = call_ns + long_key_ns * n_b + -(-n_b // size) * (short_ns + search_ns * levels) * n_a
        if ns < best_ns:
            best, best_ns = (a, b, n_a, n_b), ns
    return best


def _key_dtype(g: int, b: int) -> type[np.unsignedinteger]:
    """Width of a split's keys class * b + r < g * b: uint32 when they fit and 2r < 2**32, else uint64."""
    return np.uint32 if g * b < 2**32 and b < 2**31 else np.uint64


def _long_rows(g: int, count: int) -> int:
    """Rows of doublings that lay out a long-side block of count residues in at most _LANES lanes.

    A multiple of g when g is at most that many rows, so that each row holds
    one class; otherwise the class varies along a row as well.
    """
    rows = -(-count // _LANES)
    return -(-rows // g) * g if rows >= g else rows


def _long_keys(a: int, b: int, start: int, keys: np.ndarray, classes: np.ndarray) -> np.ndarray:
    """keys, filled with class * b + r for the long side's beta = start + lane * rows + row.

    keys is (rows, lanes), uint32 or uint64, and start a multiple of g.  r is
    a**-1 * 2**beta mod b, so that Y[beta] = a * r and class * q + Y =
    a * (class * b + r): the keys sort as the Y of each class do.  Row 0
    holds the lane starts from _powers; each later row doubles the one above,
    r = min(2r, 2r - b), where 2r - b wraps above 2r when 2r < b.  classes
    holds class * b for each row, or for each row and lane when g does not
    divide the rows (the class is beta mod g).
    """
    rows, lanes = keys.shape
    keys[0] = _powers(pow(a, -1, b) * pow(2, start, b) % b, pow(2, rows, b), b, np.empty(lanes, dtype=np.uint64))
    step, wrapped = keys.dtype.type(b), np.empty(lanes, dtype=keys.dtype)
    for i in range(1, rows):
        np.add(keys[i - 1], keys[i - 1], out=keys[i])
        np.subtract(keys[i], step, out=wrapped)
        np.minimum(keys[i], wrapped, out=keys[i])
    keys += classes[:, :lanes]
    return keys


def _split_levels(q: int, split: tuple[int, ...], top: int) -> np.ndarray:
    """N_0 .. N_top, N_j = #{i < n : 2**i mod q <= q >> j}, from the split (a, b, n_a, n_b).

    The long side's Y = a * r are taken in blocks of at most
    _SPLIT_LONG_BLOCK residues, a multiple of g, each sorted as the keys
    class * b + r of _long_keys, class = beta mod g, at the width of
    _key_dtype.  A block is laid out in _long_rows rows of doublings; a
    last lane that ends part way down is padded with the dtype's maximum,
    which sorts past the block.  For one X of class c and L = q >> j, the
    pairs of a block with (X + Y) mod q <= L are its Y of class c with
    Y <= (L - X) mod q, less those with Y <= q - 1 - X, plus the block's
    whole class when X <= L: one binary search a level.  A bound Y <= T is
    r <= floor(T / a), the key c * b + floor(T / a): with X = a * qx + rx
    and L = a * qL + rL, floor((L - X) / a) = qL - qx - (rx > rL), plus b
    when X > L, and floor((q - 1 - X) / a) = b - 1 - qx, so qx and rx are
    taken once and no division runs per level.  The keys are worked in the
    dtype's wrapping arithmetic, exact since each lies in 0 .. g * b - 1.
    These windows shrink as j grows, so an X whose window in a block holds
    no Y is dropped from that block's later levels; once few X are live, one
    search takes several levels at once, up to _SPLIT_BLOCK keys.  The short
    side is sorted by class and then X descending, which puts each level's
    search keys in two ascending runs a class and keeps the searches in
    cache: 2-3 times faster than keys in random order.
    """
    a, b, n_a, n_b = split
    g = math.gcd(n_a, n_b)
    dtype = np.dtype(_key_dtype(g, b))
    key = dtype.type
    # The short side: X[alpha] has class alpha mod g, the column of a row of g.
    x = _powers(pow(b, -1, a), 2, a, np.empty(n_a, dtype=np.uint64)).view(np.int64)
    x *= b
    x = np.sort(x.reshape(-1, g).T)[:, ::-1].ravel()
    qx, rx = np.divmod(x, a)
    # (c + 1) * b - qx: the key of a bound L - X + q, less qL and the borrow.
    outside = (np.repeat(np.arange(1, g + 1, dtype=np.int64) * b, n_a // g) - qx).astype(dtype)
    bound = (np.int64(q) >> np.arange(top + 1))[:, None]  # L = q >> j, a column
    q_l, r_l = np.divmod(bound, a)
    q_l = q_l.astype(dtype)
    levels = np.zeros(top + 1, dtype=np.int64)
    levels[0] = n_a * n_b // g
    size = max(1, _SPLIT_LONG_BLOCK // g) * g
    rows = _long_rows(g, min(size, n_b))
    lanes = -(-min(size, n_b) // rows)
    classes = ((np.arange(rows)[:, None] + rows * np.arange(lanes if rows % g else 1)) % g * b).astype(dtype)
    block = np.empty(rows * lanes, dtype=dtype)  # refilled for each block
    for start in range(0, n_b, size):
        count = min(size, n_b - start)
        used = -(-count // rows)
        keys = block[:rows * used]
        _long_keys(a, b, start, keys.reshape(rows, used), classes)
        keys.reshape(rows, used)[count - (used - 1) * rows:, -1] = np.iinfo(dtype).max  # past the block
        keys.sort()
        keys = keys[:count]
        per_class = count // g
        for first in range(0, n_a, _SPLIT_BLOCK):
            outs, xs, rs = (v[first:first + _SPLIT_BLOCK] for v in (outside, x, rx))
            lo = np.searchsorted(keys, outs - key(1), "right")  # c * b + b - 1 - qx
            j = 1
            while j <= top and len(outs):
                stop = min(j + max(1, _SPLIT_BLOCK // len(outs)), top + 1)
                inside = xs <= bound[j:stop]
                window = outs + q_l[j:stop]
                window -= inside * key(b)
                window -= rs > r_l[j:stop]
                window = np.searchsorted(keys, window, "right")
                window -= lo
                window += per_class * inside
                levels[j:stop] += window.sum(axis=1)
                live = window[-1] > 0
                if not live.all():
                    outs, xs, rs, lo = outs[live], xs[live], rs[live], lo[live]
                j = stop
    return levels


def _flight_counts_split(q: int, split: tuple[int, ...]) -> np.ndarray:
    """_flight_counts_stream's histogram from the split: counts[t] = N_{t-1} - 2 N_t + N_{t+1}.

    N_j = 0 from j = s = bit length of q on: every residue is at least 1.
    """
    s = q.bit_length()
    levels = np.zeros(s + 2, dtype=np.int64)
    levels[:s] = _split_levels(q, split, s - 1)
    counts = np.zeros(65, dtype=np.int64)
    counts[1:s + 1] = levels[:-2] - 2 * levels[1:-1] + levels[2:]
    return counts


def _period(q: int, plan: _Plan) -> PeriodResult:
    """The period and steps of 1/q on the path of plan (histogram=False)."""
    if plan.split:
        return PeriodResult(q, plan.n, plan.n - int(_split_levels(q, plan.split, 1)[1]))
    return PeriodResult(q, plan.n, _count_reductions(q, plan.n))


def _plan_of(q: int, histogram: bool) -> _Plan:
    """The plan for 1/q after checking q (q >= 5 for a histogram), from one factor(q).

    The order comes from the factorization, and _plan reads the same one.
    """
    _check_modulus(q, minimum=5 if histogram else 3)
    factors = factor(q)
    return _plan(q, _order(q, factors), histogram, factors)


def period_of(q: int, *, plan: Optional[_Plan] = None) -> PeriodResult:
    """Period of 1/q under the doubling map, for any odd q >= 3.

    The period is the order of 2 from factor(q); the steps come from the path
    that _plan picks, the split or the stream.  Both equal what the stepping
    algorithms above return, which the tests hold them to.  Raises
    CapacityError for a stream over _MAX_STREAM_DOUBLINGS doublings.  plan
    is _plan_of(q, False) when the caller has built it already, as the CLI
    does to report its path; otherwise it is built here.
    """
    return _period(q, _plan_of(q, False) if plan is None else plan)


def period_capped(q: int, cap: int) -> Optional[PeriodResult]:
    """period_of, or None when the period exceeds cap."""
    _check_modulus(q)
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    factors = factor(q)
    n = _order(q, factors)
    if n > cap:
        return None
    return _period(q, _plan(q, n, False, factors))


def flying_time_histogram(q: int, *, plan: Optional[_Plan] = None) -> FlyingTimeHistogram:
    """Frequency of every flying time along the full cycle of 1 in Z_q.

    plan is _plan_of(q, True) when the caller has built it already, as for
    period_of.
    """
    plan = _plan_of(q, True) if plan is None else plan
    arr = _flight_counts_split(q, plan.split) if plan.split else _flight_counts_stream(q, plan.n)
    return FlyingTimeHistogram(q, {t: int(arr[t]) for t in range(1, 65) if arr[t]})


def is_complete_wrt_flying_times(q: int) -> bool:
    """Whether every flying time 1..s occurs for 1/q, where 2**(s-1) < q < 2**s."""
    hist = flying_time_histogram(q)
    s = floor_log2(q) + 1
    return all(t in hist.counts for t in range(1, s + 1))
