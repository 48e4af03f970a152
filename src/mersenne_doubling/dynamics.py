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

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

import numpy as np

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
# Order search and wrap-bit stream.
#
# The period is found by a baby-step/giant-step search for the least n with
# 2**n = 1 (mod q); steps and flying times are then recovered by replaying
# the n doublings in big blocks.  One block of k doublings starting from
# residue x is a single divmod:  x << k = quotient * q + new_x,  and the
# binary digits of the quotient mark exactly the doublings that wrapped past
# q.  Reduction count = popcount, flying times = gaps between set bits.
# ---------------------------------------------------------------------------

# period_of keeps q below this on period_hybrid, although that loop costs
# about 5x more per q than the order search and stream just above 2**16
# (perfbench/findings.py, finding 1).
_ENGINE_MIN_Q = 1 << 16
_BABY_LIMIT = 1 << 20
_GIANT_BATCH = 1 << 12
_STREAM_BLOCK = 1 << 18     # doublings per divmod block; multiple of 16


def _order_search(q: int, limit: int) -> Optional[int]:
    """Least n in [1, limit] with 2**n = 1 (mod q), or None if none exists.

    Baby steps store 2**j (mod q) for j < B; giant steps scan 2**(i*B) and a
    match at baby j pins n = i*B - j.  Memory is O(B) with B at most 2**20.
    """
    qh = (q - 1) >> 1
    n_baby = min(_BABY_LIMIT, math.isqrt(limit) + 1)
    baby = np.empty(n_baby, dtype=np.uint64)
    r = 1
    for j in range(n_baby):
        baby[j] = r
        r = r + r if r <= qh else r - (q - r)
        if r == 1:
            n = j + 1
            return n if n <= limit else None
    # No repeat of 1 among the babies, so the order is >= n_baby and the
    # baby values are pairwise distinct.
    srt = np.argsort(baby)
    sorted_baby = baby[srt]
    mult = pow(2, n_baby, q)
    y = 1
    batch = np.empty(_GIANT_BATCH, dtype=np.uint64)
    giants_done = 0
    last_giant = limit // n_baby + 1
    while giants_done * n_baby <= limit:
        g = min(_GIANT_BATCH, last_giant - giants_done)
        for b in range(g):
            y = y * mult % q
            batch[b] = y
        pos = np.searchsorted(sorted_baby, batch[:g])
        pos[pos == n_baby] = 0
        hits = np.flatnonzero(sorted_baby[pos] == batch[:g])
        if hits.size:
            h = int(hits[0])
            n = (giants_done + h + 1) * n_baby - int(srt[pos[h]])
            return n if n <= limit else None
        giants_done += g
    return None


def _order(q: int) -> int:
    n = _order_search(q, q - 1)
    assert n is not None  # the order of 2 divides lambda(q) <= q - 1
    return n


def _wrap_blocks(q: int, n: int) -> Iterator[tuple[int, int, int]]:
    """The n doublings of the orbit of 1 as (start, length, wrap bits) blocks.

    The wrap bits of a block are its divmod quotient, first doubling in the
    most significant of its length bits.  Raises ArithmeticError after the
    last block if the orbit has not returned to 1.
    """
    x = 1
    done = 0
    while done < n:
        k = min(_STREAM_BLOCK, n - done)
        quotient, x = divmod(x << k, q)
        yield done, k, quotient
        done += k
    if x != 1:
        raise ArithmeticError(f"orbit of 1 mod {q} did not close after {n} doublings")


def _count_reductions(q: int, n: int) -> int:
    """Number of wrapped doublings among the n doublings closing the orbit of 1."""
    return sum(quotient.bit_count() for _, _, quotient in _wrap_blocks(q, n))


_WORD_TABLES: Optional[tuple[np.ndarray, np.ndarray, np.ndarray]] = None


def _word_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """LUTs over 16-bit words of the wrap stream, built from byte tables.

    Words are read most significant bit first (chronological order).  Returns
    (gap, lead, trail): gap[w] is the histogram of distances between adjacent
    set bits inside w, lead/trail the zero runs at its ends (16 for w = 0).
    """
    global _WORD_TABLES
    if _WORD_TABLES is not None:
        return _WORD_TABLES
    lead8 = np.full(256, 8, dtype=np.int64)
    trail8 = np.full(256, 8, dtype=np.int64)
    gap8 = np.zeros((256, 9), dtype=np.int64)
    for v in range(1, 256):
        bits = [i for i in range(8) if v & (0x80 >> i)]
        lead8[v] = bits[0]
        trail8[v] = 7 - bits[-1]
        for a, b in zip(bits, bits[1:]):
            gap8[v, b - a] += 1
    w = np.arange(65536)
    hi = w >> 8
    lo = w & 255
    lead = np.where(hi > 0, lead8[hi], 8 + lead8[lo])
    trail = np.where(lo > 0, trail8[lo], 8 + trail8[hi])
    gap = np.zeros((65536, 17), dtype=np.int64)
    gap[:, :9] += gap8[hi]
    gap[:, :9] += gap8[lo]
    both = (hi > 0) & (lo > 0)
    cross = trail8[hi] + lead8[lo] + 1
    np.add.at(gap, (w[both], cross[both]), 1)
    _WORD_TABLES = (gap, lead, trail)
    return _WORD_TABLES


def _flight_counts_stream(q: int, n: int) -> np.ndarray:
    """Histogram (index 1..64) of flying times over the n-doubling orbit of 1.

    Streams the wrap bits block by block; gaps inside 16-bit words come from
    lookup tables, gaps spanning words from the positions of the nonzero
    words.  The step before a wrap is always the end of a flight, and the
    orbit closes on a wrap, so gaps between consecutive set bits (seeded at
    position -1) are exactly the flying times.
    """
    gap_lut, lead_lut, trail_lut = _word_tables()
    counts = np.zeros(65, dtype=np.int64)
    word_hist = np.zeros(65536, dtype=np.int64)
    prev = -1
    for done, k, quotient in _wrap_blocks(q, n):
        n_words = (k + 15) >> 4
        quotient <<= n_words * 16 - k  # right-pad the final partial word with zeros
        words = np.frombuffer(quotient.to_bytes(n_words * 2, "big"), dtype=">u2")
        nz = np.flatnonzero(words)
        if nz.size:
            vals = words[nz].astype(np.int64)
            word_hist += np.bincount(vals, minlength=65536)
            lead = lead_lut[vals]
            trail = trail_lut[vals]
            if nz.size > 1:
                span = trail[:-1] + lead[1:] + (np.diff(nz) - 1) * 16 + 1
                if int(span.max()) > 64:
                    raise ArithmeticError(f"flying time above 64 in orbit of 1 mod {q}")
                counts += np.bincount(span, minlength=65)[:65]
            first = done + int(nz[0]) * 16 + int(lead[0])
            if first - prev > 64:
                raise ArithmeticError(f"flying time above 64 in orbit of 1 mod {q}")
            counts[first - prev] += 1
            prev = done + int(nz[-1]) * 16 + 15 - int(trail[-1])
    counts[:17] += word_hist @ gap_lut
    return counts


def period_of(q: int) -> PeriodResult:
    """Period of 1/q under the doubling map, for any odd q >= 3.

    q = 3 is the constant-period-2 special case.  q below 2**16 run the
    stepping algorithm period_hybrid; larger q the order search and the
    wrap-bit stream, which return the identical result far faster.
    """
    _check_modulus(q)
    if q == 3:
        return PeriodResult(3, 2, 1)
    if q < _ENGINE_MIN_Q:
        return period_hybrid(q)
    n = _order(q)
    return PeriodResult(q, n, _count_reductions(q, n))


def period_capped(q: int, cap: int) -> Optional[PeriodResult]:
    """period_of, or None when the period exceeds cap."""
    _check_modulus(q)
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    n = _order_search(q, min(cap, q - 1))
    if n is None:
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
