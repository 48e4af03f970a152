"""Census-based primality test for all Mersenne numbers M(j), prime j <= n0.

Every odd divisor candidate q <= floor(sqrt(M(n0))) with q = +-1 (mod 8) has
its doubling period computed, capped at n0 since larger periods are
irrelevant.  v(j) counts the candidates of period exactly j.  For prime j,
M(j) is prime exactly when v(j) = 0, or v(j) = 1 with M(j) itself below the
square-root bound (the lone witness then being M(j), which always has period
j).  Two or more witnesses mean a proper divisor exists.
"""

from __future__ import annotations

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

_DEFAULT_CHUNK = 1 << 21


def sqrt_of_mersenne(n0: int) -> int:
    """Exact floor(sqrt(2**n0 - 1)) for prime n0 up to 127."""
    if n0 > MAX_EXPONENT:
        raise CapacityError(f"candidate bound for n0={n0} exceeds 64 bits (max n0={MAX_EXPONENT})")
    if n0 < 3:
        raise ValueError(f"the test needs n0 >= 3, got {n0}")
    if not is_prime64(n0):
        raise ValueError(f"the test needs a prime n0, got {n0}")
    return isqrt((1 << n0) - 1)


def candidate_count(n0: int) -> int:
    """Number of divisor candidates: odd q = +-1 (mod 8), 3 <= q <= sqrt bound."""
    bound = sqrt_of_mersenne(n0)
    total = 0
    for first in (7, 9):
        if bound >= first:
            total += (bound - first) // 8 + 1
    return total


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

    Lanes double in parallel with the overflow-safe reduction; a lane whose
    residue first returns to 1 at step j contributes to v(j) and is then
    retired from the tally (its residue keeps cycling harmlessly).
    """
    qs = first_q + 8 * np.arange(count, dtype=np.uint64)
    qh = (qs - 1) >> 1
    r = np.ones_like(qs)
    alive = np.ones(count, dtype=bool)
    v = np.zeros(n0 + 1, dtype=np.int64)
    for j in range(1, n0 + 1):
        r = np.where(r <= qh, r + r, r - (qs - r))
        hit = alive & (r == 1)
        found = int(np.count_nonzero(hit))
        if found:
            v[j] += found
            alive &= ~hit
    return v


def _block_args(n0: int, bound: int, chunk: int) -> list[tuple[int, int, int]]:
    tasks = []
    for first in (7, 9):
        if bound < first:
            continue
        count = (bound - first) // 8 + 1
        offset = 0
        while offset < count:
            size = min(chunk, count - offset)
            tasks.append((first + 8 * offset, size, n0))
            offset += size
    return tasks


def run_census(n0: int, workers: int = 1, chunk: int = _DEFAULT_CHUNK) -> MersenneCensus:
    """Count period-j witnesses over all candidates and turn them into verdicts."""
    bound = sqrt_of_mersenne(n0)
    v = np.zeros(n0 + 1, dtype=np.int64)
    tasks = _block_args(n0, bound, chunk)
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for part in pool.map(_census_block, *zip(*tasks)):
                v += part
    else:
        for args in tasks:
            v += _census_block(*args)

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
