"""Brute-force reference computations the tests check the library against.

Everything here is deliberately independent of the implementations under
test: exact unbounded-int arithmetic for single steps, plain repeated
doubling for orders, and trial division for primality.  The one exception
is the divisor oracle for the census, which factors Mersenne numbers with
the kernel's factor and _rho: it finds orders from divisors, with no
doubling at all.
"""

from functools import cache
from math import isqrt

import numpy as np

from mersenne_doubling.primality import _rho, factor


def order_by_doubling(q: int) -> int:
    """Multiplicative order of 2 mod q by repeated overflow-safe doubling."""
    qh = (q - 1) >> 1
    r = 1
    n = 0
    while True:
        r = r + r if r <= qh else r - (q - r)
        n += 1
        if r == 1:
            return n


def orders_by_doubling_vector(qs) -> np.ndarray:
    """order_by_doubling across many odd moduli at once (lanes retire as they finish)."""
    qs = np.asarray(qs, dtype=np.uint64)
    out = np.zeros(qs.size, dtype=np.int64)
    idx = np.arange(qs.size)
    qh = (qs - 1) >> 1
    r = np.ones_like(qs)
    j = 0
    while idx.size:
        j += 1
        r = np.where(r <= qh, r + r, r - (qs - r))
        done = r == 1
        if done.any():
            out[idx[done]] = j
            keep = ~done
            idx, r, qs, qh = idx[keep], r[keep], qs[keep], qh[keep]
    return out


def first_returns_capped(qs, cap: int) -> np.ndarray:
    """tally[j] = how many q in qs have order j <= cap, by doubling every lane from r = 1.

    No prefix is skipped: each lane takes every one of its first cap steps,
    and retires at its first return to 1.
    """
    qs = np.asarray(qs, dtype=np.uint64)
    qh = (qs - 1) >> 1
    r = np.ones_like(qs)
    tally = np.zeros(cap + 1, dtype=np.int64)
    for j in range(1, cap + 1):
        r = np.where(r <= qh, r + r, r - (qs - r))
        done = r == 1
        found = int(np.count_nonzero(done))
        if found:
            tally[j] = found
            keep = ~done
            r, qs, qh = r[keep], qs[keep], qh[keep]
    return tally


def poincare_step_exact(r: int, q: int) -> tuple[int, int]:
    """Return-map step by exact integers: double r until it reaches q, subtract q."""
    v = r + r
    ft = 1
    while v < q:
        v += v
        ft += 1
    return v - q, ft


def flying_times_exact(q: int) -> list[int]:
    """All flying times over the cycle of 1, via the exact-integer step."""
    times = []
    r = 1
    while True:
        r, ft = poincare_step_exact(r, q)
        times.append(ft)
        if r == 1:
            return times


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, isqrt(n) + 1))


def smallest_prime_factors(limit: int) -> np.ndarray:
    """spf[n] = the smallest prime dividing n, for 2 <= n <= limit (sieve of Eratosthenes)."""
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == 0:  # no smaller prime marked p, so p is prime
            multiples = spf[p * p::p]
            multiples[multiples == 0] = p
    n = np.arange(limit + 1, dtype=np.int64)
    return np.where(spf == 0, n, spf)


def factor_by_sieve(n: int, spf: list[int]) -> dict[int, int]:
    """{p: e} of 1 <= n < len(spf), by dividing out spf[n] until 1 is left."""
    factors: dict[int, int] = {}
    while n > 1:
        p = spf[n]
        factors[p] = factors.get(p, 0) + 1
        n //= p
    return factors


def composite_mask_by_trial_division(limit: int) -> np.ndarray:
    """mask[n] is True when some divisor d with d*d <= n divides n."""
    n = np.arange(limit + 1, dtype=np.int64)
    composite = np.zeros(limit + 1, dtype=bool)
    for d in range(2, isqrt(limit) + 1):
        composite |= (n % d == 0) & (d * d <= n)
    return composite


def mersenne_is_prime_trial(j: int) -> bool:
    """Whether M(j) = 2**j - 1 is prime, by trial division over all odd d <= sqrt."""
    m = (1 << j) - 1
    root = isqrt(m)
    m64 = np.uint64(m)
    d = 3
    chunk = 1 << 24
    while d <= root:
        hi = min(root, d + 2 * (chunk - 1))
        divisors = np.arange(d, hi + 1, 2, dtype=np.uint64)
        if (m64 % divisors == 0).any():
            return False
        d = hi + 2
    return True


@cache
def factor_any(n: int) -> dict[int, int]:
    """{p: e} of n >= 1, whose prime factors must all lie below 2**64.

    A part of 2**64 or more is split by primality._rho until factor can take
    each piece.  rho never returns on a prime, so such a part must first
    fail a base-3 Fermat test: a prime factor of 2**64 or more fails the
    assertion instead of hanging.  Every M(j), j <= 73, passes, each within
    a few milliseconds.
    """
    factors: dict[int, int] = {}
    pending = [n]
    while pending:
        m = pending.pop()
        if m < 2**64:
            for p, e in factor(m).items():
                factors[p] = factors.get(p, 0) + e
        else:
            assert pow(3, m - 1, m) != 1, f"{n} may have a prime factor {m} >= 2**64"
            d = _rho(m)
            pending += [d, m // d]
    return factors


def divisors(n: int) -> list[int]:
    """Every divisor of n, from factor_any."""
    found = [1]
    for p, e in factor_any(n).items():
        found = [d * p**k for d in found for k in range(e + 1)]
    return found


def has_order(q: int, n: int) -> bool:
    """Whether 2 has order exactly n mod a divisor q of 2**n - 1."""
    return all(pow(2, n // p, q) != 1 for p in factor(n))


def first_returns_by_divisors(qs: range, cap: int) -> np.ndarray:
    """tally[j] = how many q in qs, odd q >= 3, have order j <= cap, from the divisors of M(j).

    q has order j exactly when it divides M(j) and no M(j/p) for a prime
    p | j, so no q of the range is stepped: the tally is exact for a range
    of any length.
    """
    tally = np.zeros(cap + 1, dtype=np.int64)
    for j in range(2, cap + 1):
        tally[j] = sum(1 for d in divisors((1 << j) - 1) if d in qs and has_order(d, j))
    return tally


def tally_by_divisors(n0: int) -> dict[int, int]:
    """v(j), j = 3..n0, of the census of n0: its candidates q = +-1 (mod 8) from 7 to isqrt(M(n0))."""
    bound = isqrt((1 << n0) - 1)
    tally = sum(first_returns_by_divisors(range(first, bound + 1, 8), n0) for first in (7, 9))
    return {j: int(tally[j]) for j in range(3, n0 + 1)}
