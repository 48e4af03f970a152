"""Brute-force reference computations the tests check the library against.

Everything here is deliberately independent of the implementations under
test: exact unbounded-int arithmetic for single steps, plain repeated
doubling for orders, and trial division for primality.
"""

from math import isqrt

import numpy as np


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
